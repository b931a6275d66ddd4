"""Minor search engine, bidimensionality, canonical codes.

The engine is cross-checked against an independent oracle that enumerates
every assignment of host vertices to pattern vertices (or to "unused") and
tests the model invariants directly. That is exhaustive for small hosts, so
agreement on random instances checks both presence and absence answers.
"""

import itertools
import random
import sys

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorkit import minors
from minorkit.constructions import wall
from minorkit.decomposition import _min_fill_order, _minor_min_width
from minorkit.errors import BudgetExceeded, PreconditionViolated, SearchCapExceeded
from minorkit.folios import candidate_patterns
from minorkit.graphs import AnnotatedGraph, Graph, RootedGraph, induced_subgraph, neighbor_masks
from minorkit.minors import (
    MinorModel,
    bidim,
    canonical_code,
    canonical_form,
    find_minor,
    find_red_minor,
    find_rooted_minor,
    verify_minor_model,
)
from test_plane import kuratowski_subdivisions


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def isomorphic(g1, g2):
    """Plain graph isomorphism at gadget scale, via canonical codes."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if sorted(g1.degree(v) for v in g1.vertices()) != sorted(
        g2.degree(v) for v in g2.vertices()
    ):
        return False
    return canonical_code(RootedGraph(g1, ())) == canonical_code(RootedGraph(g2, ()))


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a, b):
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def grid_graph(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def random_graph(n, p, rng):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


def relabel(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _connected_subset(g, block):
    if not block:
        return False
    block = set(block)
    seen = {next(iter(block))}
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for w in g.neighbors(v):
            if w in block and w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen == block


def oracle_minor(host, pattern, required=None, red=None):
    """Exhaustive minor test: every host-vertex labeling is examined."""
    p = pattern.n
    if p == 0:
        return True
    for labeling in itertools.product(range(p + 1), repeat=host.n):
        blocks = [set() for _ in range(p)]
        for v, lab in enumerate(labeling):
            if lab < p:
                blocks[lab].add(v)
        if any(not b for b in blocks):
            continue
        if required is not None and any(
            not req <= blocks[q] for q, req in enumerate(required)
        ):
            continue
        if red is not None and any(not (b & red) for b in blocks):
            continue
        if any(not _connected_subset(host, b) for b in blocks):
            continue
        ok = True
        for a, b in pattern.edges:
            if not any(host.has_edge(x, y) for x in blocks[a] for y in blocks[b]):
                ok = False
                break
        if ok:
            return True
    return False


# --- verify_minor_model -----------------------------------------------------


def test_verify_accepts_identity_model():
    g = cycle_graph(4)
    model = MinorModel(tuple(frozenset({v}) for v in range(4)))
    assert verify_minor_model(g, g, model)


def test_verify_rejects_bad_models():
    host = path_graph(4)
    pattern = path_graph(2)
    assert not verify_minor_model(host, pattern, MinorModel((frozenset({0, 2}), frozenset({3}))))
    assert not verify_minor_model(host, pattern, MinorModel((frozenset({0}), frozenset({0}))))
    assert not verify_minor_model(host, pattern, MinorModel((frozenset({0}), frozenset({2}))))
    assert not verify_minor_model(host, pattern, MinorModel((frozenset(), frozenset({1}))))
    assert not verify_minor_model(host, pattern, MinorModel((frozenset({0}),)))
    assert not verify_minor_model(host, pattern, MinorModel((frozenset({0}), frozenset({9}))))


# --- plain minors ------------------------------------------------------------


def test_c4_is_minor_of_k4():
    model = find_minor(complete_graph(4), cycle_graph(4))
    assert model is not None
    assert verify_minor_model(complete_graph(4), cycle_graph(4), model)


def test_k3_is_minor_of_c4_by_contraction():
    # contracting one cycle edge leaves a triangle; exhaustive oracle agrees
    model = find_minor(cycle_graph(4), complete_graph(3))
    assert model is not None
    assert verify_minor_model(cycle_graph(4), complete_graph(3), model)
    assert oracle_minor(cycle_graph(4), complete_graph(3))


def test_k3_is_not_minor_of_any_tree():
    assert find_minor(path_graph(4), complete_graph(3)) is None
    assert find_minor(star_graph(4), complete_graph(3)) is None


def test_k4_in_3x3_grid():
    host = grid_graph(3, 3)
    model = find_minor(host, complete_graph(4))
    assert model is not None and verify_minor_model(host, complete_graph(4), model)


def test_k5_not_in_4x4_grid():
    assert find_minor(grid_graph(4, 4), complete_graph(5)) is None


def test_a_search_past_the_recursion_limit_raises_the_cap_error():
    # the branch set grows one vertex per level along the 1200-vertex path
    host = RootedGraph(path_graph(1200), (0, 1199))
    pattern = RootedGraph(Graph(2, [(0, 1)]), (0, 1))
    with pytest.raises(SearchCapExceeded):
        find_rooted_minor(host, pattern)


@st.composite
def graphs(draw, max_n):
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph(n, [e for e in pairs if draw(st.booleans())])


@settings(max_examples=150, deadline=None)
@given(graphs(8), graphs(6))
def test_the_treewidth_cut_keeps_every_answer(host, pattern):
    assert find_minor(host, pattern) == minors._search_model(host, pattern)


def count_searches(monkeypatch):
    calls = []
    search = minors._search_model

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(minors, "_search_model", counted)
    return calls


@pytest.mark.parametrize(
    "host, pattern",
    [
        (grid_graph(3, 4), complete_graph(5)),
        (grid_graph(2, 6), complete_graph(4)),
        (grid_graph(2, 6), complete_bipartite(3, 3)),
        (grid_graph(2, 6), grid_graph(3, 3)),
        (grid_graph(2, 5), complete_graph(4)),
        (wall(2).graph, complete_bipartite(3, 3)),
    ],
)
def test_a_host_of_lower_treewidth_is_answered_without_a_search(monkeypatch, host, pattern):
    calls = count_searches(monkeypatch)
    assert find_minor(host, pattern) is None
    assert calls == []


@pytest.mark.parametrize(
    "host, pattern",
    [
        (grid_graph(3, 4), complete_bipartite(3, 3)),
        (grid_graph(3, 5), complete_bipartite(3, 3)),
        (grid_graph(4, 4), complete_graph(5)),
        (grid_graph(4, 5), complete_graph(5)),
    ],
)
def test_a_planar_host_answers_a_non_planar_pattern_without_a_search(
    monkeypatch, host, pattern
):
    # both treewidth bounds are equal, or the host is the wider: only
    # planarity decides these
    calls = count_searches(monkeypatch)
    assert find_minor(host, pattern) is None
    assert calls == []


def wagner_graph():
    """V8: the 8-cycle with its four long diagonals."""
    return Graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])


def test_k5_in_the_wagner_graph_is_still_searched(monkeypatch):
    # V8 is not planar, and its min-fill width 4 equals K5's minor-min-width
    calls = count_searches(monkeypatch)
    assert find_minor(wagner_graph(), complete_graph(5)) is None
    assert len(calls) == 1


def test_rooted_and_red_searches_never_test_planarity(monkeypatch):
    def refuse(g):
        raise AssertionError("planarity tested")

    monkeypatch.setattr(minors, "planar_embedding", refuse)
    k33 = complete_bipartite(3, 3)
    host = wagner_graph()
    assert find_rooted_minor(RootedGraph(host, (0,)), RootedGraph(k33, (0,))) is not None
    assert find_red_minor(AnnotatedGraph.of(host, range(8)), k33) is not None


@st.composite
def planar_hosts(draw):
    """A 3x3 grid, a 3x4 grid or a triangulation, less a few vertices (down
    to at most nine) and edges, renumbered in order. Few are dropped, so
    that the treewidth cut leaves many to planarity. A triangulation is
    stacked (of treewidth 3), then has some edges flipped, which can make
    it wider: the octahedron has treewidth 4, as K5 needs."""
    kind = draw(st.sampled_from(["grid33", "grid34", "triangulation"]))
    if kind == "triangulation":
        n = draw(st.integers(5, 9))
        faces = [(0, 1, 2), (0, 2, 1)]  # each a cycle of darts
        for v in range(3, n):
            a, b, c = faces.pop(draw(st.integers(0, len(faces) - 1)))
            faces += [(a, b, v), (b, c, v), (c, a, v)]
        for _ in range(draw(st.integers(0, 6))):
            # flip the edge of dart a -> b: faces (a, b, c) and (b, a, d)
            # become (c, a, d) and (d, b, c)
            i = draw(st.integers(0, len(faces) - 1))
            a, b, c = faces[i]
            j = next(j for j, f in enumerate(faces) if (b, a) in zip(f, f[1:] + f[:1]))
            d = faces[j][(faces[j].index(a) + 1) % 3]
            if not any({c, d} <= set(f) for f in faces):
                faces[i], faces[j] = (c, a, d), (d, b, c)
        base = Graph(n, {tuple(sorted(e)) for f in faces for e in zip(f, f[1:] + f[:1])})
    else:
        base = grid_graph(3, 3 if kind == "grid33" else 4)
    least = max(0, base.n - 9)
    gone = draw(st.sets(st.sampled_from(range(base.n)), min_size=least, max_size=least))
    new = {v: i for i, v in enumerate(v for v in range(base.n) if v not in gone)}
    edges = [(new[u], new[v]) for u, v in sorted(base.edges) if u in new and v in new]
    cut = draw(st.sets(st.sampled_from(edges), max_size=2))
    return Graph(len(new), [e for e in edges if e not in cut])


@st.composite
def planar_cut_cases(draw):
    """A planar host and a non-planar pattern of at most seven vertices:
    K5, K3,3, or either subdivided or with more edges. K5's minor-min-width
    is 4, so K5 patterns come only with hosts of min-fill width 4, where the
    treewidth cut does not answer them all."""
    host = draw(planar_hosts())
    wide = _min_fill_order(neighbor_masks(host))[0] >= 4
    return host, draw(kuratowski_subdivisions(max_n=7, with_k5=wide))


@settings(max_examples=60, deadline=None)
@given(planar_cut_cases())
def test_the_planarity_cut_keeps_every_answer(case):
    # the branch-set search's "no" is the reference
    host, pattern = case
    assert find_minor(host, pattern) == minors._search_model(host, pattern)


def with_apex(g, nbrs):
    """g plus a vertex, g.n, joined to nbrs."""
    return Graph(g.n + 1, list(g.edges) + [(v, g.n) for v in nbrs])


@st.composite
def apex_cut_cases(draw):
    """A planar host plus one or two vertices, each joined to all but at
    most two of the vertices before it, at most nine vertices in all (the
    reference search's "no"s for 7-vertex patterns take seconds on eleven),
    and a pattern: a Kuratowski graph, at most subdivided once, with a
    vertex joined to all the others, or K6 or K7 (apex numbers 1 and 2)
    when the host's min-fill width reaches their minor-min-width (5 and 6),
    so that the treewidth cut leaves some to the apex cut. With one added
    vertex the apex cut holds for every pattern of apex number at least 1;
    with two, only for K7, and the others go to the search."""
    added = draw(st.integers(1, 2))
    host = draw(planar_hosts())
    host = induced_subgraph(host, range(min(host.n, 9 - added)))[0]
    for _ in range(added):
        missed = draw(st.sets(st.sampled_from(range(host.n)), max_size=2))
        host = with_apex(host, set(range(host.n)) - missed)
    width = _min_fill_order(neighbor_masks(host))[0]
    t = draw(st.sampled_from([0] + [t for t in (6, 7) if width >= t - 1]))
    if t:
        return host, complete_graph(t)
    base = draw(kuratowski_subdivisions(max_n=6))
    return host, with_apex(base, range(base.n))


@settings(max_examples=60, deadline=None)
@given(apex_cut_cases())
def test_the_apex_cut_keeps_every_answer(case):
    host, pattern = case
    assert find_minor(host, pattern) == minors._search_model(host, pattern)


def test_k6_in_a_triangulation_with_an_apex_is_answered_without_a_search(monkeypatch):
    # the hexagonal bipyramid, a triangulation on 8 vertices, plus a vertex
    # joined to all of them: 26 = 4n - 10 edges, Mader's bound for graphs
    # with no K6 minor, and none here since deleting the apex leaves a
    # planar graph. Its treewidth is 5, K6's minor-min-width, so the
    # treewidth cut does not answer it
    ring = [(i, (i + 1) % 6) for i in range(6)]
    host = with_apex(Graph(8, ring + [(i, p) for i in range(6) for p in (6, 7)]), range(8))
    k6 = complete_graph(6)
    assert host.m == 4 * host.n - 10 == 26
    assert _min_fill_order(neighbor_masks(host))[0] >= _minor_min_width(neighbor_masks(k6))
    calls = count_searches(monkeypatch)
    assert find_minor(host, k6) is None
    assert calls == []
    assert minors._search_model(host, k6) is None


@pytest.mark.parametrize(
    "pattern, a",
    [
        (complete_graph(4), -1),
        (grid_graph(3, 3), -1),
        (complete_graph(5), 0),
        (complete_bipartite(3, 3), 0),
        (complete_graph(6), 1),
        (complete_graph(7), 2),
        # K8 less any three vertices is K5, but the apex number stops at 2
        (complete_graph(8), 2),
    ],
)
def test_apex_numbers(pattern, a):
    assert minors._apex_number(pattern) == a


def test_empty_pattern_always_present():
    assert find_minor(Graph(0, []), Graph(0, [])) is not None
    assert find_minor(path_graph(3), Graph(0, [])) is not None


def test_plain_search_matches_oracle():
    rng = random.Random(7)
    for _ in range(60):
        host = random_graph(rng.randint(1, 6), rng.uniform(0.2, 0.8), rng)
        pattern = random_graph(rng.randint(1, 4), rng.uniform(0.3, 0.9), rng)
        model = find_minor(host, pattern)
        assert (model is not None) == oracle_minor(host, pattern)
        if model is not None:
            assert verify_minor_model(host, pattern, model)


# --- rooted minors -----------------------------------------------------------


def test_rooted_path_ends():
    host = RootedGraph.of(path_graph(3), (0, 2))
    pattern = RootedGraph.of(path_graph(2), (0, 1))
    model = find_rooted_minor(host, pattern)
    assert model is not None
    assert 0 in model.branch_sets[0] and 2 in model.branch_sets[1]


def test_rooted_absent_when_disconnected():
    host = RootedGraph.of(Graph(2, []), (0, 1))
    pattern = RootedGraph.of(path_graph(2), (0, 1))
    assert find_rooted_minor(host, pattern) is None


def test_rooted_root_count_mismatch():
    host = RootedGraph.of(path_graph(3), (0,))
    pattern = RootedGraph.of(path_graph(2), (0, 1))
    with pytest.raises(PreconditionViolated):
        find_rooted_minor(host, pattern)


def test_rooted_shared_host_root_on_distinct_pattern_roots():
    host = RootedGraph.of(path_graph(2), (0, 0))
    pattern = RootedGraph.of(path_graph(2), (0, 1))
    assert find_rooted_minor(host, pattern) is None


def test_rooted_repeated_pattern_root_forces_joint_branch_set():
    # both host roots must live in the single branch set of pattern vertex 0
    host = RootedGraph.of(path_graph(3), (0, 2))
    pattern = RootedGraph.of(Graph(1, []), (0, 0))
    model = find_rooted_minor(host, pattern)
    assert model is not None and model.branch_sets[0] == frozenset({0, 1, 2})


def test_rooted_search_matches_oracle():
    rng = random.Random(19)
    for _ in range(50):
        hn = rng.randint(2, 6)
        pn = rng.randint(1, 3)
        host = random_graph(hn, rng.uniform(0.2, 0.8), rng)
        pattern = random_graph(pn, rng.uniform(0.3, 0.9), rng)
        k = rng.randint(1, 2)
        hroots = tuple(rng.randrange(hn) for _ in range(k))
        proots = tuple(rng.randrange(pn) for _ in range(k))
        required = [set() for _ in range(pn)]
        legal = True
        for hr, pr in zip(hroots, proots):
            required[pr].add(hr)
        for q in range(pn):
            for q2 in range(q + 1, pn):
                if required[q] & required[q2]:
                    legal = False
        model = find_rooted_minor(
            RootedGraph.of(host, hroots), RootedGraph.of(pattern, proots)
        )
        expected = legal and oracle_minor(host, pattern, required=required)
        assert (model is not None) == expected
        if model is not None:
            assert verify_minor_model(host, pattern, model)
            for hr, pr in zip(hroots, proots):
                assert hr in model.branch_sets[pr]


@st.composite
def rooted_cases(draw):
    """Host and pattern for oracle_minor, with (pattern n + 1)^(host n) at
    most 8 000: up to three roots, repeats allowed on both sides, and each
    non-root pattern vertex hung off a root vertex."""
    k = draw(st.integers(1, 3))
    nroot = draw(st.integers(1, k))
    pn = nroot + draw(st.integers(0, 2))
    pedges = [e for e in itertools.combinations(range(pn), 2) if draw(st.booleans())]
    pedges += [(draw(st.integers(0, nroot - 1)), v) for v in range(nroot, pn)]
    proots = tuple(draw(st.integers(0, nroot - 1)) for _ in range(k))
    hn = draw(st.integers(1, 7).filter(lambda n: (pn + 1) ** n <= 8_000))
    host = Graph(hn, [e for e in itertools.combinations(range(hn), 2) if draw(st.booleans())])
    hroots = tuple(draw(st.integers(0, hn - 1)) for _ in range(k))
    return RootedGraph.of(host, hroots), RootedGraph.of(Graph(pn, pedges), proots)


@settings(max_examples=400, deadline=None)
@given(rooted_cases())
def test_rooted_search_matches_oracle_on_drawn_cases(case):
    host, pattern = case
    required = [set() for _ in range(pattern.graph.n)]
    for hr, pr in zip(host.roots, pattern.roots):
        required[pr].add(hr)
    model = find_rooted_minor(host, pattern)
    assert (model is not None) == oracle_minor(host.graph, pattern.graph, required=required)
    if model is not None:
        assert verify_minor_model(host.graph, pattern.graph, model)
        for hr, pr in zip(host.roots, pattern.roots):
            assert hr in model.branch_sets[pr]


def test_a_root_branch_set_never_takes_another_root(monkeypatch):
    # B_3 grows from host root 9. Host root 5 belongs to pattern root 2, so
    # B_3 never takes it, and it is no attachment for 3's neighbours 0 and
    # 1. Without both rules the search tried every superset of such a set
    # and spent 653 nodes here; it now spends 7.
    host = RootedGraph.of(Graph(11, [
        (0, 2), (0, 3), (0, 4), (0, 6), (0, 7), (0, 8), (1, 8), (1, 10), (2, 3),
        (2, 4), (2, 6), (2, 7), (2, 8), (3, 4), (3, 6), (3, 7), (3, 8), (4, 6),
        (4, 7), (4, 8), (5, 8), (5, 9), (6, 7), (6, 8), (7, 8), (9, 10),
    ]), (5, 9))
    pattern = RootedGraph.of(Graph(4, [(0, 3), (1, 3)]), (2, 3))
    monkeypatch.setattr(minors, "MINOR_NODE_BUDGET", 50)
    model = find_rooted_minor(host, pattern)
    assert model.branch_sets == (
        frozenset({0}), frozenset({2}), frozenset({5}), frozenset({1, 8, 9, 10}))


def test_a_later_root_is_still_an_attachment_of_its_neighbours():
    # host root 1 is all that B_0 can attach pattern root 1 by
    host = RootedGraph.of(path_graph(2), (0, 1))
    model = find_rooted_minor(host, RootedGraph.of(path_graph(2), (0, 1)))
    assert model.branch_sets == (frozenset({0}), frozenset({1}))


# --- red minors and bidimensionality ----------------------------------------


def test_red_minor_in_star():
    host = AnnotatedGraph.of(star_graph(4), {1, 2, 3, 4})
    model = find_red_minor(host, path_graph(3))
    assert model is not None
    for bs in model.branch_sets:
        assert bs & {1, 2, 3, 4}
    assert find_red_minor(host, complete_graph(3)) is None


def test_red_minor_empty_annotation():
    host = AnnotatedGraph.of(path_graph(3), set())
    assert find_red_minor(host, path_graph(1)) is None
    assert find_red_minor(host, Graph(0, [])) is not None


def test_red_search_matches_oracle():
    rng = random.Random(23)
    for _ in range(50):
        hn = rng.randint(1, 6)
        host = random_graph(hn, rng.uniform(0.2, 0.8), rng)
        red = {v for v in range(hn) if rng.random() < 0.5}
        pattern = random_graph(rng.randint(1, 3), rng.uniform(0.3, 0.9), rng)
        model = find_red_minor(AnnotatedGraph.of(host, red), pattern)
        assert (model is not None) == oracle_minor(host, pattern, red=red)


# --- symmetry breaking ---------------------------------------------------------
#
# With no required vertex the engine tries only seeds that follow the
# pattern's orbits and twin classes, so patterns rich in both are checked
# against the oracle, which knows nothing of symmetry.


def pendant_twins(base, at):
    """base with two leaves hung on vertex `at`; the leaves are twins."""
    return Graph(base.n + 2, list(base.edges) + [(at, base.n), (at, base.n + 1)])


SYMMETRIC_PATTERNS = [
    complete_graph(3),
    complete_graph(4),
    complete_bipartite(2, 2),
    complete_bipartite(2, 3),
    star_graph(3),
    star_graph(4),
    cycle_graph(4),
    cycle_graph(5),
    path_graph(4),
    grid_graph(2, 3),
]


@st.composite
def symmetric_cases(draw):
    """A pattern with orbits and twins, a host with (p + 1)^n <= 60 000 so
    that oracle_minor can run, and a red set."""
    base = draw(graphs(3).filter(lambda g: g.n > 0))
    pattern = draw(st.sampled_from(SYMMETRIC_PATTERNS + [
        pendant_twins(base, draw(st.integers(0, base.n - 1)))
    ]))
    n = draw(st.integers(0, 7).filter(lambda n: (pattern.n + 1) ** n <= 60_000))
    pairs = list(itertools.combinations(range(n), 2))
    host = Graph(n, [e for e in pairs if draw(st.booleans())])
    return host, pattern, draw(st.sets(st.integers(0, n - 1))) if n else set()


@settings(max_examples=150, deadline=None)
@given(symmetric_cases())
def test_symmetric_patterns_match_oracle(case):
    host, pattern, red = case
    model = find_minor(host, pattern)
    assert (model is not None) == oracle_minor(host, pattern)
    assert model is None or verify_minor_model(host, pattern, model)
    model = find_red_minor(AnnotatedGraph.of(host, red), pattern)
    assert (model is not None) == oracle_minor(host, pattern, red=red)
    if model is not None:
        assert verify_minor_model(host, pattern, model)
        assert all(b & red for b in model.branch_sets)


def test_a_red_search_for_a_25_vertex_grid_is_not_refused():
    # neither the branch-set search nor the canonical search behind the
    # pattern's orbits refuses a pattern by its vertex count
    g = grid_graph(5, 5)
    model = find_red_minor(AnnotatedGraph.of(g, range(25)), g)
    assert verify_minor_model(g, g, model)
    assert find_red_minor(AnnotatedGraph.of(g, range(24)), g) is None


def test_bidim_of_grids_fully_annotated():
    for n in range(1, 5):
        g = grid_graph(n, n)
        host = AnnotatedGraph.of(g, set(range(g.n)))
        assert bidim(host, cap=n) == n


def test_bidim_star_and_empty():
    host = AnnotatedGraph.of(star_graph(5), {1, 2, 3, 4, 5})
    assert bidim(host, cap=3) == 1
    assert bidim(AnnotatedGraph.of(star_graph(5), set()), cap=3) == 0


def test_bidim_squared_at_most_annotated_count():
    rng = random.Random(31)
    for _ in range(40):
        hn = rng.randint(1, 9)
        g = random_graph(hn, rng.uniform(0.2, 0.7), rng)
        red = {v for v in range(hn) if rng.random() < 0.6}
        b = bidim(AnnotatedGraph.of(g, red), cap=3)
        assert b * b <= max(len(red), 0) or b == 0
        if b > 0:
            assert b * b <= len(red)


def test_bidim_grows_slowly_under_added_red_vertices():
    rng = random.Random(37)
    for _ in range(30):
        hn = rng.randint(2, 8)
        g = random_graph(hn, rng.uniform(0.3, 0.8), rng)
        reds = [v for v in range(hn) if rng.random() < 0.4]
        extra = [v for v in range(hn) if v not in reds and rng.random() < 0.4]
        base = bidim(AnnotatedGraph.of(g, reds), cap=3)
        grown = bidim(AnnotatedGraph.of(g, set(reds) | set(extra)), cap=3)
        assert grown <= base + len(extra)
        assert grown >= base


# --- canonical codes ---------------------------------------------------------


def test_canonical_code_invariant_under_relabeling():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 8)
        g = random_graph(n, rng.uniform(0.2, 0.8), rng)
        roots = tuple(rng.randrange(n) for _ in range(rng.randint(0, 3)))
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        hroots = tuple(perm[r] for r in roots)
        assert canonical_code(RootedGraph.of(g, roots)) == canonical_code(
            RootedGraph.of(h, hroots)
        )


def test_canonical_code_separates_nonisomorphic():
    # same vertex and edge counts, different structure
    p4 = path_graph(4)
    triangle_plus_isolated = Graph(4, [(0, 1), (1, 2), (0, 2)])
    assert canonical_code(RootedGraph.of(p4, ())) != canonical_code(
        RootedGraph.of(triangle_plus_isolated, ())
    )


def test_canonical_code_respects_root_positions():
    p3 = path_graph(3)
    end_then_center = canonical_code(RootedGraph.of(p3, (0, 1)))
    center_then_end = canonical_code(RootedGraph.of(p3, (1, 0)))
    assert end_then_center != center_then_end
    # but the two ends are exchangeable by a rooted isomorphism
    assert canonical_code(RootedGraph.of(p3, (0,))) == canonical_code(
        RootedGraph.of(p3, (2,))
    )


def test_canonical_form_is_a_fixed_point():
    rng = random.Random(43)
    for _ in range(20):
        n = rng.randint(1, 7)
        g = random_graph(n, 0.5, rng)
        roots = tuple(rng.randrange(n) for _ in range(rng.randint(0, 2)))
        form, sig = canonical_form(RootedGraph.of(g, roots))
        form2, sig2 = canonical_form(form)
        assert sig == sig2
        assert form.graph == form2.graph and form.roots == form2.roots


def reference_canonical_form(rg):
    """canonical_form without automorphism pruning: every child of every
    node of the individualisation tree is searched."""
    g = rg.graph

    def refine(colors):
        while True:
            keys = [
                (colors[v], tuple(sorted(colors[w] for w in g.neighbors(v))))
                for v in range(g.n)
            ]
            ranking = {k: i for i, k in enumerate(sorted(set(keys)))}
            fresh = [ranking[keys[v]] for v in range(g.n)]
            if fresh == colors:
                return colors
            colors = fresh

    position_sig = [
        tuple(i for i, r in enumerate(rg.roots) if r == v) for v in range(g.n)
    ]
    ranking = {k: i for i, k in enumerate(sorted(set(position_sig)))}
    best = None

    def rec(colors):
        nonlocal best
        colors = refine(colors)
        cell = None
        for c in sorted(set(colors)):
            members = [v for v in range(g.n) if colors[v] == c]
            if len(members) > 1:
                cell = members
                break
        if cell is None:
            edges = tuple(sorted(
                (min(colors[u], colors[v]), max(colors[u], colors[v])) for u, v in g.edges
            ))
            sig = (g.n, tuple(colors[r] for r in rg.roots), edges)
            if best is None or sig < best:
                best = sig
            return
        for v in cell:
            keyed = [(colors[u], 0 if u == v else 1) for u in range(g.n)]
            rk = {k: i for i, k in enumerate(sorted(set(keyed)))}
            rec([rk[keyed[u]] for u in range(g.n)])

    rec([ranking[position_sig[v]] for v in range(g.n)])
    n, roots, edges = best
    return RootedGraph(Graph(n, edges), roots), repr(best).encode("ascii")


def assert_same_as_reference(rg):
    form, code = canonical_form(rg)
    ref_form, ref_code = reference_canonical_form(rg)
    assert code == ref_code
    assert form.graph == ref_form.graph and form.roots == ref_form.roots


@st.composite
def rooted_graphs(draw, max_n):
    g = draw(graphs(max_n))
    k = draw(st.integers(0, 3)) if g.n else 0
    return RootedGraph(g, tuple(draw(st.integers(0, g.n - 1)) for _ in range(k)))


@settings(max_examples=200, deadline=None)
@given(rooted_graphs(8))
def test_pruning_keeps_every_code_and_form(rg):
    # n <= 8: the reference needs 9! leaves, about 11 s, on 9 isolated vertices
    assert_same_as_reference(rg)


@pytest.mark.parametrize(
    "rg",
    [
        RootedGraph(cycle_graph(9), ()),
        RootedGraph(cycle_graph(9), (4, 4, 0)),
        RootedGraph(grid_graph(3, 3), (0,)),
        RootedGraph(Graph(9, [(0, 1), (2, 3), (4, 5), (6, 7)]), (8,)),
        RootedGraph(Graph(9, [(a, b) for a in range(3) for b in range(3, 6)]), (6, 7)),
    ],
)
def test_pruning_keeps_the_codes_of_symmetric_nine_vertex_graphs(rg):
    assert_same_as_reference(rg)


@pytest.mark.parametrize("k, d", [(k, d) for k in (1, 2, 3) for d in (1, 2, 3)] + [(4, 2)])
def test_pruning_keeps_the_candidate_codes(k, d):
    rng = random.Random(k * 10 + d)
    for form, _ in candidate_patterns(k, d):
        perm = list(range(form.graph.n))
        rng.shuffle(perm)
        relabelled = RootedGraph(relabel(form.graph, perm), tuple(perm[r] for r in form.roots))
        assert_same_as_reference(form)
        assert_same_as_reference(relabelled)


def as_networkx(rg):
    h = nx.Graph()
    for v in range(rg.graph.n):
        h.add_node(v, at=tuple(i for i, r in enumerate(rg.roots) if r == v))
    h.add_edges_from(rg.graph.edges)
    return h


@settings(max_examples=300, deadline=None)
@given(rooted_graphs(10), st.randoms(use_true_random=False), st.integers(0, 2))
def test_codes_are_equal_exactly_for_rooted_isomorphic_graphs(rg, rng, flips):
    # a relabelled copy with up to two edges flipped, so that both answers occur
    n = rg.graph.n
    perm = list(range(n))
    rng.shuffle(perm)
    edges = {tuple(sorted((perm[u], perm[v]))) for u, v in rg.graph.edges}
    pairs = list(itertools.combinations(range(n), 2))
    for e in rng.sample(pairs, min(flips, len(pairs))):
        edges ^= {e}
    other = RootedGraph(Graph(n, sorted(edges)), tuple(perm[r] for r in rg.roots))
    same = nx.is_isomorphic(
        as_networkx(rg), as_networkx(other), node_match=lambda a, b: a["at"] == b["at"]
    )
    assert (canonical_code(rg) == canonical_code(other)) == same


def networkx_orbits(g):
    """Each vertex's least orbit-mate: u and w share an orbit exactly when
    the graph with u marked is isomorphic to the graph with w marked."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)

    def marked(v):
        m = h.copy()
        m.nodes[v]["mark"] = True
        return m

    def same(a, b):
        return a.get("mark", False) == b.get("mark", False)

    return tuple(
        next(
            w for w in range(u + 1)
            if nx.algorithms.isomorphism.GraphMatcher(
                marked(u), marked(w), node_match=same
            ).is_isomorphic()
        )
        for u in range(g.n)
    )


@settings(max_examples=150, deadline=None)
@given(graphs(8))
def test_pattern_orbits_are_the_automorphism_orbits(g):
    assert minors._pattern_orbits(g) == networkx_orbits(g)


@settings(max_examples=150, deadline=None)
@given(rooted_graphs(8))
def test_the_canonical_search_finds_root_fixing_automorphisms(rg):
    edges = {frozenset(e) for e in rg.graph.edges}
    for a in minors._canonical_search(rg)[1]:
        assert sorted(a) == list(range(rg.graph.n))
        assert {frozenset((a[u], a[v])) for u, v in rg.graph.edges} == edges
        assert all(a[r] == r for r in rg.roots)


def test_canonical_codes_of_symmetric_graphs(monkeypatch):
    for g in (complete_graph(6), complete_bipartite(4, 4), Graph(8, [(0, 1)])):
        assert_same_as_reference(RootedGraph(g, ()))
    # unpruned, K8 and K5,5 take 8! and 2 * 5!^2 leaves; pruned, K_n and
    # the edgeless graph take about n^2 / 2 tree nodes
    monkeypatch.setattr(minors, "CANONICAL_NODE_BUDGET", 250)
    for g in (complete_graph(8), complete_bipartite(5, 5), complete_graph(20), Graph(20, [])):
        canonical_code(RootedGraph(g, ()))
    canonical_code(RootedGraph(Graph(20, []), (3, 3, 7)))


def test_canonical_form_raises_past_its_node_budget(monkeypatch):
    monkeypatch.setattr(minors, "CANONICAL_NODE_BUDGET", 5)
    with pytest.raises(BudgetExceeded, match="canonical search nodes: 6 past the budget of 5"):
        minors._canonical_search(RootedGraph(cycle_graph(12), ()))
    with pytest.raises(BudgetExceeded) as err:
        canonical_code(RootedGraph(cycle_graph(12), ()))
    assert err.value.budget.what == "canonical search nodes"
    assert err.value.budget.used > err.value.budget.limit == 5


def test_a_canonical_search_past_the_recursion_limit_raises_the_cap_error():
    # the first path individualises 299 of the 300 isolated vertices, one
    # frame each, past a limit lowered to keep the test quick
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(250)
    try:
        with pytest.raises(SearchCapExceeded):
            canonical_code(RootedGraph(Graph(300, []), ()))
    finally:
        sys.setrecursionlimit(limit)


def test_isomorphic_applies_the_cap_to_both_graphs():
    # 21 vertices: no vertex count refuses a canonical search, only its
    # node budget, which each of the two graphs gets afresh
    p21 = path_graph(21)
    assert isomorphic(p21, relabel(p21, [(2 * v) % 21 for v in range(21)]))


def test_isomorphic_on_many_interchangeable_vertices():
    assert isomorphic(Graph(21, [(0, 1)]), Graph(21, [(2, 3)]))
    assert not isomorphic(Graph(21, [(0, 1), (1, 2)]), Graph(21, [(0, 1), (2, 3)]))


def test_isomorphic_basic():
    c5 = cycle_graph(5)
    shifted = relabel(c5, [2, 3, 4, 0, 1])
    assert isomorphic(c5, shifted)
    assert not isomorphic(c5, path_graph(5))
    assert not isomorphic(c5, cycle_graph(6))

"""Tree decompositions: validation, exact width, certificates, text format.

exact_treewidth is cross-checked against a brute-force oracle that tries
every elimination order, which is the definitional route at tiny sizes,
and against a bound-free subset DP over eliminated sets up to ten vertices.
"""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorkit.constructions import grid, wall
from minorkit.decomposition import (
    AboveBound,
    Bramble,
    TreeDecomposition,
    _decomposition_from_order,
    _min_fill_order,
    _minor_min_width,
    _order_within,
    exact_treewidth,
    find_grid_subgraph,
    min_fill_decomposition,
    parse_td,
    treewidth_certificates,
    validate_bramble,
    validate_td,
    write_td,
)
from minorkit.errors import CertificateNotFound, InvalidDecomposition
from minorkit.graphs import Graph, neighbor_masks


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


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
    return Graph(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


def tw_oracle(g):
    """Minimum over all elimination orders of the maximum elimination degree."""
    best = None
    for order in itertools.permutations(range(g.n)):
        adj = {v: set(g.neighbors(v)) for v in range(g.n)}
        removed = set()
        width = -1
        for v in order:
            nb = adj[v] - removed
            width = max(width, len(nb))
            if best is not None and width >= best:
                break
            for a in nb:
                adj[a] |= nb - {a}
            removed.add(v)
        else:
            best = width if best is None else min(best, width)
    return best if best is not None else -1


def tw_subset_dp(g):
    """Treewidth as min over elimination orders, by a DP over eliminated
    sets with no bounds: TW(S) = min over v in S of max(TW(S - v), Q(S - v, v)),
    where Q(S, v) counts the vertices outside S + v reachable from v through S."""
    adj = [set(g.neighbors(v)) for v in range(g.n)]

    def q(done, v):
        seen = {v}
        stack = [v]
        out = set()
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y in seen:
                    continue
                seen.add(y)
                if y in done:
                    stack.append(y)
                else:
                    out.add(y)
        return len(out)

    best = {frozenset(): -1}
    for size in range(1, g.n + 1):
        for s in itertools.combinations(range(g.n), size):
            s = frozenset(s)
            best[s] = min(max(best[s - {v}], q(s - {v}, v)) for v in s)
    return best[frozenset(range(g.n))]


def gamma2_like():
    # 3x3 grid with one extra edge joining the right column's top and bottom
    g = grid_graph(3, 3)
    return Graph(9, list(g.edges) + [(2, 8)])


# --- validate_td --------------------------------------------------------------


def test_single_bag_decomposition_valid():
    g = random_graph(5, 0.5, random.Random(1))
    td = TreeDecomposition(Graph(1, []), (frozenset(range(5)),))
    check = validate_td(g, td)
    assert check.valid and check.width == 4 and check.adhesion == 0


def test_grid_sweep_decomposition_valid():
    g = grid_graph(3, 3)
    _, td = exact_treewidth(g)
    check = validate_td(g, td)
    assert check.valid


def test_missing_edge_invalid():
    g = path_graph(3)
    td = TreeDecomposition(Graph(2, [(0, 1)]), (frozenset({0, 1}), frozenset({2})))
    assert not validate_td(g, td).valid


def test_broken_vertex_connectivity_invalid():
    g = path_graph(4)
    bags = (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3, 0}))
    td = TreeDecomposition(path_graph(3), bags)
    assert not validate_td(g, td).valid


def test_disconnected_tree_invalid():
    g = path_graph(2)
    td = TreeDecomposition(Graph(2, []), (frozenset({0, 1}), frozenset({0, 1})))
    assert not validate_td(g, td).valid


def nx_valid(g, td):
    """The three decomposition conditions, checked with networkx: the nodes
    holding each vertex must induce a connected subgraph of the tree."""
    tree = nx.Graph()
    tree.add_nodes_from(range(td.tree.n))
    tree.add_edges_from(td.tree.edges)
    if len(td.bags) != td.tree.n or not nx.is_tree(tree):
        return False
    if set().union(*td.bags) != set(range(g.n)):
        return False
    if not all(any({u, v} <= b for b in td.bags) for u, v in g.edges):
        return False
    return all(
        nx.is_connected(tree.subgraph(i for i, b in enumerate(td.bags) if v in b))
        for v in range(g.n)
    )


def test_validate_td_agrees_with_networkx():
    rng = random.Random(23)
    verdicts = set()
    for _ in range(300):
        g = random_graph(rng.randint(1, 9), rng.uniform(0.2, 0.7), rng)
        td = exact_treewidth(g)[1] if rng.random() < 0.5 else min_fill_decomposition(g)
        bags = [set(b) for b in td.bags]
        edges = set(td.tree.edges)
        how = rng.randrange(4)
        if how == 1:  # drop a vertex from a bag
            bag = rng.choice(bags)
            bag.discard(rng.choice(sorted(bag) or [0]))
        elif how == 2:  # add a vertex to a bag
            rng.choice(bags).add(rng.randrange(g.n))
        elif how == 3 and edges:  # move a tree edge
            edges.discard(rng.choice(sorted(edges)))
            edges.add(tuple(rng.sample(range(len(bags)), 2)))
        bad = TreeDecomposition(Graph(len(bags), edges), tuple(frozenset(b) for b in bags))
        verdict = validate_td(g, bad).valid
        assert verdict == nx_valid(g, bad)
        verdicts.add(verdict)
    assert verdicts == {True, False}


# --- exact treewidth ----------------------------------------------------------


def test_tree_has_width_one():
    g = Graph(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
    width, td = exact_treewidth(g)
    assert width == 1
    assert validate_td(g, td).valid and td.width() == 1


def test_edgeless_and_empty():
    width, td = exact_treewidth(Graph(3, []))
    assert width == 0 and validate_td(Graph(3, []), td).valid
    width, td = exact_treewidth(Graph(0, []))
    assert width == -1


@st.composite
def forests(draw, max_n=20):
    """Each vertex hangs from an earlier one or starts a new tree."""
    n = draw(st.integers(0, max_n))
    parents = [draw(st.integers(-1, v - 1)) for v in range(n)]
    return Graph(n, [(p, v) for v, p in enumerate(parents) if p >= 0])


@settings(max_examples=100, deadline=None)
@given(forests())
def test_forests_need_no_search(g):
    width, td = exact_treewidth(g)
    assert width == (1 if g.m else 0 if g.n else -1)
    assert validate_td(g, td).valid and td.width() == width
    bounded = exact_treewidth(g, upper=0)
    if g.m:
        assert isinstance(bounded, AboveBound)
    else:
        assert bounded[0] == width


def test_3x3_grid_width_three():
    width, td = exact_treewidth(grid_graph(3, 3))
    assert width == 3
    assert validate_td(grid_graph(3, 3), td).valid


def test_gamma2_like_width_three():
    g = gamma2_like()
    width, td = exact_treewidth(g)
    assert width == 3 and validate_td(g, td).valid


def test_complete_graph_width():
    for n in range(2, 7):
        width, _ = exact_treewidth(complete_graph(n))
        assert width == n - 1


def test_exact_matches_elimination_oracle():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 6)
        g = random_graph(n, rng.uniform(0.2, 0.9), rng)
        width, td = exact_treewidth(g)
        assert width == tw_oracle(g)
        assert validate_td(g, td).valid and td.width() == width


def test_above_bound_and_cap():
    assert isinstance(exact_treewidth(complete_graph(4), upper=1), AboveBound)
    width, _ = exact_treewidth(complete_graph(4), upper=3)
    assert width == 3
    # no vertex count refuses the search, only its node budget
    assert exact_treewidth(Graph(21, []))[0] == 0


@st.composite
def small_graphs(draw, max_n=10):
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, keep in zip(pairs, chosen) if keep])


@settings(max_examples=150, deadline=None)
@given(small_graphs())
def test_exact_matches_subset_dp(g):
    width, td = exact_treewidth(g)
    assert width == tw_subset_dp(g)
    check = validate_td(g, td)
    assert check.valid and check.width == width
    # each per-width decision on its own, below and above the bounds
    for t in range(g.n):
        found = _order_within(neighbor_masks(g), [t])
        assert (found is not None) == (t >= width)
        if found is not None:
            assert found[0] == t
            assert _decomposition_from_order(g, found[1]).width() <= t


def wagner_graph():
    return Graph(8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)])


def circulant(n, steps):
    return Graph(n, [(i, (i + s) % n) for i in range(n) for s in steps])


def gap_cases():
    """Graphs whose min-fill width is above their minor-min-width, so the
    per-width search decides each target: the treewidth is below the greedy
    width in the first case and equal to it in the others."""
    return [
        Graph(8, [(0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 4), (1, 5),
                  (1, 6), (2, 5), (2, 7), (3, 4), (3, 5), (3, 6), (3, 7), (4, 7),
                  (6, 7)]),
        wagner_graph(),
        circulant(11, (1, 3)),
    ]


def test_search_runs_between_the_bounds():
    cases = gap_cases()
    for g in cases:
        masks = neighbor_masks(g)
        assert _min_fill_order(masks)[0] > _minor_min_width(masks)
        width, td = exact_treewidth(g)
        assert width == tw_subset_dp(g)
        assert validate_td(g, td).valid and td.width() == width
    assert exact_treewidth(cases[0])[0] < _min_fill_order(neighbor_masks(cases[0]))[0]


def test_upper_agrees_with_unbounded_call():
    rng = random.Random(19)
    graphs = [random_graph(rng.randint(1, 12), rng.uniform(0.15, 0.8), rng) for _ in range(60)]
    for g in graphs + gap_cases():
        width, _ = exact_treewidth(g)
        for upper in range(-1, g.n + 1):
            bounded = exact_treewidth(g, upper=upper)
            if width > upper:
                assert isinstance(bounded, AboveBound)
            else:
                assert bounded[0] == width
                assert validate_td(g, bounded[1]).valid


def test_grid_and_wall_widths_at_the_cap():
    width, td = exact_treewidth(grid(4, 5))
    assert width == 4 and validate_td(grid(4, 5), td).valid
    g = wall(3).graph
    width, td = exact_treewidth(g)
    assert width == 3 and validate_td(g, td).valid


def test_vertex_deletion_monotone():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(2, 8)
        g = random_graph(n, 0.5, rng)
        width, _ = exact_treewidth(g)
        v = rng.randrange(n)
        keep = [u for u in range(n) if u != v]
        relab = {u: i for i, u in enumerate(keep)}
        h = Graph(
            n - 1, [(relab[a], relab[b]) for a, b in g.edges if a != v and b != v]
        )
        wh, _ = exact_treewidth(h)
        assert wh <= width


# --- brambles and certificates --------------------------------------------------


def bramble_order(bramble):
    """Exact minimum hitting set size over the bramble's sets, by branching
    on the smallest set left (exponential in the number of sets)."""
    sets = [set(s) for s in bramble.sets]
    best = len(set().union(*sets)) if sets else 0

    def rec(remaining, chosen):
        nonlocal best
        if not remaining:
            best = min(best, chosen)
            return
        if chosen + 1 >= best:
            return
        target = min(remaining, key=len)
        for v in sorted(target):
            rec([s for s in remaining if v not in s], chosen + 1)

    rec(sets, 0)
    return best


def test_bramble_validation_and_order():
    g = cycle_graph(5)
    b = Bramble((frozenset({0, 1}), frozenset({2}), frozenset({3, 4})))
    assert validate_bramble(g, b)
    assert bramble_order(b) == 3
    not_touching = Bramble((frozenset({0}), frozenset({2})))
    assert not validate_bramble(g, not_touching)


def test_certificates_on_c5():
    g = cycle_graph(5)
    certs = treewidth_certificates(g, 2)
    assert certs.lower_bramble is not None
    assert bramble_order(certs.lower_bramble) == 3
    check = validate_td(g, certs.upper)
    assert check.valid and check.width == 2


def test_certificates_on_3x3_grid():
    g = grid_graph(3, 3)
    certs = treewidth_certificates(g, 3)
    assert certs.lower_grid is not None and certs.lower_grid.side == 3
    check = validate_td(g, certs.upper)
    assert check.valid and check.width == 3


def test_certificates_on_gamma2_like():
    g = gamma2_like()
    certs = treewidth_certificates(g, 3)
    assert certs.lower_grid is not None
    check = validate_td(g, certs.upper)
    assert check.valid and check.width == 3
    w, _ = exact_treewidth(g)
    assert w == certs.value


def test_certificates_past_the_grid_sweep_use_exact_treewidth():
    # no spanning grid, so the upper side comes from exact_treewidth: a
    # wall of order 3 (18 vertices, a K4 minor) and a 4x4 grid with one
    # pendant vertex
    w3 = wall(3).graph
    certs = treewidth_certificates(w3, 3)
    assert certs.lower_bramble is not None
    check = validate_td(w3, certs.upper)
    assert check.valid and check.width == 3
    g = Graph(17, list(grid_graph(4, 4).edges) + [(15, 16)])
    certs = treewidth_certificates(g, 4)
    assert certs.lower_grid is not None
    check = validate_td(g, certs.upper)
    assert check.valid and check.width == 4


def test_certificates_on_a_chorded_grid_past_the_exact_cap():
    # the grid spans the graph, so its column-major elimination order gives
    # the upper side with no exact_treewidth search
    g = Graph(25, list(grid(5, 5).edges) + [(0, 6)])
    certs = treewidth_certificates(g, 5)
    assert certs.lower_grid is not None and certs.lower_grid.side == 5
    check = validate_td(g, certs.upper)
    assert check.valid and check.width == 5


def test_certificates_on_a_grid_past_the_recursion_limit():
    # the placement visits all 1225 cells, more than the default recursion
    # limit of 1000 frames
    g = grid(35, 35)
    certs = treewidth_certificates(g, 35)
    assert certs.lower_grid is not None and certs.lower_grid.side == 35
    check = validate_td(g, certs.upper)
    assert check.valid and check.width == 35


def test_certificates_not_found_on_tree():
    with pytest.raises(CertificateNotFound):
        treewidth_certificates(path_graph(6), 2)


def test_grid_subgraph_finder():
    g = grid_graph(4, 4)
    cert = find_grid_subgraph(g, 3)
    assert cert is not None
    placed = [v for row in cert.placement for v in row]
    assert len(set(placed)) == 9
    for r in range(3):
        for c in range(3):
            if c + 1 < 3:
                assert g.has_edge(cert.placement[r][c], cert.placement[r][c + 1])
            if r + 1 < 3:
                assert g.has_edge(cert.placement[r][c], cert.placement[r + 1][c])
    assert find_grid_subgraph(path_graph(9), 2) is None


# --- text format -------------------------------------------------------------------


def test_td_format_round_trip():
    g = gamma2_like()
    width, td = exact_treewidth(g)
    text = write_td(td, g.n)
    back, n_host = parse_td(text)
    assert n_host == g.n
    assert back.bags == td.bags
    assert back.tree.edges == td.tree.edges
    assert validate_td(g, back).valid


def test_td_format_header_checks():
    with pytest.raises(InvalidDecomposition):
        parse_td("b 1 1 2\n")
    with pytest.raises(InvalidDecomposition):
        parse_td("s td 1 5 3\nb 1 1 2 3\n")

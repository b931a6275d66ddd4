import itertools
import random

import pytest

from minorkit.errors import IndexOutOfRange, PreconditionViolated, SelfLoop
from minorkit.graphs import (
    AnnotatedGraph,
    Graph,
    RootedGraph,
    Separation,
    blocks,
    build_graph,
    connected_components,
    delete_vertex,
    induced_subgraph,
    menger,
    min_vertex_cut,
    parse_edge_list,
    to_dot,
    verify_separation,
    write_edge_list,
)


def grid_graph(rows, cols):
    def idx(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((idx(r, c), idx(r, c + 1)))
            if r + 1 < rows:
                edges.append((idx(r, c), idx(r + 1, c)))
    return Graph(rows * cols, edges)


def random_graph(n, p, rng):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


# --- construction ----------------------------------------------------------


def test_build_one_vertex():
    g = build_graph(1, [])
    assert g.n == 1 and g.m == 0


def test_build_cycle():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.m == 4
    assert g.neighbors(0) == (1, 3)


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoop):
        build_graph(3, [(0, 0)])


def test_build_rejects_bad_index():
    with pytest.raises(IndexOutOfRange):
        build_graph(3, [(0, 3)])


def test_build_dedups_parallel_edges():
    g = build_graph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_rooted_and_annotated_validate():
    g = build_graph(3, [(0, 1)])
    assert RootedGraph.of(g, (0, 0, 2)).roots == (0, 0, 2)
    assert AnnotatedGraph.of(g, [2, 1]).annotated == frozenset({1, 2})
    with pytest.raises(IndexOutOfRange):
        RootedGraph.of(g, (3,))
    with pytest.raises(IndexOutOfRange):
        AnnotatedGraph.of(g, [5])


def test_delete_vertex_remaps():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)], labels={3: "end"})
    h, remap = delete_vertex(g, 1)
    assert h.n == 3 and h.m == 1
    assert h.labels[remap[3]] == "end"
    assert sorted(h.edges) == [(remap[2], remap[3])]


# --- separations -----------------------------------------------------------


def test_separation_full_overlap_is_valid():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    s = Separation.of({0, 1, 2}, {0, 1, 2})
    assert verify_separation(g, s)
    assert s.order == 3


def test_separation_crossing_edge_invalid():
    g = build_graph(2, [(0, 1)])
    assert not verify_separation(g, Separation.of({0}, {1}))


def test_separation_star():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    s = Separation.of({0, 1}, {0, 2, 3})
    assert verify_separation(g, s)
    assert s.order == 1


def test_separation_must_cover():
    g = build_graph(3, [])
    assert not verify_separation(g, Separation.of({0}, {1}))


# --- blocks ----------------------------------------------------------------


def test_blocks_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    blks, brs = blocks(g)
    assert len(blks) == 1 and blks[0] == frozenset({0, 1, 2})
    assert brs == []


def test_blocks_two_triangles_one_bridge():
    g = build_graph(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    )
    blks, brs = blocks(g)
    assert sorted(map(sorted, blks)) == [[0, 1, 2], [3, 4, 5]]
    assert brs == [(2, 3)]


def test_blocks_edge_partition_random():
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng.randrange(1, 11), rng.random(), rng)
        blks, brs = blocks(g)
        seen = set()
        for bset in blks:
            sub_edges = {e for e in g.edges if e[0] in bset and e[1] in bset}
            # a block's vertex set is 2-connected, so every induced edge is its own
            assert not (sub_edges & seen)
            seen |= sub_edges
        for e in brs:
            assert e in g.edges and e not in seen
            seen.add(e)
        assert seen == g.edges


def test_blocks_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng.randrange(2, 12), rng.random(), rng)
        h = nx.Graph()
        h.add_nodes_from(g.vertices())
        h.add_edges_from(g.edges)
        ours_blocks, ours_bridges = blocks(g)
        nx_comps = [frozenset(c) for c in nx.biconnected_components(h)]
        nx_blocks = sorted(sorted(c) for c in nx_comps if len(c) > 2)
        # every 2-vertex biconnected component of a simple graph is a bridge
        nx_bridges = sorted(tuple(sorted(c)) for c in nx_comps if len(c) == 2)
        assert sorted(sorted(b) for b in ours_blocks) == nx_blocks
        assert sorted(ours_bridges) == nx_bridges


# --- menger ----------------------------------------------------------------


def test_menger_single_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    kind, paths = menger(g, {0}, {2}, 1)
    assert kind == "paths"
    assert paths == [[0, 1, 2]]


def test_menger_cut_through_middle():
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(PreconditionViolated):
        menger(g, {0}, {2}, 2)
    kind, sep = menger(g, {0, 1}, {1, 2}, 2)
    assert kind == "separation"
    assert sep.order == 1 and sep.side_a & sep.side_b == {1}


def test_menger_grid_columns():
    g = grid_graph(4, 4)
    top = {c for c in range(4)}
    bottom = {12 + c for c in range(4)}
    kind, paths = menger(g, top, bottom, 4)
    assert kind == "paths"
    assert len(paths) == 4
    used = [v for p in paths for v in p]
    assert len(used) == len(set(used))
    for p in paths:
        assert p[0] in top and p[-1] in bottom
        for a, b in zip(p, p[1:]):
            assert g.has_edge(a, b)


def test_menger_shared_terminal_vertex():
    g = build_graph(3, [(0, 1), (1, 2)])
    kind, paths = menger(g, {0, 1}, {1, 2}, 1)
    assert kind == "paths"
    assert paths == [[0, 1, 2]] or paths == [[1]] or paths == [[0, 1]]


def test_menger_duality_matches_independent_flow():
    nx = pytest.importorskip("networkx")
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randrange(2, 12)
        g = random_graph(n, rng.random() * 0.7, rng)
        xs = set(rng.sample(range(n), rng.randrange(1, n)))
        ys = set(rng.sample(range(n), rng.randrange(1, n)))
        h = nx.Graph()
        h.add_nodes_from(g.vertices())
        h.add_edges_from(g.edges)
        # independent count: max vertex-disjoint X-Y paths via node splitting
        d = nx.DiGraph()
        big = n + 2
        for v in g.vertices():
            d.add_edge(("in", v), ("out", v), capacity=1)
        for u, v in g.edges:
            d.add_edge(("out", u), ("in", v), capacity=big)
            d.add_edge(("out", v), ("in", u), capacity=big)
        for x in xs:
            d.add_edge("S", ("in", x), capacity=big)
        for y in ys:
            d.add_edge(("out", y), "T", capacity=big)
        expected = nx.maximum_flow_value(d, "S", "T") if xs and ys else 0
        cap = min(len(xs), len(ys))
        for k in range(0, cap + 1):
            kind, cert = menger(g, xs, ys, k)
            if k <= expected:
                assert kind == "paths", (g.edges, xs, ys, k)
                assert len(cert) == k
                used = [v for p in cert for v in p]
                assert len(used) == len(set(used))
                for p in cert:
                    assert p[0] in xs and p[-1] in ys
                    for a, b in zip(p, p[1:]):
                        assert g.has_edge(a, b)
            else:
                assert kind == "separation", (g.edges, xs, ys, k)
                assert cert.order == expected
                assert verify_separation(g, cert)
                assert xs <= cert.side_a and ys <= cert.side_b


def _reach_avoiding(g, seeds, cut):
    seen = {s for s in seeds if s not in cut}
    stack = list(seen)
    while stack:
        v = stack.pop()
        for w in g.neighbors(v):
            if w not in cut and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def test_min_vertex_cut_matches_networkx_and_sits_nearest_the_sinks():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import local_node_connectivity

    rng = random.Random(31)
    for _ in range(150):
        n = rng.randrange(2, 9)
        g = random_graph(n, rng.uniform(0.2, 0.7), rng)
        protected = set(rng.sample(range(n), rng.randrange(1, n)))
        rest = [v for v in g.vertices() if v not in protected]
        sources = set(rng.sample(rest, rng.randrange(0, len(rest) + 1)))
        # reference order: the sources hang off S, the protected set is
        # contracted to T, and networkx counts S-T vertex-disjoint paths
        h = nx.Graph()
        h.add_nodes_from(rest + ["S", "T"])
        for u, v in g.edges:
            a, b = (x if x in rest else "T" for x in (u, v))
            if a != b:
                h.add_edge(a, b)
        h.add_edges_from(("S", x) for x in sources)
        order = local_node_connectivity(h, "S", "T")
        separating = [
            set(c)
            for c in itertools.combinations(rest, order)
            if not _reach_avoiding(g, sources, set(c)) & protected
        ]
        cut = min_vertex_cut(g, sources, protected)
        assert len(cut) == order
        assert not cut & protected
        assert cut in separating
        # nearest the sinks: no other minimum cut leaves them less room
        ours = _reach_avoiding(g, protected, cut)
        assert all(ours <= _reach_avoiding(g, protected, c) for c in separating)


def test_min_vertex_cut_rejects_a_source_that_is_a_sink():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert min_vertex_cut(g, {0}, {2}) == {1}
    assert min_vertex_cut(g, {0, 1}, {2}) == {1}
    with pytest.raises(PreconditionViolated):
        min_vertex_cut(g, {0, 2}, {2})


# --- formats ---------------------------------------------------------------


def test_edge_list_round_trip():
    g = build_graph(5, [(0, 1), (2, 3), (1, 4)], labels={0: "v1", 4: "u2"})
    assert parse_edge_list(write_edge_list(g)) == g


def test_edge_list_rejects_bad_header():
    with pytest.raises(PreconditionViolated):
        parse_edge_list("3\n0 1\n")


def test_edge_list_edge_count_checked():
    with pytest.raises(PreconditionViolated):
        parse_edge_list("3 2\n0 1\n")


def test_edge_list_rejects_repeated_edge():
    for text in ("3 2\n0 1\n1 0\n", "3 2\n0 1\n0 1\n", "3 3\n0 1\n1 2\n2 1\n"):
        with pytest.raises(PreconditionViolated):
            parse_edge_list(text)


def test_dot_export_mentions_labels():
    g = build_graph(2, [(0, 1)], labels={0: "v1"})
    dot = to_dot(g)
    assert "0 -- 1;" in dot and 'label="v1"' in dot


def test_components():
    g = build_graph(5, [(0, 1), (2, 3)])
    comps = connected_components(g)
    assert sorted(map(sorted, comps)) == [[0, 1], [2, 3], [4]]


def test_induced_subgraph_keeps_edges():
    g = build_graph(5, [(0, 1), (1, 2), (3, 4)])
    h, remap = induced_subgraph(g, [1, 2, 3, 4])
    assert h.n == 4
    assert {tuple(sorted(e)) for e in h.edges} == {
        (remap[1], remap[2]),
        tuple(sorted((remap[3], remap[4]))),
    }

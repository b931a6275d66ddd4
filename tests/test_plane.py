"""Rotation-system embeddings: face tracing, disc regions, nested cycle
systems, the tightening rewrite, and the planarity test, which networkx
checks."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorkit.constructions import wall
from minorkit.errors import PreconditionViolated
from minorkit import plane
from minorkit.graphs import Graph
from minorkit.plane import (
    ConcentricCycles,
    PlaneGraph,
    edge_strictly_inside,
    embed_grid,
    embed_mesh,
    inside_faces,
    is_tight,
    mesh_nest,
    parse_plane,
    planar_embedding,
    tight_violation,
    tighten,
    vertex_strictly_inside,
    write_plane,
)
from minorkit.wells import drain, random_well


def test_grid_face_counts():
    for n, m in [(2, 2), (3, 3), (4, 2), (5, 6)]:
        pg = embed_grid(n, m)
        g = pg.graph
        assert len(pg.faces) == g.m - g.n + 2


def test_single_vertex_grid():
    pg = embed_grid(1, 1)
    assert pg.graph.n == 1
    assert len(pg.faces) == 1
    assert pg.vertex_faces(0) == frozenset({0})


def test_path_grid_has_one_face():
    # a 1 x m grid is a tree: every dart borders the same face
    pg = embed_grid(1, 4)
    assert len(pg.faces) == 1
    assert len(pg.faces[pg.outer]) == 2 * pg.graph.m


def test_grid_outer_face_is_perimeter():
    pg = embed_grid(3, 4)
    walk = pg.faces[pg.outer]
    assert len(walk) == 10
    boundary = {u for u, _ in walk}
    interior = {v for v in range(12) if len(pg.graph.neighbors(v)) == 4}
    assert boundary == set(range(12)) - interior


def test_rotation_must_list_neighbors():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(PreconditionViolated):
        PlaneGraph(g, [(1,), (2,), (1,)], (0, 1))


def test_twisted_rotation_fails_euler():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    good = [(1, 2, 3), (2, 0, 3), (0, 1, 3), (0, 2, 1)]
    assert len(PlaneGraph(g, good, (0, 1)).faces) == 4
    bad = [(1, 2, 3), (2, 0, 3), (0, 1, 3), (0, 1, 2)]
    with pytest.raises(PreconditionViolated):
        PlaneGraph(g, bad, (0, 1))


def test_outer_dart_must_be_a_dart():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    good = [(1, 2, 3), (2, 0, 3), (0, 1, 3), (0, 2, 1)]
    bad = [(1, 2, 3), (2, 0, 3), (0, 1, 3), (0, 1, 2)]
    for dart in [(0, 0), (0, 9), (9, 0)]:
        with pytest.raises(PreconditionViolated):
            PlaneGraph(g, good, dart)
        # the embedding is checked first
        with pytest.raises(PreconditionViolated):
            PlaneGraph(g, bad, dart)
    # a lone vertex has one face and needs no outer dart
    lone = parse_plane(write_plane(embed_grid(1, 1)))
    assert lone.outer == 0 and lone.faces == ((),)


def test_disconnected_graph_rejected():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(PreconditionViolated):
        PlaneGraph(g, [(1,), (0,), (3,), (2,)], (0, 1))


def test_edge_faces_distinct_on_grid():
    pg = embed_grid(3, 3)
    for u, v in pg.graph.edges:
        f1, f2 = pg.edge_faces(u, v)
        assert f1 != f2


def test_mesh_face_count_and_outer():
    mesh, pg = embed_mesh(6, 3)
    assert len(pg.faces) == 2 * 6 + 2
    outer_walk = {u for u, _ in pg.faces[pg.outer]}
    assert outer_walk == set(mesh.cycles[-1])


def test_inside_faces_nest_on_mesh():
    mesh, pg = embed_mesh(6, 3)
    sizes = [len(inside_faces(pg, c)) for c in mesh.cycles]
    assert sizes == [1, 7, 13]


def test_vertex_region_predicates():
    mesh, pg = embed_mesh(6, 3)
    hub = inside_faces(pg, mesh.cycles[0])
    middle = inside_faces(pg, mesh.cycles[1])
    v0 = mesh.cycles[0][0]
    assert not vertex_strictly_inside(pg, v0, hub)
    assert vertex_strictly_inside(pg, v0, middle)
    u, w = mesh.cycles[0][0], mesh.cycles[0][1]
    assert edge_strictly_inside(pg, u, w, middle)
    assert not edge_strictly_inside(pg, u, w, hub)


def test_concentric_requires_nesting():
    mesh, pg = embed_mesh(6, 3)
    r0, r1, r2 = mesh.cycles
    cc = ConcentricCycles(pg, (r0, r1, r2))
    assert len(cc) == 3
    with pytest.raises(PreconditionViolated):
        ConcentricCycles(pg, (r1, r0))
    with pytest.raises(PreconditionViolated):
        ConcentricCycles(pg, (r0, r0))


def test_mesh_nest_is_tight():
    mesh, pg, cc, rails = mesh_nest(6, 3)
    assert is_tight(cc)
    assert tight_violation(cc) is None
    out = tighten(cc)
    assert out.cycles == cc.cycles


def test_tighten_pulls_skipped_ring():
    # nesting rings 0 and 2 leaves ring 1 as slack the outer cycle
    # can be rewritten onto
    mesh, pg = embed_mesh(6, 4)
    r0, r1, r2, r3 = mesh.cycles
    cc = ConcentricCycles(pg, (r0, r2))
    assert not is_tight(cc)
    level, chord = tight_violation(cc)
    assert level == 1
    assert len(chord) >= 2
    out = tighten(cc)
    assert is_tight(out)
    assert out.cycles[0] == r0
    assert sorted(out.cycles[1]) == sorted(r1)
    assert out.discs[-1] <= cc.discs[-1]


def test_tighten_is_tight_nested_and_idempotent_on_ring_subnests():
    rng = random.Random(29)
    for _ in range(60):
        mesh, pg = embed_mesh(rng.randint(3, 7), rng.randint(2, 6))
        cycles = []
        for i in sorted(rng.sample(range(len(mesh.cycles)), rng.randint(1, len(mesh.cycles)))):
            ring = list(mesh.cycles[i])
            start = rng.randrange(len(ring))
            ring = ring[start:] + ring[:start]
            cycles.append(ring[::-1] if rng.random() < 0.5 else ring)
        cc = ConcentricCycles(pg, cycles)
        out = tighten(cc)
        assert is_tight(out)
        assert all(a < b for a, b in zip(out.discs, out.discs[1:]))
        assert all(a <= b for a, b in zip(out.discs, cc.discs))
        assert tighten(out).cycles == out.cycles


# --- the one-sweep discs and the band-face edges, against the direct ways ----------


def rectangle(m, top, left, bottom, right):
    """The cycle of embed_grid(_, m) around the box of grid vertices with
    rows top..bottom and columns left..right."""
    ring = [top * m + c for c in range(left, right + 1)]
    ring += [r * m + right for r in range(top + 1, bottom + 1)]
    ring += [bottom * m + c for c in range(right - 1, left - 1, -1)]
    ring += [r * m + left for r in range(bottom - 1, top, -1)]
    return tuple(ring)


def grid_rectangles(n, m):
    """The concentric rectangles of embed_grid(n, m), innermost first."""
    out = []
    for k in range((min(n, m) - 2) // 2 + 1):
        out.append(rectangle(m, k, k, n - 1 - k, m - 1 - k))
    return out[::-1]


def random_ring_nest(rng):
    """A plane graph and a random sub-nest of its rings, innermost first,
    each ring rotated and maybe reversed: mesh rings or grid rectangles."""
    if rng.random() < 0.7:
        mesh, pg = embed_mesh(rng.randint(3, 9), rng.randint(2, 9))
        rings = mesh.cycles
    else:
        n, m = rng.randint(2, 9), rng.randint(2, 9)
        pg, rings = embed_grid(n, m), grid_rectangles(n, m)
    cycles = []
    for i in sorted(rng.sample(range(len(rings)), rng.randint(1, len(rings)))):
        ring = list(rings[i])
        start = rng.randrange(len(ring))
        ring = ring[start:] + ring[:start]
        cycles.append(ring[::-1] if rng.random() < 0.5 else ring)
    return pg, cycles


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_nest_discs_are_the_discs_of_each_cycle(rng):
    pg, cycles = random_ring_nest(rng)
    if rng.random() < 0.3:
        rng.shuffle(cycles)
    direct = tuple(inside_faces(pg, c) for c in cycles)
    if all(a < b for a, b in zip(direct, direct[1:])):
        assert ConcentricCycles(pg, cycles).discs == direct
    else:
        with pytest.raises(PreconditionViolated):
            ConcentricCycles(pg, cycles)


@settings(max_examples=50, deadline=None)
@given(st.randoms(use_true_random=False))
def test_well_nest_discs_are_the_discs_of_each_cycle(rng):
    w = random_well(rng)
    assert w.nest.discs == tuple(inside_faces(w.plane, c) for c in w.cycles)


def test_side_by_side_or_misordered_cycles_are_not_a_nest():
    pg = embed_grid(3, 5)
    left, right = (0, 1, 6, 5), (3, 4, 9, 8)
    with pytest.raises(PreconditionViolated):
        ConcentricCycles(pg, (left, right))
    with pytest.raises(PreconditionViolated):
        ConcentricCycles(pg, (right, left))
    mesh, pg = embed_mesh(5, 4)
    r0, r1, r2, r3 = mesh.cycles
    for order in [(r0, r2, r1), (r1, r0, r3), (r3, r2), (r0, r1, r3, r2)]:
        with pytest.raises(PreconditionViolated):
            ConcentricCycles(pg, order)


def random_rectangles(rng, m, box, out):
    """Append to `out` vertex-disjoint rectangles of embed_grid(_, m) inside
    the box (top, left, bottom, right): maybe one around the box, then the
    box's interior either split in two side by side or filled in the same
    way. The rectangles' discs form a tree that branches at each split."""
    top, left, bottom, right = box
    if bottom - top < 1 or right - left < 1:
        return
    if rng.random() < 0.6:
        out.append(rectangle(m, *box))
        top, left, bottom, right = top + 1, left + 1, bottom - 1, right - 1
    if rng.random() < 0.5 and right - left >= 3:
        c = rng.randint(left + 1, right - 2)
        parts = [(top, left, bottom, c), (top, c + 1, bottom, right)]
    elif rng.random() < 0.5 and bottom - top >= 3:
        r = rng.randint(top + 1, bottom - 2)
        parts = [(top, left, r, right), (r + 1, left, bottom, right)]
    else:
        parts = [(top, left, bottom, right)]
    for part in parts:
        random_rectangles(rng, m, part, out)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_nest_discs_of_side_by_side_and_nested_rectangles(rng):
    n, m = rng.randint(2, 12), rng.randint(2, 12)
    pg, cycles = embed_grid(n, m), []
    random_rectangles(rng, m, (0, 0, n - 1, m - 1), cycles)
    rng.shuffle(cycles)
    for i, c in enumerate(cycles):
        start = rng.randrange(len(c))
        c = c[start:] + c[:start]
        cycles[i] = c[::-1] if rng.random() < 0.5 else c
    assert plane._nest_discs(pg, cycles) == tuple(inside_faces(pg, c) for c in cycles)


def full_scan_band_path(pg, cycle, band, forbidden=frozenset(), allowed_edges=None):
    """The band search as it was first written: every edge of the graph is
    tested for lying in the band, in `pg.graph.edges` order."""
    on_cycle = set(cycle)
    avail = [[] for _ in range(pg.graph.n)]
    for u, v in pg.graph.edges:
        if u in forbidden or v in forbidden:
            continue
        if allowed_edges is not None and (u, v) not in allowed_edges:
            continue
        if edge_strictly_inside(pg, u, v, band):
            avail[u].append(v)
            avail[v].append(u)
    for u in cycle:
        for v in avail[u]:
            if v in on_cycle:
                return (u, v)
    parent, origin, stack = {}, {}, []
    for u in cycle:
        for v in avail[u]:
            if v in on_cycle or v in origin:
                continue
            origin[v], parent[v] = u, None
            stack.append(v)
            while stack:
                x = stack.pop()
                for y in avail[x]:
                    if y in on_cycle:
                        if y != origin[x]:
                            path = [y, x]
                            while parent[path[-1]] is not None:
                                path.append(parent[path[-1]])
                            path.append(origin[x])
                            return tuple(reversed(path))
                        continue
                    if y not in origin:
                        origin[y], parent[y] = origin[x], x
                        stack.append(y)
    return None


def full_scan_violation(cc, allowed_edges=None):
    for i in range(len(cc.cycles)):
        forbidden = frozenset(cc.cycles[i - 1]) if i > 0 else frozenset()
        below = cc.discs[i - 1] if i > 0 else frozenset()
        band = cc.discs[i] - below
        found = full_scan_band_path(cc.plane, cc.cycles[i], band, forbidden, allowed_edges)
        if found is not None:
            return (i, found)
    return None


def full_scan_tighten(cc):
    """The cycles that tighten returns, found with full_scan_band_path."""
    pg, cycles, below = cc.plane, list(cc.cycles), frozenset()
    for i in range(len(cycles)):
        forbidden = frozenset(cycles[i - 1]) if i > 0 else frozenset()
        disc = cc.discs[i]
        while (found := full_scan_band_path(pg, cycles[i], disc - below, forbidden)) is not None:
            cycles[i], disc = plane._reroute(pg, cycles[i], found, below)
        below = disc
    return tuple(cycles)


def test_tightness_agrees_with_the_full_edge_scan():
    rng = random.Random(2514)
    loose = 0
    for _ in range(240):
        pg, cycles = random_ring_nest(rng)
        cc = ConcentricCycles(pg, cycles)
        found = tight_violation(cc)
        assert found == full_scan_violation(cc)
        loose += found is not None
        allowed = frozenset(e for e in pg.graph.edges if rng.random() < 0.8)
        assert tight_violation(cc, allowed) == full_scan_violation(cc, allowed)
        assert tighten(cc).cycles == full_scan_tighten(cc)
    assert loose > 120


def test_well_tightness_agrees_with_the_full_edge_scan():
    rng = random.Random(77)
    for _ in range(40):
        w = random_well(rng)
        for v in (w, drain(w)):
            assert tight_violation(v.nest, v.union_edges) == full_scan_violation(
                v.nest, v.union_edges
            )


def test_plane_text_roundtrip():
    mesh, pg = embed_mesh(5, 3)
    back = parse_plane(write_plane(pg))
    assert back.graph == pg.graph
    assert back.rotation == pg.rotation
    assert back.faces == pg.faces and back.outer == pg.outer


# embed_mesh(5, 3) as text: vertex 0 has ring 5 1 4, vertex 5 has ring
# 10 6 0 9, the header reads 15 25 and the outer line 10 14
MESH_TEXT = write_plane(embed_mesh(5, 3)[1])


@pytest.mark.parametrize(
    "old, new, message",
    [
        pytest.param("rot 5 10 6 0 9", "rot 5 10 6 0 9\nrot 5 10 6 0 9", "repeated rot line for vertex 5", id="rot-repeated"),
        pytest.param("outer 10 14", "rot 15 0\nouter 10 14", "rot line for vertex 15, not in the graph", id="rot-stray"),
        pytest.param("rot 5 10 6 0 9", "rot 5 10 6 0 x", "not an integer", id="rot-not-integer"),
        pytest.param("\n0 1\n", "\n0 one\n", "not an integer", id="edge-not-integer"),
        pytest.param("outer 10 14", "outer 10 x", "not an integer", id="outer-not-integer"),
        pytest.param("rot 5 10 6 0 9", "rot 5 10 6 0", "rotation at vertex 5 does not list", id="ring-leaves-out"),
        pytest.param("rot 5 10 6 0 9", "rot 5 10 6 0 10", "rotation at vertex 5 does not list", id="ring-repeats"),
        pytest.param("rot 5 10 6 0 9", "rot 5 6 10 0 9", "rotation system is not planar", id="ring-not-planar"),
        pytest.param("rot 0 5 1 4", "rot 0 1 5 4", "rotation system is not planar", id="ring-reflected"),
        pytest.param("outer 10 14", "outer 10 14 13", "bad outer line", id="outer-three-numbers"),
        pytest.param("outer 10 14", "outer 10 12", r"outer dart \(10, 12\) is not a dart", id="outer-not-a-dart"),
        pytest.param("15 25\n", "15 26\n", "header promises 26 edges, found 25", id="header-edge-count"),
        pytest.param("15 25\n", "15 26\n0 1\n", "1 repeated edge", id="edge-repeated"),
    ],
)
def test_malformed_plane_text_is_rejected(old, new, message):
    assert old in MESH_TEXT
    with pytest.raises(PreconditionViolated, match=message):
        parse_plane(MESH_TEXT.replace(old, new, 1))


def test_parse_plane_needs_outer():
    mesh, pg = embed_mesh(5, 3)
    text = "\n".join(
        line
        for line in write_plane(pg).splitlines()
        if not line.startswith("outer")
    )
    with pytest.raises(PreconditionViolated):
        parse_plane(text)


# --- planarity -----------------------------------------------------------------


def check_against_networkx(g):
    """planar_embedding agrees with networkx, and a "yes" is one valid
    embedding per component with that component's vertices and edges."""
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    found = planar_embedding(g)
    assert (found is not None) == nx.check_planarity(nxg)[0]
    if found is None:
        return
    comps = sorted(nx.connected_components(nxg), key=min)
    assert len(found) == len(comps)
    for pg, comp in zip(found, comps):
        assert (pg.graph.n, pg.graph.m) == (len(comp), nxg.subgraph(comp).number_of_edges())
        # the rotation alone passes the constructor's Euler check again
        PlaneGraph(pg.graph, pg.rotation, pg.faces[pg.outer][0] if pg.graph.n > 1 else None)


@st.composite
def small_graphs(draw, max_n=10):
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph(n, [e for e in pairs if draw(st.booleans())])


@st.composite
def disjoint_unions(draw):
    parts = draw(st.lists(small_graphs(4), min_size=2, max_size=3))
    edges, base = [], 0
    for part in parts:
        edges += [(base + u, base + v) for u, v in part.edges]
        base += part.n
    return Graph(base, edges)


@st.composite
def forests(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    # vertex v > 0 hangs off an earlier vertex, or starts a new tree
    edges = []
    for v in range(1, n):
        parent = draw(st.integers(-1, v - 1))
        if parent >= 0:
            edges.append((parent, v))
    return Graph(n, edges)


@st.composite
def kuratowski_subdivisions(draw, max_n=10, with_k5=True):
    """K3,3 or (with_k5) K5 with some edges subdivided, up to max_n vertices,
    plus a few edges at random, its vertices shuffled: never planar."""
    if with_k5 and draw(st.booleans()):
        n, edges = 5, list(itertools.combinations(range(5), 2))
    else:
        n, edges = 6, [(a, b) for a in range(3) for b in range(3, 6)]
    out = []
    for u, v in edges:
        if n < max_n and draw(st.booleans()):
            out += [(u, n), (n, v)]
            n += 1
        else:
            out.append((u, v))
    out += draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))), max_size=3))
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in out])


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_graphs(), disjoint_unions(), forests(), kuratowski_subdivisions()))
def test_planarity_agrees_with_networkx(g):
    check_against_networkx(g)


def test_a_forest_and_the_empty_graph_are_planar():
    assert planar_embedding(Graph(0)) == []
    found = planar_embedding(Graph(5, [(0, 1), (3, 4)]))
    assert [(pg.graph.n, pg.graph.m) for pg in found] == [(2, 1), (1, 0), (2, 1)]


def test_too_many_edges_are_rejected_before_any_block_is_embedded(monkeypatch):
    import minorkit.plane as plane

    monkeypatch.setattr(plane, "_embed_block", None)
    assert planar_embedding(Graph(5, itertools.combinations(range(5), 2))) is None


@pytest.mark.parametrize(
    "g",
    [embed_grid(r, c).graph for r, c in [(1, 1), (2, 2), (3, 4), (5, 6), (8, 8)]]
    + [wall(k).graph for k in (1, 2, 3, 4)]
    + [embed_mesh(n, m)[0].graph for n, m in [(3, 1), (4, 3), (6, 3)]],
)
def test_grids_walls_and_meshes_are_planar(g):
    check_against_networkx(g)
    assert planar_embedding(g) is not None

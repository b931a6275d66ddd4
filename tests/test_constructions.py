"""Generator tests: grids, walls, rings, chorded-grid instances, gadget
families, bridged targets, decorations, and the deletion checker."""

import pytest

from minorkit import constructions
from minorkit.constructions import (
    CylindricalMesh,
    GadgetFamily,
    GammaInstance,
    WallSpec,
    _attachment_block,
    _five_regular_connected,
    _presence_model,
    cylindrical_mesh,
    decorate_gamma,
    gamma_hat,
    grid,
    h_graph,
    regular_gadgets,
    verify_hk_deletion,
    wall,
    z_graph,
)
from minorkit.decomposition import exact_treewidth
from minorkit.errors import (
    FamilyTooSmall,
    GenerationCapExceeded,
    ParameterTooSmall,
    SearchCapExceeded,
)
from minorkit.graphs import (
    Graph,
    RootedGraph,
    blocks,
    connected_components,
    delete_vertex,
    induced_subgraph,
    is_connected,
    parse_edge_list,
    write_edge_list,
)
from minorkit.linkages import Pattern, disjoint_paths, is_vital, pattern_of, validate_linkage
from minorkit.minors import canonical_code, find_minor, verify_minor_model
from test_minors import isomorphic


def code_of(g):
    return canonical_code(RootedGraph.of(g, ()))


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# --- grids ------------------------------------------------------------------------


def test_grid_2x2_is_a_four_cycle():
    g = grid(2, 2)
    assert isomorphic(g, Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))


def test_grid_shape_and_degrees():
    g = grid(3, 4)
    assert g.n == 12 and g.m == 3 * 3 + 2 * 4
    assert max(g.degree(v) for v in g.vertices()) == 4
    with pytest.raises(ParameterTooSmall):
        grid(0, 5)


# --- walls ------------------------------------------------------------------------


def test_wall_order_one_is_a_single_edge():
    w = wall(1)
    assert w.graph.n == 2 and w.graph.m == 1
    assert set(w.perimeter) == {0, 1}


def test_wall_three_degree_and_grid_minor():
    w = wall(3)
    assert isinstance(w, WallSpec)
    assert w.graph.n == 18
    assert max(w.graph.degree(v) for v in w.graph.vertices()) == 3
    assert find_minor(w.graph, grid(3, 3)) is not None


def test_wall_two_contains_two_by_two_grid():
    w = wall(2)
    assert max(w.graph.degree(v) for v in w.graph.vertices()) == 3
    assert find_minor(w.graph, grid(2, 2)) is not None


def test_wall_layers_partition_the_vertices():
    w = wall(4)
    seen = set()
    for layer in w.layers:
        assert not (layer & seen)
        seen |= layer
    assert seen == set(range(w.graph.n))
    # the perimeter walk uses only layer-0 vertices and consecutive edges
    assert set(w.perimeter) == set(w.layers[0])
    ring = list(w.perimeter) + [w.perimeter[0]]
    for a, b in zip(ring, ring[1:]):
        assert w.graph.has_edge(a, b)


def test_wall_perimeter_and_layers_are_pinned():
    # exact order, not just the vertex sets: the walk starts at vertex 0
    # and runs down the left side first, repeating the pendant corners
    assert wall(2).perimeter == (0, 4, 5, 6, 7, 6, 2, 3, 2, 1)
    assert wall(3).perimeter == (
        0, 6, 7, 13, 12, 13, 14, 15, 16, 17, 11, 10, 4, 5, 4, 3, 2, 1
    )
    assert wall(3).layers == (
        frozenset({0, 1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 14, 15, 16, 17}),
        frozenset({8, 9}),
    )


# --- cylindrical meshes ------------------------------------------------------------


@pytest.mark.parametrize("n, m", [(3, 3), (5, 4)])
def test_mesh_rail_cycle_incidence(n, m):
    mesh = cylindrical_mesh(n, m)
    assert isinstance(mesh, CylindricalMesh)
    assert len(mesh.cycles) == m and len(mesh.rails) == n
    for rail in mesh.rails:
        assert rail[0] in mesh.cycles[0] and rail[-1] in mesh.cycles[-1]
        for cyc, v in zip(mesh.cycles, rail):
            assert len(set(rail) & set(cyc)) == 1 and v in cyc
    with pytest.raises(ParameterTooSmall):
        cylindrical_mesh(0, m)


def test_mesh_small_parameters_still_build():
    mesh = cylindrical_mesh(1, 2)
    assert len(mesh.rails) == 1 and len(mesh.cycles) == 2
    assert len(mesh.cycles[0]) == 3  # shortest simple cycle
    with pytest.raises(ParameterTooSmall):
        cylindrical_mesh(0, 3)


# --- chorded-grid instances ---------------------------------------------------------


def test_gamma_two_exact_shape():
    gi = gamma_hat(2)
    assert isinstance(gi, GammaInstance)
    assert gi.side == 3 and gi.graph.n == 9
    chord = set(gi.graph.edges) - set(grid(3, 3).edges)
    assert chord == {(2, 8)}  # the single right-column chord
    assert gi.pairs == ((0, 6), (3, 5))
    assert gi.pattern == Pattern.of([(0, 6), (3, 5)])
    assert gi.terminals == frozenset({0, 6, 3, 5})


def test_gamma_two_labels_name_the_boundary_columns():
    g = gamma_hat(2).graph
    assert g.label_of(0) == "v1" and g.label_of(3) == "v2" and g.label_of(6) == "v3"
    assert g.label_of(2) == "u1" and g.vertex_by_label("u2") == 5


def test_gamma_two_witness_is_vital():
    gi = gamma_hat(2)
    assert gi.vitality == "proven"
    assert validate_linkage(gi.graph, gi.witness)
    assert pattern_of(gi.witness) == gi.pattern
    assert is_vital(gi.graph, gi.witness)


def test_gamma_two_treewidth_is_three():
    width, _ = exact_treewidth(gamma_hat(2).graph)
    assert width == 3


def test_gamma_three_core_is_a_seven_grid():
    gi = gamma_hat(3)
    assert gi.side == 7 and gi.graph.n == 49
    # the square grid survives as a subgraph: chords only get added
    assert set(grid(7, 7).edges) <= set(gi.graph.edges)
    assert gi.graph.m == 88
    assert gi.pairs == ((0, 14), (7, 35), (21, 27))
    assert sum(len(p) for p in gi.witness.paths) == 49
    assert validate_linkage(gi.graph, gi.witness)
    # the uniqueness search spends the default linkage budget
    assert gi.vitality == "deferred"


def test_gamma_four_builds_with_deferred_uniqueness():
    gi = gamma_hat(4)
    assert gi.side == 15 and gi.graph.n == 225
    assert len(gi.pairs) == 4
    assert gi.vitality == "deferred"
    assert validate_linkage(gi.graph, gi.witness)
    assert pattern_of(gi.witness) == gi.pattern
    assert sum(len(p) for p in gi.witness.paths) == 225


def test_gamma_needs_k_at_least_two():
    with pytest.raises(ParameterTooSmall):
        gamma_hat(1)


def test_gamma_edge_list_round_trips_with_labels():
    g = gamma_hat(2).graph
    assert parse_edge_list(write_edge_list(g)) == g


# --- top-chorded strips -------------------------------------------------------------


def test_z_one_is_a_path_with_one_chord():
    z = z_graph(1)
    assert z.graph.n == 3
    assert set(z.graph.edges) == {(0, 1), (1, 2), (0, 2)}
    assert z.annotated == frozenset({1})
    assert z.graph.label_of(1) == "x2"


def test_z_two_top_row_has_ten_vertices():
    z = z_graph(2)
    assert z.graph.n == 2 * 10  # two rows of ten columns
    chords = set(z.graph.edges) - set(grid(2, 10).edges)
    assert chords == {(0, 4), (1, 3), (5, 9), (6, 8)}
    assert z.annotated == frozenset({2, 7})


@pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
def test_z_marked_set_size(s):
    z = z_graph(s)
    assert len(z.annotated) == s
    cols = s * (2 * s + 1)
    assert z.graph.n == s * cols
    for v in z.annotated:
        assert v < cols  # marked vertices sit on the top row


def test_z_needs_positive_order():
    with pytest.raises(ParameterTooSmall):
        z_graph(0)


# --- gadget families ----------------------------------------------------------------


def test_gadgets_order_six_is_exactly_the_complete_graph():
    fam = regular_gadgets(1)
    assert isinstance(fam, GadgetFamily)
    assert fam.n_vertices == 6 and fam.available == 1
    assert isomorphic(fam.members[0], complete_graph(6))


def test_gadgets_order_eight_family():
    fam = regular_gadgets(2)
    assert fam.n_vertices == 8 and len(fam.members) == 2
    for g in fam.members:
        assert all(g.degree(v) == 5 for v in g.vertices())
        assert is_connected(g)
    assert code_of(fam.members[0]) != code_of(fam.members[1])


def test_gadgets_order_eight_match_the_complement_oracle():
    # A 5-regular graph on 8 vertices is the complement of a disjoint union
    # of cycles covering 8 vertices: one of C_8, C_3+C_5, C_4+C_4.
    def complement_of_cycles(lengths):
        edges = set()
        base = 0
        for ln in lengths:
            for i in range(ln):
                a, b = base + i, base + (i + 1) % ln
                edges.add((min(a, b), max(a, b)))
            base += ln
        comp = [
            (i, j)
            for i in range(8)
            for j in range(i + 1, 8)
            if (i, j) not in edges
        ]
        return Graph(8, comp)

    oracle = {
        code_of(complement_of_cycles(part))
        for part in ([8], [3, 5], [4, 4])
        if is_connected(complement_of_cycles(part))
    }
    generated = {code_of(g) for g in _five_regular_connected(8)}
    assert generated == oracle
    assert len(generated) == 3


def test_gadget_generation_cap_fires_beyond_the_reach(monkeypatch):
    # order 10, the cap, is made to carry no gadget, which skips its
    # exhaustive generation
    monkeypatch.setattr(
        constructions,
        "_five_regular_connected",
        lambda n: () if n == 10 else _five_regular_connected(n),
    )
    with pytest.raises(GenerationCapExceeded):
        regular_gadgets(5)
    with pytest.raises(ParameterTooSmall):
        regular_gadgets(0)


# --- bridged targets and decorations -------------------------------------------------


def test_target_graph_size_and_shape():
    fam = regular_gadgets(2)
    h = h_graph(2, fam)
    assert h.n == 2 * 2 * (2 + 8)  # two components of two blocks each
    comps = connected_components(h)
    assert len(comps) == 2
    blks, bridges = blocks(h)
    assert len(blks) == 4 and len(bridges) == 2
    assert all(len(b) == 10 for b in blks)
    assert h.label_of(0) == "s1" and h.label_of(1) == "s1'"
    assert h.vertex_by_label("t2'") is not None


def test_target_needs_enough_gadgets():
    fam = regular_gadgets(2)
    with pytest.raises(FamilyTooSmall):
        h_graph(3, fam)


def test_decoration_block_structure():
    fam = regular_gadgets(2)
    deco = decorate_gamma(2, fam)
    assert deco.graph.n == 9 + 4 * 9
    blks, bridges = blocks(deco.graph)
    assert len(blks) == 5 and not bridges
    expected = {frozenset(range(9))}
    for i in range(2):
        expected.add(deco.block_vertices(i, "s"))
        expected.add(deco.block_vertices(i, "t"))
    assert set(blks) == expected
    # terminals of a pair stay non-adjacent: the bridge is the target's job
    for s, t in deco.core.pairs:
        assert not deco.graph.has_edge(s, t)


def test_decoration_blocks_are_three_connected_min_degree_seven():
    fam = regular_gadgets(2)
    deco = decorate_gamma(2, fam)
    for i in range(2):
        for side in "st":
            block, _ = induced_subgraph(deco.graph, deco.block_vertices(i, side))
            assert min(block.degree(v) for v in block.vertices()) >= 7
            for a in range(block.n):
                for b in range(a + 1, block.n):
                    g2, _ = induced_subgraph(
                        block, set(range(block.n)) - {a, b}
                    )
                    assert is_connected(g2)


def test_punctured_gadget_blocks_stay_nonplanar_and_two_connected():
    fam = regular_gadgets(2)
    k5 = complete_graph(5)
    k33 = Graph(6, [(i, j + 3) for i in range(3) for j in range(3)])
    for gadget in fam.members:
        block = _attachment_block(gadget)
        for v in range(block.n):
            punctured, _ = delete_vertex(block, v)
            assert (
                find_minor(punctured, k5) is not None
                or find_minor(punctured, k33) is not None
            )
            blks, bridges = blocks(punctured)
            assert len(blks) == 1 and not bridges
            assert blks[0] == frozenset(range(punctured.n))


def test_decoration_treewidth_is_the_blockwise_maximum():
    # The attachment blocks outweigh the central grid at this order: the
    # decoration's treewidth equals the largest block treewidth, which here
    # exceeds the central value 3.  Only for large orders does the central
    # grid dominate.
    fam = regular_gadgets(2)
    deco = decorate_gamma(2, fam)
    central, _ = induced_subgraph(deco.graph, range(9))
    w_central, _ = exact_treewidth(central)
    assert w_central == 3
    block_widths = []
    for i in range(2):
        for side in "st":
            block, _ = induced_subgraph(deco.graph, deco.block_vertices(i, side))
            block_widths.append(exact_treewidth(block)[0])
    assert max(block_widths) > w_central


def test_decoration_is_the_core_plus_the_target_without_its_bridges():
    for k in (2, 3):
        fam = regular_gadgets(k)
        deco = decorate_gamma(k, fam)
        target = h_graph(k, fam)
        _, bridges = blocks(target)
        image = deco.image
        expected = set(deco.core.graph.edges)
        for u, v in target.edges:
            if (u, v) not in bridges:
                expected.add(tuple(sorted((image[u], image[v]))))
        assert deco.graph.edges == frozenset(expected)
        attached = {v for pair in deco.core.pairs for v in pair}
        fresh = [v for v in image if v not in attached]
        assert fresh == list(range(deco.core.graph.n, deco.graph.n))
        for x, v in enumerate(image):
            if v not in attached:
                assert deco.graph.label_of(v) == target.label_of(x)


def test_presence_model_places_the_target_at_k3():
    # verify_hk_deletion stops at k = 2; the presence half alone is cheap
    fam = regular_gadgets(3)
    deco = decorate_gamma(3, fam)
    assert verify_minor_model(deco.graph, h_graph(3, fam), _presence_model(deco))


def test_deletion_checker_full_run():
    rep = verify_hk_deletion(2, per_vertex=True)
    assert rep["minor_present"] is True
    assert rep["per_vertex_absent"] is True
    assert len(rep["absent"]) == 45 and all(rep["absent"])


def test_deletion_checker_codes_each_distinct_block_once(monkeypatch):
    # the gadgets themselves are coded too, on fewer vertices than a block
    block_order = regular_gadgets(2).n_vertices + 2
    inputs = []
    code = constructions.canonical_code

    def counted(rg, *args):
        if rg.graph.n == block_order:
            inputs.append((rg.graph.edges, rg.roots))
        return code(rg, *args)

    monkeypatch.setattr(constructions, "canonical_code", counted)
    assert verify_hk_deletion(2)["per_vertex_absent"] is True
    assert inputs and len(inputs) == len(set(inputs))


def test_deletion_checker_stage_arguments():
    fam = regular_gadgets(2)
    deco = decorate_gamma(2, fam)
    # deleting a gadget-internal vertex destroys one attachment block's size
    v_gadget = deco.image[2]
    g, _ = delete_vertex(deco.graph, v_gadget)
    intact = [b for b in blocks(g)[0] if len(b) == 10]
    assert len(intact) == 3
    # deleting an interior core vertex leaves the pairing query unsatisfiable
    core = deco.core
    interior = next(
        v for v in range(core.graph.n) if v not in core.terminals
    )
    cg, remap = delete_vertex(core.graph, interior)
    pat = Pattern.of((remap[s], remap[t]) for s, t in core.pairs)
    assert disjoint_paths(cg, pat) is None


def test_deletion_checker_parameter_guards():
    with pytest.raises(ParameterTooSmall):
        verify_hk_deletion(1)
    with pytest.raises(SearchCapExceeded):
        verify_hk_deletion(3)

"""Wells over a drawn host: structural validation, the drained and dry
normal forms, and the edge-dropping descent that reaches them."""

import random

import pytest

from minorkit.errors import PreconditionViolated
from minorkit.plane import embed_mesh, inside_faces
from minorkit.wells import (
    Well,
    _intersection_components,
    drain,
    dry,
    is_drained,
    is_dry,
    is_tight,
    pocket,
    random_well,
)


def _col(r, c, ln=6):
    return r * ln + c


def chain_well():
    """Two nested v-shaped paths over a three-ring nest, already dry."""
    mesh, pg = embed_mesh(6, 4)
    cycles = mesh.cycles[:3]
    deep = (18, 12, 6, 7, 8, 9, 15, 21)
    shallow = (19, 13, 14, 20)
    return Well(pg, cycles, (deep, shallow), (18, 19, 20, 21))


def test_chain_well_is_dry():
    w = chain_well()
    assert is_tight(w)
    assert is_drained(w)
    assert is_dry(w)


def test_chain_pockets_nest():
    w = chain_well()
    inner = pocket(w, 1)
    outer = pocket(w, 0)
    assert inner and outer
    assert inner < outer


def test_orphan_path_drains():
    # the deep path's only companion sits outside its pocket, so nothing
    # witnesses its crossing of the middle cycle
    mesh, pg = embed_mesh(8, 4)
    cycles = mesh.cycles[:3]
    orphan = (24, 16, 8, 9, 17, 25)
    far = (28, 20, 21, 29)
    w = Well(pg, cycles, (orphan, far), (24, 25, 28, 29))
    assert not is_drained(w)
    d = drain(w)
    assert is_drained(d)
    assert len(d.paths) == 2
    assert len(d.union_edges) <= len(w.union_edges)
    old = sorted(tuple(sorted((p[0], p[-1]))) for p in w.paths)
    new = sorted(tuple(sorted((p[0], p[-1]))) for p in d.paths)
    assert old == new


def test_w_path_dries():
    # one path dipping twice with a bump in between: drained for free,
    # dry only after the bump is rewritten away
    mesh, pg = embed_mesh(8, 4)
    cycles = mesh.cycles[:3]
    wpath = (24, 16, 8, 9, 17, 18, 10, 11, 19, 27)
    w = Well(pg, cycles, (wpath,), (24, 27))
    assert is_drained(w)
    assert not is_dry(w)
    d = dry(w)
    assert is_dry(d)
    assert len(d.union_edges) < len(w.union_edges)
    (p,) = d.paths
    assert {p[0], p[-1]} == {24, 27}


def test_dry_requires_tight():
    mesh, pg = embed_mesh(6, 4)
    skip = (mesh.cycles[0], mesh.cycles[2])
    v = (18, 12, 6, 7, 13, 19)
    w = Well(pg, skip, (v,), (18, 19))
    assert not is_tight(w)
    with pytest.raises(PreconditionViolated):
        dry(w)


def test_boundary_chord_is_exempt():
    # a path that never meets a cycle has no depth profile to check
    mesh, pg = embed_mesh(8, 4)
    cycles = mesh.cycles[:2]
    chord = (24, 16, 17, 25)
    w = Well(pg, cycles, (chord,), (24, 25))
    assert is_drained(w)
    assert is_dry(w)


def test_omega_must_sit_on_boundary():
    mesh, pg = embed_mesh(6, 4)
    with pytest.raises(PreconditionViolated):
        Well(pg, mesh.cycles[:3], ((18, 12, 13, 19),), (18, 12))


def test_path_endpoints_must_match_omega():
    mesh, pg = embed_mesh(6, 4)
    with pytest.raises(PreconditionViolated):
        Well(pg, mesh.cycles[:3], ((18, 12, 13, 19),), (18, 19, 20, 21))


def test_paths_must_be_internally_disjoint():
    mesh, pg = embed_mesh(6, 4)
    a = (18, 12, 13, 19)
    b = (20, 14, 13, 12, 18)
    with pytest.raises(PreconditionViolated):
        Well(pg, mesh.cycles[:3], (a, b), (18, 19, 20))


def test_cycles_must_avoid_boundary():
    mesh, pg = embed_mesh(6, 4)
    with pytest.raises(PreconditionViolated):
        Well(pg, mesh.cycles, ((18, 12, 13, 19),), (18, 19))


def test_random_wells_drain_and_dry():
    rng = random.Random(20260816)
    saw_undrained = saw_undry = 0
    for _ in range(40):
        w = random_well(rng)
        if not is_drained(w):
            saw_undrained += 1
        d = drain(w)
        assert is_drained(d)
        assert len(d.paths) == len(w.paths)
        assert len(d.union_edges) <= len(w.union_edges)
        if not is_dry(w):
            saw_undry += 1
        z = dry(w)
        assert is_dry(z)
        assert len(z.union_edges) <= len(w.union_edges)
        old = sorted(tuple(sorted((p[0], p[-1]))) for p in w.paths)
        assert old == sorted(tuple(sorted((p[0], p[-1]))) for p in z.paths)
    assert saw_undrained > 3
    assert saw_undry > 3


def test_drained_pockets_form_laminar_family():
    rng = random.Random(99)
    for _ in range(25):
        d = drain(random_well(rng))
        pockets = [pocket(d, i) for i in range(len(d.paths))]
        for i in range(len(pockets)):
            for j in range(i + 1, len(pockets)):
                a, b = pockets[i], pockets[j]
                assert a <= b or b <= a or not (a & b)


def _sides(w, p):
    """The discs of the two cycles that path p closes with the boundary."""
    walk, n = w.boundary, len(w.boundary)
    out = []
    for path in (p, p[::-1]):
        a, b = walk.index(path[-1]), walk.index(path[0])
        cyc = tuple(walk[(a + s) % n] for s in range((b - a) % n + 1)) + path[1:-1]
        out.append(inside_faces(w.plane, cyc) if len(cyc) >= 3 else frozenset())
    return out


def test_pocket_is_the_side_that_misses_the_innermost_disc():
    rng = random.Random(314)
    for _ in range(20):
        w = random_well(rng)
        for v in (w, drain(w)):
            faces = frozenset(range(len(v.plane.faces))) - {v.plane.outer}
            disc = v.nest.discs[0]
            for i, p in enumerate(v.paths):
                mine = pocket(v, i)
                sides = _sides(v, p)
                assert mine in sides
                other = sides[1] if mine == sides[0] else sides[0]
                assert not mine & disc and disc <= other
                assert not mine & other and mine | other == faces


def test_intersection_components_small_cases():
    cycle = (0, 1, 2, 3, 4, 5)
    assert _intersection_components((6, 0, 1, 2, 7), cycle) == 1  # one stretch
    assert _intersection_components((6, 5, 0, 7), cycle) == 1  # across the closing edge
    assert _intersection_components((0, 3), cycle) == 2  # a chord is not a cycle edge
    assert _intersection_components((0, 1, 7, 2, 3), cycle) == 2  # leaves and comes back
    assert _intersection_components((6, 7), cycle) == 0


"""Routing and curve systems: disc feasibility, the peeling router, the
cylinder caravan, and the cylinder's curve systems."""

from itertools import product

import pytest

from minorkit.errors import PreconditionViolated, TerminalNotOnBoundary
from minorkit.linkages import Pattern, disjoint_paths, pattern_of
from minorkit.plane import ConcentricCycles, mesh_nest
from minorkit.routing import (
    CurveSystem,
    annulus_from_json,
    annulus_to_json,
    feasible_on_disc,
    route_cylinder,
    route_disc,
)


def matchings(items):
    if not items:
        yield ()
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1 :]
        for rem in matchings(rest):
            yield ((first, items[i]),) + rem


def test_feasible_on_disc_basic():
    order = (10, 11, 12, 13)
    assert feasible_on_disc(Pattern.of([(10, 11), (12, 13)]), order)
    assert feasible_on_disc(Pattern.of([(10, 13), (11, 12)]), order)
    assert not feasible_on_disc(Pattern.of([(10, 12), (11, 13)]), order)


def test_feasible_on_disc_repeated_terminal():
    order = (1, 2, 3)
    assert not feasible_on_disc(Pattern.of([(1, 2), (2, 3)]), order)


def test_feasible_on_disc_errors():
    with pytest.raises(TerminalNotOnBoundary):
        feasible_on_disc(Pattern.of([(1, 9)]), (1, 2, 3))
    with pytest.raises(PreconditionViolated):
        feasible_on_disc(Pattern.of([(1, 2)]), (1, 2, 2))


def test_route_disc_single_pair_one_ring():
    mesh, pg, cc, rails = mesh_nest(4, 1)
    paths = [rails[0], rails[1]]
    pat = Pattern.of([(rails[0][0], rails[1][0])])
    lk = route_disc(cc, paths, pat)
    assert lk is not None and len(lk.paths) == 1


def test_route_disc_exhaustive_matches_noncrossing_counts():
    # the routable patterns on 2k boundary terminals are exactly the
    # non-crossing matchings: 1, 2, 5 of them for k = 1, 2, 3
    catalan = {1: 1, 2: 2, 3: 5}
    for k in (1, 2, 3):
        mesh, pg, cc, rails = mesh_nest(2 * k, k)
        terms = [r[0] for r in rails]
        routed = rejected = 0
        for pairs in matchings(terms):
            pat = Pattern.of(pairs)
            lk = route_disc(cc, rails, pat)
            if lk is None:
                assert not feasible_on_disc(pat, terms)
                rejected += 1
            else:
                assert feasible_on_disc(pat, terms)
                assert pattern_of(lk) == pat
                routed += 1
        assert routed == catalan[k]


def test_route_disc_leaves_inner_disc_untouched():
    # two spare rings below the nest the router is handed
    mesh, pg, cc, rails = mesh_nest(4, 4)
    sub = ConcentricCycles(pg, cc.cycles[2:])
    paths = [r[:2] for r in rails]
    spare = set(mesh.cycles[0]) | set(mesh.cycles[1])
    for pairs in matchings([p[0] for p in paths]):
        lk = route_disc(sub, paths, Pattern.of(pairs))
        if lk is not None:
            for route in lk.paths:
                assert not spare & set(route)


def test_route_disc_preconditions():
    mesh, pg, cc, rails = mesh_nest(4, 1)
    terms = [r[0] for r in rails]
    with pytest.raises(PreconditionViolated):
        route_disc(cc, rails, Pattern.of([(terms[0], terms[1]), (terms[2], terms[3])]))
    mesh, pg, cc, rails = mesh_nest(4, 2)
    with pytest.raises(PreconditionViolated):
        route_disc(cc, rails[:3], Pattern.of([(rails[0][0], rails[1][0])]))
    clipped = [rails[0], rails[1][:1], rails[2], rails[3]]
    with pytest.raises(PreconditionViolated):
        route_disc(cc, clipped, Pattern.of([(rails[0][0], rails[1][0]), (rails[2][0], rails[3][0])]))
    with pytest.raises(PreconditionViolated):
        route_disc(cc, rails, Pattern.of([(rails[0][0], rails[0][0]), (rails[1][0], rails[2][0])]))


def test_route_cylinder_exhaustive_against_solver():
    # every rotation and reversal of the rail list, every end assignment and
    # every matching, checked against the exact disjoint-paths engine on the
    # underlying graph
    for k in (1, 2):
        mesh, pg, cc, rails = mesh_nest(2 * k, 2 * k)
        rotations = [rails[s:] + rails[:s] for s in range(2 * k)]
        oracle = {}
        for order in rotations + [r[::-1] for r in rotations]:
            for assign in product((0, -1), repeat=2 * k):
                terms = [order[i][a] for i, a in enumerate(assign)]
                for pairs in matchings(terms):
                    pat = Pattern.of(pairs)
                    if pat not in oracle:
                        oracle[pat] = disjoint_paths(mesh.graph, pat)
                    lk = route_cylinder(cc, order, pat)
                    assert (lk is None) == (oracle[pat] is None)
                    if lk is not None:
                        assert pattern_of(lk) == pat


def test_route_cylinder_mixed_k3():
    mesh, pg, cc, rails = mesh_nest(6, 6)
    pat = Pattern.of(
        [
            (rails[0][0], rails[1][0]),
            (rails[2][0], rails[4][-1]),
            (rails[3][-1], rails[5][-1]),
        ]
    )
    lk = route_cylinder(cc, rails, pat)
    assert lk is not None and len(lk.paths) == 3


def test_route_cylinder_rotated_crossings():
    # all three pairs cross and the inner ends are rotated one slot:
    # the caravan has to spiral
    mesh, pg, cc, rails = mesh_nest(6, 6)
    pat = Pattern.of(
        [
            (rails[0][0], rails[3][-1]),
            (rails[1][0], rails[4][-1]),
            (rails[2][0], rails[5][-1]),
        ]
    )
    lk = route_cylinder(cc, rails, pat)
    assert lk is not None and pattern_of(lk) == pat


def test_route_cylinder_misaligned_rejected():
    # swapping two inner ends breaks the cyclic order of the crossing
    # pairs, which no drawing on the annulus can realize
    mesh, pg, cc, rails = mesh_nest(6, 6)
    pat = Pattern.of(
        [
            (rails[0][0], rails[3][-1]),
            (rails[1][0], rails[5][-1]),
            (rails[2][0], rails[4][-1]),
        ]
    )
    assert route_cylinder(cc, rails, pat) is None


def test_route_cylinder_trapped_local_rejected():
    # a local pair whose ends sit in different regions cut out by two
    # crossing pairs; one wall alone never traps, two do
    mesh, pg, cc, rails = mesh_nest(6, 6)
    pat = Pattern.of(
        [
            (rails[0][0], rails[2][0]),
            (rails[1][0], rails[3][-1]),
            (rails[4][0], rails[5][-1]),
        ]
    )
    assert route_cylinder(cc, rails, pat) is None


def test_route_cylinder_preconditions():
    mesh, pg, cc, rails = mesh_nest(4, 4)
    two = Pattern.of([(rails[0][0], rails[1][0]), (rails[2][0], rails[3][0])])
    short = ConcentricCycles(pg, cc.cycles[:3])
    with pytest.raises(PreconditionViolated):
        route_cylinder(short, [r[1:] for r in rails], two)
    hollow = ConcentricCycles(pg, cc.cycles[1:])
    with pytest.raises(PreconditionViolated):
        route_cylinder(hollow, [r[:-1] for r in rails], two)
    both_ends = Pattern.of(
        [(rails[0][0], rails[0][-1]), (rails[1][0], rails[2][0])]
    )
    with pytest.raises(PreconditionViolated):
        route_cylinder(cc, rails, both_ends)


def test_curve_system_cylinder():
    cs = CurveSystem.on_cylinder(
        4,
        4,
        [
            ((0, 0), (0, 1), 0),
            ((1, 0), (1, 1), 0),
            ((0, 2), (1, 2), 1),
            ((0, 3), (1, 3), 1),
        ],
    )
    assert cs.points == (4, 4) and cs.windings == (0, 0, 1, 1)
    with pytest.raises(PreconditionViolated):
        CurveSystem.on_cylinder(2, 2, [((0, 0), (0, 1), 1)])
    with pytest.raises(PreconditionViolated):
        CurveSystem.on_cylinder(
            2, 2, [((0, 0), (1, 0), 1), ((0, 1), (1, 1), -1)]
        )
    with pytest.raises(PreconditionViolated):
        CurveSystem.on_cylinder(
            4,
            2,
            [
                ((0, 0), (0, 2), 0),
                ((0, 1), (1, 0), 0),
                ((0, 3), (1, 1), 0),
            ],
        )


def test_cylinder_misaligned_crossings_rejected():
    with pytest.raises(PreconditionViolated):
        CurveSystem.on_cylinder(
            3,
            3,
            [
                ((0, 0), (1, 0), 0),
                ((0, 1), (1, 2), 0),
                ((0, 2), (1, 1), 0),
            ],
        )


def test_annulus_json_roundtrip():
    mesh, pg, cc, rails = mesh_nest(4, 4)
    cc2, paths = annulus_from_json(annulus_to_json(cc, rails))
    assert cc2.cycles == cc.cycles
    assert paths == tuple(rails)
    pat = Pattern.of([(rails[0][0], rails[1][0]), (rails[2][0], rails[3][0])])
    assert route_cylinder(cc2, paths, pat) is not None

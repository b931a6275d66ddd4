"""Feasibility tests and constructive routing on discs and cylinders.

Terminals sit on the outermost cycle of a nested system (disc case) or on
both the innermost and outermost cycles (cylinder case), attached through
vertex-disjoint paths that cross every cycle exactly once. Routing peels
cycles one at a time: a pair whose boundary arc is free of other active
paths is closed through that arc, everyone else keeps descending. On the
cylinder the local pairs close this way from both cuffs; the crossing pairs
then descend the band left between them in lockstep, one ring per round,
each sweeping along its ring toward the rail of its inner terminal.

Curve systems are the purely combinatorial shadow of the cylinder picture:
endpoints on the two cuffs, curves pairwise disjoint, and an integer
winding shared by every crossing curve. A cylinder pattern is routable
exactly when its curve system exists, with each terminal at its rail's
slot on its cuff and winding 0, so `route_cylinder` asks
`CurveSystem.on_cylinder` and does not test the pattern itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (
    IndexOutOfRange,
    PreconditionViolated,
    TerminalNotOnBoundary,
)
from .linkages import Linkage, Pattern, pattern_of, validate_linkage
from .plane import (
    ConcentricCycles,
    _arc,
    _is_cyclic_shift,
    parse_plane,
    vertex_strictly_inside,
    write_plane,
)


def feasible_on_disc(pattern, boundary_order):
    """Can the pattern be realized by disjoint curves in a disc with its
    terminals in this boundary order? True iff no two pairs interleave."""
    order = tuple(boundary_order)
    pos = {v: i for i, v in enumerate(order)}
    if len(pos) != len(order):
        raise PreconditionViolated("boundary order repeats a vertex")
    seen = []
    for a, b in pattern.pairs:
        for term in (a, b):
            if term not in pos:
                raise TerminalNotOnBoundary(
                    f"terminal {term} is not on the boundary"
                )
            seen.append(term)
    if len(set(seen)) != len(seen):
        return False
    return not _chords_cross([(pos[a], pos[b]) for a, b in pattern.pairs])


def _chords_cross(chords):
    """Do two of the chords, each a pair of positions on a circle,
    interleave?"""
    for i, (a, b) in enumerate(chords):
        a, b = sorted((a, b))
        for c, d in chords[i + 1 :]:
            if (a < c < b) != (a < d < b):
                return True
    return False


def _normalize_radial(cc, paths):
    """Orient every path to start on the outermost cycle, and index its
    crossings. Paths must be pairwise disjoint and cross each cycle in
    exactly one vertex, outermost first."""
    t = len(cc.cycles)
    sets = [set(c) for c in cc.cycles]
    norm = []
    for p in paths:
        p = tuple(p)
        if len(p) < 1:
            raise PreconditionViolated("empty crossing path")
        if p[0] in sets[t - 1] and p[-1] in sets[0]:
            pass
        elif p[-1] in sets[t - 1] and p[0] in sets[0]:
            p = tuple(reversed(p))
        else:
            raise PreconditionViolated(
                "crossing paths must run from the outermost cycle to the "
                "innermost one"
            )
        norm.append(p)
    taken = set()
    for p in norm:
        for v in p:
            if v in taken:
                raise PreconditionViolated("crossing paths share a vertex")
            taken.add(v)
        for a, b in zip(p, p[1:]):
            if not cc.plane.graph.has_edge(a, b):
                raise PreconditionViolated(f"path edge ({a},{b}) missing")
    cross = []
    for p in norm:
        where = []
        for j in range(t):
            hits = [i for i, v in enumerate(p) if v in sets[j]]
            if len(hits) != 1:
                raise PreconditionViolated(
                    "each path must cross each cycle exactly once"
                )
            where.append(hits[0])
        if any(where[j] <= where[j + 1] for j in range(t - 1)):
            raise PreconditionViolated(
                "path crossings must visit the cycles in nesting order"
            )
        cross.append(where)
    return norm, cross


def _peel(cc, norm, cross, pairs, wall_rails, level, step, seg_of):
    """Close pairs of rails through cycle arcs, one cycle per round from
    `level` on by `step`. A pair closes through whichever arc between its
    two crossings misses every other open rail, every wall rail and every
    arc already closed in the round; the route is the rails' segments
    `seg_of(rail, level)` joined by that arc. Returns the routes, in
    closing order, and the first level left untouched."""
    routes = []
    active = list(pairs)
    while active:
        cyc = cc.cycles[level]
        cpos = {v: i for i, v in enumerate(cyc)}
        walls = {norm[r][cross[r][level]] for r in wall_rails}
        remaining = {r for pair in active for r in pair}
        blocked = set()
        still = []
        for ra, rb in active:
            u = norm[ra][cross[ra][level]]
            v = norm[rb][cross[rb][level]]
            others = {
                norm[r][cross[r][level]] for r in remaining if r not in (ra, rb)
            }
            for direction in (1, -1):
                arc = _arc(cyc, cpos[u], cpos[v], direction)[1:-1]
                if set(arc) & (others | walls | blocked):
                    continue
                routes.append(
                    seg_of(ra, level) + arc + tuple(reversed(seg_of(rb, level)))
                )
                blocked |= set(arc) | {u, v}
                remaining.discard(ra)
                remaining.discard(rb)
                break
            else:
                still.append((ra, rb))
        assert len(still) < len(active), "no pair closed at a level"
        active = still
        level += step
    return routes, level


def route_disc(cc, paths, pattern):
    """Join the paired outer terminals by disjoint paths that stay out of
    the innermost cycle's open disc, or None when the pattern interleaves.

    Pairs close through cycle arcs from the outside in; each cycle level
    closes at least one pair, so only the outermost k cycles are touched.
    """
    t = len(cc.cycles)
    k = len(pattern.pairs)
    if k == 0:
        return Linkage.of(())
    if t < k:
        raise PreconditionViolated(f"need at least {k} cycles, have {t}")
    if len(paths) != 2 * k:
        raise PreconditionViolated("need exactly two crossing paths per pair")
    norm, cross = _normalize_radial(cc, paths)
    terms = [p[0] for p in norm]
    if pattern.terminals() != set(terms):
        raise PreconditionViolated(
            "pattern terminals must be the outer endpoints of the paths"
        )
    opos = {v: i for i, v in enumerate(cc.cycles[t - 1])}
    border = tuple(sorted(terms, key=lambda v: opos[v]))
    if not feasible_on_disc(pattern, border):
        return None

    by_term = {p[0]: i for i, p in enumerate(norm)}
    routes, _ = _peel(
        cc,
        norm,
        cross,
        [(by_term[a], by_term[b]) for a, b in pattern.pairs],
        (),
        t - 1,
        -1,
        lambda r, lv: norm[r][: cross[r][lv] + 1],
    )

    linkage = Linkage.of(routes)
    assert validate_linkage(cc.plane.graph, linkage)
    assert pattern_of(linkage) == Pattern.of(pattern.pairs)
    inner = cc.discs[0]
    for route in routes:
        for v in route:
            assert not vertex_strictly_inside(cc.plane, v, inner)
    return linkage


def _cuff_ok(n_points, chords, walls):
    """Can the local chords on a cuff of n_points positions be drawn
    disjointly, with crossing curves leaving at the walls? Positions are
    read from the first wall on, so no chord may hold a wall inside it."""
    start = min(walls, default=0)

    def at(p):
        return (p - start) % n_points

    return not _chords_cross(chords) and not any(
        min(at(a), at(b)) < at(w) < max(at(a), at(b)) for a, b in chords for w in walls
    )


def _slot_frames(cc, norm, cross):
    """Per ring, the rails in crossing order, oriented consistently with
    the outermost ring. Returns (slot order as rail ids, per-ring walk
    direction) or None when some ring sees the rails in a different
    cyclic order."""
    t = len(cc.cycles)
    frames = []
    for r in range(t):
        pos = {v: i for i, v in enumerate(cc.cycles[r])}
        seq = sorted(range(len(norm)), key=lambda i: pos[norm[i][cross[i][r]]])
        frames.append(seq)
    ref = frames[t - 1]
    steps = [0] * t
    for r in range(t):
        if _is_cyclic_shift(frames[r], ref):
            steps[r] = 1
        elif _is_cyclic_shift(tuple(reversed(frames[r])), ref):
            steps[r] = -1
        else:
            return None
    return ref, steps


def route_cylinder(cc, paths, pattern):
    """Route local and crossing pairs between the two cuffs of an annulus
    whose innermost cycle bounds a single empty face, or None when the
    pattern has no curve system on the cylinder: a local pair traps a
    terminal on its cuff, or the crossing pairs meet the two cuffs in
    orders that are not rotations of each other.

    Local pairs close through cuff-side arcs round by round, exactly as on
    the disc. Crossing pairs then descend the untouched middle band in
    lockstep, one ring per round, each sweeping toward its target rail as
    far as the gap to its neighbour allows. Routes only ever use cycle
    edges and the given paths.
    """
    t = len(cc.cycles)
    k = len(pattern.pairs)
    g = cc.plane.graph
    if k == 0:
        return Linkage.of(())
    if t < 2 * k:
        raise PreconditionViolated(f"need at least {2 * k} cycles, have {t}")
    if len(cc.discs[0]) != 1:
        raise PreconditionViolated(
            "the innermost cycle must bound a single empty face"
        )
    if len(paths) != 2 * k:
        raise PreconditionViolated("need exactly two rails per pair")
    norm, cross = _normalize_radial(cc, paths)

    terminals = pattern.terminals()
    if len(terminals) != 2 * k:
        raise PreconditionViolated("pattern terminals must be distinct")
    rail_of = {}
    cuff_of = {}
    for i, p in enumerate(norm):
        at_outer = p[0] in terminals
        at_inner = p[-1] in terminals
        if at_outer == at_inner:
            raise PreconditionViolated(
                "each rail must supply exactly one pattern terminal"
            )
        term = p[0] if at_outer else p[-1]
        rail_of[term] = i
        cuff_of[term] = 0 if at_outer else 1

    framed = _slot_frames(cc, norm, cross)
    if framed is None:
        raise PreconditionViolated("rails are not radially parallel")
    slot_order, ring_steps = framed
    slot_of = {rail: s for s, rail in enumerate(slot_order)}

    try:
        CurveSystem.on_cylinder(
            2 * k,
            2 * k,
            [
                ((cuff_of[a], slot_of[rail_of[a]]), (cuff_of[b], slot_of[rail_of[b]]), 0)
                for a, b in pattern.pairs
            ],
        )
    except PreconditionViolated:
        return None
    local = ([], [])  # per cuff
    crossing = []
    for pid, (a, b) in enumerate(pattern.pairs):
        if cuff_of[a] == cuff_of[b]:
            local[cuff_of[a]].append((rail_of[a], rail_of[b]))
        else:
            out_t, in_t = (a, b) if cuff_of[a] == 0 else (b, a)
            crossing.append((pid, rail_of[out_t], rail_of[in_t]))

    # A crossing pair's route hugs its outer rail above the transfer ring
    # and its inner rail below, so each cuff's rounds only need to steer
    # around the rails on their own side.
    routes, hi = _peel(
        cc,
        norm,
        cross,
        local[0],
        [ro for _, ro, _ in crossing],
        t - 1,
        -1,
        lambda r, lv: norm[r][: cross[r][lv] + 1],
    )
    inner_routes, lo = _peel(
        cc,
        norm,
        cross,
        local[1],
        [ri for _, _, ri in crossing],
        0,
        1,
        lambda r, lv: tuple(reversed(norm[r][cross[r][lv] :])),
    )
    routes += inner_routes

    if crossing:
        n_slots = 2 * k
        c = len(crossing)
        band = hi - lo + 1
        nets = sorted(crossing, key=lambda e: slot_of[e[1]])
        xs = [slot_of[ro] for _, ro, _ in nets]
        in_slots = sorted(slot_of[ri] for _, _, ri in nets)
        out_ids = [pid for pid, _, _ in nets]
        in_ids = [
            pid for pid, _, _ in sorted(crossing, key=lambda e: slot_of[e[2]])
        ]
        delta = next(
            d
            for d in range(c)
            if all(out_ids[(j + d) % c] == in_ids[j] for j in range(c))
        )

        def simulate(w):
            """One lockstep descent: per band ring every net sweeps toward
            its lifted target slot, never past its neighbour. Returns the
            per-ring moves, or None if the band is too short for this
            winding."""
            rem = []
            for m in range(c):
                j = (m - delta) % c
                lift = in_slots[j] + n_slots * (
                    w + (1 if delta and m >= delta else 0)
                )
                rem.append(lift - xs[m])
            pos = list(xs)
            rounds = []
            while any(rem):
                if len(rounds) >= band:
                    return None
                gaps = [
                    pos[(m + 1) % c] + (n_slots if m == c - 1 else 0) - pos[m] - 1
                    for m in range(c)
                ]
                plus = [
                    min(rem[m], gaps[m]) if rem[m] > 0 else 0
                    for m in range(c)
                ]
                moves = []
                for m in range(c):
                    a = plus[m]
                    if rem[m] < 0:
                        room = gaps[(m - 1) % c] - plus[(m - 1) % c]
                        a = -min(-rem[m], room)
                    pos[m] += a
                    rem[m] -= a
                    moves.append(a)
                rounds.append(moves)
            return rounds

        best = None
        for w in (-2, -1, 0, 1, 2):
            sim = simulate(w)
            if sim is not None and (best is None or len(sim) < len(best)):
                best = sim
        assert best is not None, "crossing pairs do not fit the band"

        cur = list(xs)
        grown = [list(norm[ro][: cross[ro][hi] + 1]) for _, ro, _ in nets]
        level = hi
        for it, moves in enumerate(best):
            cyc = cc.cycles[level]
            cpos = {v: i for i, v in enumerate(cyc)}
            for m, a in enumerate(moves):
                if a:
                    new_slot = (cur[m] + a) % n_slots
                    ra, rb = slot_order[cur[m]], slot_order[new_slot]
                    va = norm[ra][cross[ra][level]]
                    vb = norm[rb][cross[rb][level]]
                    step = ring_steps[level] * (1 if a > 0 else -1)
                    grown[m].extend(_arc(cyc, cpos[va], cpos[vb], step)[1:])
                    cur[m] = new_slot
            if it + 1 < len(best):
                for m in range(c):
                    r = slot_order[cur[m]]
                    grown[m].extend(
                        norm[r][cross[r][level] + 1 : cross[r][level - 1] + 1]
                    )
                level -= 1
        for m in range(c):
            r = slot_order[cur[m]]
            assert r == nets[m][2], "net ended on the wrong rail"
            grown[m].extend(norm[r][cross[r][level] + 1 :])
            routes.append(tuple(grown[m]))

    linkage = Linkage.of(routes)
    assert len(linkage.paths) == k
    assert validate_linkage(g, linkage)
    assert pattern_of(linkage) == Pattern.of(pattern.pairs)
    return linkage


# --- curve systems -----------------------------------------------------------------


@dataclass(frozen=True)
class CurveSystem:
    """Disjoint boundary-to-boundary curves on the cylinder, up to deformation.

    points counts the marked boundary positions per cuff; curves reference
    (cuff, position) endpoints. Every crossing curve carries one shared
    integer winding; locals carry zero.
    """

    points: tuple
    curves: tuple
    windings: tuple

    @staticmethod
    def on_cylinder(n_outer, n_inner, curves):
        sizes = (n_outer, n_inner)
        canon = []
        winds = []
        for (c1, p1), (c2, p2), w in curves:
            for cuff, p in ((c1, p1), (c2, p2)):
                if cuff not in (0, 1):
                    raise IndexOutOfRange(f"no cuff {cuff}")
                if not 0 <= p < sizes[cuff]:
                    raise IndexOutOfRange(
                        f"position {p} not in [0,{sizes[cuff]}) on cuff {cuff}"
                    )
            canon.append(((c1, p1), (c2, p2)))
            winds.append(int(w))
        ends = [e for cur in canon for e in cur]
        if len(set(ends)) != len(ends):
            raise PreconditionViolated("curve endpoints must be distinct")
        cross_w = set()
        for ((c1, _), (c2, _)), w in zip(canon, winds):
            if c1 == c2:
                if w != 0:
                    raise PreconditionViolated("local curves cannot wind")
            else:
                cross_w.add(w)
        if len(cross_w) > 1:
            raise PreconditionViolated(
                "crossing curves must share one winding"
            )
        seqs = []
        for cuff in (0, 1):
            chords, marks = [], []
            for pid, ((c1, p1), (c2, p2)) in enumerate(canon):
                if c1 == c2 == cuff:
                    chords.append((p1, p2))
                elif c1 != c2:
                    marks.append((p1 if c1 == cuff else p2, pid))
            if not _cuff_ok(sizes[cuff], chords, [p for p, _ in marks]):
                raise PreconditionViolated(
                    "local curves trap endpoints on a cuff"
                )
            seqs.append([pid for _, pid in sorted(marks)])
        if seqs[0] and not _is_cyclic_shift(seqs[0], seqs[1]):
            raise PreconditionViolated("crossing curves are misaligned")
        return CurveSystem(sizes, tuple(canon), tuple(winds))


# --- external format ---------------------------------------------------------------


def annulus_to_json(cc, paths):
    return json.dumps(
        {
            "cycles": [list(c) for c in cc.cycles],
            "paths": [list(p) for p in paths],
            "plane": write_plane(cc.plane),
        },
        sort_keys=True,
    )


def _vertex_lists(value):
    """Is value a JSON list of lists of integers?"""
    return isinstance(value, list) and all(
        isinstance(seq, list) and all(type(v) is int for v in seq) for seq in value
    )


def annulus_from_json(text):
    """Inverse of annulus_to_json. Raises PreconditionViolated on text that
    is not JSON, lacks a field or has one of the wrong type: the plane is
    text, the cycles and paths are lists of vertex lists."""
    try:
        data = json.loads(text)
        plane_text, cycles, paths = data["plane"], data["cycles"], data["paths"]
    except (KeyError, TypeError, ValueError) as exc:
        raise PreconditionViolated(f"malformed annulus: {exc!r}") from exc
    if not (isinstance(plane_text, str) and _vertex_lists(cycles) and _vertex_lists(paths)):
        raise PreconditionViolated(
            "malformed annulus: the plane must be text, the cycles and paths lists of vertex lists"
        )
    cc = ConcentricCycles(parse_plane(plane_text), cycles)
    return cc, tuple(tuple(p) for p in paths)

"""Constructive routing on discs and cylinders.

Terminals sit on the cuffs of a nested system of cycles, the outermost
cycle and the innermost one, each at one end of its own rail: rails are
vertex-disjoint paths that cross every cycle exactly once. One router
serves both surfaces, because a disc is the cylinder in which every
terminal sits on the outer cuff; `route_disc` and `route_cylinder` differ
only in their preconditions.

A pattern is routable exactly when, on each cuff, the local pairs (both
ends on that cuff) neither interleave nor enclose the end of a crossing
pair, and the crossing pairs meet the two cuffs in the same cyclic order
(`_routable`). Routing peels cycles one at a time: a pair whose boundary
arc is free of other active rails is closed through that arc, everyone
else keeps descending. The local pairs close this way from both cuffs; the
crossing pairs then descend the band left between them in lockstep, one
ring per round, each sweeping along its ring toward the rail of its inner
terminal.
"""

from __future__ import annotations

import json

from .errors import PreconditionViolated
from .linkages import Linkage, Pattern, pattern_of, validate_linkage
from .plane import (
    ConcentricCycles,
    _arc,
    _is_cyclic_shift,
    parse_plane,
    vertex_strictly_inside,
    write_plane,
)


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
    k = len(pattern.pairs)
    if len(cc.cycles) < k:
        raise PreconditionViolated(f"need at least {k} cycles, have {len(cc.cycles)}")
    if not pattern.terminals() <= set(cc.cycles[-1]):
        raise PreconditionViolated("pattern terminals must lie on the outermost cycle")
    linkage = _route(cc, paths, pattern)
    if linkage is not None:
        inner = cc.discs[0]
        for route in linkage.paths:
            for v in route:
                assert not vertex_strictly_inside(cc.plane, v, inner)
    return linkage


def route_cylinder(cc, paths, pattern):
    """Route local and crossing pairs between the two cuffs of an annulus
    whose innermost cycle bounds a single empty face, or None when a local
    pair traps a terminal on its cuff, or the crossing pairs meet the two
    cuffs in orders that are not rotations of each other.

    Local pairs close through cuff-side arcs round by round, exactly as on
    the disc. Crossing pairs then descend the untouched middle band in
    lockstep, one ring per round, each sweeping toward its target rail as
    far as the gap to its neighbour allows. Routes only ever use cycle
    edges and the given paths.
    """
    k = len(pattern.pairs)
    if len(cc.cycles) < 2 * k:
        raise PreconditionViolated(f"need at least {2 * k} cycles, have {len(cc.cycles)}")
    if len(cc.discs[0]) != 1:
        raise PreconditionViolated(
            "the innermost cycle must bound a single empty face"
        )
    return _route(cc, paths, pattern)


def _routable(n_slots, ends):
    """Can the pairs of (cuff, slot) ends, with slots numbered alike on
    both cuffs, be joined by disjoint curves on the cylinder? On each cuff
    no two local pairs may interleave, and no local pair may enclose the
    end of a crossing pair, read from the first such end on; the crossing
    pairs must meet the two cuffs in the same cyclic order."""
    orders = []
    for cuff in (0, 1):
        chords = [(p, q) for (c, p), (d, q) in ends if c == d == cuff]
        marks = sorted(
            (p if c == cuff else q, i) for i, ((c, p), (d, q)) in enumerate(ends) if c != d
        )
        start = marks[0][0] if marks else 0
        spans = [sorted(((p - start) % n_slots, (q - start) % n_slots)) for p, q in chords]
        if any(a < (w - start) % n_slots < b for a, b in spans for w, _ in marks):
            return False
        if any((a < c < b) != (a < d < b) for i, (a, b) in enumerate(spans) for c, d in spans[i + 1 :]):
            return False
        orders.append([i for _, i in marks])
    return _is_cyclic_shift(orders[0], orders[1])


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


def _route(cc, paths, pattern):
    """The router behind `route_disc` and `route_cylinder`: join the paired
    terminals, each at one end of its own rail, by disjoint paths along the
    rails and the cycles, or None when the pattern is not `_routable`."""
    t = len(cc.cycles)
    k = len(pattern.pairs)
    if k == 0:
        return Linkage.of(())
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
        # on a one-cycle nest a rail is one vertex, and that is its outer end
        at_inner = len(p) > 1 and p[-1] in terminals
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

    ends = [
        ((cuff_of[a], slot_of[rail_of[a]]), (cuff_of[b], slot_of[rail_of[b]]))
        for a, b in pattern.pairs
    ]
    if not _routable(2 * k, ends):
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
    assert validate_linkage(cc.plane.graph, linkage)
    assert pattern_of(linkage) == Pattern.of(pattern.pairs)
    return linkage


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

"""Feasibility tests and constructive routing on discs and cylinders.

Terminals sit on the outermost cycle of a nested system (disc case) or on
both the innermost and outermost cycles (cylinder case), attached through
vertex-disjoint paths that cross every cycle exactly once. Routing peels
cycles one at a time: a pair whose boundary arc is free of other active
paths is closed through that arc, everyone else keeps descending. The
cylinder adds a half-depth transfer for the first crossing pair and solves
the remaining crossing pairs exactly in what is left of the host.

Curve systems are the purely combinatorial shadow of the same picture:
endpoints on boundary circles, curves pairwise disjoint, and on the
cylinder an integer winding shared by every crossing curve.
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
    pairs = pattern.pairs
    for i in range(len(pairs)):
        a, b = sorted((pos[pairs[i][0]], pos[pairs[i][1]]))
        for j in range(i + 1, len(pairs)):
            inside_c = a < pos[pairs[j][0]] < b
            inside_d = a < pos[pairs[j][1]] < b
            if inside_c != inside_d:
                return False
    return True


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


def _arc_between(cyc, cpos, u, v, step):
    """Vertices strictly between u and v along the cycle, walking by step."""
    out = []
    k = (cpos[u] + step) % len(cyc)
    while cyc[k] != v:
        out.append(cyc[k])
        k = (k + step) % len(cyc)
    return tuple(out)


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
    active = [(by_term[a], by_term[b]) for a, b in pattern.pairs]
    routes = []
    for level in range(t - 1, -1, -1):
        if not active:
            break
        cyc = cc.cycles[level]
        cpos = {v: i for i, v in enumerate(cyc)}
        front = {}
        remaining = set()
        for ia, ib in active:
            for i in (ia, ib):
                front[i] = norm[i][cross[i][level]]
                remaining.add(i)
        blocked = set()
        still = []
        for ia, ib in active:
            u, v = front[ia], front[ib]
            others = {front[i] for i in remaining if i not in (ia, ib)}
            closed = False
            for step in (1, -1):
                arc = _arc_between(cyc, cpos, u, v, step)
                if set(arc) & (others | blocked):
                    continue
                seg_a = norm[ia][: cross[ia][level] + 1]
                seg_b = norm[ib][: cross[ib][level] + 1]
                routes.append(seg_a + arc + tuple(reversed(seg_b)))
                blocked |= set(arc) | {u, v}
                remaining.discard(ia)
                remaining.discard(ib)
                closed = True
                break
            if not closed:
                still.append((ia, ib))
        active = still
    assert not active, "peeling ran out of cycles on a feasible pattern"

    linkage = Linkage.of(routes)
    assert validate_linkage(cc.plane.graph, linkage)
    assert pattern_of(linkage) == Pattern.of(pattern.pairs)
    inner = cc.discs[0]
    for route in routes:
        for v in route:
            assert not vertex_strictly_inside(cc.plane, v, inner)
    return linkage


def _brackets_ok(tokens):
    """tokens = (pair_id, is_wall). Local pairs must match away from walls
    and nest; walls are never removed. Cyclic when no wall is present."""
    walls = [i for i, (_, is_wall) in enumerate(tokens) if is_wall]
    if not walls:
        seq = [pid for pid, _ in tokens]
        changed = True
        while seq and changed:
            changed = False
            n = len(seq)
            for i in range(n):
                j = (i + 1) % n
                if i != j and seq[i] == seq[j]:
                    for idx in sorted((i, j), reverse=True):
                        seq.pop(idx)
                    changed = True
                    break
        return not seq
    n = len(tokens)
    stack = []
    for off in range(1, n + 1):
        pid, is_wall = tokens[(walls[0] + off) % n]
        if is_wall:
            if stack:
                return False
        elif stack and stack[-1] == pid:
            stack.pop()
        else:
            stack.append(pid)
    return not stack


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
    whose innermost cycle bounds a single empty face, or None if the
    pattern traps a terminal on its cuff or pairs the cuffs in
    incompatibly rotated orders.

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
    if set(rail_of) != terminals:
        raise PreconditionViolated(
            "pattern terminals must be rail endpoints"
        )

    framed = _slot_frames(cc, norm, cross)
    if framed is None:
        raise PreconditionViolated("rails are not radially parallel")
    slot_order, ring_steps = framed
    slot_of = {rail: s for s, rail in enumerate(slot_order)}

    pair_id = {}
    for pid, (a, b) in enumerate(pattern.pairs):
        pair_id[a] = pid
        pair_id[b] = pid
    locals_out = []
    locals_in = []
    crossing = []
    for pid, (a, b) in enumerate(pattern.pairs):
        ca, cb = cuff_of[a], cuff_of[b]
        if ca == 0 and cb == 0:
            locals_out.append((pid, rail_of[a], rail_of[b]))
        elif ca == 1 and cb == 1:
            locals_in.append((pid, rail_of[a], rail_of[b]))
        else:
            out_t, in_t = (a, b) if ca == 0 else (b, a)
            crossing.append((pid, rail_of[out_t], rail_of[in_t]))

    crossing_rails = {r for _, ro, ri in crossing for r in (ro, ri)}
    outer_tokens = [
        (pair_id[norm[r][0]], r in crossing_rails)
        for r in slot_order
        if norm[r][0] in terminals
    ]
    inner_tokens = [
        (pair_id[norm[r][-1]], r in crossing_rails)
        for r in slot_order
        if norm[r][-1] in terminals
    ]
    if not _brackets_ok(outer_tokens) or not _brackets_ok(inner_tokens):
        return None
    out_x = [pid for pid, is_wall in outer_tokens if is_wall]
    in_x = [pid for pid, is_wall in inner_tokens if is_wall]
    if out_x and not _is_cyclic_shift(in_x, out_x):
        return None

    routes = []
    used = set()

    def close_locals(local_pairs, wall_rails, start_level, step, seg_of):
        """A crossing pair's route hugs its outer rail above the transfer
        ring and its inner rail below, so each cuff's rounds only need to
        steer around the rails on their own side."""
        level = start_level
        act = list(local_pairs)
        while act:
            cyc = cc.cycles[level]
            cpos = {v: i for i, v in enumerate(cyc)}
            walls = {norm[r][cross[r][level]] for r in wall_rails}
            remaining = {r for _, ra, rb in act for r in (ra, rb)}
            blocked = set()
            still = []
            for pid, ra, rb in act:
                u = norm[ra][cross[ra][level]]
                v = norm[rb][cross[rb][level]]
                others = {
                    norm[r][cross[r][level]]
                    for r in remaining
                    if r not in (ra, rb)
                }
                closed = False
                for direction in (1, -1):
                    arc = _arc_between(cyc, cpos, u, v, direction)
                    if set(arc) & (others | walls | blocked):
                        continue
                    route = (
                        seg_of(ra, level)
                        + arc
                        + tuple(reversed(seg_of(rb, level)))
                    )
                    routes.append(route)
                    used.update(route)
                    blocked |= set(arc) | {u, v}
                    remaining.discard(ra)
                    remaining.discard(rb)
                    closed = True
                    break
                if not closed:
                    still.append((pid, ra, rb))
            assert len(still) < len(act), "no local pair closed at a level"
            act = still
            level += step
        return level

    out_rails = {ro for _, ro, _ in crossing}
    in_rails = {ri for _, _, ri in crossing}
    hi = close_locals(
        locals_out,
        out_rails,
        t - 1,
        -1,
        lambda r, lv: norm[r][: cross[r][lv] + 1],
    )
    lo = close_locals(
        locals_in,
        in_rails,
        0,
        1,
        lambda r, lv: tuple(reversed(norm[r][cross[r][lv]:])),
    )

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
                snap = list(pos)
                if c == 1:
                    gaps = [n_slots - 1]
                else:
                    gaps = [
                        snap[(m + 1) % c]
                        + (n_slots if m == c - 1 else 0)
                        - snap[m]
                        - 1
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
        cur_rail = [ro for _, ro, _ in nets]
        grown = [list(norm[ro][: cross[ro][hi] + 1]) for _, ro, _ in nets]
        level = hi
        for it, moves in enumerate(best):
            cyc = cc.cycles[level]
            cpos = {v: i for i, v in enumerate(cyc)}
            for m, a in enumerate(moves):
                if a:
                    new_slot = (cur[m] + a) % n_slots
                    new_rail = slot_order[new_slot]
                    va = norm[cur_rail[m]][cross[cur_rail[m]][level]]
                    vb = norm[new_rail][cross[new_rail][level]]
                    step = ring_steps[level] * (1 if a > 0 else -1)
                    grown[m].extend(_arc_between(cyc, cpos, va, vb, step))
                    grown[m].append(vb)
                    cur[m] = new_slot
                    cur_rail[m] = new_rail
            if it + 1 < len(best):
                for m in range(c):
                    r = cur_rail[m]
                    grown[m].extend(
                        norm[r][cross[r][level] + 1 : cross[r][level - 1] + 1]
                    )
                level -= 1
        for m in range(c):
            r = cur_rail[m]
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
    """Disjoint boundary-to-boundary curves up to deformation.

    points counts the marked boundary positions per cuff; curves reference
    (cuff, position) endpoints. On the cylinder every crossing curve
    carries one shared integer winding; locals carry zero.
    """

    kind: str
    points: tuple
    curves: tuple
    windings: tuple

    @staticmethod
    def on_disc(n_points, chords):
        chords = tuple((int(a), int(b)) for a, b in chords)
        ends = []
        for a, b in chords:
            for x in (a, b):
                if not 0 <= x < n_points:
                    raise IndexOutOfRange(f"position {x} not in [0,{n_points})")
                ends.append(x)
        if len(set(ends)) != len(ends):
            raise PreconditionViolated("curve endpoints must be distinct")
        for i in range(len(chords)):
            a, b = sorted(chords[i])
            for j in range(i + 1, len(chords)):
                in_c = a < chords[j][0] < b
                in_d = a < chords[j][1] < b
                if in_c != in_d:
                    raise PreconditionViolated("curves cross on the disc")
        return CurveSystem(
            "disc", (n_points,), chords, tuple(0 for _ in chords)
        )

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
        for cuff in (0, 1):
            tokens = []
            for pid, ((c1, p1), (c2, p2)) in enumerate(canon):
                for c, p in (((c1, p1)), ((c2, p2))):
                    if c == cuff:
                        tokens.append((p, pid, c1 != c2))
            tokens.sort()
            if not _brackets_ok([(pid, x) for _, pid, x in tokens]):
                raise PreconditionViolated(
                    "local curves trap endpoints on a cuff"
                )
        seqs = []
        for cuff in (0, 1):
            marks = []
            for pid, ((c1, p1), (c2, p2)) in enumerate(canon):
                if c1 != c2:
                    pos = p1 if c1 == cuff else p2
                    marks.append((pos, pid))
            marks.sort()
            seqs.append([pid for _, pid in marks])
        if seqs[0] and not _is_cyclic_shift(seqs[0], seqs[1]):
            raise PreconditionViolated("crossing curves are misaligned")
        return CurveSystem(
            "cylinder", sizes, tuple(canon), tuple(winds)
        )


def homotopy_classes(cs):
    """Number of deformation classes the system's curves fall into: at most
    one on the disc, at most three on the cylinder."""
    if not cs.curves:
        return 0
    if cs.kind == "disc":
        return 1
    kinds = set()
    for (c1, _), (c2, _) in cs.curves:
        if c1 == c2:
            kinds.add(f"local{c1}")
        else:
            kinds.add("crossing")
    return len(kinds)


def _random_noncrossing(rng, points):
    if not points:
        return []
    cut = 2 * rng.randrange(len(points) // 2) + 1
    left = points[1:cut]
    right = points[cut + 1 :]
    return (
        [(points[0], points[cut])]
        + _random_noncrossing(rng, left)
        + _random_noncrossing(rng, right)
    )


def random_disc_curves(rng, max_pairs=6):
    n_pairs = rng.randrange(0, max_pairs + 1)
    n = 2 * n_pairs
    return CurveSystem.on_disc(n, _random_noncrossing(rng, list(range(n))))


def _random_brackets(rng, n_pairs, first_id):
    """Random well-nested bracket sequence, as a token list of pair ids."""
    if n_pairs == 0:
        return []
    inside = rng.randrange(n_pairs)
    head = first_id
    body = _random_brackets(rng, inside, first_id + 1)
    tail = _random_brackets(rng, n_pairs - 1 - inside, first_id + 1 + inside)
    return [head] + body + [head] + tail


def random_cylinder_curves(rng, max_locals=2, max_crossing=3):
    j0 = rng.randrange(0, max_locals + 1)
    j1 = rng.randrange(0, max_locals + 1)
    c = rng.randrange(0, max_crossing + 1)
    w = rng.randrange(-2, 3) if c else 0
    curves = []
    out_brackets = _random_brackets(rng, j0, 0)
    in_brackets = _random_brackets(rng, j1, j0)
    for pid in range(j0):
        a, b = [i for i, x in enumerate(out_brackets) if x == pid]
        curves.append(((0, a), (0, b), 0))
    for pid in range(j0, j0 + j1):
        a, b = [i for i, x in enumerate(in_brackets) if x == pid]
        curves.append(((1, a), (1, b), 0))
    delta = rng.randrange(c) if c else 0
    for i in range(c):
        pid = j0 + j1 + i
        inner_slot = (i + delta) % c
        curves.append(
            ((0, 2 * j0 + i), (1, 2 * j1 + inner_slot), w)
        )
    return CurveSystem.on_cylinder(2 * j0 + c, 2 * j1 + c, curves)


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


def annulus_from_json(text):
    data = json.loads(text)
    plane = parse_plane(data["plane"])
    cc = ConcentricCycles(plane, data["cycles"])
    return cc, tuple(tuple(p) for p in data["paths"])

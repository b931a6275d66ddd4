"""Wells: concentric cycles crossed by boundary-to-boundary paths.

A well is a society drawn in a disc: nested cycles around the centre and
pairwise internally disjoint paths between boundary vertices, all living
inside a connected plane host graph whose outer face is the disc boundary.
The well's own graph is the union of its designated cycles and paths; the
host supplies the drawing and may contain further material.

Two normal forms matter downstream. A well is *drained* when no path dips
below a cycle without a second path witnessing the dip inside its pocket,
and *dry* when additionally every cycle-touching path descends once,
touches its deepest cycle in a single stretch, and crosses every outer
cycle exactly twice. `drain` and `dry` reach these forms by replacing path
segments with cycle arcs, strictly shrinking the union's edge count at
every step.
"""

from __future__ import annotations

import json

from .errors import MinorkitError, NotTight, PreconditionViolated
from .plane import (
    ConcentricCycles,
    _cycle_edges,
    _is_cyclic_shift,
    edge_strictly_inside,
    inside_faces,
    parse_plane,
    vertex_strictly_inside,
    write_plane,
)
from .plane import is_tight as _cycles_tight


def _path_edges(path):
    out = set()
    for a, b in zip(path, path[1:]):
        out.add((a, b) if a < b else (b, a))
    return out


class Well:
    """Concentric cycles plus boundary paths inside a plane host.

    cycles are innermost first and never touch the boundary walk; every
    path runs between two omega vertices, keeps its interior off the
    boundary, and stays out of the innermost cycle's open disc. omega is
    exactly the set of path endpoints, listed in boundary cyclic order.
    """

    __slots__ = (
        "plane",
        "cycles",
        "paths",
        "omega",
        "nest",
        "boundary",
        "union_edges",
        "touched",
        "_pockets",
    )

    def __init__(self, plane, cycles, paths, omega):
        cycles = tuple(tuple(c) for c in cycles)
        paths = tuple(tuple(p) for p in paths)
        omega = tuple(omega)

        walk = tuple(d[0] for d in plane.faces[plane.outer])
        if len(walk) < 3 or len(set(walk)) != len(walk):
            raise PreconditionViolated(
                "the host's outer face must be bounded by a simple cycle"
            )
        boundary = frozenset(walk)

        if len(omega) < 2 or len(set(omega)) != len(omega):
            raise PreconditionViolated("omega must list distinct vertices")
        if not set(omega) <= boundary:
            raise PreconditionViolated("omega vertices must be on the boundary")
        restricted = tuple(v for v in walk if v in set(omega))
        if not (
            _is_cyclic_shift(omega, restricted)
            or _is_cyclic_shift(omega, tuple(reversed(restricted)))
        ):
            raise PreconditionViolated(
                "omega order disagrees with the boundary walk"
            )

        nest = ConcentricCycles(plane, cycles)
        for c in cycles:
            if set(c) & boundary:
                raise PreconditionViolated("cycles must avoid the boundary")

        endpoints = set()
        internal_seen = set()
        for p in paths:
            if len(p) < 2 or len(set(p)) != len(p):
                raise PreconditionViolated(f"not a simple path: {p}")
            for a, b in zip(p, p[1:]):
                if not plane.graph.has_edge(a, b):
                    raise PreconditionViolated(f"path edge ({a},{b}) missing")
            if p[0] not in set(omega) or p[-1] not in set(omega):
                raise PreconditionViolated("path endpoints must be in omega")
            inner = set(p[1:-1])
            if inner & set(omega):
                raise PreconditionViolated("path interior meets omega")
            if inner & boundary:
                raise PreconditionViolated("path interior meets the boundary")
            if inner & internal_seen:
                raise PreconditionViolated("paths are not internally disjoint")
            internal_seen |= inner
            endpoints.add(p[0])
            endpoints.add(p[-1])
        if endpoints != set(omega):
            raise PreconditionViolated(
                "omega must be exactly the set of path endpoints"
            )

        inner_disc = nest.discs[0]
        for p in paths:
            for v in p:
                if vertex_strictly_inside(plane, v, inner_disc):
                    raise PreconditionViolated(
                        "a path enters the innermost cycle's open disc"
                    )
            for a, b in zip(p, p[1:]):
                if edge_strictly_inside(plane, a, b, inner_disc):
                    raise PreconditionViolated(
                        "a path edge crosses the innermost cycle's open disc"
                    )

        touched = []
        cyc_sets = [set(c) for c in cycles]
        for p in paths:
            pv = set(p)
            hit = frozenset(
                j for j, cs in enumerate(cyc_sets) if cs & pv
            )
            if hit and hit != frozenset(range(min(hit), len(cycles))):
                raise PreconditionViolated(
                    "a path touches cycles in a non-contiguous range"
                )
            touched.append(hit)

        union = set()
        for c in cycles:
            union |= _cycle_edges(c)
        for p in paths:
            union |= _path_edges(p)

        self.plane = plane
        self.cycles = cycles
        self.paths = paths
        self.omega = omega
        self.nest = nest
        self.boundary = walk
        self.union_edges = frozenset(union)
        self.touched = tuple(touched)
        self._pockets = {}

    def __repr__(self):
        return (
            f"Well(s={len(self.cycles)}, paths={len(self.paths)}, "
            f"edges={len(self.union_edges)})"
        )


def pocket(w, i):
    """The faces of the region cut off by path i that avoids the innermost
    cycle: everything between the path and its stretch of the boundary."""
    if i in w._pockets:
        return w._pockets[i]
    p = w.paths[i]
    walk = w.boundary
    ia, ib = walk.index(p[0]), walk.index(p[-1])

    def arc(start, stop):
        out = [walk[start]]
        j = start
        while j != stop:
            j = (j + 1) % len(walk)
            out.append(walk[j])
        return out

    sides = []
    for a0, a1 in ((ib, ia), (ia, ib)):
        rim = arc(a0, a1)
        if a0 == ib:
            cyc = list(p) + rim[1:-1]
        else:
            cyc = list(reversed(p)) + rim[1:-1]
        if len(cyc) < 3:
            sides.append(frozenset())
        else:
            sides.append(inside_faces(w.plane, cyc))
    assert len(sides[0]) + len(sides[1]) + 1 == len(w.plane.faces)

    pv = set(p)
    inner = w.cycles[0]
    inner_edges = _cycle_edges(inner)
    clean = []
    for side in sides:
        touches = False
        for v in inner:
            if v not in pv and w.plane.vertex_faces(v) & side:
                touches = True
                break
        if not touches:
            for u, v in inner_edges:
                f1, f2 = w.plane.edge_faces(u, v)
                if f1 in side and f2 in side:
                    touches = True
                    break
        if not touches:
            clean.append(side)
    if len(clean) != 1:
        raise PreconditionViolated(
            "path does not leave the innermost cycle on one side"
        )
    w._pockets[i] = clean[0]
    return clean[0]


def is_tight(w):
    """No designated edge shortcuts a cycle through the band inside it."""
    return _cycles_tight(w.nest, w.union_edges)


def is_drained(w):
    """Every dip below a non-outermost cycle has a witnessing second path
    touching the next cycle out inside the dipping path's pocket."""
    if len(w.paths) <= 1:
        return True
    s = len(w.cycles)
    for i, p in enumerate(w.paths):
        for j in w.touched[i]:
            if j >= s - 1:
                continue
            side = pocket(w, i)
            next_set = set(w.cycles[j + 1])
            ok = False
            for q in range(len(w.paths)):
                if q == i:
                    continue
                shared = set(w.paths[q]) & next_set
                if shared and all(
                    w.plane.vertex_faces(v) & side for v in shared
                ):
                    ok = True
                    break
            if not ok:
                return False
    # The second clause of the definition constrains parallel strands
    # inside a single cell; simple graphs have no such configuration, so
    # there is nothing further to check.
    return True


def _intersection_components(path, cycle):
    """Number of connected pieces of the path-cycle intersection, counting
    shared vertices joined by shared edges as one piece."""
    cset = set(cycle)
    cedges = _cycle_edges(cycle)
    pieces = 0
    prev_in = False
    prev_joined = False
    for idx, v in enumerate(path):
        if v in cset:
            if not prev_in:
                pieces += 1
            elif not prev_joined:
                pieces += 1
            prev_in = True
            if idx + 1 < len(path):
                a, b = v, path[idx + 1]
                key = (a, b) if a < b else (b, a)
                prev_joined = key in cedges
        else:
            prev_in = False
            prev_joined = False
    return pieces


def is_dry(w):
    """Drained, and every cycle-touching path descends exactly once: one
    stretch on its deepest cycle, two crossings of every cycle outside it.

    Paths that touch no cycle at all are boundary chords and are exempt;
    the per-path shape condition only speaks about descents.
    """
    if not is_drained(w):
        return False
    s = len(w.cycles)
    for i, p in enumerate(w.paths):
        if not w.touched[i]:
            continue
        r = min(w.touched[i])
        if _intersection_components(p, w.cycles[r]) != 1:
            return False
        for j in range(r + 1, s):
            if _intersection_components(p, w.cycles[j]) != 2:
                return False
    return True


def _union_count(cycles, paths):
    union = set()
    for c in cycles:
        union |= _cycle_edges(c)
    for p in paths:
        union |= _path_edges(p)
    return len(union)


def _first_move(w):
    """The first valid rewrite that strictly shrinks the union edge count:
    replace a path segment between two visits to a cycle by a cycle arc.
    Outermost cycles are tried first, widest segments first."""
    n_edges = len(w.union_edges)
    for i, p in enumerate(w.paths):
        for j in sorted(w.touched[i], reverse=True):
            cyc = w.cycles[j]
            cset = set(cyc)
            hits = [idx for idx, v in enumerate(p) if v in cset]
            if len(hits) < 2:
                continue
            for x in hits:
                for y in reversed(hits):
                    if y <= x:
                        break
                    u, v = p[x], p[y]
                    iu, iv = cyc.index(u), cyc.index(v)
                    for step in (1, -1):
                        arc = []
                        k = iu
                        while k != iv:
                            k = (k + step) % len(cyc)
                            arc.append(cyc[k])
                        cand = p[: x + 1] + tuple(arc) + p[y + 1 :]
                        if len(set(cand)) != len(cand):
                            continue
                        paths = list(w.paths)
                        paths[i] = cand
                        if _union_count(w.cycles, paths) >= n_edges:
                            continue
                        try:
                            return Well(w.plane, w.cycles, paths, w.omega)
                        except MinorkitError:
                            continue
    return None


def _descend(w, done, op):
    start = len(w.union_edges)
    ends = sorted(tuple(sorted((p[0], p[-1]))) for p in w.paths)
    while not done(w):
        nxt = _first_move(w)
        if nxt is None:
            raise PreconditionViolated(f"{op}: no shrinking rewrite applies")
        w = nxt
    assert len(w.union_edges) <= start
    assert sorted(tuple(sorted((p[0], p[-1]))) for p in w.paths) == ends
    return w


def drain(w):
    """Rewrite paths until the well is drained. Path count and endpoints
    are preserved and the union edge count never grows."""
    out = _descend(w, is_drained, "drain")
    assert len(out.paths) == len(w.paths)
    return out


def dry(w):
    """Rewrite paths until the well is dry. Requires tight cycles."""
    if not is_tight(w):
        raise NotTight("dry requires the well's cycles to be tight")
    out = _descend(w, is_dry, "dry")
    assert len(out.paths) == len(w.paths)
    return out


# --- fixtures ----------------------------------------------------------------------


def _v_path(ln, m, left, right, depth):
    """Descend rail `left` to ring `depth`, run along the ring, come back
    up rail `right`. Rings are numbered innermost first; the boundary is
    ring m-1."""
    p = [(r, left) for r in range(m - 1, depth - 1, -1)]
    p += [(depth, c) for c in range(left + 1, right + 1)]
    p += [(r, right) for r in range(depth + 1, m)]
    return tuple(r * ln + c for r, c in p)


def _w_path(ln, m, cols, depth, mid):
    """Dip to ring `depth` twice with an excursion up to ring `mid`
    between the dips. cols = four rail columns, left to right."""
    a, b1, b2, c = cols
    p = [(r, a) for r in range(m - 1, depth - 1, -1)]
    p += [(depth, x) for x in range(a + 1, b1 + 1)]
    p += [(r, b1) for r in range(depth + 1, mid + 1)]
    p += [(mid, x) for x in range(b1 + 1, b2 + 1)]
    p += [(r, b2) for r in range(mid - 1, depth - 1, -1)]
    p += [(depth, x) for x in range(b2 + 1, c + 1)]
    p += [(r, c) for r in range(depth + 1, m)]
    return tuple(r * ln + c for r, c in p)


def random_well(rng, n_rails=None, n_rings=None):
    """A random well on a cylindrical-mesh substrate.

    Rail spans are partitioned among structures: full nested chains (already
    dry), lone deep dips (drain has work), double dips (dry has work), and
    shallow arcs. Cycles are the mesh rings except the outermost, which
    serves as the boundary.
    """
    from .plane import embed_mesh

    n = n_rails if n_rails is not None else rng.randrange(6, 11)
    m = n_rings if n_rings is not None else rng.randrange(3, 6)
    mesh, pg = embed_mesh(n, m)
    s = m - 1
    ln = len(mesh.cycles[0])
    paths = []
    col = 0
    while col + 2 <= n:
        room = n - col
        kind = rng.choice(("chain", "orphan", "wpath", "shallow", "skip"))
        if kind == "chain":
            c_max = min(s, room // 2)
            if c_max < 1:
                break
            c = rng.randrange(1, c_max + 1)
            base = s - c
            for i in range(c):
                paths.append(
                    _v_path(ln, m, col + i, col + 2 * c - 1 - i, base + i)
                )
            col += 2 * c
        elif kind == "orphan" and s >= 2:
            depth = rng.randrange(0, s - 1)
            paths.append(_v_path(ln, m, col, col + 1, depth))
            col += 2
        elif kind == "wpath" and room >= 4 and s >= 2:
            depth = rng.randrange(0, s - 1)
            mid = rng.randrange(depth + 1, s)
            paths.append(
                _w_path(ln, m, (col, col + 1, col + 2, col + 3), depth, mid)
            )
            col += 4
        elif kind == "shallow":
            paths.append(_v_path(ln, m, col, col + 1, s - 1))
            col += 2
        else:
            col += 1
    if not paths:
        paths.append(_v_path(ln, m, 0, 1, s - 1))
    endpoint_cols = sorted(p[0] % ln for p in paths) + sorted(
        p[-1] % ln for p in paths
    )
    omega = tuple((m - 1) * ln + c for c in sorted(set(endpoint_cols)))
    return Well(pg, mesh.cycles[: m - 1], paths, omega)


def well_to_json(w):
    return json.dumps(
        {
            "cycles": [list(c) for c in w.cycles],
            "omega": list(w.omega),
            "paths": [list(p) for p in w.paths],
            "plane": write_plane(w.plane),
        },
        sort_keys=True,
    )


def well_from_json(text):
    data = json.loads(text)
    return Well(
        parse_plane(data["plane"]), data["cycles"], data["paths"], data["omega"]
    )

"""Plane graphs as rotation systems, with faces, discs, and cycle tightening.

All topology here is combinatorial. An embedding is a cyclic neighbor order
per vertex; faces are the orbits of the dart successor map; a designated
outer face orients everything else. Disc interiors, containment of traces,
and the bands between nested cycles are face sets computed by breadth-first
search in the dual, never coordinates.
"""

from __future__ import annotations

from .errors import (
    IndexOutOfRange,
    InvalidEmbedding,
    PreconditionViolated,
)
from .graphs import is_connected, parse_edge_list, write_edge_list


class PlaneGraph:
    """A connected graph with a genus-zero rotation system.

    `rotation[v]` is the cyclic order of v's neighbors. The orbit count of
    the face walk must satisfy Euler's formula n - m + f = 2, which is
    exactly the statement that the rotation system describes a sphere
    embedding; anything else raises InvalidEmbedding. One face is
    designated as the outer face.
    """

    __slots__ = (
        "graph",
        "rotation",
        "faces",
        "outer",
        "_prev",
        "_face_of",
        "_vertex_faces",
    )

    def __init__(self, graph, rotation, outer_dart):
        if not is_connected(graph):
            raise InvalidEmbedding("plane graphs must be connected")
        rotation = tuple(tuple(r) for r in rotation)
        if len(rotation) != graph.n:
            raise InvalidEmbedding(
                f"rotation lists {len(rotation)} vertices, graph has {graph.n}"
            )
        prev = []
        for v in range(graph.n):
            ring = rotation[v]
            if sorted(ring) != list(graph.neighbors(v)):
                raise InvalidEmbedding(
                    f"rotation at vertex {v} does not list its neighbors"
                )
            prev.append(
                {u: ring[i - 1] for i, u in enumerate(ring)}
            )
        self.graph = graph
        self.rotation = rotation
        self._prev = prev

        faces = []
        face_of = {}
        for u in range(graph.n):
            for v in rotation[u]:
                if (u, v) in face_of:
                    continue
                walk = []
                dart = (u, v)
                while dart not in face_of:
                    face_of[dart] = len(faces)
                    walk.append(dart)
                    a, b = dart
                    dart = (b, prev[b][a])
                faces.append(tuple(walk))
        if graph.n == 1:
            faces = [()]
        if graph.n - graph.m + len(faces) != 2:
            raise InvalidEmbedding(
                f"rotation system is not planar: {graph.n} - {graph.m} + "
                f"{len(faces)} != 2"
            )
        self.faces = tuple(faces)
        self._face_of = face_of

        vertex_faces = [set() for _ in range(graph.n)]
        for u in range(graph.n):
            for v in rotation[u]:
                vertex_faces[u].add(face_of[(u, v)])
                vertex_faces[u].add(face_of[(v, u)])
        if graph.n == 1:
            vertex_faces[0].add(0)
        self._vertex_faces = tuple(frozenset(s) for s in vertex_faces)

        if graph.n == 1:
            self.outer = 0
        else:
            u, v = outer_dart
            if (u, v) not in face_of:
                raise IndexOutOfRange(f"outer dart {(u, v)} is not a dart")
            self.outer = face_of[(u, v)]

    def face_of(self, u, v):
        """Index of the face traced by the dart u -> v."""
        return self._face_of[(u, v)]

    def edge_faces(self, u, v):
        """The (at most two distinct) face indices incident to edge uv."""
        return (self._face_of[(u, v)], self._face_of[(v, u)])

    def vertex_faces(self, v):
        """All face indices incident to vertex v."""
        return self._vertex_faces[v]

    def __repr__(self):
        return (
            f"PlaneGraph(n={self.graph.n}, m={self.graph.m}, "
            f"f={len(self.faces)})"
        )


def _cycle_edges(cycle):
    out = set()
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        out.add((a, b) if a < b else (b, a))
    return out


def _is_cyclic_shift(a, b):
    """Is sequence a a rotation of sequence b? Lists and tuples compare alike."""
    if len(a) != len(b):
        return False
    if not a:
        return True
    doubled = tuple(b) + tuple(b)
    for i in range(len(b)):
        if doubled[i : i + len(a)] == tuple(a):
            return True
    return False


def _check_cycle(g, cycle):
    if len(cycle) < 3 or len(set(cycle)) != len(cycle):
        raise PreconditionViolated(f"not a simple cycle: {cycle}")
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if not g.has_edge(a, b):
            raise PreconditionViolated(f"cycle edge ({a},{b}) missing")


def inside_faces(pg, cycle):
    """Faces strictly inside the cycle: those cut off from the outer face.

    The dual is searched from the outer face without crossing the cycle's
    edges; everything unreached is inside. This is the combinatorial Jordan
    curve theorem and needs no geometry.
    """
    _check_cycle(pg.graph, cycle)
    blocked = _cycle_edges(cycle)
    return _faces_beyond(pg, blocked, (pg.outer,))


def _faces_beyond(pg, blocked_edges, seed_faces):
    """Faces not reachable in the dual from `seed_faces` without crossing
    a blocked edge. Returns the unreached set."""
    seen = set(seed_faces)
    stack = list(seed_faces)
    while stack:
        f = stack.pop()
        for u, v in pg.faces[f]:
            key = (u, v) if u < v else (v, u)
            if key in blocked_edges:
                continue
            g = pg._face_of[(v, u)]
            if g not in seen:
                seen.add(g)
                stack.append(g)
    return frozenset(range(len(pg.faces))) - seen


def vertex_in_closure(pg, v, region):
    """Is v inside the region or on its boundary?"""
    return any(f in region for f in pg._vertex_faces[v])


def vertex_strictly_inside(pg, v, region):
    """Is v inside the region and not on its boundary?"""
    return all(f in region for f in pg._vertex_faces[v])


def edge_in_closure(pg, u, v, region):
    """Is edge uv inside the region or on its boundary?"""
    return any(f in region for f in pg.edge_faces(u, v))


def edge_strictly_inside(pg, u, v, region):
    """Is edge uv drawn strictly inside the region?"""
    f1, f2 = pg.edge_faces(u, v)
    return f1 in region and f2 in region


class ConcentricCycles:
    """Pairwise disjoint cycles with strictly nested discs, innermost first.

    Validation recomputes every disc from the faces and insists on strict
    containment; the constructor is the proof that the sequence is actually
    concentric in the given embedding.
    """

    __slots__ = ("plane", "cycles", "discs")

    def __init__(self, plane, cycles):
        cycles = tuple(tuple(c) for c in cycles)
        if not cycles:
            raise PreconditionViolated("need at least one cycle")
        seen = set()
        for c in cycles:
            _check_cycle(plane.graph, c)
            if seen & set(c):
                raise PreconditionViolated("cycles share a vertex")
            seen |= set(c)
        discs = tuple(inside_faces(plane, c) for c in cycles)
        for inner, outer in zip(discs, discs[1:]):
            if not (inner < outer):
                raise PreconditionViolated(
                    "cycle discs are not strictly nested"
                )
        self.plane = plane
        self.cycles = cycles
        self.discs = discs

    def __len__(self):
        return len(self.cycles)

    def __repr__(self):
        return f"ConcentricCycles(s={len(self.cycles)})"


def _band_faces(cc, i):
    """Faces of the open band between cycle i-1 and cycle i (0-indexed);
    for i == 0 this is the whole inner disc."""
    if i == 0:
        return cc.discs[0]
    return cc.discs[i] - cc.discs[i - 1]


def _band_path(pg, cycle, band, forbidden=frozenset(), allowed_edges=None):
    """A path between two distinct cycle vertices drawn inside the band,
    internally avoiding the cycle and never meeting a forbidden vertex,
    or None.

    Edges count as available when both their faces lie in the band; this
    automatically excludes the bounding cycles themselves. `forbidden`
    carries the next cycle inward, whose closed disc a violation must
    avoid. `allowed_edges` restricts the search to a designated subgraph.
    """
    on_cycle = set(cycle)
    avail = [[] for _ in range(pg.graph.n)]
    any_edge = False
    for u, v in pg.graph.edges:
        if u in forbidden or v in forbidden:
            continue
        if allowed_edges is not None and (u, v) not in allowed_edges:
            continue
        if edge_strictly_inside(pg, u, v, band):
            avail[u].append(v)
            avail[v].append(u)
            any_edge = True
    if not any_edge:
        return None
    # Direct chords first, then search through band-interior vertices.
    for u in cycle:
        for v in avail[u]:
            if v in on_cycle:
                return (u, v)
    parent = {}
    origin = {}
    stack = []
    for u in cycle:
        for v in avail[u]:
            if v in on_cycle or v in origin:
                continue
            origin[v] = u
            parent[v] = None
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
                        origin[y] = origin[x]
                        parent[y] = x
                        stack.append(y)
    return None


def tight_violation(cc, allowed_edges=None):
    """The first (level, path) pair witnessing a non-tight cycle, or None.

    A violation is a path between two cycle vertices drawn strictly
    between that cycle and the next one inward, avoiding the inner
    cycle's closed disc entirely.
    """
    for i in range(len(cc.cycles)):
        forbidden = frozenset(cc.cycles[i - 1]) if i > 0 else frozenset()
        found = _band_path(
            cc.plane, cc.cycles[i], _band_faces(cc, i), forbidden, allowed_edges
        )
        if found is not None:
            return (i, found)
    return None


def is_tight(cc, allowed_edges=None):
    return tight_violation(cc, allowed_edges) is None


def _reroute(pg, cycle, short, keep_inside):
    """Replace one arc of `cycle` by the path `short` (endpoints on the
    cycle). Of the two candidate cycles, return the one whose disc still
    contains every face of `keep_inside`."""
    u, v = short[0], short[-1]
    i, j = cycle.index(u), cycle.index(v)
    fwd = []
    k = i
    while k != j:
        fwd.append(cycle[k])
        k = (k + 1) % len(cycle)
    fwd.append(cycle[j])
    bwd = []
    k = i
    while k != j:
        bwd.append(cycle[k])
        k = (k - 1) % len(cycle)
    bwd.append(cycle[j])
    inner = tuple(short[1:-1])
    cand = []
    for arc in (fwd, bwd):
        new = tuple(arc) + tuple(reversed(inner))
        if len(set(new)) == len(new) and len(new) >= 3:
            cand.append(new)
    best = None
    for new in cand:
        disc = inside_faces(pg, new)
        if keep_inside <= disc:
            if best is None or len(disc) < len(best[1]):
                best = (new, disc)
    if best is None:
        raise PreconditionViolated("no valid rerouting keeps the nest")
    return best[0]


def tighten(cc):
    """Pull each cycle inward until no shortcut exists in its band.

    Levels are processed innermost first; a level is final before the next
    one starts, and later reroutes only shrink outer cycles, so one pass
    suffices. The host graph never changes, only the designated cycles.
    """
    pg = cc.plane
    cycles = list(cc.cycles)
    for i in range(len(cycles)):
        forbidden = frozenset(cycles[i - 1]) if i > 0 else frozenset()
        while True:
            cur = ConcentricCycles(pg, cycles)
            found = _band_path(pg, cycles[i], _band_faces(cur, i), forbidden)
            if found is None:
                break
            keep = cur.discs[i - 1] if i > 0 else frozenset()
            before = len(cur.discs[i])
            cycles[i] = _reroute(pg, cycles[i], found, keep)
            after = len(inside_faces(pg, cycles[i]))
            if after >= before:
                raise PreconditionViolated("rerouting failed to shrink")
    out = ConcentricCycles(pg, cycles)
    if not is_tight(out):
        raise PreconditionViolated("tightening did not converge")
    if not (out.discs[-1] <= cc.discs[-1]):
        raise PreconditionViolated("tightening escaped the outer disc")
    return out


# --- canonical embeddings for the generators --------------------------------------


def embed_grid(n, m):
    """Plane embedding of the n-by-m grid with the outer face outside."""
    from .constructions import grid

    g = grid(n, m)

    def vid(r, c):
        return r * m + c

    rotation = []
    for r in range(n):
        for c in range(m):
            ring = []
            if r > 0:
                ring.append(vid(r - 1, c))
            if c + 1 < m:
                ring.append(vid(r, c + 1))
            if r + 1 < n:
                ring.append(vid(r + 1, c))
            if c > 0:
                ring.append(vid(r, c - 1))
            rotation.append(ring)
    if n == 1 and m == 1:
        return PlaneGraph(g, rotation, (0, 0))
    outer = (vid(0, 1), vid(0, 0)) if m > 1 else (vid(1, 0), vid(0, 0))
    return PlaneGraph(g, rotation, outer)


def embed_mesh(n, m):
    """Plane embedding of cylindrical_mesh(n, m), innermost ring first.

    Returns (mesh, plane). Ring 0 is drawn innermost; the outer face is the
    one beyond the last ring.
    """
    from .constructions import cylindrical_mesh

    mesh = cylindrical_mesh(n, m)
    ln = len(mesh.cycles[0])
    rotation = []
    for v in range(mesh.graph.n):
        ring_i, pos = divmod(v, ln)
        order = []
        if ring_i + 1 < m and pos < n:
            order.append(v + ln)  # outward
        order.append(ring_i * ln + (pos + 1) % ln)  # next around the ring
        if ring_i > 0 and pos < n:
            order.append(v - ln)  # inward
        order.append(ring_i * ln + (pos - 1) % ln)  # previous around
        seen = []
        for u in order:
            if u not in seen:
                seen.append(u)
        rotation.append(seen)
    base = (m - 1) * ln
    pg = PlaneGraph(mesh.graph, rotation, (base + 1, base))
    outer_ring = set(mesh.cycles[-1])
    f1, f2 = pg.edge_faces(base, base + 1)
    chosen = None
    for f in (pg.outer, f1 if f1 != pg.outer else f2):
        verts = {d[0] for d in pg.faces[f]}
        if verts <= outer_ring:
            chosen = f
            break
    if chosen != pg.outer:
        pg = PlaneGraph(mesh.graph, rotation, pg.faces[chosen][0])
    return mesh, pg


def mesh_nest(n, m):
    """The mesh, its embedding, its rings as concentric cycles (innermost
    first), and its rails as radial paths running outer to inner."""
    mesh, pg = embed_mesh(n, m)
    cc = ConcentricCycles(pg, mesh.cycles)
    paths = tuple(tuple(reversed(rail)) for rail in mesh.rails)
    return mesh, pg, cc, paths


# --- text format -------------------------------------------------------------------


def write_plane(pg):
    """Edge-list text plus one `rot` line per vertex and an `outer` line."""
    lines = [write_edge_list(pg.graph).rstrip("\n")]
    for v in range(pg.graph.n):
        if pg.rotation[v]:
            lines.append(
                "rot " + str(v) + " " + " ".join(map(str, pg.rotation[v]))
            )
    if pg.graph.n > 1:
        u, v = pg.faces[pg.outer][0]
        lines.append(f"outer {u} {v}")
    return "\n".join(lines) + "\n"


def parse_plane(text):
    plain = []
    rot_lines = {}
    outer = None
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("rot "):
            parts = line.split()
            rot_lines[int(parts[1])] = [int(x) for x in parts[2:]]
        elif line.startswith("outer "):
            parts = line.split()
            outer = (int(parts[1]), int(parts[2]))
        else:
            plain.append(raw)
    g = parse_edge_list("\n".join(plain))
    rotation = [rot_lines.get(v, []) for v in range(g.n)]
    if outer is None:
        if g.n != 1:
            raise PreconditionViolated("plane text lacks an outer line")
        outer = (0, 0)
    return PlaneGraph(g, rotation, outer)

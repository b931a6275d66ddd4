"""Plane graphs as rotation systems, with faces, discs, and cycle tightening.

All topology here is combinatorial. An embedding is a cyclic neighbor order
per vertex; faces are the orbits of the dart successor map; a designated
outer face orients everything else. Disc interiors, containment of traces,
and the bands between nested cycles are face sets, never coordinates: the
disc of one cycle is found by a search in the dual that does not cross the
cycle, and all discs of a nest by one such search that crosses no cycle of
the nest. A band's edges are read off the darts of the band's own faces.

planar_embedding decides planarity and returns such an embedding when there
is one: Demoucron-Malgrange-Pertuiset on each block, the block rotations
concatenated at cut vertices. Every embedding it returns has passed the
PlaneGraph constructor's Euler check; a "no" comes without a Kuratowski
subgraph.
"""

from __future__ import annotations

from .errors import (
    IndexOutOfRange,
    InvalidEmbedding,
    PreconditionViolated,
)
from .graphs import (
    blocks,
    connected_components,
    induced_subgraph,
    is_connected,
    parse_edge_list,
    write_edge_list,
)


class PlaneGraph:
    """A connected graph with a genus-zero rotation system.

    `rotation[v]` is the cyclic order of v's neighbors. The orbit count of
    the face walk must satisfy Euler's formula n - m + f = 2, which is
    exactly the statement that the rotation system describes a sphere
    embedding; anything else raises InvalidEmbedding. The face traced by
    `outer_dart` is the outer face; a lone vertex has one face, which is
    the outer one, and ignores `outer_dart`.
    """

    __slots__ = ("graph", "rotation", "faces", "outer", "_face_of", "_vertex_faces")

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
        # a face that enters u by one dart leaves it by the next one
        vertex_faces = [{face_of[(u, v)] for v in rotation[u]} for u in range(graph.n)]
        if graph.n == 1:  # a lone vertex has no darts and one face
            faces, vertex_faces, outer = [()], [{0}], 0
        elif graph.n - graph.m + len(faces) != 2:
            raise InvalidEmbedding(
                f"rotation system is not planar: {graph.n} - {graph.m} + "
                f"{len(faces)} != 2"
            )
        elif tuple(outer_dart) not in face_of:
            raise IndexOutOfRange(f"outer dart {tuple(outer_dart)} is not a dart")
        else:
            outer = face_of[tuple(outer_dart)]
        self.graph = graph
        self.rotation = rotation
        self.faces = tuple(faces)
        self.outer = outer
        self._face_of = face_of
        self._vertex_faces = tuple(frozenset(s) for s in vertex_faces)

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


def _edge_keys(walk):
    """The edges between consecutive vertices of a walk, each as (low, high).
    A cycle passes itself closed, `cycle + cycle[:1]`."""
    return {(a, b) if a < b else (b, a) for a, b in zip(walk, walk[1:])}


def _arc(cycle, i, j, step):
    """The vertices of `cycle` from position i to position j, both ends
    included, walking by step (1 or -1)."""
    n = len(cycle)
    return tuple(cycle[(i + step * d) % n] for d in range(((j - i) * step) % n + 1))


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
    blocked = _edge_keys(cycle + cycle[:1])
    seen = {pg.outer}
    stack = [pg.outer]
    while stack:
        f = stack.pop()
        for u, v in pg.faces[f]:
            key = (u, v) if u < v else (v, u)
            if key in blocked:
                continue
            g = pg._face_of[(v, u)]
            if g not in seen:
                seen.add(g)
                stack.append(g)
    return frozenset(range(len(pg.faces))) - seen


def vertex_strictly_inside(pg, v, region):
    """Is v inside the region and not on its boundary?"""
    return all(f in region for f in pg._vertex_faces[v])


def edge_strictly_inside(pg, u, v, region):
    """Is edge uv drawn strictly inside the region?"""
    f1, f2 = pg.edge_faces(u, v)
    return f1 in region and f2 in region


class ConcentricCycles:
    """Pairwise disjoint cycles with strictly nested discs, innermost first.

    Validation recomputes every disc from the faces, all of them in one
    sweep of the dual (`_nest_discs`), and insists on strict containment;
    the constructor is the proof that the sequence is actually concentric
    in the given embedding. `discs[i]` is `inside_faces(plane, cycles[i])`.
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
        discs = _nest_discs(plane, cycles)
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


def _nest_discs(pg, cycles):
    """`inside_faces(pg, c)` for each of the vertex-disjoint simple cycles,
    from one search of the dual.

    The search crosses no edge of any cycle and labels each face with its
    region. Each cycle's edges link the regions on their two sides, which
    makes a small region graph whose links carry the cycle's index. A face
    reaches the outer face without crossing cycle i exactly when its region
    reaches the outer face's region without a link of cycle i, so disc i is
    the union of the regions that this search leaves unreached.
    """
    level = {}
    for i, c in enumerate(cycles):
        for key in _edge_keys(c + c[:1]):
            level[key] = i
    face_of = pg._face_of
    region = [-1] * len(pg.faces)
    members = []
    for start in (pg.outer, *range(len(pg.faces))):
        if region[start] >= 0:
            continue
        r = len(members)
        region[start] = r
        stack = [start]
        for f in stack:
            for u, v in pg.faces[f]:
                if ((u, v) if u < v else (v, u)) in level:
                    continue
                g = face_of[(v, u)]
                if region[g] < 0:
                    region[g] = r
                    stack.append(g)
        members.append(stack)
    links = [set() for _ in members]
    for i, c in enumerate(cycles):
        for a, b in zip(c, c[1:] + c[:1]):
            r, q = region[face_of[(a, b)]], region[face_of[(b, a)]]
            links[r].add((q, i))
            links[q].add((r, i))
    discs = []
    for i in range(len(cycles)):
        reached = {region[pg.outer]}
        stack = [region[pg.outer]]
        for r in stack:
            for q, j in links[r]:
                if j != i and q not in reached:
                    reached.add(q)
                    stack.append(q)
        discs.append(
            frozenset().union(*(fs for r, fs in enumerate(members) if r not in reached))
        )
    return tuple(discs)


def _band_path(pg, cycle, band, rank, forbidden=frozenset(), allowed_edges=None):
    """A path between two distinct cycle vertices drawn inside the band,
    internally avoiding the cycle and never meeting a forbidden vertex,
    or None.

    Edges count as available when both their faces lie in the band; this
    automatically excludes the bounding cycles themselves. They are read
    off the darts of the band's own faces, and put in the order that
    `rank` (edge -> position in `pg.graph.edges`) gives, so the search
    meets them in the same order whatever the band. `forbidden` carries
    the next cycle inward, whose closed disc a violation must avoid.
    `allowed_edges` restricts the search to a designated subgraph.
    """
    face_of = pg._face_of
    edges = []
    for f in band:
        for u, v in pg.faces[f]:
            if u < v and face_of[(v, u)] in band:
                if u in forbidden or v in forbidden:
                    continue
                if allowed_edges is not None and (u, v) not in allowed_edges:
                    continue
                edges.append((u, v))
    if not edges:
        return None
    edges.sort(key=rank.__getitem__)
    avail = {}
    for u, v in edges:
        avail.setdefault(u, []).append(v)
        avail.setdefault(v, []).append(u)
    on_cycle = set(cycle)
    # Direct chords first, then search through band-interior vertices.
    for u in cycle:
        for v in avail.get(u, ()):
            if v in on_cycle:
                return (u, v)
    parent = {}
    origin = {}
    stack = []
    for u in cycle:
        for v in avail.get(u, ()):
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
    rank = {e: k for k, e in enumerate(cc.plane.graph.edges)}
    for i in range(len(cc.cycles)):
        forbidden = frozenset(cc.cycles[i - 1]) if i > 0 else frozenset()
        below = cc.discs[i - 1] if i > 0 else frozenset()
        found = _band_path(
            cc.plane, cc.cycles[i], cc.discs[i] - below, rank, forbidden, allowed_edges
        )
        if found is not None:
            return (i, found)
    return None


def is_tight(cc, allowed_edges=None):
    return tight_violation(cc, allowed_edges) is None


def _reroute(pg, cycle, short, keep_inside):
    """Replace one arc of `cycle` by the path `short` (endpoints on the
    cycle). Of the two candidate cycles, return the one whose disc still
    contains every face of `keep_inside`, with that disc."""
    u, v = short[0], short[-1]
    i, j = cycle.index(u), cycle.index(v)
    inner = tuple(short[1:-1])
    cand = []
    for step in (1, -1):
        new = _arc(cycle, i, j, step) + tuple(reversed(inner))
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
    return best


def tighten(cc):
    """Pull each cycle inward until no shortcut exists in its band.

    Levels are processed innermost first; a level is final before the next
    one starts, and later reroutes only shrink outer cycles, so one pass
    suffices. Each level probes the band between its current disc and the
    finished disc below it, whose edges `_band_path` reads off the band's
    own faces, so a probe costs the band's size and not the graph's. The
    host graph never changes, only the designated cycles; the result is
    checked by building its nest, which recomputes every disc in one sweep.
    """
    pg = cc.plane
    rank = {e: k for k, e in enumerate(pg.graph.edges)}
    cycles = list(cc.cycles)
    below = frozenset()  # the finished disc of the level below
    for i in range(len(cycles)):
        forbidden = frozenset(cycles[i - 1]) if i > 0 else frozenset()
        disc = cc.discs[i]
        while True:
            found = _band_path(pg, cycles[i], disc - below, rank, forbidden)
            if found is None:
                break
            cycles[i], smaller = _reroute(pg, cycles[i], found, below)
            if len(smaller) >= len(disc):
                raise PreconditionViolated("rerouting failed to shrink")
            disc = smaller
        below = disc
    out = ConcentricCycles(pg, cycles)
    if not is_tight(out):
        raise PreconditionViolated("tightening did not converge")
    if not (out.discs[-1] <= cc.discs[-1]):
        raise PreconditionViolated("tightening escaped the outer disc")
    return out


# --- planarity ---------------------------------------------------------------------


def planar_embedding(g):
    """One PlaneGraph per connected component of g, or None when g is not
    planar.

    Components come in the order of connected_components, each on its
    induced subgraph (vertices renumbered in increasing order). With n >= 3
    and m > 3n - 6 the answer is None at once. Otherwise each block is
    embedded by _embed_block, and a vertex's rotation lists its blocks and
    bridges one after another: gluing plane graphs at a vertex this way
    keeps the sphere (Euler's formula adds up), and the PlaneGraph
    constructor checks it.
    """
    if g.n >= 3 and g.m > 3 * g.n - 6:
        return None
    rings = [[] for _ in range(g.n)]
    block_sets, bridges = blocks(g)
    for vs in block_sets:
        rotation = _embed_block(g, vs)
        if rotation is None:
            return None
        for v, ring in rotation.items():
            rings[v].extend(ring)
    for u, v in bridges:
        rings[u].append(v)
        rings[v].append(u)
    out = []
    for comp in connected_components(g):
        sub, remap = induced_subgraph(g, comp)
        rotation = [[remap[u] for u in rings[v]] for v in sorted(comp)]
        out.append(PlaneGraph(sub, rotation, (0, rotation[0][0]) if sub.n > 1 else None))
    return out


def _embed_block(g, vs):
    """Vertex -> cyclic neighbour list of a sphere embedding of the
    2-connected subgraph that g induces on vs, or None when it has none.

    Demoucron, Malgrange & Pertuiset (1964). Draw a cycle; its two faces
    are vertex walks, each dart in one of them. A fragment is an undrawn
    edge between drawn vertices, or a component of the undrawn vertices
    with its edges; its attachments are its drawn vertices, and a face
    admits it when the face holds them all. While a fragment is left: if
    one has no admitting face there is no embedding; else draw, through a
    face admitting it, a path of a fragment with one admitting face if
    there is such a fragment, otherwise of any fragment. The path joins two
    attachments and splits the face in two. Only fragments that the split
    face admitted, and the pieces of the fragment drawn from, need their
    faces recomputed.
    """
    adj = {v: [w for w in g.neighbors(v) if w in vs] for v in sorted(vs)}
    cycle = _some_cycle(adj)
    faces = [cycle, cycle[::-1]]
    face_sets = [set(cycle), set(cycle)]
    drawn = set(cycle)
    on_cycle = _edge_keys(cycle + cycle[:1])
    rest = [(u, w) for u in adj for w in adj[u] if u < w and (u, w) not in on_cycle]
    frags = [(att, es, [0, 1]) for att, es in _fragments(rest, drawn)]
    while frags:
        if any(not admits for _, _, admits in frags):
            return None
        pick = next((fr for fr in frags if len(fr[2]) == 1), frags[0])
        frags.remove(pick)
        _, es, admits = pick
        f, new = admits[0], len(faces)
        path = _fragment_path(es, drawn)
        walk, inner = faces[f], path[1:-1]
        i, j = walk.index(path[0]), walk.index(path[-1])
        faces[f] = list(_arc(walk, i, j, 1)) + inner[::-1]
        faces.append(list(_arc(walk, j, i, 1)) + inner)
        face_sets[f] = set(faces[f])
        face_sets.append(set(faces[new]))
        drawn.update(inner)
        for att, _, others in frags:
            if f in others:
                others.remove(f)
                others.extend(x for x in (f, new) if att <= face_sets[x])
        # what is left of the fragment attaches to the path's inner
        # vertices, which lie on the two new faces only
        drawn_edges = _edge_keys(path)
        left = [(u, w) for u, w in es if (u, w) not in drawn_edges]
        for att, piece in _fragments(left, drawn):
            frags.append((att, piece, [x for x in (f, new) if att <= face_sets[x]]))
    # a face walk a -> b -> c means c comes just before a around b
    after = {v: {} for v in adj}
    for walk in faces:
        for k, b in enumerate(walk):
            after[b][walk[(k + 1) % len(walk)]] = walk[k - 1]
    rotation = {}
    for v, nxt in after.items():
        ring = [adj[v][0]]
        while len(ring) < len(nxt):
            ring.append(nxt[ring[-1]])
        rotation[v] = ring
    return rotation


def _some_cycle(adj):
    """A cycle of a graph of minimum degree two, as a vertex list: walk
    without turning back until a vertex repeats."""
    prev, cur = None, next(iter(adj))
    where = {}
    path = []
    while cur not in where:
        where[cur] = len(path)
        path.append(cur)
        prev, cur = cur, next(w for w in adj[cur] if w != prev)
    return path[where[cur]:]


def _fragments(edges, drawn):
    """The fragments that the (low, high) `edges` form over the `drawn`
    vertices, as (attachments, edges) pairs."""
    nbrs = {}
    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            if a not in drawn:
                nbrs.setdefault(a, []).append(b)
    comp = {}
    for s in nbrs:
        if s in comp:
            continue
        comp[s] = s
        stack = [s]
        while stack:
            for y in nbrs[stack.pop()]:
                if y not in drawn and y not in comp:
                    comp[y] = s
                    stack.append(y)
    out = []
    groups = {}
    for u, v in edges:
        if u in drawn and v in drawn:
            out.append((frozenset((u, v)), [(u, v)]))
        else:
            groups.setdefault(comp[v if u in drawn else u], []).append((u, v))
    for es in groups.values():
        out.append((frozenset(x for e in es for x in e if x in drawn), es))
    return out


def _fragment_path(edges, drawn):
    """A path through a fragment between two distinct attachments, as a
    vertex list. A fragment of a 2-connected graph has two attachments."""
    u, v = edges[0]
    if u in drawn and v in drawn:
        return [u, v]
    nbrs = {}
    for u, v in edges:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    a = next(w for w in nbrs if w in drawn)
    x = nbrs[a][0]
    parent = {x: a}
    queue = [x]
    for y in queue:
        for z in nbrs[y]:
            if z in drawn:
                if z != a:
                    path = [z, y]
                    while path[-1] != a:
                        path.append(parent[path[-1]])
                    return path[::-1]
            elif z not in parent:
                parent[z] = y
                queue.append(z)
    raise PreconditionViolated("a fragment attaches at one vertex only")


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
        rotation.append(order)
    # rings have at least three vertices, so the four neighbours above are
    # distinct, and the dart from position 1 back to 0 of the last ring runs
    # along the outer face
    base = (m - 1) * ln
    return mesh, PlaneGraph(mesh.graph, rotation, (base + 1, base))


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
    """Inverse of write_plane. Raises PreconditionViolated on a malformed
    line, a `rot` line for a vertex the graph lacks or a repeated one, and
    InvalidEmbedding on a rotation system that is not planar."""
    plain = []
    rot_lines = {}
    outer = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line.startswith(("rot ", "outer ")):
            plain.append(raw)
            continue
        head, *tail = line.split()
        try:
            nums = [int(x) for x in tail]
        except ValueError:
            raise PreconditionViolated(f"not an integer in line {raw!r}") from None
        if head == "rot":
            if nums[0] in rot_lines:
                raise PreconditionViolated(f"repeated rot line for vertex {nums[0]}")
            rot_lines[nums[0]] = nums[1:]
        elif len(nums) == 2:
            outer = tuple(nums)
        else:
            raise PreconditionViolated(f"bad outer line: {raw!r}")
    g = parse_edge_list("\n".join(plain))
    stray = sorted(v for v in rot_lines if not 0 <= v < g.n)
    if stray:
        raise PreconditionViolated(f"rot line for vertex {stray[0]}, not in the graph")
    rotation = [rot_lines.get(v, []) for v in range(g.n)]
    if outer is None and g.n != 1:
        raise PreconditionViolated("plane text lacks an outer line")
    return PlaneGraph(g, rotation, outer)

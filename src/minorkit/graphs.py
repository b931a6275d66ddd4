"""Immutable simple graphs plus the connectivity primitives everything else uses.

Vertices are dense integer indices 0..n-1. Optional string labels carry
generator provenance (things like "v3" or "u1") and never influence any
algorithm. Deletion never mutates: it returns a new graph together with the
old-to-new index mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionViolated


class Graph:
    """Simple undirected graph: no self-loops, no parallel edges."""

    __slots__ = ("n", "edges", "labels", "_adj", "_masks")

    def __init__(self, n, edges=(), labels=None):
        if n < 0:
            raise PreconditionViolated(f"vertex count {n} is negative")
        seen = set()
        for u, v in edges:
            if u == v:
                raise PreconditionViolated(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise PreconditionViolated(f"edge ({u},{v}) outside [0,{n})")
            seen.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = frozenset(seen)
        adj = [[] for _ in range(n)]
        for u, v in seen:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(tuple(sorted(a)) for a in adj)
        labels = dict(labels) if labels else {}
        for v in labels:
            if not (0 <= v < n):
                raise PreconditionViolated(f"label on missing vertex {v}")
        self.labels = labels

    @property
    def m(self):
        return len(self.edges)

    def vertices(self):
        return range(self.n)

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def has_edge(self, u, v):
        return ((u, v) if u < v else (v, u)) in self.edges

    def label_of(self, v):
        return self.labels.get(v)

    def vertex_by_label(self, name):
        for v, lab in self.labels.items():
            if lab == name:
                return v
        raise KeyError(name)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.edges == other.edges
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class AnnotatedGraph:
    """A graph together with an unordered annotated (red) vertex set."""

    graph: Graph
    annotated: frozenset

    def __post_init__(self):
        bad = [v for v in self.annotated if not (0 <= v < self.graph.n)]
        if bad:
            raise PreconditionViolated(f"annotated vertices {bad} outside graph")

    @staticmethod
    def of(graph, annotated):
        return AnnotatedGraph(graph, frozenset(annotated))


@dataclass(frozen=True)
class RootedGraph:
    """A graph with an ordered multiset of roots; position is the label."""

    graph: Graph
    roots: tuple

    def __post_init__(self):
        bad = [r for r in self.roots if not (0 <= r < self.graph.n)]
        if bad:
            raise PreconditionViolated(f"roots {bad} outside graph")

    @staticmethod
    def of(graph, roots):
        return RootedGraph(graph, tuple(roots))


def induced_subgraph(g, keep):
    """Induced subgraph on `keep`; returns (graph, old_to_new mapping)."""
    kept = sorted(set(keep))
    for v in kept:
        if not (0 <= v < g.n):
            raise PreconditionViolated(f"vertex {v} outside graph")
    remap = {old: new for new, old in enumerate(kept)}
    edges = [
        (remap[u], remap[v]) for u, v in g.edges if u in remap and v in remap
    ]
    labels = {remap[v]: lab for v, lab in g.labels.items() if v in remap}
    return Graph(len(kept), edges, labels), remap


def delete_vertex(g, v):
    """G - v with the index remapping of the survivors."""
    return induced_subgraph(g, (u for u in g.vertices() if u != v))


def mask_bits(mask):
    """Indices of set bits, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(vs):
    m = 0
    for v in vs:
        m |= 1 << v
    return m


def mask_neighborhood(mask, masks):
    """Open neighborhood of a vertex mask, given per-vertex adjacency masks."""
    out = 0
    m = mask
    while m:
        b = m & -m
        out |= masks[b.bit_length() - 1]
        m ^= b
    return out & ~mask


def mask_reach(start, allowed, masks):
    """Vertices reachable from `start` moving only through `allowed`."""
    reach = start
    frontier = start
    while frontier:
        nxt = 0
        m = frontier
        while m:
            b = m & -m
            nxt |= masks[b.bit_length() - 1]
            m ^= b
        frontier = nxt & allowed & ~reach
        reach |= frontier
    return reach


def mask_connected(mask, masks):
    if mask == 0:
        return False
    return mask_reach(mask & -mask, mask, masks) == mask


def min_degree_contractions(masks, pick):
    """Contract a minimum-degree vertex (least degree, then least index)
    over and over until one live vertex is left, on a copy of `masks`.

    Before each step it yields (v, u, nb, live): the vertex v, the
    neighbour u that v is about to be contracted into, v's live
    neighbourhood nb and the live mask. u is pick(adj, nb), from the
    current adjacency masks, or None when v has no neighbour and is just
    dropped. The caller may stop at any yield."""
    adj = list(masks)
    live = (1 << len(adj)) - 1

    def degree(x):
        return adj[x].bit_count(), x

    while live & (live - 1):
        v = min(mask_bits(live), key=degree)
        nb = adj[v]
        u = pick(adj, nb) if nb else None
        yield v, u, nb, live
        if nb:
            for a in mask_bits(nb):
                adj[a] &= ~(1 << v)
            adj[u] |= nb & ~(1 << u)
            for a in mask_bits(adj[u]):
                adj[a] |= 1 << u
        live &= ~(1 << v)


def neighbor_masks(g):
    """Per-vertex adjacency bitmasks, for the search modules: a tuple
    computed once per graph, on first use, and kept on it."""
    try:
        return g._masks
    except AttributeError:
        masks = [0] * g.n
        for u, v in g.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        g._masks = tuple(masks)
        return g._masks


def connected_components(g):
    seen = [False] * g.n
    comps = []
    for s in g.vertices():
        if seen[s]:
            continue
        comp = []
        stack = [s]
        seen[s] = True
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in g.neighbors(x):
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
        comps.append(frozenset(comp))
    return comps


def is_connected(g):
    if g.n == 0:
        return True
    return len(connected_components(g)) == 1


def blocks(g):
    """Maximal 2-connected subgraphs and bridges.

    Returns (blocks, bridges): blocks as a list of frozen vertex sets, each
    the vertex set of one maximal 2-connected subgraph, and bridges as a list
    of edges (u, v) with u < v whose removal disconnects their endpoints.
    Every edge of g lands in exactly one of the two lists.
    """
    index = [0] * g.n
    low = [0] * g.n
    visited = [False] * g.n
    counter = [1]
    edge_stack = []
    comps = []

    for root in g.vertices():
        if visited[root]:
            continue
        # iterative DFS, one frame per vertex: (v, parent, neighbor cursor)
        stack = [(root, -1, 0)]
        visited[root] = True
        index[root] = low[root] = counter[0]
        counter[0] += 1
        while stack:
            v, parent, ptr = stack[-1]
            nbrs = g.neighbors(v)
            advanced = False
            while ptr < len(nbrs):
                w = nbrs[ptr]
                ptr += 1
                if not visited[w]:
                    stack[-1] = (v, parent, ptr)
                    edge_stack.append((v, w))
                    visited[w] = True
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append((w, v, 0))
                    advanced = True
                    break
                if w != parent and index[w] < index[v]:
                    edge_stack.append((v, w))
                    low[v] = min(low[v], index[w])
            else:
                stack[-1] = (v, parent, ptr)
            if advanced:
                continue
            stack.pop()
            if parent >= 0:
                if stack:
                    pv, pp, pptr = stack[-1]
                    low[pv] = min(low[pv], low[v])
                if low[v] >= index[parent]:
                    comp = []
                    while edge_stack:
                        e = edge_stack.pop()
                        comp.append(e)
                        if e == (parent, v):
                            break
                    comps.append(comp)

    block_sets = []
    bridges = []
    for comp in comps:
        if len(comp) == 1:
            u, v = comp[0]
            bridges.append((u, v) if u < v else (v, u))
        else:
            vs = set()
            for u, v in comp:
                vs.add(u)
                vs.add(v)
            block_sets.append(frozenset(vs))
    return block_sets, bridges


# ---------------------------------------------------------------------------
# Minimum vertex cuts, via a unit-vertex-capacity flow.


def _vertex_flow(g, sources, sinks):
    """Maximum flow from `sources` to `sinks` with unit vertex capacities.

    Vertex v is split into 2v (in) and 2v+1 (out), joined by an arc of
    capacity 1, or unbounded when v is a sink. Edge arcs, the arcs out of
    the super source 2n and the arcs into the super sink 2n+1 are unbounded.
    Shortest augmenting paths are added, scanning arcs in ascending vertex
    order, until none is left. Returns (value, residual) with residual =
    (arc_to, arc_cap, adj).
    """
    n_nodes = 2 * g.n + 2
    source = 2 * g.n
    sink = 2 * g.n + 1
    big = g.n + 2

    arc_to = []
    arc_cap = []
    adj = [[] for _ in range(n_nodes)]

    def add_arc(a, b, cap):
        adj[a].append(len(arc_to))
        arc_to.append(b)
        arc_cap.append(cap)
        adj[b].append(len(arc_to))
        arc_to.append(a)
        arc_cap.append(0)

    for v in g.vertices():
        add_arc(2 * v, 2 * v + 1, big if v in sinks else 1)
    for u, v in sorted(g.edges):
        add_arc(2 * u + 1, 2 * v, big)
        add_arc(2 * v + 1, 2 * u, big)
    for x in sorted(sources):
        add_arc(source, 2 * x, big)
    for y in sorted(sinks):
        add_arc(2 * y + 1, sink, big)

    value = 0
    while True:
        # BFS for a shortest augmenting path, ascending arc ids per node
        parent_arc = [-1] * n_nodes
        parent_arc[source] = -2
        queue = [source]
        qi = 0
        while qi < len(queue) and parent_arc[sink] == -1:
            a = queue[qi]
            qi += 1
            for aid in adj[a]:
                b = arc_to[aid]
                if parent_arc[b] == -1 and arc_cap[aid] > 0:
                    parent_arc[b] = aid
                    queue.append(b)
        if parent_arc[sink] == -1:
            return value, (arc_to, arc_cap, adj)
        node = sink
        while node != source:
            aid = parent_arc[node]
            arc_cap[aid] -= 1
            arc_cap[aid ^ 1] += 1
            node = arc_to[aid ^ 1]
        value += 1


def min_vertex_cut(g, sources, sinks):
    """A minimum set of non-sink vertices meeting every sources-sinks path;
    sources may be cut.

    Of all minimum cuts, returns the one nearest the sinks, which leaves the
    sinks' side as small as it can be. Raises PreconditionViolated when a
    vertex is both a source and a sink, since then no cut exists.
    """
    sources, sinks = frozenset(sources), frozenset(sinks)
    for v in sources | sinks:
        if not (0 <= v < g.n):
            raise PreconditionViolated(f"terminal {v} outside graph")
    if sources & sinks:
        raise PreconditionViolated("a vertex is both a source and a sink")
    value, (arc_to, arc_cap, adj) = _vertex_flow(g, sources, sinks)
    # search the residual graph backwards from the super sink; the cut is
    # the vertices whose out-node still reaches it and whose in-node does not
    sink = 2 * g.n + 1
    reach = [False] * len(adj)
    reach[sink] = True
    queue = [sink]
    qi = 0
    while qi < len(queue):
        a = queue[qi]
        qi += 1
        for aid in adj[a]:
            b = arc_to[aid]
            if arc_cap[aid ^ 1] > 0 and not reach[b]:
                reach[b] = True
                queue.append(b)
    cut = frozenset(v for v in g.vertices() if reach[2 * v + 1] and not reach[2 * v])
    assert len(cut) == value and not cut & sinks
    return cut


# ---------------------------------------------------------------------------
# Text formats.


def write_edge_list(g):
    """Edge-list text: header `n m`, edge lines `u v`, label comments."""
    lines = [f"{g.n} {g.m}"]
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    for v in sorted(g.labels):
        lines.append(f"# label {v} {g.labels[v]}")
    return "\n".join(lines) + "\n"


def parse_edge_list(text):
    """Inverse of write_edge_list. Raises PreconditionViolated on a
    malformed line or an edge count that disagrees with the header."""
    return parse_edge_lines(text.splitlines())


def parse_edge_lines(lines):
    """parse_edge_list on the text's lines, for a caller that has split the
    text already."""
    header = None
    edges = []
    labels = {}
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 3 and parts[0] == "label":
                    labels[int(parts[1])] = parts[2]
                continue
            nums = tuple(map(int, line.split()))
        except ValueError:
            raise PreconditionViolated(f"not an integer in line {raw!r}") from None
        if header is None:
            if len(nums) != 2:
                raise PreconditionViolated(f"bad header line: {raw!r}")
            header = nums
            continue
        if len(nums) != 2:
            raise PreconditionViolated(f"bad edge line: {raw!r}")
        edges.append(nums)
    if header is None:
        raise PreconditionViolated("empty edge-list input")
    n, m = header
    if len(edges) != m:
        raise PreconditionViolated(f"header promises {m} edges, found {len(edges)}")
    g = Graph(n, edges, labels)
    if g.m != m:
        raise PreconditionViolated(f"{m - g.m} repeated edge(s) among the {m} listed")
    return g

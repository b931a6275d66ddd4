"""Immutable simple graphs plus the connectivity primitives everything else uses.

Vertices are dense integer indices 0..n-1. Optional string labels carry
generator provenance (things like "v3" or "u1") and never influence any
algorithm. Deletion never mutates: it returns a new graph together with the
old-to-new index mapping.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IndexOutOfRange, PreconditionViolated, SelfLoop


class Graph:
    """Simple undirected graph: no self-loops, no parallel edges."""

    __slots__ = ("n", "edges", "labels", "_adj")

    def __init__(self, n, edges=(), labels=None):
        if n < 0:
            raise IndexOutOfRange(f"vertex count {n} is negative")
        seen = set()
        for u, v in edges:
            if u == v:
                raise SelfLoop(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise IndexOutOfRange(f"edge ({u},{v}) outside [0,{n})")
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
                raise IndexOutOfRange(f"label on missing vertex {v}")
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
            raise IndexOutOfRange(f"annotated vertices {bad} outside graph")

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
            raise IndexOutOfRange(f"roots {bad} outside graph")

    @staticmethod
    def of(graph, roots):
        return RootedGraph(graph, tuple(roots))

    @property
    def root_set(self):
        return frozenset(self.roots)


@dataclass(frozen=True)
class Separation:
    """A separation (A, B): both sides cover V and no edge crosses."""

    side_a: frozenset
    side_b: frozenset

    @property
    def order(self):
        return len(self.side_a & self.side_b)

    @staticmethod
    def of(a, b):
        return Separation(frozenset(a), frozenset(b))


def build_graph(n, edges, labels=None):
    """Normalize an edge list into a Graph, rejecting bad input loudly."""
    return Graph(n, edges, labels)


def verify_separation(g, s):
    """Check both separation conditions: cover and no crossing edge."""
    if s.side_a | s.side_b != frozenset(g.vertices()):
        return False
    for u, v in g.edges:
        within_a = u in s.side_a and v in s.side_a
        within_b = u in s.side_b and v in s.side_b
        if not (within_a or within_b):
            return False
    return True


def induced_subgraph(g, keep):
    """Induced subgraph on `keep`; returns (graph, old_to_new mapping)."""
    kept = sorted(set(keep))
    for v in kept:
        if not (0 <= v < g.n):
            raise IndexOutOfRange(f"vertex {v} outside graph")
    remap = {old: new for new, old in enumerate(kept)}
    edges = [
        (remap[u], remap[v]) for u, v in g.edges if u in remap and v in remap
    ]
    labels = {remap[v]: lab for v, lab in g.labels.items() if v in remap}
    return Graph(len(kept), edges, labels), remap


def delete_vertex(g, v):
    """G - v with the index remapping of the survivors."""
    return induced_subgraph(g, (u for u in g.vertices() if u != v))


def delete_vertices(g, vs):
    drop = set(vs)
    return induced_subgraph(g, (u for u in g.vertices() if u not in drop))


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


def neighbor_masks(g):
    """Per-vertex adjacency bitmasks, for the search modules."""
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


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
# Menger and minimum vertex cuts, via one unit-vertex-capacity flow.


def _vertex_flow(g, sources, sinks, limit=None, uncapped=frozenset()):
    """Unit-vertex-capacity flow from `sources` to `sinks`.

    Vertex v is split into 2v (in) and 2v+1 (out), joined by an arc of
    capacity 1, or unbounded when v is in `uncapped`. Edge arcs, the arcs
    out of the super source 2n and the arcs into the super sink 2n+1 are
    unbounded. Shortest augmenting paths are added, scanning arcs in
    ascending vertex order, until none is left or the value reaches
    `limit`. Returns (value, residual) with residual = (arc_to, arc_cap, adj).
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
        add_arc(2 * v, 2 * v + 1, big if v in uncapped else 1)
    for u, v in sorted(g.edges):
        add_arc(2 * u + 1, 2 * v, big)
        add_arc(2 * v + 1, 2 * u, big)
    for x in sorted(sources):
        add_arc(source, 2 * x, big)
    for y in sorted(sinks):
        add_arc(2 * y + 1, sink, big)

    value = 0
    while limit is None or value < limit:
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
            break
        node = sink
        while node != source:
            aid = parent_arc[node]
            arc_cap[aid] -= 1
            arc_cap[aid ^ 1] += 1
            node = arc_to[aid ^ 1]
        value += 1
    return value, (arc_to, arc_cap, adj)


def _flow_cut(g, residual, near_sink):
    """(cut, side) of a maximum flow: the minimum cut nearest the source
    with the vertices whose in-node the source still reaches, or, with
    near_sink, the minimum cut nearest the sink with the vertices whose
    out-node still reaches the sink. The cut lies inside its side."""
    arc_to, arc_cap, adj = residual
    start = 2 * g.n + 1 if near_sink else 2 * g.n
    reach = [False] * len(adj)
    reach[start] = True
    queue = [start]
    qi = 0
    while qi < len(queue):
        a = queue[qi]
        qi += 1
        for aid in adj[a]:
            b = arc_to[aid]
            # towards the sink an arc b -> a is walked backwards
            if arc_cap[aid ^ 1 if near_sink else aid] > 0 and not reach[b]:
                reach[b] = True
                queue.append(b)
    inner, outer = (1, 0) if near_sink else (0, 1)
    side = frozenset(v for v in g.vertices() if reach[2 * v + inner])
    cut = frozenset(v for v in side if not reach[2 * v + outer])
    return cut, side


def menger(g, x_set, y_set, k):
    """k vertex-disjoint X-Y paths, or a separation of order < k.

    Returns ("paths", [path, ...]) with exactly k pairwise vertex-disjoint
    paths from X to Y, or ("separation", Separation) of order < k with
    X inside side A and Y inside side B. Exactly one certificate is produced.
    Deterministic: augmenting searches scan arcs in ascending vertex order.
    """
    x_set = sorted(set(x_set))
    y_set = sorted(set(y_set))
    for v in x_set + y_set:
        if not (0 <= v < g.n):
            raise IndexOutOfRange(f"terminal {v} outside graph")
    if k < 0:
        raise PreconditionViolated("k must be non-negative")
    if len(x_set) < k or len(y_set) < k:
        raise PreconditionViolated(f"need |X| >= {k} and |Y| >= {k}")
    if k == 0:
        return "paths", []

    flow_value, residual = _vertex_flow(g, x_set, y_set, limit=k)
    if flow_value >= k:
        paths = _extract_flow_paths(g, residual)
        assert len(paths) == k
        return "paths", paths

    cut, side_a = _flow_cut(g, residual, near_sink=False)
    side_b = frozenset(set(g.vertices()) - side_a) | cut
    sep = Separation(side_a, side_b)
    assert sep.order == flow_value and sep.order < k
    assert verify_separation(g, sep)
    assert set(x_set) <= side_a and set(y_set) <= side_b
    return "separation", sep


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
            raise IndexOutOfRange(f"terminal {v} outside graph")
    if sources & sinks:
        raise PreconditionViolated("a vertex is both a source and a sink")
    value, residual = _vertex_flow(g, sources, sinks, uncapped=sinks)
    cut, _ = _flow_cut(g, residual, near_sink=True)
    assert len(cut) == value and not cut & sinks
    return cut


def _extract_flow_paths(g, residual):
    """Walk saturated vertex arcs from the source to recover the paths."""
    arc_to, arc_cap, adj = residual
    source, sink = 2 * g.n, 2 * g.n + 1
    used_arc = [False] * len(arc_to)
    paths = []
    for aid in adj[source]:
        # forward arcs have even id; saturated means residual on the twin
        if aid % 2 == 1 or arc_to[aid] == source:
            continue
        if arc_cap[aid ^ 1] == 0 or used_arc[aid]:
            continue
        used_arc[aid] = True
        path = []
        node = arc_to[aid]  # some x_in
        while node != sink:
            path.append(node // 2)
            nxt = None
            for bid in adj[node | 1]:  # scan out-node arcs
                if bid % 2 == 1:
                    continue
                if arc_cap[bid ^ 1] > 0 and not used_arc[bid]:
                    nxt = bid
                    break
            assert nxt is not None, "flow path broke mid-walk"
            used_arc[nxt] = True
            node = arc_to[nxt]
        paths.append(path)
    return paths


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
    header = None
    edges = []
    labels = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 3 and parts[0] == "label":
                labels[int(parts[1])] = parts[2]
            continue
        nums = line.split()
        if header is None:
            if len(nums) != 2:
                raise PreconditionViolated(f"bad header line: {raw!r}")
            header = (int(nums[0]), int(nums[1]))
            continue
        if len(nums) != 2:
            raise PreconditionViolated(f"bad edge line: {raw!r}")
        edges.append((int(nums[0]), int(nums[1])))
    if header is None:
        raise PreconditionViolated("empty edge-list input")
    n, m = header
    if len(edges) != m:
        raise PreconditionViolated(f"header promises {m} edges, found {len(edges)}")
    g = Graph(n, edges, labels)
    if g.m != m:
        raise PreconditionViolated(f"{m - g.m} repeated edge(s) among the {m} listed")
    return g


def to_dot(g, name="G"):
    out = [f"graph {name} {{"]
    for v in g.vertices():
        lab = g.labels.get(v)
        if lab is not None:
            out.append(f'  {v} [label="{lab}"];')
        else:
            out.append(f"  {v};")
    for u, v in sorted(g.edges):
        out.append(f"  {u} -- {v};")
    out.append("}")
    return "\n".join(out) + "\n"

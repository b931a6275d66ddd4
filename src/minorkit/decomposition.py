"""Tree decompositions, exact treewidth at small scale, certificates.

exact_treewidth brackets the width between a min-fill elimination order
(upper bound) and minor-min-width (lower bound). When they differ it decides
each width in between in turn by a pruned, memoized search over
eliminated-vertex sets. That search is exponential in the worst case, so it
is reserved for graphs of at most twenty vertices. Larger structured graphs
go through treewidth_certificates, which pins the width with a grid found as
a subgraph (lower bound) and the decomposition of the grid's column-major
elimination order (upper bound), falling back to a clique-minor bramble and
exact_treewidth when small. Every decomposition the module builds comes from
an elimination order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CertificateNotFound,
    InvalidDecomposition,
    SearchCapExceeded,
)
from .graphs import (
    Graph,
    is_connected,
    mask_bits,
    mask_neighborhood,
    mask_of,
    mask_reach,
    neighbor_masks,
)
from .minors import DEFAULT_PATTERN_CAP, dense_clique_minor

EXACT_VERTEX_CAP = 20


@dataclass(frozen=True)
class TreeDecomposition:
    tree: Graph
    bags: tuple  # frozenset of host vertices per tree node

    def width(self):
        return max((len(b) for b in self.bags), default=0) - 1

    def adhesion(self):
        return max(
            (len(self.bags[u] & self.bags[v]) for u, v in self.tree.edges), default=0
        )


@dataclass(frozen=True)
class Bramble:
    """Connected vertex sets, pairwise touching; order = min hitting set."""

    sets: tuple


@dataclass(frozen=True)
class TdCheck:
    valid: bool
    width: int
    adhesion: int


class AboveBound:
    """Sentinel: the graph's treewidth exceeds the caller's bound."""

    def __repr__(self):
        return "AboveBound()"


def _tree_ok(t):
    return t.n > 0 and t.m == t.n - 1 and is_connected(t)


def validate_td(g, td):
    """Check the three decomposition conditions; always report width/adhesion."""
    width = td.width()
    adhesion = td.adhesion()
    if not _tree_ok(td.tree) or len(td.bags) != td.tree.n:
        return TdCheck(False, width, adhesion)
    union = set()
    for b in td.bags:
        if any(not (0 <= v < g.n) for v in b):
            return TdCheck(False, width, adhesion)
        union |= b
    if union != set(range(g.n)):
        return TdCheck(False, width, adhesion)
    for u, v in g.edges:
        if not any(u in b and v in b for b in td.bags):
            return TdCheck(False, width, adhesion)
    # the nodes holding a vertex induce a forest of the tree, which is one
    # subtree exactly when its node count exceeds its edge count by one
    parts = {}
    for b in td.bags:
        for v in b:
            parts[v] = parts.get(v, 0) + 1
    for x, y in td.tree.edges:
        for v in td.bags[x] & td.bags[y]:
            parts[v] -= 1
    if any(count != 1 for count in parts.values()):
        return TdCheck(False, width, adhesion)
    return TdCheck(True, width, adhesion)


# --- exact treewidth ----------------------------------------------------------


def _min_fill_order(masks):
    """Upper bound: greedily eliminate the vertex adding the fewest fill
    edges (ties by degree, then index). Returns (width, order)."""
    adj = list(masks)
    rest = (1 << len(adj)) - 1
    width = -1
    order = []

    def key(v):
        nb = adj[v]
        # each neighbour a counts the neighbours it lacks; a itself is in nb
        fill = sum((nb & ~adj[a]).bit_count() - 1 for a in mask_bits(nb))
        return fill, nb.bit_count(), v

    while rest:
        v = min(mask_bits(rest), key=key)
        nb = adj[v]
        width = max(width, nb.bit_count())
        for a in mask_bits(nb):
            adj[a] = (adj[a] | nb) & ~(1 << a | 1 << v)
        rest &= ~(1 << v)
        order.append(v)
    return width, order


def _minor_min_width(masks):
    """Lower bound (Gogate & Dechter's minor-min-width): contract a
    min-degree vertex into its min-degree neighbour, over and over; the
    largest min-degree seen bounds the treewidth of every minor, so of g."""
    adj = list(masks)
    rest = (1 << len(adj)) - 1
    lower = 0

    def degree(x):
        return adj[x].bit_count(), x

    while rest & (rest - 1):
        v = min(mask_bits(rest), key=degree)
        nb = adj[v]
        lower = max(lower, nb.bit_count())
        if nb:
            u = min(mask_bits(nb), key=degree)
            for a in mask_bits(nb):
                adj[a] &= ~(1 << v)
            adj[u] |= nb & ~(1 << u)
            for a in mask_bits(adj[u]):
                adj[a] |= 1 << u
        rest &= ~(1 << v)
    return lower


def _order_within(masks, t):
    """An elimination order of width at most t, or None.

    Depth-first over eliminated-vertex masks, cheapest vertex first. A
    vertex is eliminable when its q-cost (its degree in the graph left after
    eliminating `done`) is at most t. Any order finishes the last t+1
    vertices. Masks that fail are memoised."""
    full = (1 << len(masks)) - 1
    failed = set()
    order = []

    def q_cost(done, v):
        reach = mask_reach(1 << v, done, masks)
        return (mask_neighborhood(reach, masks) & ~done & ~(1 << v)).bit_count()

    def dfs(done):
        rest = full & ~done
        if rest.bit_count() <= t + 1:
            order.extend(mask_bits(rest))
            return True
        if done in failed:
            return False
        costs = sorted((q_cost(done, v), v) for v in mask_bits(rest))
        for cost, v in costs:
            if cost > t:
                break
            order.append(v)
            if dfs(done | 1 << v):
                return True
            order.pop()
        failed.add(done)
        return False

    return order if dfs(0) else None


def _elimination_width(g, upper=None):
    """(width, order) of an optimal elimination order, or None when the
    width exceeds `upper`. Bounds first: a min-fill order gives the upper
    bound and minor-min-width the lower; between them each target width is
    decided in turn, and the first feasible one is the treewidth."""
    masks = neighbor_masks(g)
    width, order = _min_fill_order(masks)
    stop = width if upper is None else min(width, upper + 1)
    for t in range(_minor_min_width(masks), stop):
        found = _order_within(masks, t)
        if found is not None:
            return t, found
    if upper is not None and width > upper:
        return None
    return width, order


def _decomposition_from_order(g, order):
    """Fill-in simulation; one bag per vertex, attached at its first
    later-eliminated fill neighbor."""
    later = {v: i for i, v in enumerate(order)}
    adj = {v: set(g.neighbors(v)) for v in range(g.n)}
    bag_of = {}
    for v in order:
        nb = {w for w in adj[v] if later[w] > later[v]}
        bag_of[v] = frozenset({v} | nb)
        for a in nb:
            for b in nb:
                if a != b:
                    adj[a].add(b)
    bags = []
    node_of = {}
    for v in order:
        node_of[v] = len(bags)
        bags.append(bag_of[v])
    edges = []
    for i, v in enumerate(order):
        rest = [w for w in bag_of[v] if w != v]
        if rest:
            first = min(rest, key=lambda w: later[w])
            edges.append((node_of[v], node_of[first]))
        elif i + 1 < len(order):
            edges.append((node_of[v], node_of[order[i + 1]]))
    if not bags:
        bags = [frozenset()]
    return TreeDecomposition(Graph(len(bags), edges), tuple(bags))


def min_fill_decomposition(g):
    """A decomposition built from a min-fill elimination order: always valid,
    not always of minimum width, and cheap at any size."""
    _, order = _min_fill_order(neighbor_masks(g))
    return _decomposition_from_order(g, order)


def exact_treewidth(g, upper=None):
    """(width, decomposition), or an AboveBound marker when a bound is given
    and exceeded; capped at twenty vertices.

    A min-fill order gives an upper bound and minor-min-width a lower one;
    equal bounds return the min-fill order at once. Between them, each target
    width from the lower bound up is decided by a depth-first search over
    eliminated-vertex sets that skips any vertex of elimination degree above
    the target; the first feasible target is the treewidth. With `upper`, no
    target above it is searched, and the answer is AboveBound as soon as the
    lower bound exceeds it. The decomposition is built from the order and
    validated before return. Forests and the empty graph need no search: on
    a forest min-fill only eliminates vertices of degree at most one, so both
    bounds meet."""
    if g.n > EXACT_VERTEX_CAP:
        raise SearchCapExceeded(
            f"{g.n} vertices; exact treewidth is capped at {EXACT_VERTEX_CAP}"
        )
    found = _elimination_width(g, upper)
    if found is None:
        return AboveBound()
    width, order = found
    td = _decomposition_from_order(g, order)
    assert validate_td(g, td).valid and td.width() == width
    return width, td


# --- brambles -----------------------------------------------------------------


def validate_bramble(g, bramble):
    masks = neighbor_masks(g)
    for s in bramble.sets:
        m = mask_of(s)
        if m == 0 or mask_reach(m & -m, m, masks) != m:
            return False
    for i, a in enumerate(bramble.sets):
        for b in bramble.sets[i + 1 :]:
            if a & b:
                continue
            if not (mask_neighborhood(mask_of(a), masks) & mask_of(b)):
                return False
    return True


def bramble_order(g, bramble):
    """Exact minimum hitting set size over the bramble's sets."""
    sets = [set(s) for s in bramble.sets]
    best = len(set().union(*sets)) if sets else 0

    def rec(remaining, chosen):
        nonlocal best
        if not remaining:
            best = min(best, chosen)
            return
        if chosen + 1 >= best:
            return
        target = min(remaining, key=len)
        for v in sorted(target):
            rec([s for s in remaining if v not in s], chosen + 1)

    rec(sets, 0)
    return best


# --- certificates ---------------------------------------------------------------


@dataclass(frozen=True)
class GridCertificate:
    """Row-major placement of an n-by-n grid subgraph."""

    side: int
    placement: tuple  # tuple of rows, each a tuple of host vertices


@dataclass(frozen=True)
class TreewidthCertificates:
    value: int
    lower_grid: GridCertificate | None
    lower_bramble: Bramble | None
    upper: TreeDecomposition


def find_grid_subgraph(g, side):
    """Rigid backtracking placement of a side-by-side grid as a subgraph."""
    if side * side > g.n:
        return None
    deg_need = [[0] * side for _ in range(side)]
    for r in range(side):
        for c in range(side):
            deg_need[r][c] = (0 < r) + (r < side - 1) + (0 < c) + (c < side - 1)
    place = [[-1] * side for _ in range(side)]
    used = [False] * g.n

    def rec(idx):
        if idx == side * side:
            return True
        r, c = divmod(idx, side)
        cands = None
        if c > 0:
            cands = set(g.neighbors(place[r][c - 1]))
        if r > 0:
            up = set(g.neighbors(place[r - 1][c]))
            cands = up if cands is None else cands & up
        if cands is None:
            cands = range(g.n)
        for v in sorted(cands):
            if used[v] or g.degree(v) < deg_need[r][c]:
                continue
            place[r][c] = v
            used[v] = True
            if rec(idx + 1):
                return True
            used[v] = False
            place[r][c] = -1
        return False

    if side >= 1 and rec(0):
        return GridCertificate(side, tuple(tuple(row) for row in place))
    return None


def treewidth_certificates(g, n):
    """Certificates pinning tw(g) = n without exhaustive search.

    Lower side: an n-by-n grid subgraph, else the branch sets of a K_{n+1}
    minor (dense_clique_minor, within its cap) as a bramble. Upper side:
    when the grid spans the graph, the decomposition of its column-major
    elimination order if that has width n; else a width-n decomposition
    from exact_treewidth, on at most twenty vertices.
    """
    grid_cert = find_grid_subgraph(g, n) if n >= 2 else None
    bramble = None
    if grid_cert is None:
        model = dense_clique_minor(g, n + 1) if n < DEFAULT_PATTERN_CAP else None
        if model is None:
            raise CertificateNotFound(f"no lower-bound certificate for width {n}")
        bramble = Bramble(tuple(model.branch_sets))
        assert validate_bramble(g, bramble)
        assert bramble_order(g, bramble) == n + 1
    upper = None
    if grid_cert is not None and n * n == g.n:
        columns = zip(*grid_cert.placement)
        upper = _decomposition_from_order(g, [v for col in columns for v in col])
        if upper.width() != n:
            upper = None
    if upper is None:
        try:
            found = exact_treewidth(g, upper=n)
        except SearchCapExceeded as exc:
            raise CertificateNotFound(
                f"no upper-bound certificate for width {n}: {exc}"
            ) from exc
        if isinstance(found, AboveBound):
            raise CertificateNotFound(f"treewidth exceeds {n}")
        upper = found[1]
    return TreewidthCertificates(
        value=n, lower_grid=grid_cert, lower_bramble=bramble, upper=upper
    )


# --- nice form ------------------------------------------------------------------


def nice_form(td):
    """Rooted normal form: node 0 is an empty root; every node is an empty
    leaf, an introduce (child bag plus one vertex), a forget (child bag minus
    one vertex), or a join of two children with identical bags. Every parent
    is numbered below its children."""
    if not _tree_ok(td.tree) or len(td.bags) != td.tree.n:
        raise InvalidDecomposition("input tree is not a connected tree")
    bags_out = []
    edges_out = []

    def new_node(bag):
        bags_out.append(frozenset(bag))
        return len(bags_out) - 1

    def chain_to(bag_from, node_from, bag_to):
        cur_bag = set(bag_from)
        cur = node_from
        for v in sorted(bag_from - bag_to, reverse=True):
            cur_bag.discard(v)
            nxt = new_node(cur_bag)
            edges_out.append((cur, nxt))
            cur = nxt
        for v in sorted(bag_to - cur_bag):
            cur_bag.add(v)
            nxt = new_node(cur_bag)
            edges_out.append((cur, nxt))
            cur = nxt
        return cur

    parent = {0: None}
    order = [0]
    qi = 0
    while qi < len(order):
        x = order[qi]
        qi += 1
        for y in td.tree.neighbors(x):
            if y not in parent:
                parent[y] = x
                order.append(y)

    def kids_reversed(node):
        """node's children, last first, so that popping yields them in order."""
        return [y for y in td.tree.neighbors(node) if parent.get(y) == node][::-1]

    # Post-order over the input tree. A frame holds a node, its children
    # still to build and the tops of the branches built so far; each branch
    # is chained to the node's bag as soon as it is built.
    frames = [(0, kids_reversed(0), [])]
    while True:
        node, todo, branch_tops = frames[-1]
        if todo:
            y = todo.pop()
            frames.append((y, kids_reversed(y), []))
            continue
        frames.pop()
        bag = td.bags[node]
        if not branch_tops:
            top = chain_to(frozenset(), new_node(frozenset()), bag)
        else:
            top = branch_tops[0]
            for other in branch_tops[1:]:
                join = new_node(bag)
                edges_out.append((top, join))
                edges_out.append((other, join))
                top = join
        if not frames:
            break
        up = frames[-1]
        up[2].append(chain_to(bag, top, td.bags[up[0]]))
    chain_to(td.bags[0], top, frozenset())
    # nodes are created children first and the root last, so numbering them
    # backwards puts the root at 0 and every parent below its children
    n_out = len(bags_out)
    edges = [(n_out - 1 - a, n_out - 1 - b) for a, b in edges_out]
    return TreeDecomposition(Graph(n_out, edges), tuple(reversed(bags_out)))


def nice_node_kind(td, node, parent_of):
    """Classify a node of a nice decomposition: leaf / introduce / forget / join."""
    kids = [y for y in td.tree.neighbors(node) if parent_of.get(node) != y]
    if not kids:
        return ("leaf", None)
    if len(kids) == 2:
        return ("join", None)
    (child,) = kids
    cb, b = td.bags[child], td.bags[node]
    if len(b) == len(cb) + 1 and cb < b:
        (v,) = tuple(b - cb)
        return ("introduce", v)
    if len(b) == len(cb) - 1 and b < cb:
        (v,) = tuple(cb - b)
        return ("forget", v)
    raise InvalidDecomposition(f"node {node} is not in nice form")


# --- text format -----------------------------------------------------------------


def write_td(td, n_host):
    """The common .td text convention; ids and vertices are 1-based on disk."""
    lines = [f"s td {td.tree.n} {td.width() + 1} {n_host}"]
    for i, bag in enumerate(td.bags):
        parts = " ".join(str(v + 1) for v in sorted(bag))
        lines.append(f"b {i + 1} {parts}".rstrip())
    for u, v in sorted(td.tree.edges):
        lines.append(f"{u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def parse_td(text):
    """Inverse of write_td. Returns (decomposition, host vertex count)."""
    header = None
    bags = {}
    edges = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("s td"):
            parts = line.split()
            if len(parts) != 5:
                raise InvalidDecomposition(f"bad header: {line!r}")
            header = (int(parts[2]), int(parts[3]), int(parts[4]))
        elif line.startswith("b "):
            parts = line.split()
            bags[int(parts[1]) - 1] = frozenset(int(x) - 1 for x in parts[2:])
        else:
            a, b = line.split()
            edges.append((int(a) - 1, int(b) - 1))
    if header is None:
        raise InvalidDecomposition("missing s td header")
    n_bags, width_plus, n_host = header
    if set(bags) != set(range(n_bags)):
        raise InvalidDecomposition("bag ids do not cover 1..#bags")
    td = TreeDecomposition(Graph(n_bags, edges), tuple(bags[i] for i in range(n_bags)))
    if td.width() + 1 != width_plus:
        raise InvalidDecomposition(
            f"header claims width {width_plus - 1}, bags give {td.width()}"
        )
    return td, n_host

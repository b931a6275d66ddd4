"""Tree decompositions, exact treewidth at small scale, certificates.

exact_treewidth brackets the width between a min-fill elimination order
(upper bound) and minor-min-width (lower bound). When they differ it decides
each width in between in turn by a pruned, memoized search over
eliminated-vertex sets. That search is exponential in the worst case, so it
runs under one node budget per call (NODE_BUDGET), whatever the graph's
size: random graphs of 22 vertices finish, and of 25 run out. Structured
graphs past it go through treewidth_certificates, which pins the width with
a grid found as a subgraph (lower bound) and the decomposition of the
grid's column-major elimination order (upper bound), falling back to a
clique-minor bramble and exact_treewidth. Every decomposition the module
builds comes from an elimination order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    NODE_BUDGET,
    Budget,
    BudgetExceeded,
    CertificateNotFound,
    SearchCapExceeded,
)
from .graphs import (
    Graph,
    is_connected,
    mask_bits,
    mask_neighborhood,
    mask_of,
    mask_reach,
    min_degree_contractions,
    neighbor_masks,
)
from .minors import dense_clique_minor


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


def validate_td(g, td):
    """Check the three decomposition conditions; always report width/adhesion."""
    width = td.width()
    adhesion = td.adhesion()
    t = td.tree
    if not (t.n > 0 and t.m == t.n - 1 and is_connected(t)) or len(td.bags) != t.n:
        return TdCheck(False, width, adhesion)
    nodes_of = {}
    for x, b in enumerate(td.bags):
        for v in b:
            nodes_of.setdefault(v, set()).add(x)
    if set(nodes_of) != set(range(g.n)):
        return TdCheck(False, width, adhesion)
    if any(not nodes_of[u] & nodes_of[v] for u, v in g.edges):
        return TdCheck(False, width, adhesion)
    # the nodes holding a vertex induce a forest of the tree, which is one
    # subtree exactly when its node count exceeds its edge count by one
    parts = {v: len(xs) for v, xs in nodes_of.items()}
    for x, y in t.edges:
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
    lower = 0
    for _, _, nb, _ in min_degree_contractions(masks, _min_degree_neighbour):
        lower = max(lower, nb.bit_count())
    return lower


def _min_degree_neighbour(adj, nb):
    return min(mask_bits(nb), key=lambda x: (adj[x].bit_count(), x))


def _order_within(masks, widths):
    """(t, order) for the first width t in `widths` that an elimination
    order meets, or None.

    Depth-first over eliminated-vertex masks, cheapest vertex first. A
    vertex is eliminable when its q-cost (its degree in the graph left after
    eliminating `done`) is at most t. Any order finishes the last t+1
    vertices. Masks that fail are memoised per width. One
    Budget(NODE_BUDGET) is charged per node across all the widths."""
    full = (1 << len(masks)) - 1
    charge = Budget(NODE_BUDGET, "elimination search nodes").charge

    def q_cost(done, v):
        reach = mask_reach(1 << v, done, masks)
        return (mask_neighborhood(reach, masks) & ~done & ~(1 << v)).bit_count()

    def dfs(done):
        charge()
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

    for t in widths:
        failed, order = set(), []
        try:
            if dfs(0):
                return t, order
        except RecursionError as exc:
            raise SearchCapExceeded("elimination search is deeper than the recursion limit") from exc
    return None


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
    and exceeded; BudgetExceeded past NODE_BUDGET search nodes in all.

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
    masks = neighbor_masks(g)
    width, order = _min_fill_order(masks)
    stop = width if upper is None else min(width, upper + 1)
    found = _order_within(masks, range(_minor_min_width(masks), stop))
    if found is not None:
        width, order = found
    elif upper is not None and width > upper:
        return AboveBound()
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
    """Rigid backtracking placement of a side-by-side grid as a subgraph,
    cell by cell in row-major order. An explicit stack holds each placed
    cell's remaining candidates, so a large grid needs no deep recursion."""
    if side < 1 or side * side > g.n:
        return None
    place = [-1] * (side * side)
    used = [False] * g.n

    def candidates(idx):
        """Unused host vertices that fit cell idx next to the cells placed."""
        r, c = divmod(idx, side)
        need = (0 < r) + (r < side - 1) + (0 < c) + (c < side - 1)
        cands = None
        if c > 0:
            cands = set(g.neighbors(place[idx - 1]))
        if r > 0:
            up = set(g.neighbors(place[idx - side]))
            cands = up if cands is None else cands & up
        if cands is None:
            cands = range(g.n)
        return iter([v for v in sorted(cands) if not used[v] and g.degree(v) >= need])

    stack = [candidates(0)]
    while stack:
        idx = len(stack) - 1
        if place[idx] != -1:
            used[place[idx]] = False
            place[idx] = -1
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            continue
        place[idx] = v
        used[v] = True
        if idx + 1 == side * side:
            rows = (tuple(place[r * side:(r + 1) * side]) for r in range(side))
            return GridCertificate(side, tuple(rows))
        stack.append(candidates(idx + 1))
    return None


def treewidth_certificates(g, n):
    """Certificates pinning tw(g) = n without exhaustive search.

    Lower side: an n-by-n grid subgraph, else the branch sets of a K_{n+1}
    minor (dense_clique_minor) as a bramble. The model may come from
    dense_clique_minor's contraction rather than its search; either way
    validate_bramble checks the bramble. Upper side: when the grid spans
    the graph, the decomposition of its column-major elimination order if
    that has width n; else a width-n decomposition from exact_treewidth.
    CertificateNotFound when a side has no certificate, including when the
    search for it passes its budget or the recursion limit.
    """
    grid_cert = find_grid_subgraph(g, n) if n >= 2 else None
    bramble = None
    if grid_cert is None:
        try:
            model = dense_clique_minor(g, n + 1)
        except (BudgetExceeded, SearchCapExceeded) as exc:
            raise CertificateNotFound(f"no lower-bound certificate for width {n}: {exc}") from exc
        if model is None:
            raise CertificateNotFound(f"no lower-bound certificate for width {n}")
        # the branch sets are disjoint, so the bramble's order is n + 1
        bramble = Bramble(tuple(model.branch_sets))
        assert validate_bramble(g, bramble)
    upper = None
    if grid_cert is not None and n * n == g.n:
        columns = zip(*grid_cert.placement)
        upper = _decomposition_from_order(g, [v for col in columns for v in col])
        if upper.width() != n:
            upper = None
    if upper is None:
        try:
            found = exact_treewidth(g, upper=n)
        except (BudgetExceeded, SearchCapExceeded) as exc:
            raise CertificateNotFound(
                f"no upper-bound certificate for width {n}: {exc}"
            ) from exc
        if isinstance(found, AboveBound):
            raise CertificateNotFound(f"treewidth exceeds {n}")
        upper = found[1]
    return TreewidthCertificates(
        value=n, lower_grid=grid_cert, lower_bramble=bramble, upper=upper
    )


"""Minor models and their rooted and red variants, plus canonical codes.

One branch-set search engine drives all three minor tests. It grows branch
sets one host vertex at a time in a canonical order (each candidate set is
enumerated exactly once, seeded at its minimum vertex), finalizes pattern
vertices in a fixed placement order, and prunes on reachability, liveness of
future pattern edges, and red-vertex counting. Rooted and red searches are
the same engine with per-branch-set admissibility constraints. The one
clique-minor search, dense_clique_minor, tries a greedy contraction first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import PreconditionViolated, RootCountMismatch, SearchCapExceeded
from .graphs import (
    Graph,
    RootedGraph,
    mask_bits as _bits,
    mask_connected as _mask_connected,
    mask_neighborhood as _nbhood,
    mask_of as _mask_of,
    mask_reach as _reach_in,
    neighbor_masks,
)

DEFAULT_PATTERN_CAP = 12


@dataclass(frozen=True)
class MinorModel:
    """Branch sets indexed by pattern vertex."""

    branch_sets: tuple


def verify_minor_model(host, pattern, model):
    """All three invariants: disjoint connected non-empty sets, edges covered."""
    bs = model.branch_sets
    if len(bs) != pattern.n:
        return False
    seen = set()
    for s in bs:
        if not s:
            return False
        for v in s:
            if not (0 <= v < host.n) or v in seen:
                return False
            seen.add(v)
    masks = neighbor_masks(host)
    for s in bs:
        if not _mask_connected(_mask_of(s), masks):
            return False
    for u, v in pattern.edges:
        if not any(host.has_edge(a, b) for a in bs[u] for b in bs[v]):
            return False
    return True


def _placement_order(pattern, required):
    """Required-first, then greedily attach to the chosen prefix."""
    n = pattern.n
    placed = [False] * n
    order = []
    for _ in range(n):
        best = None
        best_key = None
        for v in range(n):
            if placed[v]:
                continue
            attach = sum(1 for w in pattern.neighbors(v) if placed[w])
            key = (1 if required[v] else 0, attach, pattern.degree(v), -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        order.append(best)
        placed[best] = True
    return order


def _exists_constraint_auto(pattern, a, b):
    """Is there an automorphism of pattern with a -> b?"""
    n = pattern.n

    def compatible(v, w, img):
        if pattern.degree(v) != pattern.degree(w):
            return False
        for u in range(n):
            if img[u] != -1 and pattern.has_edge(u, v) != pattern.has_edge(img[u], w):
                return False
        return True

    img = [-1] * n
    used = [False] * n
    if not compatible(a, b, img):
        return False
    img[a] = b
    used[b] = True
    rest = [v for v in range(n) if v != a]

    def rec(k):
        if k == len(rest):
            return True
        v = rest[k]
        for w in range(n):
            if used[w] or not compatible(v, w, img):
                continue
            img[v] = w
            used[w] = True
            if rec(k + 1):
                return True
            img[v] = -1
            used[w] = False
        return False

    return rec(0)


def _search_model(host, pattern, required=None, red_mask=None, pattern_cap=DEFAULT_PATTERN_CAP):
    """Core engine. `required[p]` is a host mask that branch set p must contain;
    `red_mask`, when not None, forces every branch set to intersect it.
    Returns a MinorModel or None."""
    hp = pattern.n
    if hp > pattern_cap:
        raise SearchCapExceeded(f"pattern has {hp} vertices, cap is {pattern_cap}")
    required = list(required) if required else [0] * hp
    if hp == 0:
        return MinorModel(())
    if host.n == 0:
        return None
    taken = 0
    for msk in required:
        if msk & taken:
            return None  # two pattern vertices demand the same host vertex
        taken |= msk

    masks = neighbor_masks(host)
    order = _placement_order(pattern, required)
    pos = {v: i for i, v in enumerate(order)}
    req_at = [required[order[i]] for i in range(hp)]
    earlier_nbrs = [
        [pos[w] for w in pattern.neighbors(order[i]) if pos[w] < i] for i in range(hp)
    ]
    nbr_pos = [sorted(pos[w] for w in pattern.neighbors(order[i])) for i in range(hp)]
    host_deg = [host.degree(v) for v in range(host.n)]
    # suffix union of still-unplaced required masks, for an O(1) feasibility check
    suffix_req = [0] * (hp + 1)
    for i in range(hp - 1, -1, -1):
        suffix_req[i] = suffix_req[i + 1] | req_at[i]

    # symmetry: the branch set of the first placed vertex takes the smallest
    # seed among its automorphism orbit; required vertices are placed first,
    # so when the first one is free no vertex is required
    orbit_rule = set()
    if req_at[0] == 0:
        v0 = order[0]
        for w in range(hp):
            if w != v0 and _exists_constraint_auto(pattern, v0, w):
                orbit_rule.add(pos[w])

    sets_ = [0] * hp
    nb_ = [0] * hp

    def place(i, free):
        if i == hp:
            return True
        if red_mask is not None and (hp - i) > (free & red_mask).bit_count():
            return False
        req = req_at[i]
        if req & ~free:
            return False
        if req:
            return extend(i, req, free & ~req, 0)
        floor = sets_[0] & -sets_[0] if i in orbit_rule else 0
        # a set is enumerated only from its minimum vertex (everything smaller
        # is banned inside that subtree), so seed trial order is free to be a
        # heuristic: prefer hosts whose degree can carry the pattern degree
        deg_i = pattern.degree(order[i])
        seeds = sorted(
            _bits(free), key=lambda v: (host_deg[v] < deg_i, -host_deg[v], v)
        )
        for v in seeds:
            b = 1 << v
            if b <= floor:
                continue
            if extend(i, b, free & ~b, b - 1):
                return True
        return False

    def extend(i, cur, rest, banned):
        usable = rest & ~banned
        pending = [j for j in earlier_nbrs[i] if not (nb_[j] & cur)]
        need_red = red_mask is not None and not (cur & red_mask)
        reach = _reach_in(cur & -cur, cur | usable, masks)
        if cur & ~reach:
            return False  # required seeds cannot all be connected up
        if need_red and not (reach & red_mask):
            return False
        for j in pending:
            if not (reach & nb_[j]):
                return False
        if not pending and not need_red and _mask_connected(cur, masks):
            if finalize(i, cur, rest):
                return True
        cand = _nbhood(cur, masks) & usable
        b_ban = banned
        while cand:
            b = cand & -cand
            cand ^= b
            if extend(i, cur | b, rest & ~b, b_ban):
                return True
            b_ban |= b
        return False

    def finalize(i, cur, rest):
        if suffix_req[i + 1] & ~rest:
            return False
        sets_[i] = cur
        nb_[i] = _nbhood(cur, masks)
        ok = True
        for j in range(i + 1):
            # every later pattern neighbor of j needs its own attachment
            # vertex in N(B_j), and those vertices are pairwise distinct
            need = sum(1 for p in nbr_pos[j] if p > i)
            if need and (nb_[j] & rest).bit_count() < need:
                ok = False
                break
        if ok and place(i + 1, rest):
            return True
        sets_[i] = 0
        nb_[i] = 0
        return False

    full = (1 << host.n) - 1
    if not place(0, full):
        return None
    model_sets = [frozenset()] * hp
    for i, v in enumerate(order):
        model_sets[v] = frozenset(_bits(sets_[i]))
    return MinorModel(tuple(model_sets))


def find_minor(host, pattern, pattern_cap=DEFAULT_PATTERN_CAP):
    """A minor model of pattern in host, or None. Exhaustive under the cap."""
    return _search_model(host, pattern, pattern_cap=pattern_cap)


def find_rooted_minor(host, pattern, pattern_cap=DEFAULT_PATTERN_CAP):
    """Rooted minor: host root i must land in the branch set of pattern root i."""
    if len(host.roots) != len(pattern.roots):
        raise RootCountMismatch(
            f"host has {len(host.roots)} roots, pattern {len(pattern.roots)}"
        )
    required = [0] * pattern.graph.n
    for hr, pr in zip(host.roots, pattern.roots):
        required[pr] |= 1 << hr
    return _search_model(
        host.graph, pattern.graph, required=required, pattern_cap=pattern_cap
    )


def find_red_minor(host, pattern, pattern_cap=DEFAULT_PATTERN_CAP):
    """Minor model in which every branch set meets the annotated set."""
    red_mask = _mask_of(host.annotated)
    return _search_model(
        host.graph, pattern, red_mask=red_mask, pattern_cap=pattern_cap
    )


def bidim(host, cap):
    """Largest k <= cap such that the k-by-k grid is a red minor of host.

    Returns cap itself when the search still succeeds there; the caller then
    knows only a lower bound. The engine cap is raised to cap*cap so that the
    requested range is actually searchable.
    """
    from .constructions import grid

    red = host.annotated
    if not red:
        return 0
    best = 0
    for k in range(1, cap + 1):
        if find_red_minor(host, grid(k, k), pattern_cap=max(DEFAULT_PATTERN_CAP, k * k)) is None:
            break
        best = k
    return best


def complete_graph(t):
    """K_t on the vertices 0..t-1."""
    return Graph(t, combinations(range(t), 2))


def _contract_clusters(sets, adj, i, j):
    """Merge cluster j into cluster i; they must be adjacent."""
    keep = [x for x in range(len(sets)) if x != j]
    remap = {old: new for new, old in enumerate(keep)}
    nsets = [sets[x] if x != i else sets[i] | sets[j] for x in keep]
    nadj = []
    for x in keep:
        nbrs = adj[x] if x != i else (adj[i] | adj[j]) - {i, j}
        nadj.append({remap[y if y != j else i] for y in nbrs if (y if y != j else i) != x})
    return nsets, nadj


def _find_adjacent_clusters(adj, order):
    """Indices of `order` pairwise adjacent clusters, or None."""
    n = len(adj)

    def grow(chosen, cand):
        if len(chosen) == order:
            return chosen
        if len(chosen) + len(cand) < order:
            return None
        for x in cand:
            got = grow(chosen + [x], [y for y in cand if y > x and y in adj[x]])
            if got is not None:
                return got
        return None

    return grow([], list(range(n)))


def _greedy_clique(sets, adj, order):
    """Absorb a minimum-degree cluster into its best neighbour until
    `order` pairwise adjacent clusters appear, or give up.

    Merging along the most shared neighbours keeps the contraction from
    spending edges, so sparse hosts densify instead of collapsing."""
    while True:
        pick = _find_adjacent_clusters(adj, order)
        if pick is not None:
            return [sets[i] for i in pick]
        with_edges = [i for i in range(len(sets)) if adj[i]]
        if not with_edges:
            return None
        v = min(with_edges, key=lambda i: (len(adj[i]), i))
        u = min(adj[v], key=lambda j: (-len(adj[v] & adj[j]), j))
        sets, adj = _contract_clusters(sets, adj, min(u, v), max(u, v))


def dense_clique_minor(g, t):
    """A K_t minor model of g, or None when g has none. A cheap greedy
    contraction pass runs first; when it stalls, find_minor decides, so the
    answer is exact for t up to DEFAULT_PATTERN_CAP, and above it a stalled
    pass raises SearchCapExceeded. The name outlived an edge-density tier;
    perfbench's tracer wraps `pipeline.dense_clique_minor` by it."""
    if t < 1:
        raise PreconditionViolated("clique order must be at least 1")
    found = _greedy_clique([frozenset([v]) for v in g.vertices()],
                           [set(g.neighbors(v)) for v in g.vertices()], t)
    if found is None:
        return find_minor(g, complete_graph(t))
    return MinorModel(tuple(found))


# ---------------------------------------------------------------------------
# Canonical codes for rooted graphs.


def _refine(g, colors):
    n = g.n
    while True:
        keys = [
            (colors[v], tuple(sorted(colors[w] for w in g.neighbors(v))))
            for v in range(n)
        ]
        ranking = {k: i for i, k in enumerate(sorted(set(keys)))}
        fresh = [ranking[keys[v]] for v in range(n)]
        if fresh == colors:
            return colors
        colors = fresh


def canonical_form(rg, cap=20):
    """Canonical relabeling of a rooted graph.

    Returns (canonical RootedGraph, code bytes). Two rooted graphs get the
    same code exactly when a rooted isomorphism (roots fixed
    pointwise by position) exists between them. Individualization plus color
    refinement, exact, sized for folio members and gadget-scale graphs.
    """
    g = rg.graph
    if g.n > cap:
        raise SearchCapExceeded(f"{g.n} vertices, canonical cap is {cap}")
    position_sig = [
        tuple(i for i, r in enumerate(rg.roots) if r == v) for v in range(g.n)
    ]
    ranking = {k: i for i, k in enumerate(sorted(set(position_sig)))}
    colors0 = [ranking[position_sig[v]] for v in range(g.n)]
    best = None

    def leaf(colors):
        nonlocal best
        roots_img = tuple(colors[r] for r in rg.roots)
        edges_img = tuple(
            sorted(
                (min(colors[u], colors[v]), max(colors[u], colors[v]))
                for u, v in g.edges
            )
        )
        sig = (g.n, roots_img, edges_img)
        if best is None or sig < best:
            best = sig

    def rec(colors):
        colors = _refine(g, colors)
        cell = None
        for c in sorted(set(colors)):
            members = [v for v in range(g.n) if colors[v] == c]
            if len(members) > 1:
                cell = members
                break
        if cell is None:
            leaf(colors)
            return
        for v in cell:
            keyed = [(colors[u], 0 if u == v else 1) for u in range(g.n)]
            rk = {k: i for i, k in enumerate(sorted(set(keyed)))}
            rec([rk[keyed[u]] for u in range(g.n)])

    rec(colors0)
    n, roots_img, edges_img = best
    return RootedGraph(Graph(n, edges_img), roots_img), repr(best).encode("ascii")


def canonical_code(rg, cap=20):
    """Byte string; equal exactly for rooted-isomorphic inputs."""
    return canonical_form(rg, cap)[1]


def isomorphic(g1, g2, cap=20):
    """Plain graph isomorphism at gadget scale, via canonical codes."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if sorted(g1.degree(v) for v in g1.vertices()) != sorted(
        g2.degree(v) for v in g2.vertices()
    ):
        return False
    return canonical_code(RootedGraph(g1, ()), cap) == canonical_code(
        RootedGraph(g2, ()), cap
    )

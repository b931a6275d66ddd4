"""Minor models and their rooted and red variants, plus canonical codes.

One branch-set search engine drives all three minor tests. It grows branch
sets one host vertex at a time in a canonical order (each candidate set is
enumerated exactly once, seeded at its minimum vertex), finalizes pattern
vertices in a fixed placement order, and prunes on reachability, liveness of
future pattern edges, and red-vertex counting. Rooted and red searches are
the same engine with per-branch-set admissibility constraints. The exclusion
prune keeps each branch set off the host vertices that later pattern
vertices require, and counts such a vertex as an attachment of B_j only when
its pattern vertex is a neighbour of j. The placement order and the rest of
the per-pattern set-up are worked out once per pattern and required-vertex
set (_search_plan), and a host's adjacency masks once per graph. When no
pattern vertex is required, seeds are ordered along the pattern's symmetry:
the first placed vertex's orbit, from the automorphisms the canonical search
finds, and each twin class. find_minor alone answers some "no"s before
searching: first when the host's treewidth is below the pattern's, then by
the apex cut. When every H - S with |S| = a is non-planar (a, at most 2,
is the pattern's apex number) and deleting some a host vertices leaves a
planar graph, the host has no H minor: a model of H loses at most a branch
sets to the deleted vertices, and the planar rest would hold a non-planar
H - S. At a = 0 this is the planarity cut, a non-planar pattern in a planar
host. The clique search, dense_clique_minor, contracts the host first
(least-c) and falls back to find_minor on K_t. Every search is bounded by
the work it does, a fresh Budget(MINOR_NODE_BUDGET) per call charged once per
branch-set extension, not by the size of its pattern or host.

Canonical codes come from individualisation and colour refinement over a
search tree pruned by the automorphisms that equal leaves reveal, under a
fixed node budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .errors import (
    CANONICAL_NODE_BUDGET,
    MINOR_NODE_BUDGET,
    Budget,
    PreconditionViolated,
    SearchCapExceeded,
)
from .graphs import (
    Graph,
    RootedGraph,
    induced_subgraph,
    mask_bits as _bits,
    mask_connected as _mask_connected,
    mask_neighborhood as _nbhood,
    mask_of as _mask_of,
    mask_reach as _reach_in,
    min_degree_contractions,
    neighbor_masks,
)
from .plane import planar_embedding


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


@cache
def _search_plan(pattern, required):
    """The part of a search that depends only on the pattern and on which of
    its vertices are required (`required`, a tuple of bools), worked out
    once. Positions index the placement order. Returns
    - order: the pattern vertex at each position;
    - earlier_nbrs: each position's pattern neighbours at earlier positions;
    - need_after: for each position i, the (j, count) pairs of positions
      j <= i with `count` pattern neighbours after i;
    - nbr_pos: each position's neighbour positions;
    - seed_floors: the earlier positions whose seeds a position's seed must
      exceed.

    Required vertices are placed first, so a free first vertex means none
    is required, and only then do seed floors apply. Permuting a twin class
    is an automorphism, and the first placed vertex comes first in its own
    class, so some automorphic image of any model obeys both the orbit
    rule and the twin rule."""
    hp = pattern.n
    order = _placement_order(pattern, required)
    pos = {v: i for i, v in enumerate(order)}
    nbr_pos = tuple(tuple(sorted(pos[w] for w in pattern.neighbors(v))) for v in order)
    earlier_nbrs = tuple(tuple(p for p in nbr_pos[i] if p < i) for i in range(hp))
    need_after = []
    for i in range(hp):
        counts = ((j, sum(p > i for p in nbr_pos[j])) for j in range(i + 1))
        need_after.append(tuple((j, c) for j, c in counts if c))
    seed_floors = [()] * hp
    if not required[order[0]]:
        orbit = _pattern_orbits(pattern)
        pm = neighbor_masks(pattern)
        for i in range(1, hp):
            u = order[i]
            twins = [j for j in range(i) if pm[u] & ~(1 << order[j]) == pm[order[j]] & ~(1 << u)]
            in_orbit = orbit[u] == orbit[order[0]]
            seed_floors[i] = tuple(twins[-1:]) + ((0,) if in_orbit else ())
    return tuple(order), earlier_nbrs, tuple(need_after), nbr_pos, tuple(seed_floors)


def _search_model(host, pattern, required=None, red_mask=None):
    """Core engine. `required[p]` is a host mask that branch set p must contain;
    `red_mask`, when not None, forces every branch set to intersect it.
    Returns a MinorModel or None. Each call charges a fresh
    Budget(MINOR_NODE_BUDGET) once per branch-set extension, so BudgetExceeded
    past it; SearchCapExceeded when the search runs deeper than the
    recursion limit.

    With no required vertex, only models whose seeds follow the pattern's
    symmetry are tried (Grochow & Kellis 2007): the first placed vertex
    takes the smallest seed of its orbit, and twins (the same neighbours
    apart from each other) take rising seeds in placement order.

    Exclusion prune: a branch set never takes a host vertex that a later
    pattern vertex requires, and when finalize counts the distinct
    attachment vertices that B_j offers its later neighbours, it leaves out
    those required by a later non-neighbour of j. Both cut only subtrees
    that hold no model, so the first model found is the one the search
    without them finds. The per-pattern set-up is _search_plan, worked out
    once per pattern and required-vertex set; the host's masks come from
    neighbor_masks, once per graph."""
    hp = pattern.n
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

    order, earlier_nbrs, need_after, nbr_pos, seed_floors = _search_plan(
        pattern, tuple(map(bool, required))
    )
    masks = neighbor_masks(host)
    req_at = [required[v] for v in order]
    # suffix union of still-unplaced required masks, for an O(1) feasibility check
    suffix_req = [0] * (hp + 1)
    for i in range(hp - 1, -1, -1):
        suffix_req[i] = suffix_req[i + 1] | req_at[i]
    # the host vertices that each position's pattern neighbours require
    nbr_req = [0] * hp
    if taken:
        for j in range(hp):
            for p in nbr_pos[j]:
                nbr_req[j] |= req_at[p]
    # a set is enumerated only from its minimum vertex (everything smaller is
    # banned inside that subtree), so seed trial order is free to be a
    # heuristic: highest host degree first, ties by vertex (the sort is stable)
    degree = [m.bit_count() for m in masks]
    by_degree = sorted(range(host.n), key=degree.__getitem__, reverse=True)

    sets_ = [0] * hp
    nb_ = [0] * hp
    charge = Budget(MINOR_NODE_BUDGET, "minor search nodes").charge

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
        floor = 0
        for j in seed_floors[i]:
            floor = max(floor, sets_[j] & -sets_[j])
        for v in by_degree:
            b = 1 << v
            if b <= floor or not b & free:
                continue
            if extend(i, b, free & ~b, b - 1):
                return True
        return False

    def extend(i, cur, rest, banned):
        charge()
        usable = rest & ~banned & ~suffix_req[i + 1]
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
        later = suffix_req[i + 1]
        if later & ~rest:
            return False
        sets_[i] = cur
        nb_[i] = _nbhood(cur, masks)
        # every later pattern neighbor of j needs its own attachment vertex in
        # N(B_j), those vertices are pairwise distinct, and none is required
        # by a later pattern vertex that is not a neighbor of j
        for j, need in need_after[i]:
            if (nb_[j] & rest & ~(later & ~nbr_req[j])).bit_count() < need:
                break
        else:
            if place(i + 1, rest):
                return True
        sets_[i] = 0
        nb_[i] = 0
        return False

    try:
        found = place(0, (1 << host.n) - 1)
    except RecursionError as exc:
        raise SearchCapExceeded("minor search is deeper than the recursion limit") from exc
    if not found:
        return None
    model_sets = [frozenset()] * hp
    for i, v in enumerate(order):
        model_sets[v] = frozenset(_bits(sets_[i]))
    return MinorModel(tuple(model_sets))


def find_minor(host, pattern):
    """A minor model of pattern in host, or None. Exhaustive unless the
    search passes MINOR_NODE_BUDGET nodes, which raises BudgetExceeded.

    Two minor-monotone properties answer None with no search, in this order.
    - Treewidth: the host's min-fill width (an upper bound on its
      treewidth) is below the pattern's minor-min-width (a lower bound).
    - Apex cut: the host is planar once some a of its vertices are deleted,
      where a = _apex_number(pattern) >= 0 (cached per pattern). Lemma: say
      every H - S with |S| = a is non-planar, and G - A is planar for some
      set A of a host vertices. Then H is not a minor of G. A model of H
      loses at most a branch sets to A, so G - A, which is planar, would
      hold a model of H - S for some |S| <= a, and that H - S is
      non-planar. a = 0 is the planarity cut (Wagner 1937): a non-planar
      pattern in a planar host. planar_embedding checks its own "yes" for
      the host; the pattern's "no"s are unchecked.
    find_rooted_minor and find_red_minor have neither cut. reduce makes
    thousands of rooted calls a round on hosts of about ten vertices, where
    the two treewidth bounds alone take about 0.085 ms a call, over three
    times the 0.025 ms the rooted search takes on average (Python 3.11,
    2-CPU VM), and the red search's patterns (bidim's grids) are planar."""
    from .decomposition import _min_fill_order, _minor_min_width

    # the empty pattern, of treewidth -1, is in every host
    if pattern.n and (
        _min_fill_order(neighbor_masks(host))[0] < _minor_min_width(neighbor_masks(pattern))
        or _planar_less_some(host, _apex_number(pattern))
    ):
        return None
    return _search_model(host, pattern)


@cache
def _apex_number(pattern):
    """The largest a <= 2 such that every pattern - S with |S| = a is
    non-planar, or -1 when the pattern is planar. K5 and K3,3 give 0, K6
    gives 1 and K7 2."""
    a = -1
    while a < 2 and not _planar_less_some(pattern, a + 1):
        a += 1
    return a


def _planar_less_some(host, a):
    """Whether deleting some a host vertices leaves a planar graph; False
    when a < 0. Only the sets of exactly a vertices are tested: a graph
    left planar by fewer deletions stays planar under more. planar_embedding
    turns down a graph of more than 3n - 6 edges at once, so dense hosts
    cost little."""
    if a <= 0:
        return a == 0 and planar_embedding(host) is not None
    vertices = set(range(host.n))
    return any(
        planar_embedding(induced_subgraph(host, vertices.difference(gone))[0]) is not None
        for gone in combinations(range(host.n), a)
    )


def find_rooted_minor(host, pattern):
    """Rooted minor: host root i must land in the branch set of pattern root i."""
    if len(host.roots) != len(pattern.roots):
        raise PreconditionViolated(
            f"host has {len(host.roots)} roots, pattern {len(pattern.roots)}"
        )
    required = [0] * pattern.graph.n
    for hr, pr in zip(host.roots, pattern.roots):
        required[pr] |= 1 << hr
    return _search_model(host.graph, pattern.graph, required=required)


def find_red_minor(host, pattern, pattern_cap=None):
    """Minor model in which every branch set meets the annotated set.
    `pattern_cap` is ignored. It stays only because perfbench/ still passes
    it, and goes with the next benchmark change, like disjoint_paths(engine=)."""
    return _search_model(host.graph, pattern, red_mask=_mask_of(host.annotated))


def bidim(host, cap):
    """Largest k <= cap such that the k-by-k grid is a red minor of host.

    Returns cap itself when the search still succeeds there; the caller then
    knows only a lower bound. Each k is one red search under its own
    MINOR_NODE_BUDGET, so a k whose search passes it raises BudgetExceeded.
    """
    from .constructions import grid

    red = host.annotated
    if not red:
        return 0
    best = 0
    for k in range(1, cap + 1):
        if find_red_minor(host, grid(k, k)) is None:
            break
        best = k
    return best


def complete_graph(t):
    """K_t on the vertices 0..t-1."""
    return Graph(t, combinations(range(t), 2))


def dense_clique_minor(g, t):
    """A K_t minor model of g, or None when g has none.

    Contraction comes first: a minimum-degree vertex is contracted, over
    and over, into the neighbour with which it shares the fewest
    neighbours, ties to the lower vertex (the least-c rule of Bodlaender,
    Koster & Wolle 2006), and a vertex with no neighbour is dropped. Once
    the live vertices are pairwise adjacent and at least t, t of their
    branch sets are the model, returned if verify_minor_model accepts it.
    Otherwise find_minor on K_t decides, so the answer is exact, and
    BudgetExceeded when its search passes MINOR_NODE_BUDGET nodes.
    perfbench's tracer wraps `pipeline.dense_clique_minor` by this name."""
    if t < 1:
        raise PreconditionViolated("clique order must be at least 1")
    clique = complete_graph(t)
    model = _contracted_clique(g, t)
    if model is not None and verify_minor_model(g, clique, model):
        return model
    return find_minor(g, clique)


def _contracted_clique(g, t):
    """The least-c contraction of dense_clique_minor: the branch sets of
    the t lowest live vertices once the live vertices are pairwise
    adjacent, or None when fewer than t are left before they are."""
    sets = [1 << v for v in range(g.n)]
    for v, u, nb, live in min_degree_contractions(neighbor_masks(g), _fewest_common):
        size = live.bit_count()
        if size < t:
            return None
        if nb.bit_count() == size - 1:
            # v has the least degree, so every live vertex sees all the others
            kept = list(_bits(live))[:t]
            return MinorModel(tuple(frozenset(_bits(sets[w])) for w in kept))
        if u is not None:
            sets[u] |= sets[v]
    return None


def _fewest_common(adj, nb):
    return min(_bits(nb), key=lambda x: ((adj[x] & nb).bit_count(), x))


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


def _orbits(n, perms):
    """The least vertex of each vertex's orbit under the group that the
    permutations (tuples, vertex -> image) generate."""
    rep = list(range(n))

    def find(x):
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    for perm in perms:
        for u in range(n):
            a, b = find(u), find(perm[u])
            if a != b:
                rep[max(a, b)] = min(a, b)
    return [find(u) for u in range(n)]


def _canonical_search(rg):
    """The least leaf signature of the canonical search tree of a rooted
    graph, and the root-fixing automorphisms (tuples vertex -> image) that
    the search found on the way.

    Individualization plus color refinement, exact, sized for folio members
    and gadget-scale graphs. The tree is pruned by automorphisms (McKay &
    Piperno 2014). A leaf with the signature of the first leaf or of the
    least one so far gives a root-fixing automorphism that maps that earlier
    leaf's path onto its own, so the rest of its subtree below the node
    where the two paths part repeats leaves already seen and is left. At
    each node, a cell vertex in the orbit of an explored sibling, under the
    automorphisms found so far that fix the node's individualised vertices,
    is skipped: its subtree holds the same leaf signatures. The least
    signature is the one the full tree gives. More than
    CANONICAL_NODE_BUDGET tree nodes raise BudgetExceeded, and a tree
    deeper than the recursion limit raises SearchCapExceeded.
    """
    g = rg.graph
    n = g.n
    position_sig = [
        tuple(i for i, r in enumerate(rg.roots) if r == v) for v in range(n)
    ]
    ranking = {k: i for i, k in enumerate(sorted(set(position_sig)))}
    colors0 = [ranking[position_sig[v]] for v in range(n)]
    first = least = None  # (signature, path, colors) of the first and the least leaf
    autos = []  # automorphisms found, as tuples vertex -> image
    budget = Budget(CANONICAL_NODE_BUDGET, "canonical search nodes")

    def leaf(colors, path):
        """None, or the depth to return to when an earlier leaf matches."""
        nonlocal first, least
        roots_img = tuple(colors[r] for r in rg.roots)
        edges_img = tuple(
            sorted(
                (min(colors[u], colors[v]), max(colors[u], colors[v]))
                for u, v in g.edges
            )
        )
        sig = (n, roots_img, edges_img)
        match = next((k for k in (first, least) if k is not None and k[0] == sig), None)
        if match is None:
            if first is None:
                first = (sig, path, colors)
            if least is None or sig < least[0]:
                least = (sig, path, colors)
            return None
        _, other_path, other = match
        vertex_of = [0] * n
        for v in range(n):
            vertex_of[colors[v]] = v
        autos.append(tuple(vertex_of[other[u]] for u in range(n)))
        depth = 0
        while other_path[depth] == path[depth]:
            depth += 1
        return depth

    def rec(colors, path):
        """None, or the depth of the ancestor that the search returns to."""
        budget.charge()
        colors = _refine(g, colors)
        cell = None
        for c in sorted(set(colors)):
            members = [v for v in range(n) if colors[v] == c]
            if len(members) > 1:
                cell = members
                break
        if cell is None:
            return leaf(colors, path)
        explored = []
        orbit = None
        known = 0
        for v in cell:
            if explored and autos:
                if known != len(autos):
                    known = len(autos)
                    fixing = [a for a in autos if all(a[p] == p for p in path)]
                    orbit = _orbits(n, fixing)
                if any(orbit[v] == orbit[w] for w in explored):
                    continue
            keyed = [(colors[u], 0 if u == v else 1) for u in range(n)]
            rk = {k: i for i, k in enumerate(sorted(set(keyed)))}
            back = rec([rk[keyed[u]] for u in range(n)], path + (v,))
            if back is not None and back < len(path):
                return back
            explored.append(v)
        return None

    try:
        rec(colors0, ())
    except RecursionError as exc:
        raise SearchCapExceeded("canonical search is deeper than the recursion limit") from exc
    return least[0], autos


def canonical_form(rg):
    """Canonical relabeling of a rooted graph, by _canonical_search.

    Returns (canonical RootedGraph, code bytes). Two rooted graphs get the
    same code exactly when a rooted isomorphism (roots fixed pointwise by
    position) exists between them.
    """
    best = _canonical_search(rg)[0]
    n, roots_img, edges_img = best
    return RootedGraph(Graph(n, edges_img), roots_img), repr(best).encode("ascii")


@cache
def _pattern_orbits(pattern):
    """Each pattern vertex's least orbit-mate under the automorphisms that
    the canonical search finds."""
    return tuple(_orbits(pattern.n, _canonical_search(RootedGraph.of(pattern, ()))[1]))


def canonical_code(rg):
    """Byte string; equal exactly for rooted-isomorphic inputs."""
    return canonical_form(rg)[1]

"""The reduce-then-solve loop: certified irrelevant-vertex deletion.

Two deletion rules run under one driver. The clique rule finds a large
clique minor, computes a minimum-order separation pushing the terminals
away from one branch set, and deletes a vertex from the far side. The
oracle rule simply re-computes folios with and without a vertex. Every
deletion is recorded in a replayable trace.
"""

import json
from dataclasses import dataclass
from itertools import combinations

from .decomposition import exact_treewidth
from .errors import (
    BudgetExceeded,
    CliqueTooSmall,
    PreconditionViolated,
)
from .folios import (
    DEFAULT_MULTISET_BUDGET,
    DEFAULT_STATE_BUDGET,
    ORACLE_HOST_CAP,
    kd_folio,
    strongly_irrelevant,
)
from .graphs import (
    AnnotatedGraph,
    Graph,
    delete_vertex,
    mask_bits,
    mask_of,
    mask_reach,
    min_vertex_cut,
    neighbor_masks,
    parse_edge_list,
    write_edge_list,
)
from .minors import DEFAULT_PATTERN_CAP, MinorModel, find_minor, verify_minor_model

_RULES = ("clique-rule", "oracle")


# --- dense clique minors -----------------------------------------------------


def _complete(t):
    return Graph(t, combinations(range(t), 2))


def _meets_density(n, m, order):
    """Edge count at least 2^(order-3) times the vertex count, exactly."""
    return 8 * m >= (1 << order) * n


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


def _induced_clusters(sets, adj, keep):
    keep = sorted(keep)
    remap = {old: new for new, old in enumerate(keep)}
    nsets = [sets[x] for x in keep]
    nadj = [{remap[y] for y in adj[x] if y in remap} for x in keep]
    return nsets, nadj


def _edge_count(adj):
    return sum(len(a) for a in adj) // 2


def _guaranteed_clique(sets, adj, order):
    """Branch sets of a complete minor of the given order, assuming the
    density bound holds for this order.

    Repeatedly shrinks to a minor that is minimal subject to keeping the
    density, which forces every edge to have many common neighbours; one
    vertex plus a recursive call on its neighbourhood then does the rest.
    """
    assert _meets_density(len(sets), _edge_count(adj), order)
    if order <= 1:
        return [sets[0]]
    if order == 2:
        i = min(x for x in range(len(sets)) if adj[x])
        return [sets[i], sets[min(adj[i])]]

    while True:
        n, m = len(sets), _edge_count(adj)
        drops = (i for i in range(n) if _meets_density(n - 1, m - len(adj[i]), order))
        drop = next(drops, None)
        if drop is not None:
            sets, adj = _induced_clusters(sets, adj, set(range(n)) - {drop})
            continue
        # contracting ij loses the edge and one edge per common neighbour
        pairs = ((i, j) for i in range(n) for j in sorted(adj[i])
                 if i < j and _meets_density(n - 1, m - 1 - len(adj[i] & adj[j]), order))
        pair = next(pairs, None)
        if pair is None:
            break
        sets, adj = _contract_clusters(sets, adj, *pair)

    # minimality forces every edge to share at least 2^(order-3) common
    # neighbours, so any neighbourhood is dense enough one level down
    v = min(x for x in range(len(sets)) if adj[x])
    nsets, nadj = _induced_clusters(sets, adj, adj[v])
    return [sets[v]] + _guaranteed_clique(nsets, nadj, order - 1)


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
    """A complete minor of order t, or (None, reason).

    When the graph meets the density bound the search cannot fail; below
    the bound a greedy contraction pass still often finds the minor, and
    the reason string reports both shortfalls when it does not.
    """
    if t < 1:
        raise PreconditionViolated("clique order must be at least 1")
    if g.n == 0:
        return None, "the graph has no vertices"
    sets = [frozenset([v]) for v in g.vertices()]
    adj = [set(g.neighbors(v)) for v in g.vertices()]
    if _meets_density(g.n, g.m, t):
        found = _guaranteed_clique(sets, adj, t)
    else:
        found = _greedy_clique(sets, adj, t)
        if found is None:
            need = ((1 << t) * g.n + 7) // 8
            return None, (
                f"edge count {g.m} is under the density bound {need} for "
                f"order {t} and greedy contraction stalled"
            )
    model = MinorModel(tuple(frozenset(s) for s in found))
    assert verify_minor_model(g, _complete(t), model)
    return model, None


# --- the clique deletion rule ------------------------------------------------


def _clique_order(terms, d):
    """The clique-minor order the clique rule needs for these terminals."""
    return (5 * len(terms)) // 2 + 3 * d * d + 1


def clique_irrelevant_vertex(host, d, model):
    """A vertex whose deletion preserves every folio of detail d, found
    by separating the terminals from one branch set of a clique minor.

    The separation has minimum order with the terminal side maximal,
    taken over all branch sets disjoint from the terminals; any vertex
    strictly beyond it is safe to delete. Returns None when no branch
    set avoids the terminals.
    """
    if d < 0:
        raise PreconditionViolated("detail must be non-negative")
    g = host.graph
    terms = set(host.annotated)
    t = len(model.branch_sets)
    bound = _clique_order(terms, d)
    if t < bound:
        raise CliqueTooSmall(
            f"clique order {t} is under the bound {bound} for "
            f"{len(terms)} terminals at detail {d}"
        )
    if not verify_minor_model(g, _complete(t), model):
        raise PreconditionViolated("model is not a valid clique minor model")

    masks = neighbor_masks(g)
    best = None
    for u, bset in enumerate(model.branch_sets):
        if set(bset) & terms:
            continue
        # the cut nearest the branch set leaves the terminal side maximal;
        # the cut never holds a vertex of the branch set
        cut = min_vertex_cut(g, terms, bset)
        outside = (1 << g.n) - 1 & ~mask_of(cut)
        far = mask_reach(mask_of(bset), outside, masks)
        assert not far & mask_of(terms)
        key = (len(cut), far.bit_count(), u)
        if best is None or key < best[0]:
            best = (key, far)
    if best is None:
        return None
    return next(mask_bits(best[1]))


# --- the reduction driver ----------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for reduce: stop width, deletion rules, and search caps."""

    threshold: int = 4
    engine: str = "both"
    max_deletions: int = None
    max_multisets: int = DEFAULT_MULTISET_BUDGET
    max_states: int = DEFAULT_STATE_BUDGET

    def __post_init__(self):
        if self.threshold < 1:
            raise PreconditionViolated("threshold must be at least 1")
        if self.engine not in ("oracle", "clique-rule", "both"):
            raise PreconditionViolated(f"unknown engine {self.engine!r}")


@dataclass(frozen=True)
class ReductionTrace:
    """What reduce did: deletions in input numbering, the survivor, the
    survivor's exact treewidth, and whether the threshold was met, no rule
    fired, or the oracle rule hit its search caps."""

    deletions: tuple  # ((vertex, rule), ...)
    final: AnnotatedGraph
    final_width: int
    status: str  # "met" | "stuck" | "capped"


def _delete(cur, orig_of, v):
    """cur - v, with the input numbering of its survivors."""
    smaller, remap = delete_vertex(cur.graph, v)
    annotated = {remap[r] for r in cur.annotated}
    return AnnotatedGraph.of(smaller, annotated), orig_of[:v] + orig_of[v + 1 :]


def _clique_step(cur, d, width):
    """One clique-rule attempt; returns a vertex of the current graph or
    None. Skipped outright when the treewidth already rules the order out."""
    need = _clique_order(cur.annotated, d)
    if width + 1 < need or need > DEFAULT_PATTERN_CAP:
        return None
    model, _ = dense_clique_minor(cur.graph, need)
    if model is None:
        model = find_minor(cur.graph, _complete(need))
    if model is None:
        return None
    return clique_irrelevant_vertex(cur, d, model)


def _oracle_step(cur, k, d, cfg):
    """Smallest vertex the folio oracle certifies as deletable, or None."""
    for v in cur.graph.vertices():
        if v not in cur.annotated and strongly_irrelevant(
            cur, k, d, v, max_multisets=cfg.max_multisets
        ):
            return v
    return None


def reduce(host, k, d, cfg=PipelineConfig()):
    """Delete certified-irrelevant vertices until the treewidth threshold
    is met or no rule fires; returns (reduced graph, trace).

    One deletion per round. The clique rule is tried first when enabled;
    the oracle rule is the fallback. Every trace entry names the deleted
    vertex in the numbering of the original input. When the oracle rule is
    needed on a host above its vertex cap, the deletions certified so far
    are returned with status "capped"; its root and detail caps still raise.
    """
    cur, orig_of = host, list(host.graph.vertices())
    deletions = []
    while True:
        width, _ = exact_treewidth(cur.graph)
        if width <= cfg.threshold:
            status = "met"
            break
        found = None
        if cfg.engine in ("clique-rule", "both"):
            v = _clique_step(cur, d, width)
            if v is not None:
                found = (v, "clique-rule")
        if found is None and cfg.engine in ("oracle", "both"):
            if cur.graph.n > ORACLE_HOST_CAP:
                status = "capped"
                break
            v = _oracle_step(cur, k, d, cfg)
            if v is not None:
                found = (v, "oracle")
        if found is None:
            status = "stuck"
            break
        if cfg.max_deletions is not None and len(deletions) >= cfg.max_deletions:
            raise BudgetExceeded(
                f"reduction needs more than {cfg.max_deletions} deletions"
            )
        v, rule = found
        deletions.append((orig_of[v], rule))
        cur, orig_of = _delete(cur, orig_of, v)
    trace = ReductionTrace(
        deletions=tuple(deletions),
        final=cur,
        final_width=width,
        status=status,
    )
    return cur, trace


def _replay(host, trace):
    """Walk the trace's deletions over the input: yields each graph with the
    vertex, in its numbering, that the next deletion removes, then the last
    graph with None. Raises PreconditionViolated when a deletion names a
    vertex the graph does not have, or an annotated one."""
    cur, orig_of = host, list(host.graph.vertices())
    for orig_v, _ in trace.deletions:
        v = orig_of.index(orig_v) if orig_v in orig_of else None
        if v is None or v in cur.annotated:
            raise PreconditionViolated(f"trace deletes {orig_v}, not a free vertex of the graph")
        yield cur, v
        cur, orig_of = _delete(cur, orig_of, v)
    yield cur, None


def replay_trace(host, trace):
    """Apply the trace's deletions to the input; must reproduce the final
    graph exactly."""
    *_, (got, _) = _replay(host, trace)
    if got != trace.final:
        raise PreconditionViolated("trace does not replay to its final graph")
    return got


def verify_trace(host, trace, k, d, max_multisets=DEFAULT_MULTISET_BUDGET):
    """Replay the trace, oracle-checking every deletion at its moment.
    True iff each deleted vertex was strongly irrelevant right then."""
    for cur, v in _replay(host, trace):
        if v is None:
            return cur == trace.final
        if not strongly_irrelevant(cur, k, d, v, max_multisets=max_multisets):
            return False


def solve_folio(host, k, d, cfg=PipelineConfig()):
    """Reduce first, then run the decomposition engine on the survivor.
    Equals the direct brute-force folio of the unreduced input."""
    reduced, _ = reduce(host, k, d, cfg)
    return kd_folio(
        reduced,
        k,
        d,
        engine="dp",
        max_multisets=cfg.max_multisets,
        max_states=cfg.max_states,
    )


# --- trace export ------------------------------------------------------------


def trace_to_json(trace):
    doc = {
        "deletions": [[v, rule] for v, rule in trace.deletions],
        "final_annotated": sorted(trace.final.annotated),
        "final_graph": write_edge_list(trace.final.graph),
        "final_width": trace.final_width,
        "status": trace.status,
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def trace_from_json(text):
    """Inverse of trace_to_json. Raises PreconditionViolated on a document
    that is not a trace: a missing or ill-typed field, an unknown status or
    an unknown rule."""
    try:
        doc = json.loads(text)
        status = doc["status"]
        deletions = tuple((int(v), rule) for v, rule in doc["deletions"])
        final = AnnotatedGraph.of(
            parse_edge_list(doc["final_graph"]), doc["final_annotated"]
        )
        final_width = int(doc["final_width"])
    except (KeyError, TypeError, ValueError) as exc:
        raise PreconditionViolated(f"malformed trace: {exc!r}") from exc
    if status not in ("met", "stuck", "capped"):
        raise PreconditionViolated(f"unknown status {status!r}")
    for _, rule in deletions:
        if rule not in _RULES:
            raise PreconditionViolated(f"unknown rule {rule!r}")
    return ReductionTrace(deletions, final, final_width, status)

"""The reduce-then-solve loop: certified irrelevant-vertex deletion.

Two deletion rules run under one driver. The clique rule takes a clique
minor of the order its bound needs from dense_clique_minor, cuts the
terminals off one branch set by a minimum-order separation, and deletes a
vertex beyond the cut. dense_clique_minor contracts the host first and
falls back to the exact search, find_minor, when contraction finds no
model. The oracle rule searches G - v for the maximal members of each
sorted root tuple's folio. A run computes each folio once and keeps it,
keyed by the tuple in input numbering: annotated vertices are never
deleted, and an oracle deletion keeps every folio. A clique-rule deletion
drops the kept folios, so no answer rests on the clique bound's theorem.
Deletions are replayable.
"""

import json
from dataclasses import dataclass

from .decomposition import exact_treewidth
from .errors import BudgetExceeded, PreconditionViolated
from .folios import _check_counts, folio_bruteforce, kd_folio, strongly_irrelevant
from .graphs import (
    AnnotatedGraph,
    RootedGraph,
    delete_vertex,
    mask_bits,
    mask_of,
    mask_reach,
    min_vertex_cut,
    neighbor_masks,
    parse_edge_list,
    write_edge_list,
)
from .minors import complete_graph, dense_clique_minor, verify_minor_model

_RULES = ("clique-rule", "oracle")


# --- the clique deletion rule ------------------------------------------------


def _clique_order(terms, d):
    """The clique-minor order the clique rule needs for these terminals."""
    return (5 * len(terms)) // 2 + 3 * d * d + 1


def clique_irrelevant_vertex(host, d, model):
    """A vertex whose deletion preserves every folio of detail d, found
    by separating the terminals from one branch set of a clique minor.

    The model must be a valid clique minor of order at least
    floor(5|T|/2) + 3d^2 + 1 for terminals T. Of the minimum-order cuts
    nearest each branch set that avoids T, the least order wins, then the
    smaller far side; its lowest vertex beyond the cut is returned, or None
    when every branch set meets T.
    """
    if d < 0:
        raise PreconditionViolated("detail must be non-negative")
    g = host.graph
    terms = set(host.annotated)
    t = len(model.branch_sets)
    bound = _clique_order(terms, d)
    if t < bound:
        raise PreconditionViolated(
            f"clique order {t} is under the bound {bound} for "
            f"{len(terms)} terminals at detail {d}"
        )
    if not verify_minor_model(g, complete_graph(t), model):
        raise PreconditionViolated("model is not a valid clique minor model")

    masks = neighbor_masks(g)

    def separate(u, bset):
        # the cut nearest the branch set leaves the terminal side maximal;
        # the cut never holds a vertex of the branch set
        cut = min_vertex_cut(g, terms, bset)
        far = mask_reach(mask_of(bset), (1 << g.n) - 1 & ~mask_of(cut), masks)
        assert not far & mask_of(terms)
        return len(cut), far.bit_count(), u, far

    best = min((separate(u, bset) for u, bset in enumerate(model.branch_sets)
                if not set(bset) & terms), default=None)
    return None if best is None else next(mask_bits(best[3]))


# --- the reduction driver ----------------------------------------------------


@dataclass(frozen=True)
class ReductionTrace:
    """What reduce did: deletions in input numbering, the survivor, the
    survivor's exact treewidth, and whether the threshold was met, no rule
    fired, or a deletion rule's search ran out of its budget ("capped")."""

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
    None. Skipped when the treewidth rules the clique minor out."""
    need = _clique_order(cur.annotated, d)
    if width + 1 < need:
        return None
    model = dense_clique_minor(cur.graph, need)
    if model is None:
        return None
    return clique_irrelevant_vertex(cur, d, model)


def _kept_folio(folios, cur, orig_of, d):
    """`before` for strongly_irrelevant on cur: the folio codes of a root
    tuple, looked up in `folios` by the tuple in input numbering, and
    computed on cur and kept there on first use."""

    def before(tup):
        key = tuple(orig_of[r] for r in tup)
        if key not in folios:
            folios[key] = folio_bruteforce(RootedGraph.of(cur.graph, tup), d).codes()
        return folios[key]

    return before


def _oracle_step(cur, k, d, before):
    """Smallest vertex the folio oracle certifies as deletable, or None;
    `before` serves the folios (see strongly_irrelevant)."""
    for v in cur.graph.vertices():
        if v not in cur.annotated and strongly_irrelevant(cur, k, d, v, before):
            return v
    return None


def reduce(host, k, d, threshold=4):
    """Delete certified-irrelevant vertices until the exact treewidth is at
    most `threshold` (at least 1) or no rule fires; returns (reduced graph,
    trace).

    One deletion per round: the clique rule first, then the oracle rule.
    Every trace entry names the deleted vertex in the numbering of the
    original input. Each root tuple's folio is computed once per run and
    kept until a clique-rule deletion. The searches run under the library's
    default budgets and caps. When a search of either rule runs out of its
    budget, the deletions certified so far are returned with status
    "capped"; a negative k or d, the oracle's root and detail caps and
    exact_treewidth's budget raise.
    """
    if threshold < 1:
        raise PreconditionViolated("threshold must be at least 1")
    _check_counts(k, d)
    cur, orig_of = host, list(host.graph.vertices())
    deletions = []
    folios = {}  # root tuple in input numbering -> folio codes
    while True:
        width, _ = exact_treewidth(cur.graph)
        if width <= threshold:
            status = "met"
            break
        try:
            v, rule = _clique_step(cur, d, width), "clique-rule"
            if v is None:
                before = _kept_folio(folios, cur, orig_of, d)
                v, rule = _oracle_step(cur, k, d, before), "oracle"
        except BudgetExceeded:
            status = "capped"
            break
        if v is None:
            status = "stuck"
            break
        if rule == "clique-rule":
            folios.clear()
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
    """Walk the trace's deletions over the input: yields each graph, the
    input numbering of its vertices and the vertex, in its numbering, that
    the next deletion removes, then the last graph with None. Raises
    PreconditionViolated when a deletion names a vertex the graph does not
    have, or an annotated one."""
    cur, orig_of = host, list(host.graph.vertices())
    for orig_v, _ in trace.deletions:
        v = orig_of.index(orig_v) if orig_v in orig_of else None
        if v is None or v in cur.annotated:
            raise PreconditionViolated(f"trace deletes {orig_v}, not a free vertex of the graph")
        yield cur, orig_of, v
        cur, orig_of = _delete(cur, orig_of, v)
    yield cur, orig_of, None


def replay_trace(host, trace):
    """Apply the trace's deletions to the input; must reproduce the final
    graph exactly."""
    *_, (got, _, _) = _replay(host, trace)
    if got != trace.final:
        raise PreconditionViolated("trace does not replay to its final graph")
    return got


def verify_trace(host, trace, k, d):
    """Replay the trace, oracle-checking every deletion at its moment.
    True iff each deleted vertex was strongly irrelevant right then.

    Each root tuple's folio is computed once, on the first graph that needs
    it, and kept for the whole trace: every deletion checked so far kept
    every folio, so the kept one is the current one."""
    folios = {}
    for cur, orig_of, v in _replay(host, trace):
        if v is None:
            return cur == trace.final
        if not strongly_irrelevant(cur, k, d, v, _kept_folio(folios, cur, orig_of, d)):
            return False


def solve_folio(host, k, d, threshold=4):
    """Reduce first, then take the (k,d)-folio of the survivor. Equals the
    (k,d)-folio of the unreduced input."""
    reduced, _ = reduce(host, k, d, threshold)
    return kd_folio(reduced, k, d)


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

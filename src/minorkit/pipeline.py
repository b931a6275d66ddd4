"""The reduce-then-solve loop: certified irrelevant-vertex deletion.

Two deletion rules run under one driver. The clique rule takes a clique
minor of the order its bound needs from dense_clique_minor, cuts the
terminals off one branch set by a minimum-order separation, and deletes a
vertex beyond the cut. The oracle rule computes each root tuple's folio and
searches G - v only for its maximal members. Deletions are replayable.
"""

import json
from dataclasses import dataclass

from .decomposition import exact_treewidth
from .errors import BudgetExceeded, CliqueTooSmall, PreconditionViolated
from .folios import kd_folio, strongly_irrelevant
from .graphs import (
    AnnotatedGraph,
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
        raise CliqueTooSmall(
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
class PipelineConfig:
    """Knobs for reduce: the width to stop at and the deletion rules. The
    searches run under the library's default budgets and caps."""

    threshold: int = 4
    engine: str = "both"

    def __post_init__(self):
        if self.threshold < 1:
            raise PreconditionViolated("threshold must be at least 1")
        if self.engine not in ("oracle", "clique-rule", "both"):
            raise PreconditionViolated(f"unknown engine {self.engine!r}")


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


def _oracle_step(cur, k, d):
    """Smallest vertex the folio oracle certifies as deletable, or None."""
    for v in cur.graph.vertices():
        if v not in cur.annotated and strongly_irrelevant(cur, k, d, v):
            return v
    return None


def reduce(host, k, d, cfg=PipelineConfig()):
    """Delete certified-irrelevant vertices until the treewidth threshold
    is met or no rule fires; returns (reduced graph, trace).

    One deletion per round. The clique rule is tried first when enabled;
    the oracle rule is the fallback. Every trace entry names the deleted
    vertex in the numbering of the original input. When a search of either
    rule runs out of its budget, the deletions certified so far are returned
    with status "capped"; the oracle's root and detail caps and
    exact_treewidth's budget still raise.
    """
    cur, orig_of = host, list(host.graph.vertices())
    deletions = []
    while True:
        width, _ = exact_treewidth(cur.graph)
        if width <= cfg.threshold:
            status = "met"
            break
        found = None
        try:
            if cfg.engine in ("clique-rule", "both"):
                v = _clique_step(cur, d, width)
                if v is not None:
                    found = (v, "clique-rule")
            if found is None and cfg.engine in ("oracle", "both"):
                v = _oracle_step(cur, k, d)
                if v is not None:
                    found = (v, "oracle")
        except BudgetExceeded:
            status = "capped"
            break
        if found is None:
            status = "stuck"
            break
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


def verify_trace(host, trace, k, d):
    """Replay the trace, oracle-checking every deletion at its moment.
    True iff each deleted vertex was strongly irrelevant right then."""
    for cur, v in _replay(host, trace):
        if v is None:
            return cur == trace.final
        if not strongly_irrelevant(cur, k, d, v):
            return False


def solve_folio(host, k, d, cfg=PipelineConfig()):
    """Reduce first, then run the decomposition engine on the survivor.
    Equals the direct brute-force folio of the unreduced input."""
    reduced, _ = reduce(host, k, d, cfg)
    return kd_folio(reduced, k, d, engine="dp")


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

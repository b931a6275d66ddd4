"""Patterns, linkages, disjoint paths, linkage counting, vitality.

Enumeration is depth-first over per-pair path extensions with one global
used-vertex mask. Pairs are handled in pattern order and neighbors in index
order, so counts and witnesses are deterministic. The same search answers
disjoint-paths queries (stopping at the first linkage), linkage counting and
vitality; the tests check it against a rooted-minor reference on the
doubled-terminal encoding. Each search node charges the caller's `budget`,
or a fresh Budget(NODE_BUDGET) per call when it is None.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (
    NODE_BUDGET,
    Budget,
    IndexOutOfRange,
    InvalidLinkage,
    PreconditionViolated,
    SearchCapExceeded,
    UsageError,
)
from .graphs import Graph, induced_subgraph, mask_reach, neighbor_masks


@dataclass(frozen=True)
class Pattern:
    """Multiset of unordered terminal pairs, stored canonically sorted."""

    pairs: tuple

    @staticmethod
    def of(pairs):
        canon = tuple(sorted((min(a, b), max(a, b)) for a, b in pairs))
        return Pattern(canon)

    def terminals(self):
        out = set()
        for a, b in self.pairs:
            out.add(a)
            out.add(b)
        return frozenset(out)

    def __len__(self):
        return len(self.pairs)


@dataclass(frozen=True)
class Linkage:
    """Vertex-disjoint simple paths, each a vertex sequence."""

    paths: tuple

    @staticmethod
    def of(paths):
        return Linkage(tuple(tuple(p) for p in paths))


def validate_linkage(g, l):
    """Paths are simple, edges exist, paths are pairwise disjoint."""
    seen = set()
    for p in l.paths:
        if not p:
            return False
        for v in p:
            if not (0 <= v < g.n) or v in seen:
                return False
            seen.add(v)
        for a, b in zip(p, p[1:]):
            if not g.has_edge(a, b):
                return False
    return True


def pattern_of(l):
    """Endpoint pairs of a linkage. Structural checks only (no host here)."""
    seen = set()
    for p in l.paths:
        if not p:
            raise InvalidLinkage("empty path in linkage")
        for v in p:
            if v in seen:
                raise InvalidLinkage(f"vertex {v} used twice")
            seen.add(v)
    return Pattern.of((p[0], p[-1]) for p in l.paths)


def _enumerate_linkages(g, p, spanning_only, limit, budget):
    """Count linkages matching p, saturating at limit, and return the first
    witness found in the deterministic order, charging `budget` per search
    node. SearchCapExceeded when a path grows deeper than the interpreter's
    recursion limit."""
    for a, b in p.pairs:
        if not (0 <= a < g.n and 0 <= b < g.n):
            raise IndexOutOfRange(f"terminal outside graph: {(a, b)}")
    masks = neighbor_masks(g)
    k = len(p.pairs)
    full = (1 << g.n) - 1
    pair_bits = [(1 << s, 1 << t) for s, t in p.pairs]
    future_terms = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        s, t = p.pairs[i]
        future_terms[i] = future_terms[i + 1] | (1 << s) | (1 << t)
    state = {"count": 0, "first": None}
    prefix = []
    if budget is None:
        budget = Budget(NODE_BUDGET, "linkage search nodes")
    charge = budget.charge

    def at_leaf(used):
        if spanning_only and used != full:
            return
        state["count"] += 1
        if state["first"] is None:
            state["first"] = Linkage.of(list(prefix))

    def extend(i, t, cur, used, path):
        if state["count"] >= limit:
            return
        charge()
        free = full & ~used
        fterms = future_terms[i + 1]
        if fterms & used:
            return  # a later pair's terminal is already consumed
        if not (len(path) & 1):
            # Reachability pruning at every second step: dead states survive
            # at most one extra level, and the reach computations dominate
            # the per-node cost.
            reach_cur = mask_reach(1 << cur, free, masks)
            if not (reach_cur & (1 << t)):
                return
            if (fterms & reach_cur) != fterms:
                # Some future terminal fell out of the component around the
                # current head, so check each remaining pair for a connection
                # through the unused vertices.  This is a relaxation (the
                # rest of the current path will consume more of them), so it
                # never prunes a completable state.
                for j in range(i + 1, k):
                    sb, tb = pair_bits[j]
                    if not (mask_reach(sb, free, masks) & tb):
                        return
        blocked = future_terms[i + 1]
        for w in g.neighbors(cur):  # sorted, so the order is deterministic
            wb = 1 << w
            if used & wb:
                continue
            if w == t:
                path.append(w)
                prefix.append(tuple(path))
                pair_start(i + 1, used | wb)
                prefix.pop()
                path.pop()
            elif not (blocked & wb):
                path.append(w)
                extend(i, t, w, used | wb, path)
                path.pop()
            if state["count"] >= limit:
                return

    def pair_start(i, used):
        if state["count"] >= limit:
            return
        if i == k:
            at_leaf(used)
            return
        charge()
        s, t = p.pairs[i]
        if used & (1 << s) or used & (1 << t):
            return
        if s == t:
            prefix.append((s,))
            pair_start(i + 1, used | (1 << s))
            prefix.pop()
            return
        extend(i, t, s, used | (1 << s), [s])

    try:
        pair_start(0, 0)
    except RecursionError as exc:
        raise SearchCapExceeded("linkage search is deeper than the recursion limit") from exc
    return state["count"], state["first"]


def count_linkages(g, p, spanning_only=False, limit=2, budget=None):
    """Number of distinct linkages with pattern p, saturating at limit."""
    if limit <= 0:
        return 0
    count, _ = _enumerate_linkages(g, p, spanning_only, limit, budget)
    return count


def disjoint_paths(g, p, engine="auto", budget=None):
    """A linkage realizing the pattern, or None. Exhaustive under the budget.

    The first linkage of the depth-first enumeration, so the witness is
    deterministic; BudgetExceeded once the search passes `budget`.
    engine accepts only "auto" and "dfs", and both run the same search. It
    stays only because the benchmark in perfbench/ still passes it (as does
    `minorkit dp --engine`); both can go with the next benchmark change.
    """
    if engine not in ("auto", "dfs"):
        raise UsageError(f"unknown engine {engine!r}")
    _, linkage = _enumerate_linkages(g, p, False, 1, budget)
    if linkage is None:
        return None
    assert validate_linkage(g, linkage) and pattern_of(linkage) == Pattern.of(p.pairs)
    return linkage


def is_vital(g, l, budget=None):
    """Spans every vertex and is the unique linkage for its pattern."""
    if not validate_linkage(g, l):
        raise InvalidLinkage("linkage does not validate in host")
    if sum(len(p) for p in l.paths) != g.n:
        return False
    p = pattern_of(l)
    return count_linkages(g, p, spanning_only=False, limit=2, budget=budget) == 1


# --- restriction and deletion ---------------------------------------------------


@dataclass(frozen=True)
class SubgraphSpec:
    """A subgraph given by its vertices and, optionally, a subset of edges
    (None means all induced edges)."""

    vertices: frozenset
    edges: frozenset | None = None

    @staticmethod
    def of(vertices, edges=None):
        vs = frozenset(vertices)
        es = None
        if edges is not None:
            es = frozenset(frozenset(e) for e in edges)
        return SubgraphSpec(vs, es)


def subgraph_of(g, spec):
    """(subgraph, old_to_new map) for a SubgraphSpec."""
    sub, remap = induced_subgraph(g, spec.vertices)
    if spec.edges is None:
        return sub, remap
    back = {new: old for old, new in remap.items()}
    kept = [
        (u, v)
        for u, v in sub.edges
        if frozenset({back[u], back[v]}) in spec.edges
    ]
    return Graph(sub.n, kept, sub.labels), remap


def restrict_linkage(g, spec, l):
    """Components of each path's intersection with the subgraph, expressed in
    the subgraph's own vertex numbering."""
    if not validate_linkage(g, l):
        raise InvalidLinkage("linkage does not validate in host")
    sub, remap = subgraph_of(g, spec)
    pieces = []
    for path in l.paths:
        run = []
        for idx, v in enumerate(path):
            if v not in remap:
                if run:
                    pieces.append(tuple(run))
                run = []
                continue
            if run:
                prev = path[idx - 1]
                if prev not in remap or not sub.has_edge(remap[prev], remap[v]):
                    pieces.append(tuple(run))
                    run = []
            run.append(remap[v])
        if run:
            pieces.append(tuple(run))
    return Linkage.of(pieces)


def vital_after_delete(g, l, v):
    """Delete v, split the path through it, enlarge the terminal set.

    Returns (G - v, terminals, linkage) in the deleted graph's numbering. A
    path consisting solely of v simply disappears and its terminal with it.
    """
    if not (0 <= v < g.n):
        raise IndexOutOfRange(f"vertex {v} outside graph")
    if not is_vital(g, l):
        raise PreconditionViolated("linkage is not vital; deletion rule needs vitality")
    sub, remap = induced_subgraph(g, (u for u in g.vertices() if u != v))
    pieces = []
    for path in l.paths:
        if v not in path:
            pieces.append(tuple(remap[u] for u in path))
            continue
        i = path.index(v)
        left, right = path[:i], path[i + 1 :]
        if left:
            pieces.append(tuple(remap[u] for u in left))
        if right:
            pieces.append(tuple(remap[u] for u in right))
    linkage = Linkage.of(pieces)
    terminals = frozenset(q[0] for q in linkage.paths) | frozenset(
        q[-1] for q in linkage.paths
    )
    return sub, terminals, linkage


# --- text formats ------------------------------------------------------------------


def write_pattern(p):
    return "".join(f"pair {a} {b}\n" for a, b in p.pairs)


def parse_pattern(text):
    pairs = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3 or parts[0] != "pair":
            raise UsageError(f"bad pattern line: {raw!r}")
        pairs.append((int(parts[1]), int(parts[2])))
    return Pattern.of(pairs)


def linkage_to_json(l):
    return json.dumps([list(p) for p in l.paths], sort_keys=True)


def linkage_from_json(text):
    data = json.loads(text)
    return Linkage.of(data)

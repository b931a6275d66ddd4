"""Detail, d-folios, (k,d)-folios, strong irrelevance.

The d-folio of a rooted host is the set of candidate patterns (every rooted
pattern within the detail bound: root-position partitions, up to d extra
vertices, up to d edges, deduped by canonical code) that the host contains
as rooted minors. Folios are closed downward under rooted minors, so both
engines decide them over the pattern lattice, the rooted-minor order among
the candidates, which is found from the patterns alone (deletions and
contractions), with no minor search. Candidates are taken largest first; a member makes every
candidate below it a member, a non-member makes every candidate above it a
non-member, and only candidates still open are decided. The oracle decides
one by rooted-minor search in the host. The dynamic program decides a whole
group at once: the candidates with the same vertex count and root map. One
pass of introduce, forget and join steps over a tree decomposition, tracking
per bag how branch sets touch the boundary and which of the union of the
group's edges are realized, runs the first time the lattice asks about an
open candidate of the group; a candidate is a member exactly when an
accepting state realizes all its edges. The oracle is ground truth; the DP
must agree exactly.

Folio members carry a tag: the equality pattern of the generating root
tuple (first-occurrence normalized), since the same canonical member can
arise from tuples that do or do not repeat vertices, and those are different
facts about the host.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
from dataclasses import dataclass

from .decomposition import exact_treewidth, min_fill_decomposition, validate_td
from .errors import (
    MULTISET_CAP,
    STATE_BUDGET,
    Budget,
    BudgetExceeded,
    InvalidDecomposition,
    PreconditionViolated,
    SearchCapExceeded,
    UsageError,
)
from .graphs import Graph, RootedGraph, delete_vertex
from .minors import canonical_code, canonical_form, find_rooted_minor

ORACLE_DETAIL_CAP = 3
ORACLE_ROOT_CAP = 4

FREE = -1


def detail(rg):
    """max(#non-root vertices, #edges); the roots count as a set."""
    return max(rg.graph.n - len(set(rg.roots)), rg.graph.m)


def label_pattern(roots):
    """Equality pattern of a tuple, normalized by first occurrence."""
    seen = {}
    out = []
    for r in roots:
        if r not in seen:
            seen[r] = len(seen)
        out.append(seen[r])
    return tuple(out)


@dataclass(frozen=True)
class FolioEntry:
    tag: tuple  # label pattern of the generating root tuple
    code: bytes
    form: RootedGraph  # canonical representative


@dataclass(frozen=True)
class Folio:
    k: int
    d: int
    entries: frozenset

    def codes(self):
        return frozenset(e.code for e in self.entries)

    def has(self, rg):
        code = canonical_code(rg)
        return any(e.code == code for e in self.entries)


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


@functools.cache
def candidate_patterns(k, d):
    """All rooted patterns with k root positions and detail at most d, one
    per canonical code. Cached by (k, d)."""
    out = []
    seen = set()
    for partition in _set_partitions(list(range(k))):
        groups = sorted(partition, key=min)
        nroot = len(groups)
        roots = [0] * k
        for gi, group in enumerate(groups):
            for pos in group:
                roots[pos] = gi
        for extra in range(d + 1):
            nv = nroot + extra
            pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
            for esize in range(d + 1):
                for edges in itertools.combinations(pairs, esize):
                    rg = RootedGraph(Graph(nv, edges), tuple(roots))
                    form, code = canonical_form(rg)
                    if code in seen:
                        continue
                    seen.add(code)
                    out.append((form, code))
    return tuple(out)


def _one_step_minors(n, edges, roots):
    """The rooted graphs, as (vertices, edges, roots), one operation below
    the given one: delete an edge, delete a non-root vertex v, or contract
    an edge uv into u, which keeps the root positions of both ends."""
    for e in edges:
        yield n, edges - {e}, roots
    drops = [(v, None) for v in range(n) if v not in roots]
    for v, u in drops + [(v, u) for u, v in edges]:
        # v leaves, later vertices move down one, v's edges go to u or away
        to = [w - (w > v) for w in range(n)]
        to[v] = None if u is None else to[u]
        yield n - 1, frozenset(
            (min(to[a], to[b]), max(to[a], to[b]))
            for a, b in edges
            if None not in (to[a], to[b]) and to[a] != to[b]
        ), tuple(to[r] for r in roots)


@functools.cache
def pattern_lattice(k, d):
    """The rooted-minor order among candidate_patterns(k, d), as two dicts
    (below, above) from each candidate's code to the codes of the candidates
    below and above it, itself included: the transitive closure of
    _one_step_minors, whose steps stay within the candidates. No minor
    search is made. Built on first use and cached by (k, d)."""
    below, above = {}, {}

    @functools.cache  # one step is reached from many candidates
    def code_of(n, edges, roots):
        return canonical_code(RootedGraph(Graph(n, edges), roots))

    # a step lowers vertices plus edges, so its result is already done
    for form, code in sorted(candidate_patterns(k, d), key=_size):
        steps = _one_step_minors(form.graph.n, form.graph.edges, form.roots)
        below[code] = frozenset([code]).union(*(below[code_of(*s)] for s in steps))
        for small in below[code]:
            above.setdefault(small, set()).add(code)
    return below, {code: frozenset(bigs) for code, bigs in above.items()}


@functools.cache
def candidate_groups(k, d):
    """The candidates of candidate_patterns(k, d) grouped by vertex count
    and root map: a dict from (n, roots) to the rooted graph on n vertices
    with those roots and the union of the group's edges, each candidate in
    its canonical labelling. Built on first use and cached by (k, d)."""
    edges = {}
    for form, _ in candidate_patterns(k, d):
        edges.setdefault((form.graph.n, form.roots), set()).update(form.graph.edges)
    return {(n, roots): RootedGraph(Graph(n, es), roots) for (n, roots), es in edges.items()}


def _size(candidate):
    return candidate[0].graph.n + candidate[0].graph.m


def _check_counts(k, d):
    """PreconditionViolated on a negative root count or detail. No pattern
    has either, so every folio would come out empty and every vertex would
    look irrelevant."""
    if k < 0 or d < 0:
        raise PreconditionViolated(f"root count {k} and detail {d} must be non-negative")


def _lattice_folio(host, d, contains):
    """The d-folio of `host`, asking `contains(pattern)` only about the
    candidates the lattice has not settled, largest (vertices plus edges)
    first: a member settles everything below it as a member, a non-member
    everything above it as a non-member."""
    k = len(host.roots)
    _check_counts(k, d)
    cands = candidate_patterns(k, d)
    below, above = pattern_lattice(k, d)
    members, settled = set(), set()
    for form, code in sorted(cands, key=_size, reverse=True):
        if code in settled:
            continue
        if contains(form):
            members |= below[code]
            settled |= below[code]
        else:
            settled |= above[code]
    tag = label_pattern(host.roots)
    entries = (FolioEntry(tag, code, form) for form, code in cands if code in members)
    return Folio(k=k, d=d, entries=frozenset(entries))


def folio_bruteforce(host, d):
    """Exact d-folio of a rooted host by rooted-minor search over the
    pattern lattice, which the detail and root caps bound. BudgetExceeded
    when one rooted-minor search passes MINOR_NODE_BUDGET nodes."""
    k = len(host.roots)
    if d > ORACLE_DETAIL_CAP or k > ORACLE_ROOT_CAP:
        raise SearchCapExceeded(
            f"oracle caps: d <= {ORACLE_DETAIL_CAP}, |roots| <= {ORACLE_ROOT_CAP}"
        )
    return _lattice_folio(host, d, lambda form: find_rooted_minor(host, form) is not None)


# --- dynamic program over a tree decomposition --------------------------------


def _relabel(keys):
    """Fragment ids numbered by first occurrence; FREE stays FREE."""
    ids = {}
    return tuple(FREE if x == FREE else ids.setdefault(x, len(ids)) for x in keys)


def _dp_plan(g, td):
    """The DP's steps for `td`, rooted at node 0, in the order they run on a
    stack of state sets. A node without children gives ("leaf",) and then
    introduces up to its bag. Each child's result is brought to its parent's
    bag by forgets, largest vertex first, then introduces, smallest first;
    every child after the first is followed by ("join",), which merges the
    top two results. The root is forgotten down to the empty bag last.

    A forget is ("forget", i), i the vertex's position in the sorted bag; an
    introduce is ("introduce", v, i, nbrs), i v's position in the new bag
    and nbrs the positions of its neighbours in the old one. The plan
    depends on the host graph only, so it is built once per host."""
    if not validate_td(g, td).valid:
        raise InvalidDecomposition("decomposition does not validate for host")
    plan = []

    def move(bag, to):
        cur = sorted(bag)
        for v in sorted(bag - to, reverse=True):
            i = cur.index(v)
            plan.append(("forget", i))
            del cur[i]
        for v in sorted(to - bag):
            i = bisect.bisect(cur, v)
            nbrs = tuple(j for j, u in enumerate(cur) if g.has_edge(u, v))
            plan.append(("introduce", v, i, nbrs))
            cur.insert(i, v)

    # a frame is a node, its parent, its neighbours still to visit and the
    # number of its children already done
    frames = [[0, None, iter(td.tree.neighbors(0)), 0]]
    while True:
        x, up, todo, done = frames[-1]
        y = next((y for y in todo if y != up), None)
        if y is not None:
            frames.append([y, x, iter(td.tree.neighbors(y)), 0])
            continue
        frames.pop()
        if not done:
            plan.append(("leaf",))
            move(frozenset(), td.bags[x])
        if not frames:
            move(td.bags[x], frozenset())
            return plan
        parent = frames[-1]
        move(td.bags[x], td.bags[parent[0]])
        if parent[3]:
            plan.append(("join",))
        parent[3] += 1


def _maximal(masks):
    """The masks of `masks` that no other one contains, largest first."""
    if len(masks) == 1:
        return list(masks)
    kept = []
    for mask in sorted(masks, key=int.bit_count, reverse=True):
        if all(mask | big != big for big in kept):
            kept.append(mask)
    return kept


def _run_membership_dp(host, pattern, plan, budget):
    """The realized masks with which `pattern` (a rooted graph) embeds as a
    rooted minor of `host`: bit i is set when the i-th edge of
    `pattern.graph.edges` is witnessed by a host edge. Empty when the host
    has no rooted model of the pattern's vertices at all; the pattern itself
    embeds exactly when its full mask is returned.

    A state at a bag is ((labels, fragments), closed) with a set of realized
    masks: per sorted bag vertex the pattern vertex whose branch set it
    joined (or FREE) and the id of its connected fragment of that branch
    set; a bitmask of the finished pattern vertices; and bitmasks of the
    pattern edges already witnessed. Masks only grow along an extension, so
    each step keeps only the maximal masks of each state (an antichain): a
    dominated mask can never accept where its dominator cannot. The steps of
    `plan` run in order on a stack of state sets; a fragment that loses its
    last bag vertex either finishes the branch set or kills the state. An
    introduce or forget moves a state by its (labels, fragments) part alone,
    so each move is worked out once per step and part. Each step charges
    `budget` with the masks it keeps. The returned masks are maximal too.
    """
    pn = pattern.graph.n
    edge_bit = [[0] * pn for _ in range(pn)]
    for i, (a, b) in enumerate(pattern.graph.edges):
        edge_bit[a][b] = edge_bit[b][a] = 1 << i
    forced = {}
    for r, q in zip(host.roots, pattern.roots):
        if forced.setdefault(r, q) != q:
            return []

    def introduce_moves(part, v, vi, nbrs):
        labs, frags = part
        out = []
        for lab in [forced[v]] if v in forced else [FREE, *range(pn)]:
            if lab == FREE:
                new = (labs[:vi] + (FREE,) + labs[vi:], frags[:vi] + (FREE,) + frags[vi:])
                out.append((new, 0, 0, 0))
                continue
            # fragments of lab adjacent to v merge with v into one
            merge, add = set(), 0
            for i in nbrs:
                if labs[i] == lab:
                    merge.add(frags[i])
                elif labs[i] != FREE:
                    add |= edge_bit[labs[i]][lab]
            joined = FREE - 1  # key of v's fragment, unlike every id
            keys = [joined if f in merge else f for f in frags]
            keys.insert(vi, joined)
            new = (labs[:vi] + (lab,) + labs[vi:], _relabel(keys))
            out.append((new, 1 << lab, 0, add))
        return out

    def forget_moves(part, vi):
        labs, frags = part
        lab, f = labs[vi], frags[vi]
        rest = (labs[:vi] + labs[vi + 1 :], frags[:vi] + frags[vi + 1 :])
        if lab == FREE:
            return [(rest, 0, 0, 0)]
        if f in rest[1]:
            return [((rest[0], _relabel(rest[1])), 0, 0, 0)]
        if lab in rest[0]:
            return []  # branch set split off the boundary: dead
        # the closed fragment's id is left as a gap: renumbering here would
        # merge states and move the point where `budget` fires
        return [(rest, 0, 1 << lab, 0)]

    def join_fragments(frags1, frags2):
        # union-find over (side, fragment); shared bag slots tie the sides
        parent = {}

        def find(x):
            while parent.get(x, x) != x:
                x = parent[x]
            return x

        for f1, f2 in zip(frags1, frags2):
            if f1 != FREE:
                a, b = find((0, f1)), find((1, f2))
                if a != b:
                    parent[a] = b
        return _relabel([FREE if f == FREE else find((0, f)) for f in frags1])

    stack = []
    for kind, *args in plan:
        out = {}  # (part, closed) -> realized masks
        if kind == "leaf":
            out[((), ()), 0] = {0}
        elif kind == "join":
            by_labs = {}
            for ((labs, frags2), closed2), masks2 in stack.pop().items():
                by_labs.setdefault(labs, []).append((frags2, closed2, masks2))
            merged = {}
            for ((labs, frags1), closed1), masks1 in stack.pop().items():
                for frags2, closed2, masks2 in by_labs.get(labs, ()):
                    # a branch set finished on both sides would be two
                    # disjoint pieces; equal labels rule out every other
                    # status conflict
                    if closed1 & closed2:
                        continue
                    key = (labs, frags1, frags2)
                    if key not in merged:
                        merged[key] = (labs, join_fragments(frags1, frags2))
                    out.setdefault((merged[key], closed1 | closed2), set()).update(
                        [a | b for a in masks1 for b in masks2])
        else:
            step = introduce_moves if kind == "introduce" else forget_moves
            moves = {}
            for (part, closed), masks in stack.pop().items():
                if part not in moves:
                    moves[part] = step(part, *args)
                for new, blocked, close, add in moves[part]:
                    if not closed & blocked:
                        out.setdefault((new, closed | close), set()).update(
                            [m | add for m in masks] if add else masks)
        out = {state: _maximal(masks) for state, masks in out.items()}
        budget.charge(sum(map(len, out.values())))
        stack.append(out)
    # `out` holds the states of the root, whose bag is empty
    return out.get((((), ()), (1 << pn) - 1), [])


def dp_decomposition(g):
    """The decomposition the folio DP runs on: exact_treewidth's, or the
    min-fill one once that search passes its budget or the recursion limit."""
    try:
        return exact_treewidth(g)[1]
    except (BudgetExceeded, SearchCapExceeded):
        return min_fill_decomposition(g)


def _dp_folio(host, d, plan):
    """The d-folio of `host` over the lattice, with one _run_membership_dp
    pass on the union pattern of each group of candidates (see
    candidate_groups) that the lattice asks about, made on first use. A
    candidate is a member when a mask of that pass covers its edges: its
    edges are among the union's in the same labelling, so its rooted models
    are exactly the union pass's models that realize at least those edges."""
    groups = candidate_groups(len(host.roots), d)
    accepted = {}  # group -> realized masks of its union pass

    def contains(form):
        group = form.graph.n, form.roots
        union = groups[group]
        if group not in accepted:
            budget = Budget(STATE_BUDGET, "folio DP states")
            accepted[group] = _run_membership_dp(host, union, plan, budget)
        need = sum(1 << i for i, e in enumerate(union.graph.edges) if e in form.graph.edges)
        return any(need & mask == need for mask in accepted[group])

    return _lattice_folio(host, d, contains)


def folio_dp(host, d, td):
    """d-folio via dynamic programming over a tree decomposition of the host.

    Agrees with folio_bruteforce exactly. The DP runs once per group of
    candidates (same vertex count and root map) that holds a candidate the
    pattern lattice leaves open, on the union of the group's edges, and
    raises BudgetExceeded rather than truncating when one run keeps more
    than STATE_BUDGET states, each maximal realized mask counted.
    """
    return _dp_folio(host, d, _dp_plan(host.graph, td))


# --- (k,d)-folio and strong irrelevance -----------------------------------------


def _root_tuples(host, k):
    """Every ordered k-multiset of annotated vertices, once their number is
    checked against MULTISET_CAP."""
    reds = sorted(host.annotated)
    Budget(MULTISET_CAP, "root multisets").charge(len(reds) ** k)
    return itertools.product(reds, repeat=k)


def kd_folio(host, k, d, engine="oracle"):
    """Union of d-folios over all ordered k-multisets of annotated vertices,
    by engine "oracle" or "dp" (UsageError otherwise; PreconditionViolated
    on a negative k or d). The DP engine builds one plan per host from
    dp_decomposition and makes one run per root tuple and open candidate
    group. BudgetExceeded past MULTISET_CAP multisets, STATE_BUDGET states
    in one DP run or MINOR_NODE_BUDGET nodes in one oracle search."""
    if engine not in ("oracle", "dp"):
        raise UsageError(f"unknown engine {engine!r}")
    _check_counts(k, d)
    tuples = _root_tuples(host, k)
    if engine == "dp":
        plan = _dp_plan(host.graph, dp_decomposition(host.graph))

    entries = set()
    for tup in tuples:
        rg = RootedGraph.of(host.graph, tup)
        if engine == "oracle":
            entries |= folio_bruteforce(rg, d).entries
        else:
            entries |= _dp_folio(rg, d, plan).entries
    return Folio(k=k, d=d, entries=frozenset(entries))


def strongly_irrelevant(host, k, d, v, before=None):
    """True iff deleting v changes no d-folio, over every ordered root
    multiset drawn from the annotated set (at most MULTISET_CAP ordered
    tuples). Oracle engine throughout.

    Permuting a root tuple permutes the roots of every member of its folio,
    so deleting v keeps the folio of every ordered tuple exactly when it
    keeps the folio of every sorted one; only sorted tuples are tested.
    `before(tup)` gives the codes of the folio of (host, tup); by default
    folio_bruteforce computes them.

    Deleting a vertex can only shrink a folio, and folios are closed
    downward, so only the maximal members of `before(tup)` are searched for
    in G - v; the first one missing answers False. A caller may therefore
    serve the folio of a graph that host came from by deletions: it contains
    the current folio, so a True stays sound, and it equals the current one
    when every deletion kept every folio, so the answer is unchanged."""
    if v in host.annotated:
        raise PreconditionViolated(f"vertex {v} is annotated; cannot test it")
    _check_counts(k, d)
    if before is None:
        def before(tup):
            return folio_bruteforce(RootedGraph.of(host.graph, tup), d).codes()
    tuples = (tup for tup in _root_tuples(host, k) if list(tup) == sorted(tup))
    smaller, remap = delete_vertex(host.graph, v)
    for tup in tuples:
        codes = before(tup)
        after = RootedGraph.of(smaller, tuple(remap[r] for r in tup))
        _, above = pattern_lattice(k, d)  # after `before`, which checks the oracle caps
        maximal = (form for form, code in candidate_patterns(k, d)
                   if code in codes and above[code] & codes == {code})
        if any(find_rooted_minor(after, form) is None for form in maximal):
            return False
    return True


# --- export ----------------------------------------------------------------------


def folio_to_json(folio):
    items = []
    for e in sorted(folio.entries, key=lambda e: (e.code, e.tag)):
        items.append(
            {
                "code": e.code.decode("ascii"),
                "vertices": e.form.graph.n,
                "edges": sorted([u, v] for u, v in e.form.graph.edges),
                "root_map": list(e.form.roots),
                "detail": detail(e.form),
                "tuple_pattern": list(e.tag),
            }
        )
    return json.dumps(
        {"k": folio.k, "d": folio.d, "members": items}, sort_keys=True, indent=2
    )

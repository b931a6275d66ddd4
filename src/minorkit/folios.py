"""Detail, d-folios, (k,d)-folios, strong irrelevance.

Two engines compute the same object. The oracle enumerates every candidate
rooted pattern within the detail bound (root-position partitions, up to d
extra vertices, up to d edges, deduped by canonical code) and keeps those
admitting a rooted minor model in the host. The dynamic program answers the
same membership questions over a nice tree decomposition, tracking per bag
how branch sets touch the boundary. The oracle is ground truth; the DP must
agree exactly.

Folio members carry a tag: the equality pattern of the generating root
tuple (first-occurrence normalized), since the same canonical member can
arise from tuples that do or do not repeat vertices, and those are different
facts about the host.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .decomposition import exact_treewidth, nice_form, nice_node_kind, validate_td
from .errors import (
    BudgetExceeded,
    InvalidDecomposition,
    PreconditionViolated,
    SearchCapExceeded,
)
from .graphs import Graph, RootedGraph, delete_vertex
from .minors import canonical_code, canonical_form, find_rooted_minor

ORACLE_HOST_CAP = 12
ORACLE_DETAIL_CAP = 3
ORACLE_ROOT_CAP = 4
DEFAULT_STATE_BUDGET = 200_000
DEFAULT_MULTISET_BUDGET = 4096

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


_PATTERN_CACHE = {}


def candidate_patterns(k, d):
    """All rooted patterns with k root positions and detail at most d, one
    per canonical code. Cached by (k, d)."""
    key = (k, d)
    if key in _PATTERN_CACHE:
        return _PATTERN_CACHE[key]
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
                    form, sig = canonical_form(rg)
                    code = repr(sig).encode("ascii")
                    if code in seen:
                        continue
                    seen.add(code)
                    out.append((form, code))
    result = tuple(out)
    _PATTERN_CACHE[key] = result
    return result


def folio_bruteforce(host, d):
    """Exact d-folio of a rooted host by exhaustive rooted-minor search."""
    k = len(host.roots)
    if host.graph.n > ORACLE_HOST_CAP or d > ORACLE_DETAIL_CAP or k > ORACLE_ROOT_CAP:
        raise SearchCapExceeded(
            f"oracle caps: |V| <= {ORACLE_HOST_CAP}, d <= {ORACLE_DETAIL_CAP}, "
            f"|roots| <= {ORACLE_ROOT_CAP}"
        )
    tag = label_pattern(host.roots)
    entries = set()
    for form, code in candidate_patterns(k, d):
        if find_rooted_minor(host, form) is not None:
            entries.add(FolioEntry(tag, code, form))
    return Folio(k=k, d=d, entries=frozenset(entries))


# --- dynamic program over a nice tree decomposition ---------------------------


def _run_membership_dp(host, pattern, nice, order, kinds, children, budget):
    """Does `pattern` (a rooted graph) embed as a rooted minor of `host`?

    A state at a bag records, per bag vertex, which pattern vertex's branch
    set it joined (or FREE), how same-labeled bag vertices split into
    connected fragments, which pattern vertices are finished, and which
    pattern edges are already witnessed by a host edge. Bottom-up over the
    nice tree; a fragment that loses its last bag vertex either finishes the
    branch set or kills the state.
    """
    g = host.graph
    pn = pattern.graph.n
    p_edges = frozenset(frozenset(e) for e in pattern.graph.edges)
    all_closed = frozenset(range(pn))
    forced = {}
    for pos, r in enumerate(host.roots):
        q = pattern.roots[pos]
        if r in forced and forced[r] != q:
            return False
        forced[r] = q

    state_count = 0
    states_at = {}

    def charge(k_new):
        nonlocal state_count
        state_count += k_new
        if state_count > budget:
            raise BudgetExceeded(f"folio DP exceeded {budget} states")

    # slots = tuple over the sorted bag of (label, fragment_class); fragment
    # classes are first-occurrence normalized so equal partitions hash equal
    def _normalize(bag, assign, frag):
        slots = []
        remap = {}
        for u in bag:
            lab = assign[u]
            if lab == FREE:
                slots.append((FREE, FREE))
                continue
            key = (lab, frag[u])
            if key not in remap:
                remap[key] = len(remap)
            slots.append((lab, remap[key]))
        return tuple(slots)

    def introduce_states(node, v, child_states, bag):
        vi = bag.index(v)
        out = set()
        for slots, closed, realized in child_states:
            # child slots align with bag minus v
            labels = list(slots)
            if v in forced:
                options = [forced[v]] if forced[v] not in closed else []
            else:
                options = [FREE] + [p for p in range(pn) if p not in closed]
            for lab in options:
                if lab == FREE:
                    new_slots = labels[:vi] + [(FREE, FREE)] + labels[vi:]
                    out.add((tuple(new_slots), closed, realized))
                    continue
                # fragments of lab adjacent to v merge with v into one
                child_bag = bag[:vi] + bag[vi + 1 :]
                adj_frags = set()
                new_real = set(realized)
                for u, (ulab, uf) in zip(child_bag, slots):
                    if ulab == FREE or not g.has_edge(u, v):
                        continue
                    if ulab == lab:
                        adj_frags.add(uf)
                    elif frozenset({ulab, lab}) in p_edges:
                        new_real.add(frozenset({ulab, lab}))
                # rebuild fragment classes
                assign = {}
                frag = {}
                for u, (ulab, uf) in zip(child_bag, slots):
                    assign[u] = ulab
                    frag[u] = uf
                assign[v] = lab
                merged_id = ("new", v)
                frag[v] = merged_id
                for u in child_bag:
                    if assign[u] == lab and frag[u] in adj_frags:
                        frag[u] = merged_id
                out.add(
                    (
                        _normalize(bag, assign, frag),
                        closed,
                        frozenset(new_real),
                    )
                )
        return out

    def forget_states(node, v, child_states, bag, child_bag):
        vi = child_bag.index(v)
        out = set()
        for slots, closed, realized in child_states:
            lab, f = slots[vi]
            rest = slots[:vi] + slots[vi + 1 :]
            if lab == FREE:
                out.add((rest, closed, realized))
                continue
            still = any(
                ulab == lab and uf == f
                for (ulab, uf) in rest
            )
            if still:
                # renormalize fragment ids
                assign = {}
                frag = {}
                for u, (ulab, uf) in zip(bag, rest):
                    assign[u] = ulab
                    frag[u] = uf
                out.add((_normalize(bag, assign, frag), closed, realized))
                continue
            other_frags = any(ulab == lab for (ulab, uf) in rest)
            if other_frags:
                continue  # branch set split off the boundary: dead
            out.add((rest, closed | {lab}, realized))
        return out

    def join_states(left, right):
        by_sigma = {}
        for slots, closed, realized in right:
            sigma = tuple(lab for lab, _ in slots)
            by_sigma.setdefault(sigma, []).append((slots, closed, realized))
        out = set()
        for slots1, closed1, realized1 in left:
            sigma = tuple(lab for lab, _ in slots1)
            for slots2, closed2, realized2 in by_sigma.get(sigma, ()):
                # a branch set finished on both sides would be two disjoint
                # pieces; equal sigmas rule out every other status conflict
                if closed1 & closed2:
                    continue
                # merge fragment partitions via shared slots
                parent = {}

                def find(x):
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                def union(a, b):
                    ra, rb = find(a), find(b)
                    if ra != rb:
                        parent[ra] = rb

                for i, (lab, _) in enumerate(slots1):
                    if lab != FREE:
                        parent[i] = i
                for i, (lab, f) in enumerate(slots1):
                    if lab == FREE:
                        continue
                    for j in range(i + 1, len(slots1)):
                        if slots1[j][0] == lab and slots1[j][1] == f:
                            union(i, j)
                for i, (lab, f) in enumerate(slots2):
                    if lab == FREE:
                        continue
                    for j in range(i + 1, len(slots2)):
                        if slots2[j][0] == lab and slots2[j][1] == f:
                            union(i, j)
                remap = {}
                merged = []
                for i, (lab, _) in enumerate(slots1):
                    if lab == FREE:
                        merged.append((FREE, FREE))
                        continue
                    root = find(i)
                    if (lab, root) not in remap:
                        remap[(lab, root)] = len(remap)
                    merged.append((lab, remap[(lab, root)]))
                out.add(
                    (
                        tuple(merged),
                        closed1 | closed2,
                        realized1 | realized2,
                    )
                )
        return out

    for node in order:
        kind, v = kinds[node]
        bag = sorted(nice.bags[node])
        kids = children[node]
        if kind == "leaf":
            out = {(tuple(), frozenset(), frozenset())}
        elif kind == "introduce":
            out = introduce_states(node, v, states_at[kids[0]], bag)
        elif kind == "forget":
            child_bag = sorted(nice.bags[kids[0]])
            out = forget_states(node, v, states_at[kids[0]], bag, child_bag)
        else:  # join
            out = join_states(states_at[kids[0]], states_at[kids[1]])
        charge(len(out))
        states_at[node] = out
        for c in kids:
            del states_at[c]
    root_states = states_at[order[-1]]
    target = frozenset(p_edges)
    return any(
        closed == all_closed and realized == target
        for _, closed, realized in root_states
    )


def folio_dp(host, d, td, max_states=DEFAULT_STATE_BUDGET):
    """d-folio via dynamic programming over a tree decomposition of the host.

    Agrees with folio_bruteforce exactly; raises rather than truncating when
    the per-pattern state budget is hit.
    """
    if not validate_td(host.graph, td).valid:
        raise InvalidDecomposition("decomposition does not validate for host")
    nice = nice_form(td)
    parent = {0: None}
    order_down = [0]
    qi = 0
    while qi < len(order_down):
        x = order_down[qi]
        qi += 1
        for y in nice.tree.neighbors(x):
            if y not in parent:
                parent[y] = x
                order_down.append(y)
    children = {n: [] for n in range(nice.tree.n)}
    for n, p in parent.items():
        if p is not None:
            children[p].append(n)
    kinds = {n: nice_node_kind(nice, n, parent) for n in range(nice.tree.n)}
    order = list(reversed(order_down))  # children before parents, root last
    k = len(host.roots)
    tag = label_pattern(host.roots)
    entries = set()
    for form, code in candidate_patterns(k, d):
        if _run_membership_dp(host, form, nice, order, kinds, children, max_states):
            entries.add(FolioEntry(tag, code, form))
    return Folio(k=k, d=d, entries=frozenset(entries))


# --- (k,d)-folio and strong irrelevance -----------------------------------------


def kd_folio(
    host,
    k,
    d,
    engine="oracle",
    max_multisets=DEFAULT_MULTISET_BUDGET,
    max_states=DEFAULT_STATE_BUDGET,
):
    """Union of d-folios over all ordered k-multisets of annotated vertices."""
    reds = sorted(host.annotated)
    total = len(reds) ** k if k else 1
    if total > max_multisets:
        raise BudgetExceeded(f"{total} root multisets exceeds {max_multisets}")
    td = None
    if engine == "dp":
        _, td = exact_treewidth(host.graph)

    entries = set()
    for tup in itertools.product(reds, repeat=k):
        rg = RootedGraph.of(host.graph, tup)
        if engine == "oracle":
            entries |= folio_bruteforce(rg, d).entries
        else:
            entries |= folio_dp(rg, d, td, max_states=max_states).entries
    return Folio(k=k, d=d, entries=frozenset(entries))


def strongly_irrelevant(host, k, d, v, max_multisets=DEFAULT_MULTISET_BUDGET):
    """True iff deleting v changes no d-folio, over every ordered root
    multiset drawn from the annotated set. Oracle engine throughout."""
    if v in host.annotated:
        raise PreconditionViolated(f"vertex {v} is annotated; cannot test it")
    reds = sorted(host.annotated)
    total = len(reds) ** k if k else 1
    if total > max_multisets:
        raise BudgetExceeded(f"{total} root multisets exceeds {max_multisets}")
    smaller, remap = delete_vertex(host.graph, v)
    for tup in itertools.product(reds, repeat=k):
        before = folio_bruteforce(RootedGraph.of(host.graph, tup), d)
        after = folio_bruteforce(
            RootedGraph.of(smaller, tuple(remap[r] for r in tup)), d
        )
        if before.codes() != after.codes():
            return False
    return True


def downward_closed(folio):
    """Every rooted minor (within the detail bound) of a member is a member."""
    codes = folio.codes()
    for entry in folio.entries:
        for form, code in candidate_patterns(folio.k, folio.d):
            if find_rooted_minor(entry.form, form) is not None and code not in codes:
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

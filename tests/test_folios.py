"""Folio tests: the oracle against hand-derived sets, the DP against the
oracle, both against a reference that decides every candidate on its own
(no pattern lattice), the lattice itself, tagging, irrelevance, budgets,
and the JSON export."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorkit import decomposition, folios
from minorkit.decomposition import (
    TreeDecomposition,
    exact_treewidth,
    min_fill_decomposition,
)
from minorkit.errors import (
    STATE_BUDGET,
    Budget,
    BudgetExceeded,
    PreconditionViolated,
    SearchCapExceeded,
)
from minorkit.folios import (
    Folio,
    FolioEntry,
    _dp_plan,
    _root_tuples,
    _run_membership_dp,
    candidate_patterns,
    detail,
    dp_decomposition,
    folio_bruteforce,
    folio_doc,
    folio_dp,
    kd_folio,
    label_pattern,
    pattern_lattice,
    strongly_irrelevant,
)
from minorkit.graphs import AnnotatedGraph, Graph, RootedGraph, delete_vertex
from minorkit.linkages import Pattern, disjoint_paths
from minorkit.minors import canonical_code, find_rooted_minor
from test_minors import wagner_graph


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def downward_closed(folio):
    """Every candidate below a member in the pattern lattice is a member.
    Raises PreconditionViolated on a member that is not a candidate of the
    folio's (k, d)."""
    below, _ = pattern_lattice(folio.k, folio.d)
    codes = folio.codes()
    for code in codes:
        if code not in below:
            raise PreconditionViolated(f"member {code!r} is not a candidate pattern")
        if not below[code] <= codes:
            return False
    return True


def grid_graph(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def gamma2_like():
    g = grid_graph(3, 3)
    return Graph(9, list(g.edges) + [(2, 8)])


def random_graph(n, p, rng):
    return Graph(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


def reference_codes(host, d):
    """Codes of the d-folio with every candidate decided on its own by
    rooted-minor search: no lattice, nothing settled by another answer."""
    return frozenset(
        code
        for form, code in candidate_patterns(len(host.roots), d)
        if find_rooted_minor(host, form) is not None
    )


def reference_irrelevant(host, k, d, v):
    smaller, remap = delete_vertex(host.graph, v)
    for tup in itertools.product(sorted(host.annotated), repeat=k):
        before = RootedGraph.of(host.graph, tup)
        after = RootedGraph.of(smaller, tuple(remap[r] for r in tup))
        if reference_codes(before, d) != reference_codes(after, d):
            return False
    return True


@st.composite
def small_rooted_hosts(draw, max_n=8, max_k=2):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    k = draw(st.integers(0, max_k))
    roots = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    g = Graph(n, [e for e, keep in zip(pairs, chosen) if keep])
    return RootedGraph(g, tuple(roots))


SINGLE_ROOTED = RootedGraph(Graph(1, []), (0,))
TWO_ROOTS_APART = RootedGraph(Graph(2, []), (0, 1))
TWO_ROOTS_MERGED = RootedGraph(Graph(1, []), (0, 0))
TWO_ROOTS_EDGE = RootedGraph(Graph(2, [(0, 1)]), (0, 1))


# --- detail ------------------------------------------------------------------


def test_detail_of_single_rooted_vertex():
    assert detail(SINGLE_ROOTED) == 0


def test_detail_of_disjoint_paths_encoding():
    enc = RootedGraph(Graph(2, []), (0, 0, 1, 1))
    assert detail(enc) == 0


def test_detail_of_rooted_triangle():
    tri = RootedGraph(Graph(3, [(0, 1), (1, 2), (0, 2)]), (0,))
    assert detail(tri) == 3


def test_detail_counts_roots_as_a_set():
    assert detail(TWO_ROOTS_MERGED) == 0
    assert detail(RootedGraph(Graph(2, []), (0, 0))) == 1


def test_label_pattern_normalizes_first_occurrence():
    assert label_pattern((5, 5, 2)) == (0, 0, 1)
    assert label_pattern(()) == ()
    assert label_pattern((3, 1, 3, 1)) == (0, 1, 0, 1)


# --- pattern enumeration -----------------------------------------------------


def test_candidate_pattern_counts_small():
    # two root positions, no slack: apart or merged
    assert len(candidate_patterns(2, 0)) == 2
    # one root position, slack one: alone, plus a second vertex, joined or not
    assert len(candidate_patterns(1, 1)) == 3


def test_candidate_patterns_respect_detail():
    for form, _ in candidate_patterns(3, 2):
        assert detail(form) <= 2
        assert len(form.roots) == 3


# --- the pattern lattice -------------------------------------------------------


SMALL_KD = [(k, d) for k in range(3) for d in range(3)]


def test_lattice_is_reflexive_and_transitive():
    for k, d in SMALL_KD:
        below, above = pattern_lattice(k, d)
        codes = [code for _, code in candidate_patterns(k, d)]
        assert set(below) == set(above) == set(codes)
        for c in codes:
            assert c in below[c] and c in above[c]
            for b in below[c]:
                assert below[b] <= below[c]
                assert c in above[b]


def test_lattice_goes_from_smaller_to_larger_patterns():
    for k, d in SMALL_KD:
        below, _ = pattern_lattice(k, d)
        form_of = {code: form for form, code in candidate_patterns(k, d)}
        for big, smalls in below.items():
            for small in smalls:
                assert form_of[small].graph.n <= form_of[big].graph.n
                assert form_of[small].graph.m <= form_of[big].graph.m


def test_lattice_matches_rooted_minor_search():
    # the lattice comes from deletions and contractions of the patterns;
    # rooted-minor search is an independent witness of the same order
    for k, d in [(k, d) for k in range(4) for d in range(3)] + [(2, 3)]:
        below, _ = pattern_lattice(k, d)
        cands = candidate_patterns(k, d)
        for big, big_code in cands:
            found = {c for small, c in cands if find_rooted_minor(big, small) is not None}
            assert below[big_code] == found, (k, d)


def test_lattice_orders_a_known_chain():
    # apart roots < roots joined by an edge; merged roots are below the
    # edge (contract it) but not below the apart pair
    below, _ = pattern_lattice(2, 1)
    apart, merged, edge = (canonical_code(p) for p in (
        TWO_ROOTS_APART, TWO_ROOTS_MERGED, TWO_ROOTS_EDGE))
    assert {apart, merged} <= below[edge]
    assert merged not in below[apart] and apart not in below[merged]


# --- oracle folios -----------------------------------------------------------


def test_folio_of_single_vertex():
    f = folio_bruteforce(SINGLE_ROOTED, 0)
    assert len(f.entries) == 1
    assert f.has(SINGLE_ROOTED)


def test_folio_of_edge_sees_connectivity():
    host = RootedGraph(Graph(2, [(0, 1)]), (0, 1))
    f = folio_bruteforce(host, 0)
    # no slack means no pattern edges, yet adjacency still shows: the two
    # roots can share one branch set
    assert f.has(TWO_ROOTS_APART)
    assert f.has(TWO_ROOTS_MERGED)
    assert len(f.entries) == 2


def test_folio_of_two_isolated_roots():
    host = RootedGraph(Graph(2, []), (0, 1))
    f = folio_bruteforce(host, 0)
    assert f.has(TWO_ROOTS_APART)
    assert not f.has(TWO_ROOTS_MERGED)
    assert len(f.entries) == 1


def test_folio_of_cycle_contracts_a_path():
    host = RootedGraph(cycle_graph(4), (0, 2))
    f = folio_bruteforce(host, 1)
    assert f.has(TWO_ROOTS_EDGE)


def test_folio_of_long_path_matches_edge_at_detail_zero():
    # with no slack a folio sees linkage structure only, so a six-vertex
    # path rooted at its ends and a single edge are indistinguishable
    path = folio_bruteforce(RootedGraph(path_graph(6), (0, 5)), 0)
    edge = folio_bruteforce(RootedGraph(Graph(2, [(0, 1)]), (0, 1)), 0)
    assert path.has(TWO_ROOTS_MERGED)
    assert path.codes() == edge.codes()


def test_folio_oracle_caps():
    # the detail and root caps bound the pattern lattice; the host's size
    # bounds nothing, its searches are bounded by their budgets
    assert len(folio_bruteforce(RootedGraph(path_graph(13), (0,)), 0).entries) == 1
    with pytest.raises(SearchCapExceeded):
        folio_bruteforce(SINGLE_ROOTED, 4)
    with pytest.raises(SearchCapExceeded):
        folio_bruteforce(RootedGraph(path_graph(5), (0, 1, 2, 3, 4)), 0)


# --- the decomposition DP ----------------------------------------------------


def single_bag_td(g):
    return TreeDecomposition(Graph(1, []), (frozenset(range(g.n)),))


def test_dp_equals_oracle_on_single_bag():
    for host in [
        RootedGraph(path_graph(4), (0, 3)),
        RootedGraph(cycle_graph(5), (0, 2)),
        RootedGraph(Graph(3, [(0, 1)]), (2,)),
    ]:
        td = single_bag_td(host.graph)
        assert folio_dp(host, 1, td).codes() == folio_bruteforce(host, 1).codes()


def test_dp_equals_oracle_on_grid():
    host = RootedGraph(grid_graph(2, 4), (0, 7))
    width, td = exact_treewidth(host.graph)
    assert width == 2
    assert folio_dp(host, 1, td).codes() == folio_bruteforce(host, 1).codes()


def test_dp_shows_path_ends_linked():
    host = RootedGraph(path_graph(6), (0, 5))
    _, td = exact_treewidth(host.graph)
    f = folio_dp(host, 0, td)
    assert f.has(TWO_ROOTS_MERGED)


def test_dp_equals_oracle_randomized():
    rng = random.Random(77)
    for trial in range(60):
        n = rng.randint(1, 7)
        g = random_graph(n, rng.uniform(0.2, 0.7), rng)
        k = rng.randint(0, 2)
        roots = tuple(rng.randrange(n) for _ in range(k))
        d = rng.randint(0, 2)
        host = RootedGraph(g, roots)
        _, td = exact_treewidth(g)
        want = folio_bruteforce(host, d)
        got = folio_dp(host, d, td)
        assert got.codes() == want.codes(), (trial, n, roots, d)
        assert got.entries == want.entries


def test_dp_rejects_invalid_decomposition():
    host = RootedGraph(path_graph(3), (0,))
    bad = TreeDecomposition(Graph(1, []), (frozenset({0, 1}),))  # vertex 2 missing
    with pytest.raises(PreconditionViolated):
        folio_dp(host, 0, bad)


def replay_plan(g, plan):
    """Run the plan on bags instead of states, checking each step, and
    return (the final stack, forgets per vertex, edges seen, widest bag)."""
    stack, forgets, seen, widest = [], {}, set(), 0
    for kind, *args in plan:
        if kind == "leaf":
            stack.append([])
        elif kind == "join":
            right, left = stack.pop(), stack.pop()
            assert left == right
            stack.append(left)
        elif kind == "forget":
            (i,) = args
            bag = stack.pop()
            forgets[bag[i]] = forgets.get(bag[i], 0) + 1
            stack.append(bag[:i] + bag[i + 1 :])
        else:
            v, i, nbrs = args
            bag = stack.pop()
            assert v not in bag and bag[:i] + [v] + bag[i:] == sorted(bag + [v])
            assert nbrs == tuple(j for j, u in enumerate(bag) if g.has_edge(u, v))
            seen |= {(min(bag[j], v), max(bag[j], v)) for j in nbrs}
            stack.append(bag[:i] + [v] + bag[i:])
        widest = max(widest, len(stack[-1]))
    return stack, forgets, seen, widest


def test_dp_plan_is_a_nice_program():
    triangle = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert _dp_plan(triangle, single_bag_td(triangle)) == [
        ("leaf",),
        ("introduce", 0, 0, ()),
        ("introduce", 1, 1, (0,)),
        ("introduce", 2, 2, (0, 1)),
        ("forget", 2),
        ("forget", 1),
        ("forget", 0),
    ]
    rng = random.Random(23)
    for _ in range(60):
        g = random_graph(rng.randint(1, 11), rng.uniform(0.2, 0.8), rng)
        for td in (exact_treewidth(g)[1], min_fill_decomposition(g)):
            stack, forgets, seen, widest = replay_plan(g, _dp_plan(g, td))
            assert stack == [[]]
            assert forgets == {v: 1 for v in range(g.n)}
            assert seen == set(g.edges)
            assert widest == td.width() + 1
    # a path decomposition gives one leaf, no join and two steps a bag
    g = grid_graph(2, 1500)
    plan = _dp_plan(g, ladder_path_decomposition(1500))
    assert len(plan) == 6001 and plan[0] == ("leaf",)
    assert all(kind != "join" for kind, *_ in plan)


def test_dp_plan_rejects_a_broken_tree():
    g = Graph(3, [])
    bags = (frozenset({0}), frozenset({1}), frozenset({2}))
    for tree in (Graph(3, [(0, 1)]), Graph(3, [(0, 1), (1, 2), (0, 2)])):
        with pytest.raises(PreconditionViolated):
            _dp_plan(g, TreeDecomposition(tree, bags))


def assert_spent(err, what, limit):
    budget = err.value.budget
    assert budget.what == what
    assert budget.used > budget.limit == limit
    assert what in str(err.value) and str(limit) in str(err.value)


def test_dp_state_budget_raises(monkeypatch):
    monkeypatch.setattr(folios, "STATE_BUDGET", 3)
    host = RootedGraph(grid_graph(2, 3), (0, 5))
    _, td = exact_treewidth(host.graph)
    with pytest.raises(BudgetExceeded) as err:
        folio_dp(host, 2, td)
    assert_spent(err, "folio DP states", 3)


def test_dp_pass_explores_a_pinned_state_count():
    # the budget must fire at the same total on every run. Each step keeps
    # only the maximal realized masks of a state, so a state whose mask
    # another one with the same labels, fragments and closed set covers is
    # dropped, and a state that closes a root's branch set before that root
    # is introduced is dropped: 735 masks for the single-edge pattern,
    # against 961 with dead closures kept and 1193 with every realized mask
    # kept too. Renumbering fragments where a branch set closes would merge
    # states and change the count again. The union of the 3-vertex group,
    # all three edges, keeps 740.
    host = RootedGraph(grid_graph(2, 5), (0, 9))
    plan = _dp_plan(host.graph, exact_treewidth(host.graph)[1])
    single = RootedGraph(Graph(3, [(1, 2)]), (1, 2))
    union = folios.candidate_groups(2, 1)[3, (1, 2)]
    assert union.graph.edges == {(0, 1), (0, 2), (1, 2)}
    for pattern, used in ((single, 735), (union, 740)):
        budget = Budget(used, "folio DP states")
        full = (1 << pattern.graph.m) - 1
        assert _run_membership_dp(host, pattern, plan, budget) == [full]
        assert budget.used == used
        with pytest.raises(BudgetExceeded) as err:
            _run_membership_dp(host, pattern, plan, Budget(used - 1, "folio DP states"))
        assert_spent(err, "folio DP states", used - 1)


def ladder_path_decomposition(cols):
    """Width-2 path decomposition of grid_graph(2, cols), column by column."""
    bags = []
    for c in range(cols - 1):
        top, bottom = c, cols + c
        bags += [frozenset({top, bottom, top + 1}), frozenset({bottom, top + 1, bottom + 1})]
    return TreeDecomposition(
        Graph(len(bags), [(i, i + 1) for i in range(len(bags) - 1)]), tuple(bags)
    )


def test_dp_runs_past_the_exact_treewidth_cap(monkeypatch):
    # 22 vertices, but the bounds meet, so the min-fill order is exact and
    # no search runs
    g = grid_graph(2, 11)
    host = RootedGraph(g, (0, 21))
    min_fill = min_fill_decomposition(g)
    assert dp_decomposition(g) == min_fill == exact_treewidth(g)[1]
    got = folio_dp(host, 1, min_fill)
    assert got == folio_dp(host, 1, ladder_path_decomposition(11))
    # the 2x3 ladder rooted at its corners is a rooted minor of this one
    assert folio_bruteforce(RootedGraph(grid_graph(2, 3), (0, 5)), 1).codes() <= got.codes()
    kd = kd_folio(AnnotatedGraph.of(g, {0, 21}), 2, 1)
    assert got.entries <= kd.entries
    # the Wagner graph's bounds straddle (3 and 4); once the elimination
    # search runs out of its budget the DP runs on the min-fill decomposition
    wagner = wagner_graph()
    monkeypatch.setattr(decomposition, "NODE_BUDGET", 2)
    with pytest.raises(BudgetExceeded):
        exact_treewidth(wagner)
    assert dp_decomposition(wagner) == min_fill_decomposition(wagner)
    rooted = RootedGraph(wagner, (0, 4))
    assert folio_dp(rooted, 1, dp_decomposition(wagner)) == folio_bruteforce(rooted, 1)


@settings(max_examples=150, deadline=None)
@given(small_rooted_hosts(), st.integers(0, 2))
def test_lattice_engines_agree_with_the_reference(host, d):
    want = reference_codes(host, d)
    assert folio_bruteforce(host, d).codes() == want
    assert folio_dp(host, d, dp_decomposition(host.graph)).codes() == want


@settings(max_examples=150, deadline=None)
@given(small_rooted_hosts(max_n=6), st.just(3))
def test_dp_agrees_with_the_oracle_at_detail_three(host, d):
    assert folio_dp(host, d, dp_decomposition(host.graph)).codes() == (
        folio_bruteforce(host, d).codes())


@settings(max_examples=100, deadline=None)
@given(small_rooted_hosts(max_k=3), st.integers(0, 2))
def test_a_group_pass_answers_as_each_candidate_alone(host, d):
    # a pass on the union of a group's edges decides every candidate of
    # the group as a pass on that candidate alone, a group of one, does
    k = len(host.roots)
    plan = _dp_plan(host.graph, dp_decomposition(host.graph))
    groups = folios.candidate_groups(k, d)
    passes = {group: _run_membership_dp(host, union, plan, Budget(STATE_BUDGET, "states"))
              for group, union in groups.items()}
    for form, _ in candidate_patterns(k, d):
        group = form.graph.n, form.roots
        need = sum(1 << i for i, e in enumerate(groups[group].graph.edges)
                   if e in form.graph.edges)
        alone = _run_membership_dp(host, form, plan, Budget(STATE_BUDGET, "states"))
        assert any(need & mask == need for mask in passes[group]) == (
            (1 << form.graph.m) - 1 in alone)


@settings(max_examples=100, deadline=None)
@given(small_rooted_hosts(max_k=3), st.integers(1, 2))
def test_a_split_rule_answers_as_the_candidates_own_pass(host, d):
    # a root-merged candidate has a rooted model exactly when one of its
    # split patterns does, so the split group's pass decides it as the
    # candidate's own group pass and the rooted-minor search do
    k = len(host.roots)
    plan = _dp_plan(host.graph, dp_decomposition(host.graph))
    groups = folios.candidate_groups(k, d)
    passes = {}

    def answer(group, needs):
        if group not in passes:
            passes[group] = _run_membership_dp(
                host, groups[group], plan, Budget(STATE_BUDGET, "states"))
        return any(need & mask == need for need in needs for mask in passes[group])

    for form, code in candidate_patterns(k, d):
        want = find_rooted_minor(host, form) is not None
        own = folios._need(groups[form.graph.n, form.roots], form.graph.edges)
        assert answer((form.graph.n, form.roots), [own]) == want
        for i, j, group, needs in folios.split_rules(k, d).get(code, ()):
            if host.roots[i] != host.roots[j]:
                assert answer(group, needs) == want


def test_dp_answers_grids_within_the_default_budget():
    # with every realized mask kept, one pass on the 3x8 grid's group
    # unions ran past STATE_BUDGET; keeping the maximal masks answers
    for rows, cols in ((3, 4), (3, 8)):
        host = RootedGraph(grid_graph(rows, cols), (0, rows * cols - 1))
        got = folio_dp(host, 2, dp_decomposition(host.graph))
        assert got == folio_bruteforce(host, 2)


# --- (k,d)-folios ------------------------------------------------------------


def kd_folio_by_oracle(host, k, d):
    """The (k,d)-folio by definition: the union of folio_bruteforce over
    every ordered k-tuple of annotated vertices."""
    entries = set()
    for tup in itertools.product(sorted(host.annotated), repeat=k):
        entries |= folio_bruteforce(RootedGraph.of(host.graph, tup), d).entries
    return Folio(k=k, d=d, entries=frozenset(entries))


def test_kd_folio_with_no_roots_is_plain_minors():
    tri = AnnotatedGraph.of(Graph(3, [(0, 1), (1, 2), (0, 2)]), ())
    f1 = kd_folio(tri, 0, 1)
    # members: the empty pattern and the single vertex
    assert len(f1.entries) == 2
    f2 = kd_folio(tri, 0, 2)
    # gains the two-vertex patterns, joined or not
    assert len(f2.entries) == 4
    assert (f1, f2) == (kd_folio_by_oracle(tri, 0, 1), kd_folio_by_oracle(tri, 0, 2))


def test_kd_folio_single_red_vertex():
    host = AnnotatedGraph.of(Graph(1, []), {0})
    f = kd_folio(host, 1, 0)
    assert len(f.entries) == 1
    assert f == kd_folio_by_oracle(host, 1, 0)


def test_kd_folio_tags_members_by_tuple_pattern():
    host = AnnotatedGraph.of(path_graph(3), {0, 2})
    f = kd_folio(host, 2, 0)
    assert f == kd_folio_by_oracle(host, 2, 0)
    merged_code = canonical_code(TWO_ROOTS_MERGED)
    tags = {e.tag for e in f.entries if e.code == merged_code}
    # (0,0) and (2,2) give the repeated-tuple tag, (0,2) and (2,0) the
    # distinct one; the union keeps both facts apart
    assert tags == {(0, 0), (0, 1)}
    assert len(f.entries) > len(f.codes())


def test_kd_folio_contains_disjoint_paths_encoding():
    g = gamma2_like()
    host = AnnotatedGraph.of(g, {0, 3, 5, 6})
    f = kd_folio(host, 4, 0)
    enc_code = canonical_code(RootedGraph(Graph(2, []), (0, 0, 1, 1)))
    tags = {e.tag for e in f.entries if e.code == enc_code}
    assert (0, 1, 2, 3) in tags
    assert disjoint_paths(g, Pattern.of([(0, 6), (3, 5)])) is not None


def test_kd_folio_multiset_budget():
    # 16 ** 3 = 4096 root tuples are allowed, 17 ** 3 = 4913 are not
    assert len(list(_root_tuples(AnnotatedGraph.of(path_graph(16), range(16)), 3))) == 4096
    host = AnnotatedGraph.of(path_graph(18), range(17))
    with pytest.raises(BudgetExceeded) as err:
        kd_folio(host, 3, 0)
    assert_spent(err, "root multisets", 4096)
    with pytest.raises(BudgetExceeded) as err:
        strongly_irrelevant(host, 3, 0, 17)
    assert_spent(err, "root multisets", 4096)


def test_kd_folio_dp_engine_matches_oracle():
    host = AnnotatedGraph.of(grid_graph(2, 3), {0, 5})
    assert kd_folio(host, 2, 1) == kd_folio_by_oracle(host, 2, 1)


@st.composite
def kd_cases(draw):
    g = draw(small_rooted_hosts(max_n=7, max_k=0)).graph
    annotated = draw(st.sets(st.integers(0, g.n - 1), max_size=3))
    return AnnotatedGraph.of(g, annotated), draw(st.integers(0, 3)), draw(st.integers(0, 1))


@settings(max_examples=150, deadline=None)
@given(kd_cases())
def test_kd_folio_agrees_with_the_oracle_over_every_ordered_tuple(case):
    # the DP runs on sorted tuples only; the other orderings' members are
    # the sorted tuple's with their roots permuted
    host, k, d = case
    assert kd_folio(host, k, d) == kd_folio_by_oracle(host, k, d)


def test_a_negative_root_count_or_detail_is_rejected():
    # with either negative there is no candidate pattern, so every folio
    # would come out empty and every vertex would look irrelevant
    host = AnnotatedGraph.of(grid_graph(2, 3), {0, 5})
    for k, d in ((1, -1), (-1, 0)):
        with pytest.raises(PreconditionViolated):
            strongly_irrelevant(host, k, d, 2)
        with pytest.raises(PreconditionViolated):
            kd_folio(host, k, d)
    rooted = RootedGraph.of(host.graph, (0, 5))
    with pytest.raises(PreconditionViolated):
        folio_bruteforce(rooted, -1)
    with pytest.raises(PreconditionViolated):
        folio_dp(rooted, -1, dp_decomposition(rooted.graph))


# --- consistency with the linkage solver --------------------------------------


def test_encoding_membership_tracks_disjoint_paths():
    rng = random.Random(4242)
    for _ in range(40):
        n = rng.randint(4, 8)
        g = random_graph(n, rng.uniform(0.2, 0.6), rng)
        k = rng.randint(1, 2)
        terms = rng.sample(range(n), 2 * k)
        pattern = Pattern.of([(terms[2 * i], terms[2 * i + 1]) for i in range(k)])
        roots = tuple(v for pair in pattern.pairs for v in pair)
        enc = RootedGraph(
            Graph(k, []), tuple(i for i in range(k) for _ in range(2))
        )
        f = folio_bruteforce(RootedGraph(g, roots), 0)
        assert f.has(enc) == (disjoint_paths(g, pattern) is not None)


# --- structural invariants -----------------------------------------------------


def test_deletion_monotonicity():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(3, 7)
        g = random_graph(n, rng.uniform(0.25, 0.7), rng)
        k = rng.randint(0, 2)
        roots = tuple(rng.sample(range(n), k)) if k else ()
        v = rng.choice([u for u in range(n) if u not in roots])
        smaller, remap = delete_vertex(g, v)
        d = rng.randint(0, 2)
        before = folio_bruteforce(RootedGraph(g, roots), d)
        after = folio_bruteforce(
            RootedGraph(smaller, tuple(remap[r] for r in roots)), d
        )
        assert after.codes() <= before.codes()


def test_downward_closure_is_a_fixed_point():
    # the reference folio decides every candidate on its own, so its
    # closure is a fact about the host and not about the lattice
    hosts = [
        RootedGraph(cycle_graph(5), (0, 2)),
        RootedGraph(grid_graph(2, 3), (0, 5)),
        RootedGraph(path_graph(4), ()),
    ]
    for host in hosts:
        f = folio_bruteforce(host, 2)
        assert f.codes() == reference_codes(host, 2)
        assert downward_closed(f)


def test_downward_closed_rejects_a_tampered_folio():
    f = folio_bruteforce(RootedGraph(cycle_graph(5), (0, 2)), 2)
    below, _ = pattern_lattice(2, 2)
    codes = f.codes()
    # a member lying strictly below another member
    lower = next(c for c in sorted(codes) if any(
        c in below[other] and other != c for other in codes))
    tampered = Folio(2, 2, frozenset(e for e in f.entries if e.code != lower))
    assert not downward_closed(tampered)


def test_downward_closed_rejects_a_member_outside_the_candidates():
    triangle = RootedGraph(Graph(3, [(0, 1), (1, 2), (0, 2)]), (0,))
    code = canonical_code(triangle)
    f = Folio(1, 1, frozenset({FolioEntry((0,), code, triangle)}))
    with pytest.raises(PreconditionViolated):
        downward_closed(f)


# --- strong irrelevance ---------------------------------------------------------


def test_strongly_irrelevant_isolated_vertex():
    # one spare isolated vertex, no slack: nothing the extra vertex could carry
    g = Graph(4, [(0, 1), (1, 2)])
    host = AnnotatedGraph.of(g, {0, 2})
    assert strongly_irrelevant(host, 2, 0, 3)


def test_isolated_vertex_can_still_matter_with_slack():
    # with slack 1 the lone isolated vertex is the only possible home for a
    # free-standing branch set once the rooted path eats 0,1,2
    g = Graph(4, [(0, 1), (1, 2)])
    host = AnnotatedGraph.of(g, {0, 2})
    assert not strongly_irrelevant(host, 2, 1, 3)
    # a second spare vertex restores equality
    g2 = Graph(5, [(0, 1), (1, 2)])
    host2 = AnnotatedGraph.of(g2, {0, 2})
    assert strongly_irrelevant(host2, 2, 1, 3)


def test_strongly_irrelevant_path_interior_is_false():
    host = AnnotatedGraph.of(path_graph(3), {0, 2})
    assert not strongly_irrelevant(host, 2, 0, 1)


def test_strongly_irrelevant_pendant_blob():
    # vertices 0..3 carry the red pair, 4,5,6 form a triangle separator, and
    # 7,8,9 hang behind it; 9 sits two steps into the blob
    edges = [
        (0, 2), (1, 3), (2, 3), (2, 4), (3, 6),
        (4, 5), (5, 6), (4, 6),
        (4, 7), (5, 7), (6, 7), (7, 8), (8, 9),
    ]
    host = AnnotatedGraph.of(Graph(10, edges), {0, 1})
    assert strongly_irrelevant(host, 2, 1, 9)


def test_strongly_irrelevant_rejects_red_vertex():
    host = AnnotatedGraph.of(path_graph(3), {0, 2})
    with pytest.raises(PreconditionViolated):
        strongly_irrelevant(host, 2, 0, 0)


@st.composite
def irrelevance_cases(draw):
    g = draw(small_rooted_hosts(max_n=9)).graph
    annotated = draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=3))
    return AnnotatedGraph.of(g, annotated), draw(st.integers(0, 2)), draw(st.integers(0, 2))


@settings(max_examples=100, deadline=None)
@given(irrelevance_cases())
def test_strongly_irrelevant_agrees_with_the_reference(case):
    # the reference compares whole folios over every ordered root tuple;
    # strongly_irrelevant tests sorted tuples and maximal members only
    host, k, d = case
    for v in host.graph.vertices():
        if v not in host.annotated:
            assert strongly_irrelevant(host, k, d, v) == reference_irrelevant(host, k, d, v)


# --- export ----------------------------------------------------------------------


def test_folio_json_export_is_deterministic_and_sorted():
    host = RootedGraph(cycle_graph(4), (0, 2))
    f = folio_bruteforce(host, 1)
    doc = folio_doc(f)
    assert json.dumps(doc) == json.dumps(folio_doc(folio_bruteforce(host, 1)))
    assert json.loads(json.dumps(doc)) == doc
    assert doc["k"] == 2 and doc["d"] == 1
    codes = [m["code"] for m in doc["members"]]
    assert codes == sorted(codes)
    for m in doc["members"]:
        assert set(m) == {
            "code", "vertices", "edges", "root_map", "detail", "tuple_pattern"
        }
        assert m["detail"] <= 1

"""Linkage enumeration, disjoint paths, vitality machinery.

Disjoint paths are checked against a rooted-minor reference kept here: an
edge-free pattern whose roots are the doubled terminals.

Vital instances for the property tests come from trees: a spanning
path-partition of a tree is always the unique linkage for its pattern, since
tree paths are unique. That gives an endless supply of honestly-vital
fixtures without search.
"""

import random

import pytest

from minorkit import linkages
from minorkit.errors import (
    Budget,
    BudgetExceeded,
    PreconditionViolated,
    SearchCapExceeded,
)
from minorkit.graphs import Graph, RootedGraph
from minorkit.linkages import (
    Linkage,
    Pattern,
    count_linkages,
    disjoint_paths,
    is_vital,
    parse_pattern,
    pattern_of,
    validate_linkage,
    write_pattern,
)
from minorkit.minors import find_rooted_minor


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


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


def random_graph(n, p, rng):
    return Graph(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


def gamma2_like():
    """3x3 grid plus one chord joining the right column's corners."""
    g = grid_graph(3, 3)
    return Graph(9, list(g.edges) + [(2, 8)])


GAMMA2_WITNESS = Linkage.of([(0, 1, 2, 8, 7, 6), (3, 4, 5)])


def random_tree(n, rng):
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v))
    return Graph(n, edges)


def random_vital_instance(n, rng):
    """A tree plus a spanning path-partition of it: always vital."""
    g = random_tree(n, rng)
    deg = [0] * n
    chosen = []
    edges = list(g.edges)
    rng.shuffle(edges)
    for u, v in edges:
        if deg[u] < 2 and deg[v] < 2:
            deg[u] += 1
            deg[v] += 1
            chosen.append((u, v))
    adj = {v: [] for v in range(n)}
    for u, v in chosen:
        adj[u].append(v)
        adj[v].append(u)
    seen = set()
    paths = []
    for v in range(n):
        if v in seen or len(adj[v]) > 1:
            continue
        path = [v]
        seen.add(v)
        while True:
            nxt = [w for w in adj[path[-1]] if w not in seen]
            if not nxt:
                break
            path.append(nxt[0])
            seen.add(nxt[0])
        paths.append(tuple(path))
    return g, Linkage.of(paths)


# --- patterns and pattern_of -------------------------------------------------


def test_pattern_of_paths():
    l = Linkage.of([(3, 2, 1), (5,)])
    assert pattern_of(l) == Pattern.of([(1, 3), (5, 5)])


def test_pattern_of_rejects_overlap():
    with pytest.raises(PreconditionViolated):
        pattern_of(Linkage.of([(0, 1), (1, 2)]))


def test_pattern_is_order_free():
    assert Pattern.of([(4, 1), (2, 2)]) == Pattern.of([(2, 2), (1, 4)])


def test_gamma2_witness_pattern():
    g = gamma2_like()
    assert validate_linkage(g, GAMMA2_WITNESS)
    assert pattern_of(GAMMA2_WITNESS) == Pattern.of([(0, 6), (3, 5)])


# --- disjoint paths -----------------------------------------------------------


def test_grid_corners_same_side():
    g = grid_graph(3, 3)
    l = disjoint_paths(g, Pattern.of([(0, 6), (2, 8)]))
    assert l is not None and validate_linkage(g, l)


def test_k4_crossing_pairs():
    l = disjoint_paths(complete_graph(4), Pattern.of([(0, 2), (1, 3)]))
    assert l is not None


def test_c4_crossing_pairs_absent():
    assert disjoint_paths(cycle_graph(4), Pattern.of([(0, 2), (1, 3)])) is None


def test_shared_terminal_absent():
    assert disjoint_paths(path_graph(4), Pattern.of([(0, 1), (1, 3)])) is None


def test_empty_pattern_present():
    l = disjoint_paths(path_graph(3), Pattern.of([]))
    assert l is not None and l.paths == ()


def linked_by_rooted_minor(g, p):
    """Reference decision: pair i becomes pattern vertex i rooted at both of
    its terminals, and a rooted model's branch sets hold the paths."""
    hroots, proots = [], []
    for i, (s, t) in enumerate(p.pairs):
        hroots += [s, t]
        proots += [i, i]
    pattern = RootedGraph.of(Graph(len(p.pairs), []), proots)
    return find_rooted_minor(RootedGraph.of(g, hroots), pattern) is not None


def test_engines_agree():
    """The linkage search against the rooted-minor reference."""
    rng = random.Random(3)
    found = 0
    for _ in range(200):
        n = rng.randint(2, 10)
        g = random_graph(n, rng.uniform(0.15, 0.7), rng)
        k = rng.randint(1, 2)
        terms = rng.sample(range(n), min(n, 2 * k))
        while len(terms) < 2 * k:
            terms.append(rng.randrange(n))
        pairs = [(terms[2 * i], terms[2 * i + 1]) for i in range(k)]
        p = Pattern.of(pairs)
        got = disjoint_paths(g, p)
        assert (got is not None) == linked_by_rooted_minor(g, p)
        if got is not None:
            found += 1
            assert validate_linkage(g, got) and pattern_of(got) == p
    assert 0 < found < 200


def test_engine_values_run_one_search():
    g = grid_graph(3, 3)
    p = Pattern.of([(0, 8), (2, 6)])
    assert disjoint_paths(g, p, engine="auto") == disjoint_paths(g, p, engine="dfs")
    with pytest.raises(PreconditionViolated):
        disjoint_paths(g, p, engine="rooted")


def assert_spent(err, what, limit):
    budget = err.value.budget
    assert budget.what == what
    assert budget.used > budget.limit == limit
    assert what in str(err.value) and str(limit) in str(err.value)


def test_node_budget_bounds_two_pair_disjoint_paths():
    corners = Pattern.of([(0, 15), (3, 12)])
    with pytest.raises(BudgetExceeded) as err:
        disjoint_paths(grid_graph(4, 4), corners, budget=Budget(5, "linkage search nodes"))
    assert_spent(err, "linkage search nodes", 5)


def test_every_linkage_search_is_bounded_by_default(monkeypatch):
    # the crossing corners of the 4x4 grid take 260 nodes to refute and the
    # gamma2 witness 16 to prove vital; each call gets a fresh default
    # budget, so the second fails the same way as the first
    monkeypatch.setattr(linkages, "NODE_BUDGET", 10)
    corners = Pattern.of([(0, 15), (3, 12)])
    for _ in range(2):
        with pytest.raises(BudgetExceeded) as err:
            disjoint_paths(grid_graph(4, 4), corners)
        assert_spent(err, "linkage search nodes", 10)
    with pytest.raises(BudgetExceeded) as err:
        count_linkages(grid_graph(4, 4), Pattern.of([(0, 15)]), limit=10**9)
    assert_spent(err, "linkage search nodes", 10)
    with pytest.raises(BudgetExceeded) as err:
        is_vital(gamma2_like(), GAMMA2_WITNESS)
    assert_spent(err, "linkage search nodes", 10)


def test_5x5_grid_crossing_corners_absent():
    assert disjoint_paths(grid_graph(5, 5), Pattern.of([(0, 24), (4, 20)])) is None


def test_five_pairs_on_fifteen_vertices_are_searched():
    # no pair count or host size refuses a search, only its node budget
    g = Graph(15, [(i, i + 1) for i in range(14)])
    p = Pattern.of([(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)])
    assert disjoint_paths(g, p) == Linkage.of([(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)])
    assert disjoint_paths(g, Pattern.of([(0, 2), (1, 3), (4, 5), (6, 7), (8, 9)])) is None


def test_a_path_past_the_recursion_limit_raises_the_cap_error():
    # the search recurses once per path vertex, and this path has 3000
    with pytest.raises(SearchCapExceeded):
        disjoint_paths(grid_graph(2, 1500), Pattern.of([(0, 2999)]))


def test_node_budget():
    g = grid_graph(4, 4)
    with pytest.raises(BudgetExceeded) as err:
        count_linkages(
            g, Pattern.of([(0, 15)]), limit=10**9, budget=Budget(20, "linkage search nodes")
        )
    assert_spent(err, "linkage search nodes", 20)
    with pytest.raises(BudgetExceeded) as err:
        is_vital(gamma2_like(), GAMMA2_WITNESS, budget=Budget(5, "linkage search nodes"))
    assert_spent(err, "linkage search nodes", 5)
    # one budget passed to several searches is charged by all of them
    shared = Budget(10**4, "linkage search nodes")
    assert is_vital(gamma2_like(), GAMMA2_WITNESS, budget=shared)
    spent = shared.used
    assert is_vital(gamma2_like(), GAMMA2_WITNESS, budget=shared)
    assert shared.used == 2 * spent


# --- counting and vitality ------------------------------------------------------


def test_count_path_end_to_end():
    assert count_linkages(path_graph(5), Pattern.of([(0, 4)]), limit=5) == 1


def test_count_c4_two_arcs():
    assert count_linkages(cycle_graph(4), Pattern.of([(0, 2)]), limit=5) == 2


def test_gamma2_witness_is_unique_and_vital():
    g = gamma2_like()
    p = pattern_of(GAMMA2_WITNESS)
    assert count_linkages(g, p, limit=10) == 1
    assert is_vital(g, GAMMA2_WITNESS)


def test_hamiltonian_path_vital():
    assert is_vital(path_graph(6), Linkage.of([(0, 1, 2, 3, 4, 5)]))


def test_c4_arc_not_vital():
    assert not is_vital(cycle_graph(4), Linkage.of([(0, 1, 2)]))


def test_is_vital_rejects_invalid():
    with pytest.raises(PreconditionViolated):
        is_vital(path_graph(3), Linkage.of([(0, 2)]))


def test_tree_partitions_are_vital():
    rng = random.Random(9)
    for _ in range(30):
        g, l = random_vital_instance(rng.randint(1, 10), rng)
        assert is_vital(g, l)


# --- formats -------------------------------------------------------------------------


def test_pattern_format_round_trip():
    p = Pattern.of([(4, 1), (2, 2)])
    assert parse_pattern(write_pattern(p)) == p


"""Every public search is bounded by the work it does: called with its
defaults on an instance past its default budget, each raises BudgetExceeded
with its own label and a count past the limit. The defaults are lowered
here so that each case runs in milliseconds."""

import pytest

from minorkit import decomposition, linkages, minors
from minorkit.constructions import grid
from minorkit.decomposition import exact_treewidth
from minorkit.errors import BudgetExceeded
from minorkit.graphs import AnnotatedGraph, Graph, RootedGraph
from minorkit.linkages import Pattern, count_linkages, disjoint_paths
from minorkit.minors import (
    bidim,
    canonical_code,
    complete_graph,
    find_minor,
    find_red_minor,
    find_rooted_minor,
)
from test_minors import wagner_graph

LIMIT = 5

CASES = [
    # V8 is non-planar and its treewidth bounds straddle (3 and 4), so
    # neither find_minor's cuts nor the bounds alone decide it
    ("find_minor", minors, "MINOR_NODE_BUDGET", "minor search nodes",
     lambda: find_minor(wagner_graph(), complete_graph(5))),
    ("find_rooted_minor", minors, "MINOR_NODE_BUDGET", "minor search nodes",
     lambda: find_rooted_minor(RootedGraph(grid(4, 4), (0, 15)),
                               RootedGraph(complete_graph(4), (0, 1)))),
    ("find_red_minor", minors, "MINOR_NODE_BUDGET", "minor search nodes",
     lambda: find_red_minor(AnnotatedGraph.of(grid(4, 4), range(16)), grid(3, 3))),
    ("bidim", minors, "MINOR_NODE_BUDGET", "minor search nodes",
     lambda: bidim(AnnotatedGraph.of(grid(4, 4), range(16)), 4)),
    ("exact_treewidth", decomposition, "NODE_BUDGET", "elimination search nodes",
     lambda: exact_treewidth(wagner_graph())),
    ("count_linkages", linkages, "NODE_BUDGET", "linkage search nodes",
     lambda: count_linkages(grid(4, 4), Pattern.of([(0, 15)]))),
    ("disjoint_paths", linkages, "NODE_BUDGET", "linkage search nodes",
     lambda: disjoint_paths(grid(4, 4), Pattern.of([(0, 15), (3, 12)]))),
    ("canonical_code", minors, "CANONICAL_NODE_BUDGET", "canonical search nodes",
     lambda: canonical_code(RootedGraph(Graph(12, [(i, (i + 1) % 12) for i in range(12)]), ()))),
]


@pytest.mark.parametrize(
    "module, default, label, search", [pytest.param(*case[1:], id=case[0]) for case in CASES]
)
def test_every_public_search_raises_past_its_default_budget(
    monkeypatch, module, default, label, search
):
    monkeypatch.setattr(module, default, LIMIT)
    with pytest.raises(BudgetExceeded) as err:
        search()
    budget = err.value.budget
    assert budget.what == label
    assert budget.used > budget.limit == LIMIT
    assert label in str(err.value)

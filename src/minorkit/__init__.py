"""minorkit: exact desk-scale graph-minor computations.

Modules:
    graphs         immutable graphs, blocks, minimum vertex cuts, edge lists
    minors         minor models (plain / rooted / red), canonical codes, bidim
    decomposition  tree decompositions, exact solver, certificates
    linkages       patterns, disjoint paths, linkage counting, vitality
    folios         detail, rooted folios, the decomposition DP, irrelevance
    plane          rotation-system plane graphs, concentric cycles, tightening
    wells          wells and their drained / dry path normal forms
    routing        feasibility and constructive routing on disc and cylinder
    constructions  generators for grids, walls, meshes, and the hard instances
    pipeline       the reduce-then-solve loop with certified deletions
    cli            batch front end
"""

from .graphs import AnnotatedGraph, Graph, RootedGraph

__all__ = [
    "AnnotatedGraph",
    "Graph",
    "RootedGraph",
]

"""The answer checks accept the program's answers and reject tampered ones.

    python3 -m pytest perfbench/test_checks.py

Run from the root of a checkout; the program is imported from `src/`.
"""

import copy
import io
import itertools
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def mk():
    return workloads.load_program()


def cli(mk, tmp_path, argv, files=()):
    """Run the program's cli on files written under tmp_path."""
    paths = []
    for i, (suffix, text) in enumerate(files):
        path = tmp_path / f"f{i}{suffix}"
        path.write_text(text)
        paths.append(str(path))
    argv = [a.format(*paths) for a in argv]
    out = io.StringIO()
    with redirect_stdout(out):
        code = mk["cli"].main(argv)
    return code, out.getvalue()


def edge_file(mk, n, edges):
    return ".edg", mk["graphs"].write_edge_list(mk["graphs"].Graph(n, edges))


def pattern_file(mk, pairs):
    return ".pat", mk["linkages"].write_pattern(mk["linkages"].Pattern.of(pairs))


def retext(out, doc):
    return out[0], json.dumps(doc)


# --- primitives --------------------------------------------------------------------


def test_treewidth_bounds_bracket_known_widths():
    for n, edges, width in [
        (9, checks.grid_edges(3, 3), 3),
        (6, list(itertools.combinations(range(6), 2)), 5),
        (5, [(i, i + 1) for i in range(4)], 1),
        (4, [], 0),
    ]:
        assert checks.tw_lower(n, edges) <= width <= checks.tw_upper(n, edges)


def test_rooted_key_sees_rooted_isomorphism_only():
    path = checks.rooted_key(3, [(0, 1), (1, 2)], [0, 2])
    assert path == checks.rooted_key(3, [(2, 1), (1, 0)], [2, 0])
    assert path != checks.rooted_key(3, [(0, 1), (1, 2)], [0, 1])


def test_model_validator_rejects_broken_models():
    edges = checks.grid_edges(2, 2)  # the 4-cycle 0-1-3-2
    good = [{0}, {1}, {3}, {2}]
    c4 = [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert checks.model_error(4, edges, 4, c4, good) is None
    assert checks.model_error(4, edges, 4, c4, [{0}, {1}, {2}, {3}])  # edge missing
    assert checks.model_error(4, edges, 2, [(0, 1)], [{0, 3}, {1}])  # not connected
    assert checks.model_error(4, edges, 2, [(0, 1)], [{0, 1}, {1}])  # overlap
    assert checks.model_error(4, edges, 2, [(0, 1)], [{0}, {1}], roots=[(3, 0)])
    assert checks.model_error(4, edges, 2, [(0, 1)], [{0}, {1}], red={0})


def test_paths_validator_rejects_broken_linkages():
    edges = checks.grid_edges(2, 3)
    assert checks.paths_error(6, edges, [[0, 1, 2]], [(0, 2)]) is None
    assert checks.paths_error(6, edges, [[0, 2]], [(0, 2)])  # not an edge
    assert checks.paths_error(6, edges, [[0, 1, 2], [3, 4, 1]], [(0, 2), (3, 1)])
    assert checks.paths_error(6, edges, [[0, 1, 2]], [(0, 5)])  # wrong ends


# --- reduce ------------------------------------------------------------------------


def _cycle_clique():
    # 5-cycle 0..4 glued at vertex 4 to a clique on 4..10
    edges = [(i, (i + 1) % 5) for i in range(5)] + list(itertools.combinations(range(4, 11), 2))
    return dict(n=11, edges=edges, annotated=[0, 2], k=2, d=2, threshold=4)


def _reduce(mk, tmp_path, spec):
    return cli(mk, tmp_path,
               ["reduce", "--graph", "{0}", "--annotated", "0,2", "--k", "2", "--d", "2",
                "--threshold", str(spec["threshold"])],
               [edge_file(mk, spec["n"], spec["edges"])])


def test_reduce_check_accepts_and_rejects(mk, tmp_path):
    spec = _cycle_clique()
    out = _reduce(mk, tmp_path, spec)
    assert checks.check_reduce(mk, spec, out) is None
    doc = json.loads(out[1])

    wrong_width = dict(doc, final_width=doc["final_width"] + 3)
    assert checks.check_reduce(mk, spec, retext(out, wrong_width))

    short = dict(doc, deletions=doc["deletions"][:-1])
    assert checks.check_reduce(mk, spec, retext(out, short))

    assert checks.check_reduce(mk, spec, (1, out[1]))  # met, yet exit code 1


def test_reduce_check_rejects_a_folio_changing_deletion(mk):
    # deleting the glue vertex cuts the terminals off the clique, so no
    # cycle runs through both of them any more
    spec = _cycle_clique()
    g = mk["graphs"].Graph(spec["n"], spec["edges"])
    smaller, remap = mk["graphs"].delete_vertex(g, 4)
    final = mk["graphs"].AnnotatedGraph.of(smaller, [remap[0], remap[2]])
    width, _ = mk["decomposition"].exact_treewidth(smaller)
    trace = mk["pipeline"].ReductionTrace(((4, "oracle"),), final, width, "stuck")
    text = mk["pipeline"].trace_to_json(trace)
    assert "folio" in checks.check_reduce(mk, spec, (1, text))


# --- folio -------------------------------------------------------------------------


def test_folio_check_accepts_and_rejects(mk, tmp_path):
    spec = dict(n=6, edges=checks.grid_edges(2, 3), roots=[0, 5], d=1)
    out = cli(mk, tmp_path, ["folio", "--graph", "{0}", "--roots", "0,5", "--d", "1",
                             "--engine", "dp"], [edge_file(mk, 6, spec["edges"])])
    assert checks.check_folio(mk, spec, out) is None
    doc = json.loads(out[1])

    dropped = copy.deepcopy(doc)
    dropped["dp"]["members"] = dropped["dp"]["members"][1:]
    assert checks.check_folio(mk, spec, retext(out, dropped))

    # a triangle through both roots lies beyond detail 1
    fake = copy.deepcopy(doc)
    fake["dp"]["members"].append(
        {"code": "fake", "vertices": 3, "edges": [[0, 1], [0, 2], [1, 2]], "root_map": [0, 1],
         "detail": 3, "tuple_pattern": [0, 1]})
    assert checks.check_folio(mk, spec, retext(out, fake))


def test_downward_closure_catches_a_missing_minor():
    # members: roots joined by an edge, but not the edgeless pair below it
    member = (2, [(0, 1)], [0, 1])
    keys = {checks.rooted_key(*member)}
    missing = [sub for sub in checks.one_step_minors(*member) if checks.rooted_key(*sub) not in keys]
    assert missing


# --- search ------------------------------------------------------------------------


def _k(t):
    return list(itertools.combinations(range(t), 2))


def test_minor_check(mk):
    G = mk["graphs"].Graph
    grid = checks.grid_edges(3, 3)
    spec = dict(n=9, edges=grid, pattern="K4", pn=4, pedges=_k(4))
    model = mk["minors"].find_minor(G(9, grid), G(4, _k(4)))
    assert checks.check_minor(mk, spec, model) is None
    broken = mk["minors"].MinorModel((model.branch_sets[0] | model.branch_sets[1],)
                                     + model.branch_sets[1:])
    assert checks.check_minor(mk, spec, broken)
    assert checks.check_minor(mk, spec, None)  # K4 absent from a 3x3 grid: no fact says so
    k5 = dict(spec, pattern="K5", pn=5, pedges=_k(5))
    assert checks.check_minor(mk, k5, None) is None  # the grid is planar


def test_dp_check(mk, tmp_path):
    n, edges = 9, checks.grid_edges(3, 3)
    files = [edge_file(mk, n, edges)]
    perm = list(range(n))
    parallel = dict(n=n, edges=edges, rows=3, cols=3, perm=perm, pairs=[(0, 2), (6, 8)],
                    shape="parallel")
    crossing = dict(parallel, pairs=[(0, 8), (2, 6)], shape="crossing")
    out = cli(mk, tmp_path, ["dp", "--graph", "{0}", "--pattern", "{1}"],
              files + [pattern_file(mk, parallel["pairs"])])
    assert checks.check_dp(mk, parallel, out) is None
    doc = json.loads(out[1])
    assert checks.check_dp(mk, parallel, retext(out, {"found": False, "linkage": None}))
    bent = dict(doc, linkage=[[0, 4, 2], [6, 7, 8]])
    assert checks.check_dp(mk, parallel, retext(out, bent))
    out = cli(mk, tmp_path, ["dp", "--graph", "{0}", "--pattern", "{1}"],
              files + [pattern_file(mk, crossing["pairs"])])
    assert checks.check_dp(mk, crossing, out) is None


def test_vital_check(mk, tmp_path):
    inst = mk["constructions"].gamma_hat(2)
    edges = sorted(inst.graph.edges)
    spec = dict(n=inst.graph.n, edges=edges, pairs=list(inst.pattern.pairs))
    out = cli(mk, tmp_path, ["vital", "--graph", "{0}", "--pattern", "{1}"],
              [edge_file(mk, inst.graph.n, edges), pattern_file(mk, inst.pattern.pairs)])
    assert checks.check_vital(mk, spec, out) is None
    doc = json.loads(out[1])
    assert checks.check_vital(mk, spec, (1, json.dumps(dict(doc, vital=False))))


def test_bidim_check(mk, tmp_path):
    edges = checks.grid_edges(3, 3)
    spec = dict(n=9, edges=edges, annotated=list(range(9)), cap=4, side=3, full=True)
    out = cli(mk, tmp_path, ["bidim", "--graph", "{0}", "--annotated", ",".join(map(str, range(9))),
                             "--cap", "4"], [edge_file(mk, 9, edges)])
    assert checks.check_bidim(mk, spec, out) is None
    assert checks.check_bidim(mk, spec, retext(out, {"bidim": 2, "cap": 4}))
    few = dict(spec, annotated=[0, 1, 2, 3, 4], full=False, cap=3)
    assert checks.check_bidim(mk, few, retext(out, {"bidim": 3, "cap": 3}))


def test_verify_hk_check(mk):
    good = {"minor_present": True, "per_vertex_absent": True}
    assert checks.check_verify_hk(mk, {}, (0, json.dumps(good))) is None
    assert checks.check_verify_hk(mk, {}, (1, json.dumps(dict(good, per_vertex_absent=False))))


def test_canon_group_check():
    a = dict(gadget=0, n=4, edges=_k(4))
    b = dict(gadget=1, n=4, edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    assert checks.check_canon_group([(a, b"x"), (a, b"x"), (b, b"y")]) is None
    assert checks.check_canon_group([(a, b"x"), (a, b"z"), (b, b"y")])
    assert checks.check_canon_group([(a, b"x"), (b, b"x")])


# --- surface -----------------------------------------------------------------------


def test_tighten_check(mk):
    mesh, _, cc, _ = mk["plane"].mesh_nest(6, 4)
    spec = dict(n=mesh.graph.n, edges=sorted(mesh.graph.edges),
                cycles=[list(c) for c in mesh.cycles])
    out = mk["plane"].tighten(cc)
    assert checks.check_tighten(mk, spec, out) is None

    class Fake:
        cycles = [out.cycles[0][::2]] + list(out.cycles[1:])

    assert checks.check_tighten(mk, spec, Fake())


def test_route_check(mk, tmp_path):
    mesh, _, cc, rails = mk["plane"].mesh_nest(4, 3)
    terms = [r[0] for r in rails]
    files = [(".json", mk["routing"].annulus_to_json(cc, rails))]
    edges = sorted(mesh.graph.edges)
    nested = [(terms[0], terms[3]), (terms[1], terms[2])]
    spec = dict(n=mesh.graph.n, edges=edges, pairs=nested, boundary=terms, surface="disc")
    out = cli(mk, tmp_path, ["route", "--annulus", "{0}", "--pattern", "{1}"],
              files + [pattern_file(mk, nested)])
    assert checks.check_route(mk, spec, out) is None
    doc = json.loads(out[1])
    assert checks.check_route(mk, spec, retext(out, dict(doc, routed=False, linkage=None)))
    swapped = [list(reversed(p)) for p in doc["linkage"]]
    swapped[0] = swapped[0][:-1]
    assert checks.check_route(mk, spec, retext(out, dict(doc, linkage=swapped)))
    crossing = [(terms[0], terms[2]), (terms[1], terms[3])]
    spec = dict(spec, pairs=crossing)
    out = cli(mk, tmp_path, ["route", "--annulus", "{0}", "--pattern", "{1}"],
              files + [pattern_file(mk, crossing)])
    assert checks.check_route(mk, spec, out) is None


def test_well_check(mk):
    import random

    w = mk["wells"].random_well(random.Random(3), n_rails=8, n_rings=4)
    spec = dict(n=w.plane.graph.n, edges=sorted(w.plane.graph.edges),
                paths=[list(p) for p in w.paths], union=len(w.union_edges), op="drain")
    out = mk["wells"].drain(w)
    assert checks.check_well(mk, spec, out) is None

    class Fake:
        cycles = out.cycles
        paths = out.paths[1:]

    assert checks.check_well(mk, spec, Fake())
    assert checks.check_well(mk, dict(spec, union=len(out.union_edges) - 1), out)

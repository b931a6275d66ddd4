"""Command-line front end tests.

Each test drives cli.main with an argv list and reads the JSON document
off stdout, so the process boundary (exit codes, file IO, error routing)
is covered without spawning subprocesses. One subprocess test checks the
module runs under -m as well."""

import json
import subprocess
import sys

import pytest

from minorkit import cli, minors
from minorkit.constructions import cylindrical_mesh, gamma_hat, grid, wall, z_graph
from minorkit.graphs import AnnotatedGraph, Graph, parse_edge_list, write_edge_list
from minorkit.linkages import parse_pattern
from minorkit.minors import bidim
from minorkit.plane import mesh_nest
from minorkit.routing import annulus_to_json


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_c4(tmp_path):
    g = Graph(
        4,
        [(0, 1), (1, 2), (2, 3), (3, 0)],
        labels={0: "a", 1: "b", 2: "c", 3: "d"},
    )
    path = tmp_path / "c4.edg"
    path.write_text(write_edge_list(g))
    return path


# --- gen ------------------------------------------------------------------------


def test_gen_gamma_hat_writes_graph_and_pattern(tmp_path, capsys):
    out = tmp_path / "g2.edg"
    code, doc = run_cli(capsys, ["gen", "gamma-hat", "--k", "2", "-o", str(out)])
    assert code == 0
    assert doc["side"] == 3
    assert doc["vitality"] == "proven"
    inst = gamma_hat(2)
    assert parse_edge_list(out.read_text()) == inst.graph
    sidecar = tmp_path / "g2.pat"
    assert parse_pattern(sidecar.read_text()) == inst.pattern


def test_gen_z_reports_annotated_vertices(tmp_path, capsys):
    out = tmp_path / "z2.edg"
    code, doc = run_cli(capsys, ["gen", "z", "--s", "2", "-o", str(out)])
    assert code == 0
    host = z_graph(2)
    assert parse_edge_list(out.read_text()) == host.graph
    assert doc["annotated"] == sorted(host.annotated)


@pytest.mark.parametrize(
    "argv, builder",
    [
        (["gen", "grid", "--rows", "3", "--cols", "4"], lambda: grid(3, 4)),
        (["gen", "wall", "--n", "3"], lambda: wall(3).graph),
        (
            ["gen", "mesh", "--rails", "4", "--rings", "3"],
            lambda: cylindrical_mesh(4, 3).graph,
        ),
    ],
)
def test_gen_kinds_reparse_to_the_library_graph(tmp_path, capsys, argv, builder):
    out = tmp_path / "g.edg"
    code, doc = run_cli(capsys, argv + ["-o", str(out)])
    want = builder()
    assert code == 0
    assert doc["vertices"] == want.n and doc["edges"] == want.m
    assert parse_edge_list(out.read_text()) == want


def test_gen_random_is_seed_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.edg", tmp_path / "b.edg"
    base = ["gen", "random", "--n", "9", "--p", "0.5", "--seed", "7"]
    assert run_cli(capsys, base + ["-o", str(a)])[0] == 0
    assert run_cli(capsys, base + ["-o", str(b)])[0] == 0
    assert a.read_text() == b.read_text()
    parse_edge_list(a.read_text())


# --- tw -------------------------------------------------------------------------


def test_tw_reports_exact_width(tmp_path, capsys):
    out = tmp_path / "g2.edg"
    run_cli(capsys, ["gen", "gamma-hat", "--k", "2", "-o", str(out)])
    code, doc = run_cli(capsys, ["tw", "--graph", str(out)])
    assert code == 0
    assert doc == {"width": 3}


def test_tw_certify_reports_both_certificates(tmp_path, capsys):
    out = tmp_path / "g2.edg"
    run_cli(capsys, ["gen", "gamma-hat", "--k", "2", "-o", str(out)])
    code, doc = run_cli(capsys, ["tw", "--graph", str(out), "--certify", "3"])
    assert code == 0
    assert doc["value"] == 3
    assert doc["upper_width"] == 3
    assert doc["grid_side"] == 3 or doc["bramble_sets"]


def test_tw_certify_on_a_grid_past_the_recursion_limit(tmp_path, capsys):
    path = tmp_path / "g35.edg"
    path.write_text(write_edge_list(grid(35, 35)))
    code, doc = run_cli(capsys, ["tw", "--graph", str(path), "--certify", "35"])
    assert code == 0
    assert doc["value"] == 35 and doc["grid_side"] == 35


# --- dp and vital ----------------------------------------------------------------


def test_dp_finds_a_linkage(tmp_path, capsys):
    g = write_c4(tmp_path)
    pat = tmp_path / "p.pat"
    pat.write_text("pair 0 3\n")
    code, doc = run_cli(capsys, ["dp", "--graph", str(g), "--pattern", str(pat)])
    assert code == 0
    assert doc["found"] is True
    assert len(doc["linkage"]) == 1


def test_dp_reports_absence(tmp_path, capsys):
    g = write_c4(tmp_path)
    pat = tmp_path / "p.pat"
    pat.write_text("pair 0 2\npair 1 3\n")
    code, doc = run_cli(capsys, ["dp", "--graph", str(g), "--pattern", str(pat)])
    assert code == 0
    assert doc["found"] is False
    assert doc["linkage"] is None


def test_vital_accepts_gamma_hat(tmp_path, capsys):
    g = tmp_path / "g2.edg"
    run_cli(capsys, ["gen", "gamma-hat", "--k", "2", "-o", str(g)])
    code, doc = run_cli(
        capsys, ["vital", "--graph", str(g), "--pattern", str(tmp_path / "g2.pat")]
    )
    assert code == 0
    assert doc["vital"] is True
    assert len(doc["linkage"]) == 2


def test_vital_rejects_linkage_with_detour(tmp_path, capsys):
    # One pair on a cycle: the linkage exists but a second routing does
    # too, so vitality fails and the exit code says so.
    g = write_c4(tmp_path)
    pat = tmp_path / "p.pat"
    pat.write_text("pair 0 3\n")
    code, doc = run_cli(capsys, ["vital", "--graph", str(g), "--pattern", str(pat)])
    assert code == 1
    assert doc["vital"] is False
    assert doc["linkage"] is not None


# --- folio ------------------------------------------------------------------------


def test_folio_engines_agree_with_labelled_roots(tmp_path, capsys):
    g = write_c4(tmp_path)
    code, doc = run_cli(
        capsys,
        ["folio", "--graph", str(g), "--roots", "a,c", "--engine", "both", "--d", "0"],
    )
    assert code == 0
    assert doc["equal"] is True
    assert doc["roots"] == [0, 2]
    assert doc["oracle"] == doc["dp"]


# --- reduce -----------------------------------------------------------------------


def write_blob(tmp_path):
    import itertools

    core = [(0, 1), (1, 2), (2, 3), (3, 0)]
    blob = list(itertools.combinations(range(4, 11), 2))
    g = Graph(11, core + blob + [(1, 4), (3, 5), (0, 6)])
    path = tmp_path / "blob.edg"
    path.write_text(write_edge_list(g))
    return path


def test_reduce_emits_trace_and_exit_zero_when_met(tmp_path, capsys):
    g = write_blob(tmp_path)
    code, doc = run_cli(
        capsys,
        [
            "reduce",
            "--graph", str(g),
            "--annotated", "0,2",
            "--k", "2",
            "--threshold", "4",
        ],
    )
    assert code == 0
    assert doc["status"] == "met"
    assert doc["deletions"] == [
        [1, "clique-rule"],
        [4, "clique-rule"],
        [7, "clique-rule"],
    ]
    assert doc["final_width"] <= 4


def test_reduce_exit_one_when_stuck(tmp_path, capsys):
    g = write_blob(tmp_path)
    code, doc = run_cli(
        capsys,
        [
            "reduce",
            "--graph", str(g),
            "--annotated", "0,2",
            "--k", "2",
            "--threshold", "1",
            "--engine", "clique-rule",
        ],
    )
    assert code == 1
    assert doc["status"] == "stuck"


def test_reduce_prints_the_partial_trace_and_exits_three_when_capped(
    tmp_path, capsys, monkeypatch
):
    import itertools

    # C5-K11 at (k, d) = (2, 1): the clique rule's searches take 9 nodes
    # each, the oracle's first round one of 12
    monkeypatch.setattr(minors, "MINOR_NODE_BUDGET", 10)
    cycle = [(i, (i + 1) % 5) for i in range(5)]
    clique = list(itertools.combinations(range(5, 16), 2))
    path = tmp_path / "cycle_clique.edg"
    path.write_text(write_edge_list(Graph(16, cycle + clique + [(4, 5)])))
    code, doc = run_cli(
        capsys,
        [
            "reduce",
            "--graph", str(path),
            "--annotated", "0,2",
            "--k", "2",
            "--d", "1",
            "--threshold", "4",
        ],
    )
    assert code == 3
    assert doc["status"] == "capped"
    assert doc["deletions"] == [[6, "clique-rule"], [7, "clique-rule"], [8, "clique-rule"]]


# --- route ------------------------------------------------------------------------


def write_annulus(tmp_path, capsys):
    out = tmp_path / "ann.json"
    code, doc = run_cli(
        capsys, ["gen", "annulus", "--rails", "4", "--rings", "4", "-o", str(out)]
    )
    assert code == 0 and doc["vertices"] == 16
    return out


def test_route_disc_feasible_pattern(tmp_path, capsys):
    ann = write_annulus(tmp_path, capsys)
    pat = tmp_path / "ok.pat"
    pat.write_text("pair 12 13\npair 14 15\n")
    code, doc = run_cli(
        capsys,
        ["route", "--annulus", str(ann), "--pattern", str(pat), "--surface", "disc"],
    )
    assert code == 0
    assert doc["routed"] is True
    assert len(doc["linkage"]) == 2


def test_route_disc_interleaved_pattern_is_refused_not_an_error(tmp_path, capsys):
    ann = write_annulus(tmp_path, capsys)
    pat = tmp_path / "bad.pat"
    pat.write_text("pair 12 14\npair 13 15\n")
    code, doc = run_cli(
        capsys,
        ["route", "--annulus", str(ann), "--pattern", str(pat), "--surface", "disc"],
    )
    assert code == 0
    assert doc["routed"] is False
    assert doc["linkage"] is None


def test_route_cylinder_crossing_pattern(tmp_path, capsys):
    ann = write_annulus(tmp_path, capsys)
    pat = tmp_path / "cross.pat"
    pat.write_text("pair 12 1\npair 14 3\n")
    code, doc = run_cli(
        capsys,
        [
            "route",
            "--annulus", str(ann),
            "--pattern", str(pat),
            "--surface", "cylinder",
        ],
    )
    assert code == 0
    assert doc["routed"] is True
    assert len(doc["linkage"]) == 2


def test_route_disc_refuses_inner_terminals_as_bad_input(tmp_path, capsys):
    # 1 and 3 are the inner ends of their rails, off the disc's boundary
    ann = write_annulus(tmp_path, capsys)
    pat = tmp_path / "cross.pat"
    pat.write_text("pair 12 1\npair 14 3\n")
    code, doc = run_cli(
        capsys,
        ["route", "--annulus", str(ann), "--pattern", str(pat), "--surface", "disc"],
    )
    assert code == 2
    assert "outermost cycle" in doc["error"]


# --- verify-hk and bidim ------------------------------------------------------------


def test_verify_hk_both_checks_pass(capsys):
    code, doc = run_cli(capsys, ["verify-hk", "--k", "2"])
    assert code == 0
    assert doc["minor_present"] is True
    assert doc["per_vertex_absent"] is True


def test_bidim_matches_the_library(tmp_path, capsys):
    g = write_c4(tmp_path)
    code, doc = run_cli(
        capsys, ["bidim", "--graph", str(g), "--annotated", "a,b,c,d", "--cap", "3"]
    )
    assert code == 0
    host = AnnotatedGraph.of(
        parse_edge_list(g.read_text()), (0, 1, 2, 3)
    )
    assert doc == {"bidim": bidim(host, 3), "cap": 3}


# --- exit codes ----------------------------------------------------------------------


def test_missing_file_exits_two(tmp_path, capsys):
    code, doc = run_cli(capsys, ["tw", "--graph", str(tmp_path / "nope.edg")])
    assert code == 2
    assert "error" in doc


def test_unknown_label_exits_two(tmp_path, capsys):
    g = write_c4(tmp_path)
    code, doc = run_cli(capsys, ["folio", "--graph", str(g), "--roots", "zz"])
    assert code == 2
    assert "zz" in doc["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--annotated", "0,3", "--k", "1", "--d", "-1", "--threshold", "1"],
        ["reduce", "--annotated", "0,3", "--k", "-1", "--threshold", "1"],
        ["folio", "--roots", "0,3", "--d", "-1"],
        ["folio", "--roots", "0,3", "--d", "-1", "--engine", "dp"],
        # the 4x4 grid has width 4, so this run would end "met" at once
        ["reduce", "--annotated", "0,3", "--k", "-1", "--d", "-1", "--threshold", "4"],
        ["reduce", "--annotated", "0,3", "--k", "-1", "--threshold", "1", "--engine", "clique-rule"],
    ],
)
def test_a_negative_root_count_or_detail_exits_two(tmp_path, capsys, argv):
    g = tmp_path / "g44.edg"
    g.write_text(write_edge_list(grid(4, 4)))
    code, doc = run_cli(capsys, argv[:1] + ["--graph", str(g)] + argv[1:])
    assert code == 2
    assert "non-negative" in doc["error"]


GRAPH_ARGS = ["tw", "--graph", "BAD"]
PATTERN_ARGS = ["dp", "--graph", "GRAPH", "--pattern", "BAD"]
ANNULUS_ARGS = ["route", "--annulus", "BAD", "--pattern", "PATTERN"]


def without_paths(doc):
    return json.dumps({key: value for key, value in doc.items() if key != "paths"})


def with_plane_line(line):
    return lambda doc: json.dumps({**doc, "plane": doc["plane"] + line + "\n"})


def with_first_rot_line_twice(doc):
    line = next(line for line in doc["plane"].splitlines() if line.startswith("rot "))
    return with_plane_line(line)(doc)


@pytest.mark.parametrize(
    "argv, bad",
    [
        pytest.param(GRAPH_ARGS, lambda doc: "3 1\nx 2\n", id="edge-line"),
        pytest.param(GRAPH_ARGS, lambda doc: "2 1\n0 1\n# label q foo\n", id="label-line"),
        pytest.param(PATTERN_ARGS, lambda doc: "pair 0 z\n", id="pattern-line"),
        pytest.param(ANNULUS_ARGS, lambda doc: "not json\n", id="annulus-not-json"),
        pytest.param(ANNULUS_ARGS, without_paths, id="annulus-missing-field"),
        pytest.param(ANNULUS_ARGS, with_plane_line("rot 0 x"), id="rot-line"),
        pytest.param(ANNULUS_ARGS, with_plane_line("outer 0"), id="outer-line"),
        pytest.param(ANNULUS_ARGS, with_plane_line("rot 999 0"), id="rot-line-stray"),
        pytest.param(ANNULUS_ARGS, with_first_rot_line_twice, id="rot-line-repeated"),
        pytest.param(ANNULUS_ARGS, lambda doc: json.dumps({**doc, "cycles": 5}), id="annulus-cycles"),
        pytest.param(
            ANNULUS_ARGS,
            lambda doc: json.dumps({**doc, "paths": [list(map(str, p)) for p in doc["paths"]]}),
            id="annulus-paths",
        ),
    ],
)
def test_malformed_input_exits_two(tmp_path, capsys, argv, bad):
    # exit 1 would claim a failed verification; `bad` turns a valid annulus
    # document into the malformed file's text
    _, _, cc, rails = mesh_nest(4, 3)
    annulus = annulus_to_json(cc, rails)
    texts = {
        "GRAPH": write_edge_list(cc.plane.graph),
        "PATTERN": f"pair {rails[0][0]} {rails[1][0]}\npair {rails[2][0]} {rails[3][0]}\n",
    }
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    args = [str(tmp_path / a) if a in texts or a == "BAD" else a for a in argv]
    # the command answers while BAD still holds a valid file of its kind
    valid = {"tw": texts["GRAPH"], "dp": texts["PATTERN"], "route": annulus}
    (tmp_path / "BAD").write_text(valid[argv[0]])
    assert run_cli(capsys, args)[0] == 0
    (tmp_path / "BAD").write_text(bad(json.loads(annulus)))
    code, doc = run_cli(capsys, args)
    assert code == 2
    assert "error" in doc


def test_unknown_flag_exits_two(capsys):
    code = cli.main(["tw", "--no-such-flag"])
    capsys.readouterr()
    assert code == 2


def test_exhausted_search_budget_exits_three(tmp_path, capsys):
    g = tmp_path / "g44.edg"
    g.write_text(write_edge_list(grid(4, 4)))
    pat = tmp_path / "p.pat"
    pat.write_text("pair 0 15\npair 3 12\npair 5 10\n")
    code, doc = run_cli(
        capsys,
        [
            "dp",
            "--graph", str(g),
            "--pattern", str(pat),
            "--engine", "dfs",
            "--max-nodes", "5",
        ],
    )
    assert code == 3
    assert "error" in doc


def test_dp_default_engine_honours_node_budget(tmp_path, capsys):
    g = tmp_path / "g44.edg"
    g.write_text(write_edge_list(grid(4, 4)))
    pat = tmp_path / "p.pat"
    pat.write_text("pair 0 15\npair 3 12\n")
    argv = ["dp", "--graph", str(g), "--pattern", str(pat), "--max-nodes", "5"]
    code, doc = run_cli(capsys, argv)
    assert code == 3
    assert "error" in doc
    code = cli.main(argv + ["--engine", "rooted"])
    capsys.readouterr()
    assert code == 2


def test_vital_node_budget_exits_three_and_names_the_search(tmp_path, capsys):
    g = tmp_path / "g44.edg"
    g.write_text(write_edge_list(grid(4, 4)))
    pat = tmp_path / "p.pat"
    pat.write_text("pair 0 15\npair 3 12\n")
    argv = ["vital", "--graph", str(g), "--pattern", str(pat), "--max-nodes", "5"]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 3
    assert "linkage search nodes" in json.loads(out)["error"]
    assert "budget of 5" in err
    # on gamma_hat(2) the linkage takes 10 nodes and the vitality check 16:
    # each fits in 20, both together do not, since they share one budget
    g2 = tmp_path / "g2.edg"
    run_cli(capsys, ["gen", "gamma-hat", "--k", "2", "-o", str(g2)])
    argv = ["vital", "--graph", str(g2), "--pattern", str(tmp_path / "g2.pat")]
    code, doc = run_cli(capsys, argv + ["--max-nodes", "20"])
    assert code == 3 and "budget of 20" in doc["error"]
    code, doc = run_cli(capsys, argv + ["--max-nodes", "26"])
    assert code == 0 and doc["vital"] is True


def test_dp_past_the_recursion_limit_exits_3(tmp_path, capsys):
    # exit 1 would claim a failed verification
    g = tmp_path / "ladder.edg"
    g.write_text(write_edge_list(grid(2, 1500)))
    pat = tmp_path / "p.pat"
    pat.write_text("pair 0 2999\n")
    code, doc = run_cli(capsys, ["dp", "--graph", str(g), "--pattern", str(pat)])
    assert code == 3
    assert "error" in doc


def test_error_message_goes_to_stderr(tmp_path, capsys):
    cli.main(["tw", "--graph", str(tmp_path / "nope.edg")])
    captured = capsys.readouterr()
    assert "error" in captured.err


def test_module_entry_point(tmp_path):
    g = write_c4(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "minorkit.cli", "tw", "--graph", str(g)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"width": 2}


def test_consecutive_calls_answer_as_fresh_processes(tmp_path, capsys):
    # the parser is built once per process; a usage error, an option given
    # once and then left out, and other subcommands must not leak between calls
    g = write_c4(tmp_path)
    pat = tmp_path / "p.pat"
    pat.write_text("pair 0 2\npair 1 3\n")
    calls = [
        ["tw", "--graph", str(g)],
        ["dp", "--graph", str(g), "--pattern", str(pat), "--max-nodes", "1"],
        ["folio", "--graph", str(g), "--roots", "a,c", "--engine", "nope"],
        ["dp", "--graph", str(g), "--pattern", str(pat)],
        ["folio", "--graph", str(g), "--roots", "a,c"],
        ["tw", "--graph", str(g), "--certify", "2"],
    ]
    in_process = []
    for argv in calls:
        code = cli.main(argv)
        in_process.append((code, capsys.readouterr().out))
    fresh = []
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "minorkit.cli", *argv], capture_output=True, text=True
        )
        fresh.append((proc.returncode, proc.stdout))
    assert in_process == fresh
    assert [code for code, _ in fresh] == [0, 3, 2, 0, 0, 0]

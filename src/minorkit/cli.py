"""Batch front end: generate instances, run the solvers and verifiers,
emit JSON. One command per process; no interaction.

Exit codes: 0 ok; 2 usage or bad input (an unknown flag, a number out of
its range, an unreadable or malformed file, or any library error but the
two below); 3 a search budget or cap was exceeded (BudgetExceeded or
SearchCapExceeded). Exit 1 has four causes: `vital` answers "not vital"
(no linkage, or a linkage that is not vital); `reduce` ends with status
"stuck"; `verify-hk` finds that one of its two checks failed; and an
internal error, which escapes `main` as a traceback. `reduce` exits 3 with
status "capped" when a deletion rule's search ran out of its budget, and
still prints the trace of the deletions it certified before that. In `dp`
and `vital` the linkage searches of one command share one budget of
`--max-nodes` (NODE_BUDGET, at least 1) nodes; other searches use the
`errors` defaults.
"""

import argparse
import functools
import json
import random
import sys
from itertools import combinations
from pathlib import Path

from .constructions import (
    cylindrical_mesh,
    gamma_hat,
    grid,
    verify_hk_deletion,
    wall,
    z_graph,
)
from .decomposition import exact_treewidth, treewidth_certificates
from .errors import (
    NODE_BUDGET,
    Budget,
    BudgetExceeded,
    MinorkitError,
    PreconditionViolated,
    SearchCapExceeded,
)
from .folios import dp_decomposition, folio_bruteforce, folio_doc, folio_dp
from .graphs import AnnotatedGraph, Graph, RootedGraph, parse_edge_list, write_edge_list
from .linkages import disjoint_paths, is_vital, parse_pattern, write_pattern
from .minors import bidim
from .pipeline import reduce, trace_to_json
from .plane import mesh_nest
from .routing import annulus_from_json, annulus_to_json, route_cylinder, route_disc

DEFAULT_SEED = 20260816


def _read(path):
    return Path(path).read_text()


def _load_graph(path):
    return parse_edge_list(_read(path))


def _vertex(g, token):
    """A vertex given numerically or by label."""
    token = token.strip()
    if token.lstrip("-").isdigit():
        v = int(token)
        if not (0 <= v < g.n):
            raise PreconditionViolated(f"vertex {v} outside the graph")
        return v
    try:
        return g.vertex_by_label(token)
    except KeyError:
        raise PreconditionViolated(f"no vertex labelled {token!r}") from None


def _vertex_list(g, text):
    if not text:
        return []
    return [_vertex(g, tok) for tok in text.split(",")]


def _emit(doc):
    print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


# --- subcommands ---------------------------------------------------------------


def _cmd_gen(args):
    out = Path(args.output)
    doc = {"kind": args.kind, "out": str(out)}
    text = None  # the edge list of g unless the kind writes another format
    if args.kind == "gamma-hat":
        inst = gamma_hat(args.k)
        g = inst.graph
        doc.update(
            side=inst.side,
            pattern=str(out.with_suffix(".pat")),
            vitality=inst.vitality,
        )
    elif args.kind == "z":
        host = z_graph(args.s)
        g = host.graph
        doc["annotated"] = sorted(host.annotated)
    elif args.kind == "grid":
        g = grid(args.rows, args.cols)
    elif args.kind == "wall":
        g = wall(args.n).graph
    elif args.kind == "mesh":
        g = cylindrical_mesh(args.rails, args.rings).graph
    elif args.kind == "annulus":
        mesh, _, cc, rails = mesh_nest(args.rails, args.rings)
        g = mesh.graph
        text = annulus_to_json(cc, rails)
    elif args.kind == "random":
        rng = random.Random(args.seed)
        g = Graph(args.n, [e for e in combinations(range(args.n), 2) if rng.random() < args.p])
        doc["seed"] = args.seed
    out.write_text(write_edge_list(g) if text is None else text)
    if args.kind == "gamma-hat":
        Path(doc["pattern"]).write_text(write_pattern(inst.pattern))
    doc.update(vertices=g.n, edges=g.m)
    _emit(doc)
    return 0


def _cmd_tw(args):
    g = _load_graph(args.graph)
    if args.certify is not None:
        certs = treewidth_certificates(g, args.certify)
        doc = {
            "n": args.certify,
            "value": certs.value,
            "grid_side": None if certs.lower_grid is None else certs.lower_grid.side,
            "bramble_sets": None
            if certs.lower_bramble is None
            else len(certs.lower_bramble.sets),
            "upper_width": certs.upper.width(),
        }
    else:
        width, _ = exact_treewidth(g)
        doc = {"width": width}
    _emit(doc)
    return 0


def _cmd_dp(args):
    g = _load_graph(args.graph)
    p = parse_pattern(_read(args.pattern))
    budget = Budget(args.max_nodes, "linkage search nodes")
    linkage = disjoint_paths(g, p, engine=args.engine, budget=budget)
    doc = {
        "found": linkage is not None,
        "linkage": None if linkage is None else [list(p) for p in linkage.paths],
    }
    _emit(doc)
    return 0


def _cmd_folio(args):
    g = _load_graph(args.graph)
    rg = RootedGraph.of(g, _vertex_list(g, args.roots))
    if args.engine == "oracle":
        folio = folio_bruteforce(rg, args.d)
    else:
        folio = folio_dp(rg, args.d, dp_decomposition(g))
    doc = {"roots": list(rg.roots), "d": args.d, "engine": args.engine,
           args.engine: folio_doc(folio)}
    _emit(doc)
    return 0


def _cmd_vital(args):
    g = _load_graph(args.graph)
    p = parse_pattern(_read(args.pattern))
    budget = Budget(args.max_nodes, "linkage search nodes")
    linkage = disjoint_paths(g, p, budget=budget)
    vital = linkage is not None and is_vital(g, linkage, budget=budget)
    doc = {
        "vital": vital,
        "linkage": None if linkage is None else [list(p) for p in linkage.paths],
    }
    _emit(doc)
    return 0 if vital else 1


def _cmd_reduce(args):
    g = _load_graph(args.graph)
    host = AnnotatedGraph.of(g, _vertex_list(g, args.annotated))
    _, trace = reduce(host, args.k, args.d, args.threshold)
    print(trace_to_json(trace))
    return {"met": 0, "stuck": 1, "capped": 3}[trace.status]


def _cmd_route(args):
    cc, rails = annulus_from_json(_read(args.annulus))
    p = parse_pattern(_read(args.pattern))
    router = route_disc if args.surface == "disc" else route_cylinder
    linkage = router(cc, list(rails), p)
    doc = {
        "surface": args.surface,
        "routed": linkage is not None,
        "linkage": None if linkage is None else [list(p) for p in linkage.paths],
    }
    _emit(doc)
    return 0


def _cmd_verify_hk(args):
    report = verify_hk_deletion(args.k, per_vertex=args.per_vertex)
    doc = dict(report)
    if "absent" in doc:
        doc["absent"] = list(doc["absent"])
    _emit(doc)
    return 0 if report["minor_present"] and report["per_vertex_absent"] else 1


def _cmd_bidim(args):
    g = _load_graph(args.graph)
    host = AnnotatedGraph.of(g, _vertex_list(g, args.annotated))
    doc = {"bidim": bidim(host, args.cap), "cap": args.cap}
    _emit(doc)
    return 0


# --- argument wiring -------------------------------------------------------------


def _int_from(lo):
    """An argparse type: an integer no smaller than lo."""

    def integer(text):
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"{value} is below {lo}")
        return value

    return integer


def _probability(text):
    value = float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"{value} is outside [0, 1]")
    return value


@functools.cache
def _build_parser():
    top = argparse.ArgumentParser(
        prog="minorkit", description="exact desk-scale graph-minor toolkit"
    )
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance")
    gen.add_argument(
        "kind",
        choices=["gamma-hat", "z", "grid", "wall", "mesh", "annulus", "random"],
    )
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument("--s", type=int, default=2)
    gen.add_argument("--n", type=int, default=8)
    gen.add_argument("--rows", type=int, default=3)
    gen.add_argument("--cols", type=int, default=3)
    gen.add_argument("--rails", type=int, default=4)
    gen.add_argument("--rings", type=int, default=4)
    gen.add_argument("--p", type=_probability, default=0.4)
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(fn=_cmd_gen)

    tw = sub.add_parser("tw", help="exact treewidth, optionally certified")
    tw.add_argument("--graph", required=True)
    tw.add_argument("--certify", type=_int_from(0), default=None)
    tw.set_defaults(fn=_cmd_tw)

    dp = sub.add_parser("dp", help="vertex-disjoint paths for a pattern")
    dp.add_argument("--graph", required=True)
    dp.add_argument("--pattern", required=True)
    dp.add_argument(
        "--engine",
        choices=["auto", "dfs"],
        default="auto",
        help="both values run the same linkage search; kept for old command lines",
    )
    dp.add_argument("--max-nodes", type=_int_from(1), default=NODE_BUDGET)
    dp.set_defaults(fn=_cmd_dp)

    folio = sub.add_parser("folio", help="folio of a rooted graph")
    folio.add_argument("--graph", required=True)
    folio.add_argument("--roots", required=True)
    folio.add_argument("--d", type=int, default=0)
    folio.add_argument("--engine", choices=["oracle", "dp"], default="oracle")
    folio.set_defaults(fn=_cmd_folio)

    vital = sub.add_parser("vital", help="find a linkage and check vitality")
    vital.add_argument("--graph", required=True)
    vital.add_argument("--pattern", required=True)
    vital.add_argument("--max-nodes", type=_int_from(1), default=NODE_BUDGET)
    vital.set_defaults(fn=_cmd_vital)

    red = sub.add_parser("reduce", help="certified irrelevant-vertex reduction")
    red.add_argument("--graph", required=True)
    red.add_argument("--annotated", default="")
    red.add_argument("--k", type=int, default=1)
    red.add_argument("--d", type=int, default=0)
    red.add_argument("--threshold", type=int, default=4)
    red.set_defaults(fn=_cmd_reduce)

    route = sub.add_parser("route", help="route a pattern on an annulus")
    route.add_argument("--annulus", required=True)
    route.add_argument("--pattern", required=True)
    route.add_argument("--surface", choices=["disc", "cylinder"], default="disc")
    route.set_defaults(fn=_cmd_route)

    hk = sub.add_parser("verify-hk", help="target-minor deletion experiment")
    hk.add_argument("--k", type=int, default=2)
    hk.add_argument("--per-vertex", action="store_true")
    hk.set_defaults(fn=_cmd_verify_hk)

    bd = sub.add_parser("bidim", help="bidimensionality up to a cap")
    bd.add_argument("--graph", required=True)
    bd.add_argument("--annotated", default="")
    bd.add_argument("--cap", type=_int_from(0), default=3)
    bd.set_defaults(fn=_cmd_bidim)

    return top


def run(argv):
    """Parse and dispatch; raises package errors instead of exiting.

    The parser is built once per process and reused: parsing keeps no
    state in it, and the defaults it holds are bound at import."""
    args = _build_parser().parse_args(argv)
    return args.fn(args)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except FileNotFoundError as exc:
        _emit({"error": str(exc)})
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceeded, SearchCapExceeded) as exc:
        _emit({"error": str(exc)})
        print(f"budget: {exc}", file=sys.stderr)
        return 3
    except MinorkitError as exc:
        _emit({"error": str(exc)})
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

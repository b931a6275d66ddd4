"""Program set-up and the four job lists.

A job is one in-process call: `minorkit.cli.main` with the argv a user
would type where a subcommand covers the job, otherwise the public library
function. Each job carries a `spec` of plain data (vertex counts, edge
lists, parameters) from which the checkers rebuild the instance without
the program's help.

Every list is drawn once from the seed and has the same slots for every
seed: the slot fixes the kind and size of an instance, the seed fixes its
vertex numbering and its random parts. That keeps the cost of a list
close to the same from seed to seed.
"""

import contextlib
import importlib
import io
import itertools
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

MODULES = (
    "graphs",
    "minors",
    "decomposition",
    "linkages",
    "folios",
    "plane",
    "wells",
    "routing",
    "constructions",
    "pipeline",
    "cli",
)

WORKLOADS = ("reduce", "folio", "search", "surface")



@dataclass
class Job:
    name: str
    kind: str
    run: object  # zero-argument callable returning the job's output
    spec: dict = field(default_factory=dict)
    codes: tuple = (0,)  # exit codes that count as an answer, for cli jobs


def load_program():
    """Import minorkit afresh, so that set-up pays the import and starts
    with the program's caches empty. Returns {module name: module}."""
    for name in [m for m in sys.modules if m == "minorkit" or m.startswith("minorkit.")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"minorkit.{name}") for name in MODULES}


def _cli(mk, argv):
    """`minorkit.cli.main(argv)` with its output captured. The function is
    looked up at call time, so the traced run sees its wrapper."""
    cli = mk["cli"]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    return run


def _call(module, name, *args):
    """A library call, looked up at call time like `_cli`."""
    return lambda: getattr(module, name)(*args)


def _relabel(n, edges, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def _grid_edges(r, c):
    out = []
    for i in range(r):
        for j in range(c):
            v = i * c + j
            if j + 1 < c:
                out.append((v, v + 1))
            if i + 1 < r:
                out.append((v, v + c))
    return out


def _wall_edges(mk, n):
    g = mk["constructions"].wall(n).graph
    return g.n, sorted(g.edges)


def _complete_edges(t):
    return list(itertools.combinations(range(t), 2))


def _random_edges(rng, n, m):
    """A connected graph on n vertices with m edges: a random spanning
    tree plus random extra edges."""
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    rest = [e for e in itertools.combinations(range(n), 2) if e not in edges]
    edges.update(rng.sample(rest, m - len(edges)))
    return sorted(edges)


def _partial_3tree(rng, n, extra_drop):
    """A connected graph of treewidth at most 3: a random 3-tree on n
    vertices with `extra_drop` edges removed where connectivity allows."""
    edges = {(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)}
    cliques = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    for v in range(4, n):
        base = rng.choice(cliques)
        for u in base:
            edges.add((u, v))
        for pair in itertools.combinations(base, 2):
            cliques.append(pair + (v,))
    edges = sorted(edges)
    rng.shuffle(edges)
    kept = list(edges)
    for e in edges:
        if extra_drop == 0:
            break
        trial = [f for f in kept if f != e]
        if _connected(n, trial):
            kept = trial
            extra_drop -= 1
    return sorted(kept)


def _connected(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


class Inputs:
    """Writes input files for the cli jobs into a work directory."""

    def __init__(self, mk, workdir):
        self.mk = mk
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def _path(self, suffix):
        self.count += 1
        return str(self.dir / f"in{self.count}{suffix}")

    def graph(self, n, edges):
        path = self._path(".edg")
        g = self.mk["graphs"].Graph(n, edges)
        Path(path).write_text(self.mk["graphs"].write_edge_list(g))
        return path

    def pattern(self, pairs):
        path = self._path(".pat")
        p = self.mk["linkages"].Pattern.of(pairs)
        Path(path).write_text(self.mk["linkages"].write_pattern(p))
        return path

    def annulus(self, cc, rails):
        path = self._path(".json")
        Path(path).write_text(self.mk["routing"].annulus_to_json(cc, rails))
        return path


def _shape_rng(kind, slot):
    """For the kinds whose cost hangs on the host's shape (blob hosts for
    exact treewidth, folio hosts for the DP) the slot fixes the shape and
    the seed renumbers it. Drawing whole new shapes per seed makes a list's
    cost swing by a quarter from seed to seed."""
    return random.Random(f"{kind}:{slot}")


def _csv(vs):
    return ",".join(str(v) for v in vs)


# --- reduce ----------------------------------------------------------------------

# The reduce list falls into four cost groups of kinds whose cost varies
# little with the numbering, so that its median and tail are steady: cheap
# jobs (dense hosts, 10-vertex blobs, small cycle-cliques), a middle group
# at about 80 ms where the median falls, eight cycle-cliques at about
# 145 ms where the tail falls, and eight 12-vertex blobs at about 195 ms
# above it. A group holds a few more jobs than its rank needs, so that a
# cheap job that turns out slow on some seed moves the tail within the
# group rather than into the next one.

# (cycle length, clique order, annotated count, d, k, threshold, count):
# the oracle rule does the deletions
_CYCLE_CLIQUE = [
    (4, 7, 2, 2, 2, 3, 1), (6, 6, 3, 2, 1, 3, 1), (5, 6, 2, 3, 1, 3, 1), (5, 7, 2, 2, 1, 3, 1),
    (4, 7, 3, 2, 1, 4, 1), (5, 7, 2, 2, 2, 4, 1), (6, 6, 2, 2, 2, 3, 1), (5, 7, 3, 3, 1, 4, 1),
    (5, 7, 2, 3, 1, 4, 1), (5, 6, 3, 2, 2, 3, 1), (4, 8, 3, 2, 2, 5, 4), (5, 7, 3, 2, 2, 4, 4),
]
# (vertices, edges, threshold, count): two annotated vertices at d = 1, so
# the clique rule needs order 9 and exact treewidth carries the rounds
_BLOB = [(10, 25, 3, 2), (11, 27, 3, 9), (12, 34, 3, 8)]
# (vertices, edges, threshold): one annotated vertex at d = 1, so the
# clique rule needs order 6 and falls back to find_minor
_DENSE = [
    (9, 24, 4), (9, 26, 4), (9, 25, 4), (9, 27, 4), (9, 23, 4), (9, 26, 4), (9, 24, 4),
    (9, 25, 4),
]


def _reduce_jobs(mk, rng, files):
    jobs = []

    def add(label, n, edges, annotated, k, d, threshold):
        path = files.graph(n, edges)
        argv = ["reduce", "--graph", path, "--annotated", _csv(annotated),
                "--k", str(k), "--d", str(d), "--threshold", str(threshold)]
        spec = dict(n=n, edges=edges, annotated=sorted(annotated), k=k, d=d,
                    threshold=threshold)
        jobs.append(Job(f"reduce-{label}-{len(jobs)}", "reduce", _cli(mk, argv),
                        spec, codes=(0, 1)))

    for c, b, na, d, k, thr, count in _CYCLE_CLIQUE:
        for _ in range(count):
            n = c + b - 1
            edges = [(i, (i + 1) % c) for i in range(c)]
            edges += list(itertools.combinations(range(c - 1, n), 2))
            ann = rng.sample(range(c - 1), na)
            perm, edges = _relabel(n, edges, rng)
            add("cycle-clique", n, edges, [perm[a] for a in ann], k, d, thr)
    for n, m, thr, count in _BLOB:
        for i in range(count):
            shape = _shape_rng(f"blob:{n},{m},{thr}", i)
            perm, edges = _relabel(n, _random_edges(shape, n, m), rng)
            add("blob", n, edges, rng.sample(range(n), 2), 1, 1, thr)
    for n, m, thr in _DENSE:
        add("dense", n, _random_edges(rng, n, m), [rng.randrange(n)], 1, 1, thr)
    for k in (1, 2):
        for d in (0, 1, 2, 3):
            mk["folios"].candidate_patterns(k, d)
    return jobs


# --- folio -----------------------------------------------------------------------

# (host kind, size parameters, d, count), two roots each. The list falls
# into three cost groups, each made mostly of kinds whose DP cost varies
# least with the numbering: cheap d = 1 jobs, a middle group at 35-50 ms
# (mostly 2 x 5 grids at d = 1, and 2 x 3 grids at d = 2) where the median
# falls, and a top group at 100-200 ms (mostly 2 x 6 grids at d = 1) where
# the tail falls. Larger hosts at d = 2 cost more but swing by half with
# the numbering.
_FOLIO = [
    ("grid", (2, 4), 1, 3), ("random", (7, 8), 1, 3), ("tree3", (7, 3), 1, 2),
    ("random", (9, 12), 1, 3), ("random", (11, 12), 1, 3), ("random", (10, 13), 1, 3),
    ("wall", 2, 1, 2), ("random", (9, 10), 1, 1),
    ("grid", (2, 5), 1, 12), ("tree3", (10, 5), 1, 2), ("grid", (2, 3), 2, 2),
    ("grid", (2, 6), 1, 14), ("tree3", (12, 6), 1, 2),
]


def _folio_jobs(mk, rng, files):
    jobs = []
    slots = [(kind, size, d) for kind, size, d, count in _FOLIO for _ in range(count)]
    for i, (kind, size, d) in enumerate(slots):
        shape = _shape_rng("folio", i)
        if kind == "grid":
            n, edges = size[0] * size[1], _grid_edges(*size)
        elif kind == "wall":
            n, edges = _wall_edges(mk, size)
        elif kind == "tree3":
            n, edges = size[0], _partial_3tree(shape, size[0], size[1])
        else:
            n, edges = size[0], _random_edges(shape, *size)
        roots = shape.sample(range(n), 2)
        perm, edges = _relabel(n, edges, rng)
        roots = [perm[r] for r in roots]
        path = files.graph(n, edges)
        argv = ["folio", "--graph", path, "--roots", _csv(roots), "--d", str(d),
                "--engine", "dp"]
        spec = dict(n=n, edges=edges, roots=roots, d=d)
        jobs.append(Job(f"folio-{kind}-{i}", "folio", _cli(mk, argv), spec))
    for d in (1, 2):
        mk["folios"].candidate_patterns(2, d)
    return jobs


# --- search ----------------------------------------------------------------------


def _k33_edges():
    return [(a, b) for a in range(3) for b in range(3, 6)]


def _search_jobs(mk, rng, files):
    Graph = mk["graphs"].Graph
    jobs = []

    patterns = {
        "K4": (4, _complete_edges(4)),
        "K5": (5, _complete_edges(5)),
        "K33": (6, _k33_edges()),
        "G22": (4, _grid_edges(2, 2)),
        "G23": (6, _grid_edges(2, 3)),
        "G33": (9, _grid_edges(3, 3)),
    }

    def host(kind, size):
        if kind == "grid":
            return size[0] * size[1], _grid_edges(*size)
        return _wall_edges(mk, size)

    # The mix is laid out so that the median falls among the canonical-code
    # jobs and the tail among the crossing pairs below, the two groups
    # whose cost least depends on the seed.
    minor_slots = [
        # yes
        ("K4", "grid", (3, 3)), ("G23", "grid", (3, 3)), ("G22", "wall", 3),
        ("G23", "grid", (2, 6)), ("G22", "wall", 2),
        # no
        ("K5", "grid", (3, 4)), ("K33", "grid", (3, 4)), ("K4", "grid", (2, 6)),
        ("K33", "grid", (2, 6)), ("G33", "grid", (2, 6)),
        ("K4", "grid", (2, 5)), ("K4", "grid", (2, 5)), ("K33", "wall", 2),
        ("K33", "wall", 2),
    ]
    for pname, kind, size in minor_slots:
        n, edges = host(kind, size)
        _, edges = _relabel(n, edges, rng)
        pn, pedges = patterns[pname]
        spec = dict(n=n, edges=edges, pattern=pname, pn=pn, pedges=pedges)
        run = _call(mk["minors"], "find_minor", Graph(n, edges), Graph(pn, pedges))
        jobs.append(Job(f"minor-{pname}-{kind}-{len(jobs)}", "minor", run, spec))

    # disjoint paths between grid corners: parallel pairs link, crossing
    # pairs on the outer face cannot. The eight crossing pairs on a 4 x 4
    # grid with the default engine are the group the tail falls in.
    for (r, c), shape, engine in [
        ((3, 3), "parallel", "auto"), ((3, 3), "parallel", "dfs"),
        ((4, 4), "parallel", "auto"), ((4, 4), "parallel", "dfs"),
        ((3, 4), "crossing", "auto"), ((3, 4), "crossing", "dfs"),
        ((4, 4), "crossing", "dfs"), ((4, 5), "crossing", "auto"),
        ((5, 5), "crossing", "dfs"),
    ] + [((4, 4), "crossing", "auto")] * 8:
        n = r * c
        perm, edges = _relabel(n, _grid_edges(r, c), rng)
        tl, tr, bl, br = 0, c - 1, n - c, n - 1
        pairs = [(tl, tr), (bl, br)] if shape == "parallel" else [(tl, br), (tr, bl)]
        pairs = [(perm[a], perm[b]) for a, b in pairs]
        argv = ["dp", "--graph", files.graph(n, edges), "--pattern", files.pattern(pairs),
                "--engine", engine]
        spec = dict(n=n, edges=edges, rows=r, cols=c, perm=perm, pairs=pairs, shape=shape)
        jobs.append(Job(f"dp-{shape}-{engine}-{r}x{c}-{len(jobs)}", "dp", _cli(mk, argv), spec))

    inst = mk["constructions"].gamma_hat(2)
    for _ in range(2):
        perm, edges = _relabel(inst.graph.n, sorted(inst.graph.edges), rng)
        pairs = [(perm[a], perm[b]) for a, b in inst.pattern.pairs]
        argv = ["vital", "--graph", files.graph(inst.graph.n, edges),
                "--pattern", files.pattern(pairs)]
        spec = dict(n=inst.graph.n, edges=edges, pairs=pairs)
        jobs.append(Job(f"vital-gamma2-{len(jobs)}", "vital", _cli(mk, argv), spec,
                        codes=(0, 1)))

    for side, annotated in [(2, None), (3, None), (4, 8)]:
        n = side * side
        perm, edges = _relabel(n, _grid_edges(side, side), rng)
        red = list(range(n)) if annotated is None else rng.sample(range(n), annotated)
        cap = side + 1 if annotated is None else 3
        argv = ["bidim", "--graph", files.graph(n, edges), "--annotated", _csv(red),
                "--cap", str(cap)]
        spec = dict(n=n, edges=edges, annotated=red, cap=cap, side=side,
                    full=annotated is None)
        jobs.append(Job(f"bidim-{side}-{len(jobs)}", "bidim", _cli(mk, argv), spec))

    jobs.append(Job("verify-hk-2", "verify-hk", _cli(mk, ["verify-hk", "--k", "2"]),
                    dict(k=2), codes=(0, 1)))

    fam = mk["constructions"].regular_gadgets(2)
    RootedGraph = mk["graphs"].RootedGraph
    for copy in range(16):
        for gi, gadget in enumerate(fam.members[: 1 if copy >= 3 else 2]):
            _, edges = _relabel(gadget.n, sorted(gadget.edges), rng)
            run = _call(mk["minors"], "canonical_code", RootedGraph(Graph(gadget.n, edges), ()))
            spec = dict(n=gadget.n, edges=edges, gadget=gi)
            jobs.append(Job(f"canon-gadget{gi}-{copy}", "canon", run, spec))
    return jobs


# --- surface ---------------------------------------------------------------------


def _matchings(items):
    if not items:
        yield []
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1:]
        for m in _matchings(rest):
            yield [(first, items[i])] + m


def _surface_jobs(mk, rng, files):
    plane, wells = mk["plane"], mk["wells"]
    jobs = []

    def tighten_job(n, m):
        def run():
            _, _, cc, _ = plane.mesh_nest(n, m)
            return plane.tighten(cc)
        return run

    for n, m in [(12, 12), (14, 14), (16, 16), (16, 12), (13, 15), (15, 13), (14, 10),
                 (16, 14), (12, 16), (14, 12), (13, 13), (15, 15), (12, 14), (14, 16)]:
        mesh = mk["constructions"].cylindrical_mesh(n, m)
        spec = dict(n=mesh.graph.n, edges=sorted(mesh.graph.edges),
                    cycles=[list(c) for c in mesh.cycles])
        jobs.append(Job(f"tighten-{n}x{m}-{len(jobs)}", "tighten", tighten_job(n, m), spec))

    # 184- and 186-vertex meshes alike, so that these jobs, among which the
    # median falls, cost about the same
    for k, rings in [(2, 46), (3, 31)] * 7:
        mesh, _, cc, rails = plane.mesh_nest(2 * k, rings)
        terms = [r[0] for r in rails]
        pairs = rng.choice(list(_matchings(terms)))
        argv = ["route", "--annulus", files.annulus(cc, rails), "--pattern",
                files.pattern(pairs), "--surface", "disc"]
        spec = dict(n=mesh.graph.n, edges=sorted(mesh.graph.edges), pairs=pairs,
                    boundary=terms, surface="disc")
        jobs.append(Job(f"route-disc-{k}-{len(jobs)}", "route", _cli(mk, argv), spec))

    for k, extra in [(1, 2), (1, 4), (2, 0), (2, 1), (2, 2), (2, 2), (1, 6), (2, 1), (2, 0),
                     (2, 2)]:
        mesh, _, cc, rails = plane.mesh_nest(2 * k, 2 * k + extra)
        terms = [rails[i][rng.choice((0, -1))] for i in range(2 * k)]
        pairs = rng.choice(list(_matchings(terms)))
        argv = ["route", "--annulus", files.annulus(cc, rails), "--pattern",
                files.pattern(pairs), "--surface", "cylinder"]
        spec = dict(n=mesh.graph.n, edges=sorted(mesh.graph.edges), pairs=pairs,
                    surface="cylinder")
        jobs.append(Job(f"route-cylinder-{k}-{len(jobs)}", "route", _cli(mk, argv), spec))

    for i in range(10):
        w = wells.random_well(rng, n_rails=rng.randrange(8, 11), n_rings=rng.randrange(4, 6))
        op = "drain" if i % 2 == 0 else "dry"
        spec = dict(n=w.plane.graph.n, edges=sorted(w.plane.graph.edges),
                    paths=[list(p) for p in w.paths], union=len(w.union_edges), op=op)
        jobs.append(Job(f"well-{op}-{len(jobs)}", "well", _call(wells, op, w), spec))
    return jobs


BUILDERS = {
    "reduce": _reduce_jobs,
    "folio": _folio_jobs,
    "search": _search_jobs,
    "surface": _surface_jobs,
}


def build(workload, seed, workdir):
    """Import the program, draw the job list for the seed, write the input
    files and warm the program's caches. Returns (modules, jobs)."""
    mk = load_program()
    rng = random.Random(f"{workload}:{seed}")
    jobs = BUILDERS[workload](mk, rng, Inputs(mk, workdir))
    # Spread each group of like jobs over the round, so that one kernel
    # reading that happens to be off does not skew the whole group.
    rng.shuffle(jobs)
    return mk, jobs

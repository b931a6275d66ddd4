"""Answer checks, made apart from the engine each job times.

Models, linkages and routed paths are validated here from the job's plain
data. A "no" answer passes only where a known fact proves it: planarity
(from networkx) rules out K5 and K3,3, treewidth at most 2 rules out K4,
treewidth below k rules out the k-by-k grid, crossing corner pairs on a
grid's outer face cannot be linked, and disc routing fails exactly when
two pairs interleave along the boundary. Treewidth is bracketed by a
networkx min-fill-in upper bound and a minor-min-width lower bound.

Each check returns None when the answer holds and a message when not.
"""

import itertools
import json
import math

import networkx as nx
from networkx.algorithms.approximation import treewidth_min_fill_in

# --- independent primitives ---------------------------------------------------


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _connected_within(vertices, adj):
    vertices = set(vertices)
    if not vertices:
        return False
    start = next(iter(vertices))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w in vertices and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vertices


def model_error(n, edges, pn, pedges, branch_sets, roots=(), red=None):
    """Validate a minor model: one non-empty connected branch set per
    pattern vertex, pairwise disjoint, a host edge for every pattern edge.
    roots: (host vertex, pattern vertex) pairs that must hold; red: a set
    every branch set must meet."""
    adj = adjacency(n, edges)
    if len(branch_sets) != pn:
        return f"{len(branch_sets)} branch sets for {pn} pattern vertices"
    used = set()
    for p, bset in enumerate(branch_sets):
        bset = set(bset)
        if not bset or not all(0 <= v < n for v in bset):
            return f"branch set {p} is empty or leaves the host"
        if used & bset:
            return f"branch set {p} overlaps another"
        used |= bset
        if not _connected_within(bset, adj):
            return f"branch set {p} is not connected"
        if red is not None and not bset & set(red):
            return f"branch set {p} misses the annotated set"
    for a, b in pedges:
        if not any(adj[u] & set(branch_sets[b]) for u in branch_sets[a]):
            return f"pattern edge ({a},{b}) has no host edge"
    for host_v, p in roots:
        if host_v not in set(branch_sets[p]):
            return f"root {host_v} is not in branch set {p}"
    return None


def paths_error(n, edges, paths, pairs):
    """Validate a linkage: simple host paths, pairwise disjoint, joining
    exactly the given pairs."""
    adj = adjacency(n, edges)
    seen = set()
    for path in paths:
        if not path or len(set(path)) != len(path):
            return f"path {path} is empty or not simple"
        if seen & set(path):
            return f"path {path} meets another path"
        seen |= set(path)
        for a, b in zip(path, path[1:]):
            if b not in adj[a]:
                return f"path edge ({a},{b}) is not in the host"
    got = sorted(tuple(sorted((p[0], p[-1]))) for p in paths)
    want = sorted(tuple(sorted(pair)) for pair in pairs)
    if got != want:
        return f"paths join {got}, pattern asks {want}"
    return None


def rooted_key(n, edges, roots):
    """Canonical key of a small rooted graph by trying every numbering;
    roots are matched by position."""
    best = None
    for perm in itertools.permutations(range(n)):
        key = (
            tuple(perm[r] for r in roots),
            tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)),
        )
        if best is None or key < best:
            best = key
    return (n,) + best


def one_step_minors(n, edges, roots):
    """Rooted graphs one deletion or contraction away: drop an edge, drop
    a vertex holding no root, or contract an edge."""
    out = []
    edges = [tuple(e) for e in edges]
    for e in edges:
        out.append((n, [f for f in edges if f != e], list(roots)))
    for v in range(n):
        if v in roots:
            continue
        out.append(_remove(n, edges, roots, v))
    for u, v in edges:
        # merge v into u, then drop v
        merged = set()
        for a, b in edges:
            a, b = (u if a == v else a), (u if b == v else b)
            if a != b:
                merged.add((min(a, b), max(a, b)))
        rts = [u if r == v else r for r in roots]
        out.append(_remove(n, sorted(merged), rts, v))
    return out


def _remove(n, edges, roots, v):
    ren = {w: i for i, w in enumerate(w for w in range(n) if w != v)}
    return (
        n - 1,
        [(ren[a], ren[b]) for a, b in edges if v not in (a, b)],
        [ren[r] for r in roots],
    )


def nx_graph(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def tw_upper(n, edges):
    if not edges:
        return 0 if n else -1
    width, _ = treewidth_min_fill_in(nx_graph(n, edges))
    return width


def tw_lower(n, edges):
    """Minor-min-width: contract a minimum-degree vertex into its
    neighbour with fewest common neighbours; the largest minimum degree
    seen bounds the treewidth from below."""
    adj = {v: set(nbrs) for v, nbrs in enumerate(adjacency(n, edges))}
    best = 0 if n else -1
    while len(adj) > 1:
        v = min(adj, key=lambda x: (len(adj[x]), x))
        best = max(best, len(adj[v]))
        if not adj[v]:
            del adj[v]
            continue
        u = min(adj[v], key=lambda w: (len(adj[v] & adj[w]), w))
        for w in adj.pop(v):
            adj[w].discard(v)
            if w != u:
                adj[w].add(u)
                adj[u].add(w)
    return best


def interleaved(pairs, order):
    """Do two pairs cross along a cyclic boundary order?"""
    pos = {v: i for i, v in enumerate(order)}
    for (a, b), (c, d) in itertools.combinations(pairs, 2):
        lo, hi = sorted((pos[a], pos[b]))
        if (lo < pos[c] < hi) != (lo < pos[d] < hi):
            return True
    return False


def grid_edges(rows, cols):
    """Edges of the rows-by-cols grid, row-major numbering."""
    return [(a[0] * cols + a[1], b[0] * cols + b[1])
            for a, b in nx.grid_2d_graph(rows, cols).edges]


def grid_boundary(rows, cols):
    """The outer cycle of the rows-by-cols grid, row-major numbering."""
    top = [c for c in range(cols)]
    right = [r * cols + cols - 1 for r in range(1, rows)]
    bottom = [(rows - 1) * cols + c for c in range(cols - 2, -1, -1)]
    left = [r * cols for r in range(rows - 2, 0, -1)]
    return top + right + bottom + left


# --- per-kind checks ------------------------------------------------------------


def _cli_doc(out):
    code, text = out
    return code, json.loads(text)


def check_reduce(mk, spec, out):
    code, text = out
    pipeline, graphs, folios = mk["pipeline"], mk["graphs"], mk["folios"]
    trace = pipeline.trace_from_json(text)
    host = graphs.AnnotatedGraph.of(graphs.Graph(spec["n"], spec["edges"]), spec["annotated"])
    if code != (0 if trace.status == "met" else 1):
        return f"exit code {code} with status {trace.status}"
    if any(v in spec["annotated"] for v, _ in trace.deletions):
        return "an annotated vertex was deleted"
    try:
        final = pipeline.replay_trace(host, trace)
    except mk["graphs"].PreconditionViolated:
        return "the trace does not replay to its final graph"
    fn, fe = final.graph.n, sorted(final.graph.edges)
    lo, hi = tw_lower(fn, fe), tw_upper(fn, fe)
    if not lo <= trace.final_width <= hi:
        return f"width {trace.final_width} outside [{lo}, {hi}]"
    if (trace.final_width <= spec["threshold"]) != (trace.status == "met"):
        return f"status {trace.status} disagrees with width {trace.final_width}"
    # deletion must keep the d-folio of every root tuple drawn from the
    # annotated set; the survivor keeps the annotated vertices' numbering
    # order, so tuples map by rank
    before_rank = sorted(host.annotated)
    after_rank = sorted(final.annotated)
    for tup in itertools.product(range(len(before_rank)), repeat=spec["k"]):
        a = folios.folio_bruteforce(
            graphs.RootedGraph.of(host.graph, [before_rank[i] for i in tup]), spec["d"])
        b = folios.folio_bruteforce(
            graphs.RootedGraph.of(final.graph, [after_rank[i] for i in tup]), spec["d"])
        if a.codes() != b.codes():
            return f"the folio of root tuple {tup} changed"
    return None


def check_folio(mk, spec, out):
    code, doc = _cli_doc(out)
    if code != 0:
        return f"exit code {code}"
    graphs, folios, minors = mk["graphs"], mk["folios"], mk["minors"]
    n, edges, roots, d = spec["n"], spec["edges"], spec["roots"], spec["d"]
    host = graphs.RootedGraph.of(graphs.Graph(n, edges), roots)
    members = doc["dp"]["members"]
    keys = set()
    for m in members:
        pn, pedges, proots = m["vertices"], [tuple(e) for e in m["edges"]], m["root_map"]
        if max(pn - len(set(proots)), len(pedges)) > d:
            return f"member {m['code']} exceeds detail {d}"
        pattern = graphs.RootedGraph.of(graphs.Graph(pn, pedges), proots)
        model = minors.find_rooted_minor(host, pattern)
        if model is None:
            return f"member {m['code']} has no rooted model"
        err = model_error(n, edges, pn, pedges, model.branch_sets,
                          roots=list(zip(roots, proots)))
        if err:
            return f"member {m['code']}: {err}"
        keys.add(rooted_key(pn, pedges, proots))
    oracle = folios.folio_bruteforce(host, d)
    want = {rooted_key(e.form.graph.n, sorted(e.form.graph.edges), e.form.roots)
            for e in oracle.entries}
    if keys != want:
        return f"dp folio has {len(keys)} members, oracle {len(want)}, not the same"
    for m in members:
        for sub in one_step_minors(m["vertices"], m["edges"], m["root_map"]):
            if rooted_key(*sub) not in keys:
                return f"folio not downward closed below {m['code']}"
    return None


def _absence_fact(spec):
    """A known reason why the pattern is not a minor of the host, or None."""
    n, edges, name = spec["n"], spec["edges"], spec["pattern"]
    if name in ("K5", "K33"):
        planar, _ = nx.check_planarity(nx_graph(n, edges))
        return "host is planar" if planar else None
    if name == "K4":
        return "host has treewidth at most 2" if tw_upper(n, edges) <= 2 else None
    if name.startswith("G") and name[1] == name[2]:
        side = int(name[1])
        return f"host has treewidth under {side}" if tw_upper(n, edges) < side else None
    return None


def check_minor(mk, spec, out):
    if out is None:
        return None if _absence_fact(spec) else f"{spec['pattern']} reported absent, no fact shows it"
    return model_error(spec["n"], spec["edges"], spec["pn"], spec["pedges"], out.branch_sets)


def check_dp(mk, spec, out):
    code, doc = _cli_doc(out)
    if code != 0:
        return f"exit code {code}"
    if doc["found"]:
        return paths_error(spec["n"], spec["edges"], doc["linkage"], spec["pairs"])
    rows, cols, perm = spec["rows"], spec["cols"], spec["perm"]
    relabelled = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in grid_edges(rows, cols))
    if relabelled != sorted(tuple(e) for e in spec["edges"]):
        return "host is not the relabelled grid"
    boundary = [perm[v] for v in grid_boundary(rows, cols)]
    pairs = [tuple(p) for p in spec["pairs"]]
    if all(a in boundary and b in boundary for a, b in pairs) and interleaved(pairs, boundary):
        return None
    return "reported unlinkable, but the pairs do not cross on the outer face"


def _all_linkages(n, edges, pairs):
    g = nx_graph(n, edges)
    (s1, t1), (s2, t2) = pairs
    out = []
    for p in nx.all_simple_paths(g, s1, t1):
        rest = g.subgraph(set(g.nodes) - set(p))
        if s2 in rest and t2 in rest:
            out.extend((tuple(p), tuple(q)) for q in nx.all_simple_paths(rest, s2, t2))
    return out


def check_vital(mk, spec, out):
    code, doc = _cli_doc(out)
    if code != (0 if doc["vital"] else 1):
        return f"exit code {code} with vital={doc['vital']}"
    linkages = _all_linkages(spec["n"], spec["edges"], spec["pairs"])
    if doc["linkage"] is None:
        return "linkage reported absent" if linkages else None
    err = paths_error(spec["n"], spec["edges"], doc["linkage"], spec["pairs"])
    if err:
        return err
    vital = len(linkages) == 1 and sum(len(p) for p in linkages[0]) == spec["n"]
    return None if doc["vital"] == vital else f"vital={doc['vital']}, enumeration says {vital}"


def check_bidim(mk, spec, out):
    code, doc = _cli_doc(out)
    if code != 0:
        return f"exit code {code}"
    b, red = doc["bidim"], spec["annotated"]
    if spec["full"] and b != spec["side"]:
        return f"fully annotated {spec['side']}-grid reported bidimensionality {b}"
    if b > math.isqrt(len(red)) or b > spec["cap"]:
        return f"bidimensionality {b} above sqrt(|R|) = {math.isqrt(len(red))}"
    if b:
        graphs, minors = mk["graphs"], mk["minors"]
        pedges = grid_edges(b, b)
        host = graphs.AnnotatedGraph.of(graphs.Graph(spec["n"], spec["edges"]), red)
        model = minors.find_red_minor(host, graphs.Graph(b * b, pedges),
                                      pattern_cap=max(12, b * b))
        if model is None:
            return f"no annotated {b}-grid model"
        return model_error(spec["n"], spec["edges"], b * b, pedges,
                           model.branch_sets, red=set(red))
    return None


def check_verify_hk(mk, spec, out):
    code, doc = _cli_doc(out)
    if not (code == 0 and doc["minor_present"] and doc["per_vertex_absent"]):
        return f"verify-hk reported {doc} with exit code {code}"
    return None


def check_tighten(mk, spec, out):
    adj = adjacency(spec["n"], spec["edges"])
    cycles = [tuple(c) for c in out.cycles]
    if len(cycles) != len(spec["cycles"]):
        return "tighten changed the number of cycles"
    seen = set()
    for cyc, old in zip(cycles, spec["cycles"]):
        if len(cyc) < 3 or len(set(cyc)) != len(cyc) or seen & set(cyc):
            return f"cycle {cyc} is not simple or meets another"
        seen |= set(cyc)
        if any(cyc[i - 1] not in adj[cyc[i]] for i in range(len(cyc))):
            return f"cycle {cyc} leaves the mesh"
        if len(cyc) > len(old):
            return "tighten lengthened a cycle"
    return None


def check_route(mk, spec, out):
    code, doc = _cli_doc(out)
    if code != 0:
        return f"exit code {code}"
    pairs = [tuple(p) for p in spec["pairs"]]
    if spec["surface"] == "disc":
        want = not interleaved(pairs, spec["boundary"])
    else:
        linkages, graphs = mk["linkages"], mk["graphs"]
        found = linkages.disjoint_paths(graphs.Graph(spec["n"], spec["edges"]),
                                        linkages.Pattern.of(pairs), engine="dfs")
        want = found is not None
    if doc["routed"] != want:
        return f"routed={doc['routed']}, expected {want}"
    if doc["routed"]:
        return paths_error(spec["n"], spec["edges"], doc["linkage"], pairs)
    return None


def check_well(mk, spec, out):
    old, new = spec["paths"], [list(p) for p in out.paths]
    if len(new) != len(old):
        return "path count changed"
    ends = sorted(tuple(sorted((p[0], p[-1]))) for p in new)
    if ends != sorted(tuple(sorted((p[0], p[-1]))) for p in old):
        return "path endpoints changed"
    adj = adjacency(spec["n"], spec["edges"])
    union = set()
    inner_seen = set()
    for p in new:
        if len(set(p)) != len(p) or inner_seen & set(p[1:-1]):
            return f"path {p} is not simple or meets another inside"
        inner_seen |= set(p[1:-1])
        for a, b in zip(p, p[1:]):
            if b not in adj[a]:
                return f"path edge ({a},{b}) is not in the host"
            union.add((min(a, b), max(a, b)))
    for cyc in out.cycles:
        for i in range(len(cyc)):
            a, b = cyc[i - 1], cyc[i]
            union.add((min(a, b), max(a, b)))
    if len(union) > spec["union"]:
        return f"union grew from {spec['union']} to {len(union)} edges"
    return None


CHECKS = {
    "reduce": check_reduce,
    "folio": check_folio,
    "minor": check_minor,
    "dp": check_dp,
    "vital": check_vital,
    "bidim": check_bidim,
    "verify-hk": check_verify_hk,
    "tighten": check_tighten,
    "route": check_route,
    "well": check_well,
}


def check_canon_group(answers):
    """answers: [(spec, code)] for canonical codes of relabelled gadgets.
    Copies of one gadget must share a code; different gadgets must differ,
    and networkx must agree that they are not isomorphic."""
    by_gadget = {}
    for spec, code in answers:
        by_gadget.setdefault(spec["gadget"], []).append((spec, code))
    firsts = []
    for gadget, items in sorted(by_gadget.items()):
        if len({code for _, code in items}) != 1:
            return f"copies of gadget {gadget} got different codes"
        firsts.append(items[0])
    for (sa, ca), (sb, cb) in itertools.combinations(firsts, 2):
        iso = nx.is_isomorphic(nx_graph(sa["n"], sa["edges"]), nx_graph(sb["n"], sb["edges"]))
        if iso or ca == cb:
            return f"gadgets {sa['gadget']} and {sb['gadget']}: equal codes or isomorphic"
    return None


def check_all(mk, jobs, outputs):
    """Check the first answer of every job. Returns a list of
    (job name, message) for the answers that fail."""
    bad = []
    canon = []
    for job, out in zip(jobs, outputs):
        if job.kind == "canon":
            canon.append((job.spec, out))
            continue
        try:
            err = CHECKS[job.kind](mk, job.spec, out)
        except Exception as exc:  # a malformed answer is a failed check
            err = f"checker raised {type(exc).__name__}: {exc}"
        if err:
            bad.append((job.name, err))
    if canon:
        err = check_canon_group(canon)
        if err:
            bad.append(("canon", err))
    return bad

"""Deterministic generators for structured instances.

Grids, walls, cylindrical meshes, the chorded-grid linkage instances with
their terminal pairings and witness linkages, the top-chorded strip graphs
with their marked centre vertices, exhaustively generated families of
connected 5-regular gadgets, the bridged gadget-pair target graphs,
gadget-decorated linkage instances, and the structured checker that confirms
the target stays a minor of the decoration until any single vertex is
deleted.

Every generator is pure and deterministic.  Vertex ids are dense and
row-major where a grid underlies the instance; optional string labels record
the construction role of a vertex (left column ``v3``, right column ``u1``,
attachment primes ``s1'``, gadget members ``a1s.4``).  Counts that come out
of exhaustive generation (the gadget families) are computed, never pinned.
"""

from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .errors import (
    BudgetExceeded,
    PreconditionViolated,
    SearchCapExceeded,
    VitalityValidationFailed,
)
from .graphs import (
    AnnotatedGraph,
    Graph,
    RootedGraph,
    blocks,
    delete_vertex,
    induced_subgraph,
    is_connected,
)
from .linkages import (
    Linkage,
    Pattern,
    disjoint_paths,
    is_vital,
    pattern_of,
    validate_linkage,
)
from .minors import MinorModel, canonical_code, verify_minor_model
from .plane import PlaneGraph, embed_grid

# Gadget generation walks the full augmentation tree only up to this order.
GADGET_ORDER_CAP = 10


# --- plain grids -----------------------------------------------------------------


def grid(n, m):
    """The n-by-m grid, row-major, row 0 on top."""
    if n < 1 or m < 1:
        raise PreconditionViolated(f"grid needs n, m >= 1, got {n}x{m}")
    edges = []
    for r in range(n):
        for c in range(m):
            v = r * m + c
            if c + 1 < m:
                edges.append((v, v + 1))
            if r + 1 < n:
                edges.append((v, v + m))
    return Graph(n * m, edges)


# --- walls -----------------------------------------------------------------------


@dataclass(frozen=True)
class WallSpec:
    """An elementary wall of the given order.

    perimeter is the closed walk around the outer face in the canonical grid
    drawing (a vertex can repeat where a pendant corner sticks out), and
    layers[d] holds the vertices at graph distance d from that walk.
    """

    graph: Graph
    perimeter: tuple
    layers: tuple


def wall(n):
    """The elementary wall of order n, with perimeter and layer annotations.

    Start from the n-by-2n grid and drop the vertical edges that alternate
    out of the brick pattern: between rows i and i+1 (1-indexed), columns of
    the parity opposite to i's parity lose their rung.
    """
    if n < 1:
        raise PreconditionViolated(f"wall needs n >= 1, got {n}")
    m = 2 * n
    drawn = embed_grid(n, m)
    kept = []
    for u, v in drawn.graph.edges:
        if v - u == m:  # vertical edge between rows i and i+1
            i = u // m + 1
            j = u % m + 1
            if i % 2 == 1 and j % 2 == 0:
                continue
            if i % 2 == 0 and j % 2 == 1:
                continue
        kept.append((u, v))
    wg = Graph(drawn.graph.n, kept)
    # The grid's drawing restricted to the kept edges; the dart (1, 0) runs
    # along the top row, so its face is the outer one.
    rotation = [
        [u for u in ring if wg.has_edge(v, u)]
        for v, ring in enumerate(drawn.rotation)
    ]
    pg = PlaneGraph(wg, rotation, (1, 0))
    perim = tuple(u for u, _ in pg.faces[pg.outer])
    # BFS layers from the perimeter inward.
    dist = {v: 0 for v in perim}
    frontier = sorted(dist)
    layers = [frozenset(frontier)]
    d = 0
    while True:
        nxt = []
        for v in frontier:
            for w in wg.neighbors(v):
                if w not in dist:
                    dist[w] = d + 1
                    nxt.append(w)
        if not nxt:
            break
        d += 1
        layers.append(frozenset(nxt))
        frontier = nxt
    return WallSpec(graph=wg, perimeter=perim, layers=tuple(layers))


# --- cylindrical meshes ----------------------------------------------------------


@dataclass(frozen=True)
class CylindricalMesh:
    """Disjoint concentric cycles crossed by disjoint radial rails.

    cycles[0] is the innermost cycle in the canonical drawing.  Every rail
    meets every cycle in exactly one vertex and visits the cycles in order.
    """

    graph: Graph
    cycles: tuple
    rails: tuple


def cylindrical_mesh(n, m):
    """An n-by-m cylindrical mesh: n rails crossing m concentric cycles.

    The vertex at position p of cycle i is labelled ``c{i+1}.{p+1}``.
    """
    if n < 1 or m < 1:
        raise PreconditionViolated(
            f"need at least one rail and one ring, got {n}x{m}"
        )
    ln = max(n, 3)  # shortest simple cycle has three vertices
    edges = []
    labels = {}
    cycles = []
    for i in range(m):
        base = i * ln
        cycles.append(tuple(base + p for p in range(ln)))
        for p in range(ln):
            labels[base + p] = f"c{i + 1}.{p + 1}"
            edges.append((base + p, base + (p + 1) % ln))
        if i + 1 < m:
            for p in range(n):
                edges.append((base + p, base + ln + p))
    rails = tuple(tuple(i * ln + p for i in range(m)) for p in range(n))
    return CylindricalMesh(
        graph=Graph(m * ln, edges, labels), cycles=tuple(cycles), rails=rails
    )


# --- the chorded-grid linkage instances ------------------------------------------


@dataclass(frozen=True)
class GammaInstance:
    """A square grid with nested boundary chords and k terminal pairs.

    side is the grid side length 2**k - 1.  pairs lists the terminal pairs
    in construction order; pattern is the same data as a Pattern.  witness
    is the spanning linkage realizing the pattern, built by the folding
    walk.  vitality records how far uniqueness of the witness was verified
    at construction time: "proven" or "deferred".
    """

    k: int
    side: int
    graph: Graph
    pairs: tuple
    pattern: Pattern
    terminals: frozenset
    witness: Linkage
    vitality: str


def _fold_rows(i, k):
    """Row sequence of the i-th witness path.

    Starting from row 2**(i-1) the walk alternately reflects through the
    right-column chord family (r -> 2**k - r) and the left-column chord
    family containing r (r -> 3 * 2**l - r where 2**l <= r < 2**(l+1)),
    stopping at row 3 * 2**(i-1).  The top pair walks its single row.
    """
    r = 2 ** (i - 1)
    if i == k:
        return [r]
    rows = [r]
    target = 3 * 2 ** (i - 1)
    use_right = True
    while rows[-1] != target:
        r = rows[-1]
        nxt = (2 ** k - r) if use_right else (3 * 2 ** (r.bit_length() - 1) - r)
        use_right = not use_right
        if nxt in rows or not (1 <= nxt <= 2 ** k - 1):
            raise VitalityValidationFailed(
                f"folding walk left the grid at row {nxt} (pair {i}, k={k})"
            )
        rows.append(nxt)
    return rows


@cache
def gamma_hat(k):
    """The order-k chorded-grid instance with its witness linkage.

    The core is the (2**k - 1)-square grid.  Right-column chords pair u_i
    with u_{m-i+1} for i up to 2**(k-1) - 1.  Left-column chords come in
    families indexed by i in [2, k]: v_{2**i + j} joins v_{2**(i+1) - j}.
    Family index sets can run past the grid side; out-of-range and
    degenerate pairs are dropped (the top family disappears entirely), and
    the construction self-check below guards that reading.

    Terminal pairs: s_i = v_{2**(i-1)} for all i; t_i = v_{3 * 2**(i-1)}
    below the top pair, whose endpoint sits on the right column instead,
    t_k = u_{2**(k-1)}.

    The witness is validated structurally (pattern, disjointness, spanning)
    for every k.  For k <= 3 an exhaustive uniqueness search runs under the
    default linkage budget (NODE_BUDGET nodes); running out of it leaves
    vitality "deferred" rather than failing.  k = 2 comes back "proven" in
    16 nodes; k = 3 spends the budget (4.2 s on a 2-CPU VM) and comes back
    "deferred"; larger k are always "deferred".  A provable non-vitality
    raises.  Cached per k.
    """
    if k < 2:
        raise PreconditionViolated(f"chorded-grid instance needs k >= 2, got {k}")
    m = 2 ** k - 1

    def vid(row, col):  # 1-indexed grid coordinates
        return (row - 1) * m + (col - 1)

    g0 = grid(m, m)
    extra = set()
    for i in range(1, 2 ** (k - 1)):  # right-column chords
        a, b = vid(i, m), vid(m - i + 1, m)
        extra.add((min(a, b), max(a, b)))
    for fam in range(2, k + 1):  # left-column chord families
        for j in range(1, 2 ** fam):
            ra, rb = 2 ** fam + j, 2 ** (fam + 1) - j
            if ra == rb or ra > m or rb > m:
                continue
            a, b = vid(ra, 1), vid(rb, 1)
            extra.add((min(a, b), max(a, b)))
    labels = {}
    for i in range(1, m + 1):
        labels[vid(i, 1)] = f"v{i}"
        labels[vid(i, m)] = f"u{i}"
    g = Graph(m * m, list(g0.edges) + sorted(extra), labels)

    pairs = []
    for i in range(1, k + 1):
        s = vid(2 ** (i - 1), 1)
        t = vid(2 ** (k - 1), m) if i == k else vid(3 * 2 ** (i - 1), 1)
        pairs.append((s, t))
    pattern = Pattern.of(pairs)

    paths = []
    for i in range(1, k + 1):
        rows = _fold_rows(i, k)
        path = []
        for idx, row in enumerate(rows):
            cols = range(1, m + 1) if idx % 2 == 0 else range(m, 0, -1)
            path.extend(vid(row, c) for c in cols)
        paths.append(path)
    witness = Linkage.of(paths)

    if not validate_linkage(g, witness):
        raise VitalityValidationFailed("witness paths are not a linkage")
    if pattern_of(witness) != pattern:
        raise VitalityValidationFailed("witness realizes the wrong pattern")
    if sum(len(p) for p in witness.paths) != g.n:
        raise VitalityValidationFailed("witness does not span the grid")

    vitality = "deferred"
    if k <= 3:
        try:
            unique = is_vital(g, witness)
        except BudgetExceeded:
            unique = None
        if unique is False:
            raise VitalityValidationFailed(
                f"a second linkage with the witness pattern exists at k={k}"
            )
        if unique:
            vitality = "proven"

    return GammaInstance(
        k=k,
        side=m,
        graph=g,
        pairs=tuple(pairs),
        pattern=pattern,
        terminals=pattern.terminals(),
        witness=witness,
        vitality=vitality,
    )


# --- top-chorded strips ----------------------------------------------------------


def z_graph(s):
    """The s-by-s(2s+1) grid with nested top-row chords and marked centres.

    The top row splits into s segments of width 2s+1.  Segment i carries s
    chords pairing its j-th vertex from the left with its j-th from the
    right; they nest strictly around the segment's centre vertex, and the
    centres form the marked set.
    """
    if s < 1:
        raise PreconditionViolated(f"strip graph needs s >= 1, got {s}")
    q = 2 * s + 1
    cols = s * q
    g0 = grid(s, cols)
    chords = []
    centres = []
    labels = {j: f"x{j + 1}" for j in range(cols)}
    for i in range(1, s + 1):
        base = q * (i - 1)  # x_{base+1} starts segment i
        for j in range(1, s + 1):
            chords.append((base + j - 1, q * i - j))
        centres.append(base + s)
    g = Graph(g0.n, list(g0.edges) + chords, labels)
    return AnnotatedGraph.of(g, centres)


# --- 5-regular gadget families ---------------------------------------------------


@dataclass(frozen=True)
class GadgetFamily:
    """Pairwise non-isomorphic connected 5-regular graphs on a common order.

    members come sorted by canonical code.  available reports how many such
    graphs exist on n_vertices in total; the family keeps only as many as
    were requested.
    """

    members: tuple
    n_vertices: int
    available: int


@cache
def _five_regular_connected(n):
    """All connected 5-regular graphs on n vertices, up to isomorphism.

    Augments vertex by vertex: the DFS assigns each vertex its complete set
    of higher-indexed neighbours.  Two sound symmetry cuts keep the tree
    small: vertex 0's neighbourhood is fixed to {1..5}, and among vertices
    that no earlier row has touched, a row may only pick a prefix (untouched
    vertices are interchangeable).  Leaves are deduplicated by canonical
    code, so residual symmetry costs time but never correctness.
    """
    if n < 6 or n % 2:
        return ()
    r = 5
    deg = [0] * n
    picked = []  # edge list under construction
    found = {}

    def feasible(v):
        pending = [r - deg[w] for w in range(v, n) if deg[w] < r]
        if sum(pending) % 2:
            return False
        return all(need <= len(pending) - 1 for need in pending)

    def rec(v):
        if v == n:
            g = Graph(n, list(picked))
            if is_connected(g):
                found.setdefault(canonical_code(RootedGraph.of(g, ())), g)
            return
        need = r - deg[v]
        if need == 0:
            if feasible(v + 1):
                rec(v + 1)
            return
        cands = [w for w in range(v + 1, n) if deg[w] < r]
        if len(cands) < need:
            return
        untouched = [w for w in cands if deg[w] == 0]
        for combo in combinations(cands, need):
            chosen_untouched = [w for w in combo if deg[w] == 0]
            if chosen_untouched != untouched[: len(chosen_untouched)]:
                continue
            for w in combo:
                deg[w] += 1
                picked.append((v, w))
            deg[v] = r
            if feasible(v + 1):
                rec(v + 1)
            deg[v] = r - need
            for w in combo:
                deg[w] -= 1
                del picked[-1]
        return

    if n == 6:
        rec(0)
    else:
        for w in range(1, 6):
            deg[w] += 1
            picked.append((0, w))
        deg[0] = r
        rec(1)
        # state teardown is irrelevant here; the arrays are locals
    return tuple(g for _, g in sorted(found.items()))


def regular_gadgets(k):
    """k pairwise non-isomorphic connected 5-regular graphs, smallest order.

    Tries even orders upward until the exhaustive count reaches k; the
    count is an output of the generation, never assumed.
    """
    if k < 1:
        raise PreconditionViolated(f"gadget family needs k >= 1, got {k}")
    for n in range(6, GADGET_ORDER_CAP + 1, 2):
        fam = _five_regular_connected(n)
        if len(fam) >= k:
            return GadgetFamily(
                members=fam[:k], n_vertices=n, available=len(fam)
            )
    raise SearchCapExceeded(
        f"no order up to {GADGET_ORDER_CAP} carries {k} gadget types"
    )


# --- bridged gadget pairs and the decorated instance ------------------------------


def _attachment_block(gadget):
    """The gadget plus two fresh dominating vertices (no edge between them).

    Vertex 0 is the attachment point that will be shared with the core,
    vertex 1 its private twin, and the gadget occupies 2..n+1.
    """
    f = gadget.n
    edges = [(u + 2, v + 2) for u, v in gadget.edges]
    for x in range(2, f + 2):
        edges.append((0, x))
        edges.append((1, x))
    return Graph(f + 2, edges)


def _sorted_members(fam, k):
    if k < 1:
        raise PreconditionViolated(f"need k >= 1, got {k}")
    if len(fam.members) < k:
        raise PreconditionViolated(
            f"family holds {len(fam.members)} gadgets, construction needs {k}"
        )
    return sorted(fam.members[:k], key=lambda g: canonical_code(RootedGraph.of(g, ())))


def h_graph(k, fam):
    """The target graph: k bridged pairs of gadget attachment blocks.

    Component i consists of two copies of gadget i's attachment block whose
    attachment points are joined by a bridge edge.  Gadgets are assigned in
    canonical-code order.  Component i occupies the contiguous id range
    starting at i * (2 * f + 4): attachment, twin, gadget copy, then the
    same again for the far side.
    """
    members = _sorted_members(fam, k)
    f = fam.n_vertices
    span = 2 * f + 4
    edges = []
    labels = {}
    for i, gadget in enumerate(members):
        for side, tag in ((0, "s"), (1, "t")):
            base = i * span + side * (f + 2)
            labels[base] = f"{tag}{i + 1}"
            labels[base + 1] = f"{tag}{i + 1}'"
            for j in range(f):
                labels[base + 2 + j] = f"a{i + 1}{tag}.{j + 1}"
            block = _attachment_block(gadget)
            edges.extend((base + u, base + v) for u, v in block.edges)
        edges.append((i * span, i * span + f + 2))  # the bridge
    return Graph(k * span, edges, labels)


@dataclass(frozen=True)
class GammaDecoration:
    """A chorded-grid instance with gadget blocks hung on each terminal.

    The decoration is the target h_graph(k, fam) glued onto the core: block
    (i, s)'s attachment point is s_i, block (i, t)'s is t_i, and the bridges
    are dropped (the two terminals of a pair stay non-adjacent in the
    decoration).  Every other target vertex gets a fresh id after the
    core's, in target order, and keeps its label.  image[x] is the
    decoration vertex of target vertex x.
    """

    core: GammaInstance
    graph: Graph
    gadget_order: int
    image: tuple

    def block_vertices(self, i, side):
        """Vertex set of attachment block i on side "s" or "t"."""
        f = self.gadget_order
        base = i * (2 * f + 4) + (0 if side == "s" else f + 2)
        return frozenset(self.image[base : base + f + 2])


def decorate_gamma(k, fam):
    """Attach two copies of gadget i at the i-th terminal pair of the core,
    gamma_hat(k)."""
    target = h_graph(k, fam)
    core = gamma_hat(k)
    f = fam.n_vertices
    span = 2 * f + 4
    attach = {}
    for i, (s, t) in enumerate(core.pairs):
        attach[i * span] = s
        attach[i * span + f + 2] = t
    n = core.graph.n
    labels = dict(core.graph.labels)
    image = []
    for x in range(target.n):
        if x in attach:
            image.append(attach[x])
        else:
            image.append(n)
            labels[n] = target.labels[x]
            n += 1
    edges = list(core.graph.edges)
    for u, v in target.edges:
        if not (u in attach and v in attach):  # not a bridge
            edges.append((image[u], image[v]))
    return GammaDecoration(
        core=core, graph=Graph(n, edges, labels), gadget_order=f, image=tuple(image)
    )


# --- the deletion checker ---------------------------------------------------------


def _presence_model(deco):
    """Explicit branch sets placing the target inside the decoration.

    Each target vertex maps to the set holding its image.  The witness path
    of pair i realizes the bridge: s_i's set is the whole path minus t_i, so
    the path's last step supplies the bridge edge.
    """
    sets = [frozenset({v}) for v in deco.image]
    span = 2 * deco.gadget_order + 4
    for i, (s, t) in enumerate(deco.core.pairs):
        sets[i * span] = frozenset(deco.core.witness.paths[i]) - {t}
    return MinorModel(branch_sets=tuple(sets))


def _absent_after(deco, v, type_codes, block_order, code_of):
    """Decide that the target is gone from the decoration minus v.

    Stage one counts intact attachment blocks: each of the k gadget types
    must still appear twice among the blocks of the punctured graph, at
    exactly its original order (a same-order block can host the attachment
    block as a minor only by being isomorphic to it); code_of gives a
    block's canonical code.  Stage two, reached
    only when every block survived (v was an interior core vertex), asks
    whether the bridges could still be drawn: the forced pairing needs
    disjoint terminal-to-terminal paths inside the punctured core, and the
    uniqueness of the spanning witness rules that out.  A found linkage
    means the target is still present.
    """
    g, _ = delete_vertex(deco.graph, v)
    counts = {code: 0 for code in type_codes}
    for comp in blocks(g)[0]:
        if len(comp) != block_order:
            continue
        code = code_of(induced_subgraph(g, comp)[0])
        if code in counts:
            counts[code] += 1
    if any(c < 2 for c in counts.values()):
        return True
    core = deco.core
    # Every attachment block needs its own vertices, so losing one cannot
    # leave all 2k blocks intact.
    assert v < core.graph.n and v not in core.terminals, "block accounting kept every block"
    cg, remap = delete_vertex(core.graph, v)
    pat = Pattern.of((remap[s], remap[t]) for s, t in core.pairs)
    return disjoint_paths(cg, pat) is None


def verify_hk_deletion(k, per_vertex=False):
    """Check the target is a minor of the decoration, and of no puncture.

    Returns {"minor_present": bool, "per_vertex_absent": bool}; with
    per_vertex=True the report adds "absent", a tuple with one boolean per
    decoration vertex.  Presence is established by an explicit verified
    model built from the witness linkage; absence per vertex by the block
    count and bridge arguments of _absent_after.
    """
    if k < 2:
        raise PreconditionViolated(f"deletion checker needs k >= 2, got {k}")
    if k > 2:
        raise SearchCapExceeded(f"deletion checker is desk-scale: k <= 2, got {k}")
    fam = regular_gadgets(k)
    members = _sorted_members(fam, k)
    deco = decorate_gamma(k, fam)
    target = h_graph(k, fam)

    model = _presence_model(deco)
    present = verify_minor_model(deco.graph, target, model)

    # the punctured decorations share a few distinct blocks, so each block's
    # code is computed once per call
    codes = {}

    def code_of(block):
        key = (block.n, block.edges)
        if key not in codes:
            codes[key] = canonical_code(RootedGraph.of(block, ()))
        return codes[key]

    type_codes = [code_of(_attachment_block(gadget)) for gadget in members]
    block_order = fam.n_vertices + 2
    absent = tuple(
        _absent_after(deco, v, type_codes, block_order, code_of)
        for v in range(deco.graph.n)
    )
    report = {"minor_present": present, "per_vertex_absent": all(absent)}
    if per_vertex:
        report["absent"] = absent
    return report

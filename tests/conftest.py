"""Shared randomized-corpus builders.

Every generated table lives on a dyadic lattice (small integers over 64,
16, 8, or 4), so sums, products, and conorm combinations are exact in
double precision.  Exactness matters: the checkers compare with plain
`<=`, and the corpus constructions below carry mathematical triangle /
monotonicity guarantees that exact arithmetic turns into bit-level ones.
No tolerance fudging is needed anywhere in the suite.
"""

import itertools
import json
import math
import random

from quasimod import (
    INF,
    DirectedGraph,
    DiscreteMeasureSpace,
    Edge,
    GaugeSpec,
    MusielakOrlicz,
    Profile,
    Regime,
    ScaleGrid,
    TConorm,
    gauge_to_json,
    graph_to_json,
    make_min_cap,
    make_one_sided_integral,
    make_ratio,
    make_scaled_metric,
    make_sublinear,
    one_sided_modular_gauge,
)
from quasimod.cli import main

CONORMS = tuple(TConorm)


def points_named(n, prefix="p"):
    return tuple(f"{prefix}{i}" for i in range(n))


def rng_for(seed):
    return random.Random(seed)


def members(points, mask):
    return [p for i, p in enumerate(points) if mask & (1 << i)]


def probe_scales(grid):
    """Grid scales, their halves, and one scale past the top."""
    return sorted({s for t in grid for s in (t, t / 2.0)} | {2.0 * grid[-1]})


def transpose(rows):
    """The relation with every pair reversed: bit i of row j for each bit j
    of row i."""
    return tuple(sum(1 << i for i, row in enumerate(rows) if row & (1 << j))
                 for j in range(len(rows)))


# ---------------------------------------------------------------------------
# additive-regime tables: min-plus closure makes the triangle exact


def min_plus_closure(points, d):
    """Floyd-Warshall to a fixpoint.  At the fixpoint every triangle
    d(x,z) <= d(x,y) + d(y,z) holds as an exact float comparison."""
    d = dict(d)
    while True:
        changed = False
        for y in points:
            for x in points:
                d_xy = d[(x, y)]  # no z lowers it while d(y, y) >= 0
                if d_xy == INF:
                    continue
                for z in points:
                    cand = d_xy + d[(y, z)]
                    if cand < d[(x, z)]:
                        d[(x, z)] = cand
                        changed = True
        if not changed:
            return d


def random_quasi_pseudometric(rng, points, holes=0.0):
    """Asymmetric distance table with entries in [0.5, 3.0] on a 1/16 grid.
    With holes > 0 that share of the raw off-diagonal entries starts at
    +inf; the closure may keep some of them infinite."""
    d = {}
    for x in points:
        for y in points:
            d[(x, y)] = 0.0 if x == y else \
                INF if holes and rng.random() < holes else \
                rng.randrange(8, 49) / 16
    return min_plus_closure(points, d)


def random_metric_table(rng, points):
    """Symmetric variant; min-plus closure preserves symmetry exactly."""
    d = {}
    for x in points:
        for y in points:
            if x == y:
                d[(x, y)] = 0.0
            elif (y, x) in d:
                d[(x, y)] = d[(y, x)]
            else:
                d[(x, y)] = rng.randrange(8, 49) / 16
    return min_plus_closure(points, d)


def cap_inactive_grid(values):
    """Grid whose smallest scale dominates every finite value, so a
    min-with-scale cap never binds and the gauge is scale-constant."""
    finite = [v for v in values if v != INF and v > 0]
    top = max(finite) if finite else 1.0
    return ScaleGrid((top, 2 * top, 3 * top, 4 * top))


def with_cap_inactive_grid(g):
    probe = 2.0 ** 40
    vals = [g.value(x, y, probe) for x in g.points for y in g.points]
    return g._replace(grid=cap_inactive_grid(vals))


def random_min_cap_gauge(rng, n):
    points = points_named(n)
    rho = random_quasi_pseudometric(rng, points)
    return make_min_cap(rho, points, grid=cap_inactive_grid(rho.values()))


def random_sublinear_gauge(rng, n):
    """Cap of a piecewise-linear positively homogeneous functional on reals.

    p(v) = alpha*max(v, 0) + beta*max(-v, 0) is exactly subadditive on the
    dyadic sample, and asymmetric whenever alpha != beta.
    """
    alpha = rng.randrange(1, 17) / 4
    beta = rng.randrange(1, 17) / 4
    points = tuple(sorted(rng.sample([k / 8 for k in range(-24, 25)], n)))

    def p(v):
        return alpha * v if v >= 0 else -beta * v

    g = make_sublinear(p, points)
    return with_cap_inactive_grid(g)


def random_graph_gauge(rng, n):
    from quasimod import graph_gauge

    graph = random_strongly_connected_graph(rng, n)
    return with_cap_inactive_grid(graph_gauge(graph))


def random_one_sided_gauge(rng, n):
    """Positive-part integral gauge with a linear integrand.

    Linear Phi keeps rho(f, g) = c * sum_i mu_i * (f_i - g_i)_+ exactly
    subadditive; convex nonlinear integrands are rejected upstream.
    """
    width = rng.randrange(2, 5)
    masses = {i: rng.randrange(1, 9) / 4 for i in range(width)}
    c = rng.randrange(1, 9) / 4
    functions = {f"f{i}": {j: rng.randrange(-16, 17) / 8 for j in range(width)}
                 for i in range(n)}
    g = make_one_sided_integral(masses, lambda t: c * t, functions)
    return with_cap_inactive_grid(g)


ADDITIVE_BUILDERS = (random_min_cap_gauge, random_sublinear_gauge,
                     random_graph_gauge, random_one_sided_gauge)


# ---------------------------------------------------------------------------
# conorm-regime tables: per-scale closure + downward clamping across scales


CONORM_GRID = ScaleGrid((0.5, 1.0, 2.0))


def conorm_closure(points, mat, conorm):
    """Same-scale triangle closure under (min, conorm); exact on dyadics."""
    mat = dict(mat)
    while True:
        changed = False
        for y in points:
            for x in points:
                if x == y:
                    continue
                for z in points:
                    if z == y or z == x:
                        continue
                    cand = conorm.apply(mat[(x, y)], mat[(y, z)])
                    if cand < mat[(x, z)]:
                        mat[(x, z)] = cand
                        changed = True
        if not changed:
            return mat


def random_conorm_gauge(rng, n, conorm, grid=CONORM_GRID, symmetric=False):
    """Raw entries in [4/64, 57/64], closed per scale, then clamped so each
    scale's table is <= the previous one.  Same-scale closure plus the clamp
    yields the cross-scale split triangle exactly, separation is kept by
    conorm values never dropping below their arguments' max, and 57/64 < 1
    keeps the tables bounded."""
    points = points_named(n)
    columns = []
    prev = None
    for _ in grid:
        raw = {}
        for x in points:
            for y in points:
                if x == y:
                    raw[(x, y)] = 0.0
                elif symmetric and (y, x) in raw:
                    raw[(x, y)] = raw[(y, x)]
                else:
                    raw[(x, y)] = rng.randrange(4, 58) / 64
        if prev is not None:
            raw = {pair: min(v, prev[pair]) for pair, v in raw.items()}
        mat = conorm_closure(points, raw, conorm)
        columns.append(mat)
        prev = mat
    table = {(x, y): tuple(col[(x, y)] for col in columns)
             for x in points for y in points}
    return GaugeSpec(regime=Regime.CONORM, points=points, conorm=conorm,
                     grid=grid, claims_symmetric=symmetric, table=table,
                     name=f"corpus_{conorm.wire_name}")


# ---------------------------------------------------------------------------
# graphs


def random_strongly_connected_graph(rng, n):
    """A shuffled Hamiltonian cycle plus random extra edges.  The cycle
    keeps every ordered distance finite."""
    vertices = points_named(n, prefix="v")
    edges = []
    seen = set()
    if n >= 2:
        order = list(vertices)
        rng.shuffle(order)
        for i in range(n):
            u, v = order[i], order[(i + 1) % n]
            seen.add((u, v))
            edges.append(Edge(u, v, mu=rng.randrange(1, 9) / 4,
                              cost=rng.randrange(8, 49) / 16))
        for _ in range(rng.randrange(0, n * (n - 1) // 2 + 1)):
            u, v = rng.sample(vertices, 2)
            if (u, v) in seen:
                continue
            seen.add((u, v))
            edges.append(Edge(u, v, mu=rng.randrange(1, 9) / 4,
                              cost=rng.randrange(8, 49) / 16))
    return DirectedGraph(vertices, tuple(edges))


def random_digraph(rng, n, p=0.45):
    """Arbitrary digraph; distances may be infinite."""
    vertices = points_named(n, prefix="v")
    edges = []
    for u in vertices:
        for v in vertices:
            if u != v and rng.random() < p:
                edges.append(Edge(u, v, mu=rng.randrange(1, 9) / 4,
                                  cost=rng.randrange(8, 49) / 16))
    return DirectedGraph(vertices, tuple(edges))


def lattice_cost(rng):
    return rng.randrange(1, 49) / 16


def path_digraph(rng, n, shuffled=False):
    """A path run both ways, in vertex order or in a shuffled one, each
    direction of a link costed apart."""
    vertices = points_named(n, prefix="v")
    order = rng.sample(vertices, n) if shuffled else vertices
    return DirectedGraph(vertices, tuple(
        Edge(u, v, 1.0, lattice_cost(rng))
        for a, b in zip(order, order[1:]) for u, v in ((a, b), (b, a))))


def cycle_digraph(rng, n, chords=False):
    """A one-way cycle in vertex order; with chords, n random edges costed
    above any cycle path and listed before the cycle's own."""
    vertices = points_named(n, prefix="v")
    heavy = [Edge(rng.choice(vertices), rng.choice(vertices), 1.0,
                  64 + lattice_cost(rng)) for _ in range(n if chords else 0)]
    return DirectedGraph(vertices, tuple(heavy) + tuple(
        Edge(u, v, 1.0, lattice_cost(rng))
        for u, v in zip(vertices, vertices[1:] + vertices[:1]) if u != v))


def grid_digraph(rng, n):
    """n vertices in rows of about sqrt(n), each grid link run both ways
    and costed apart, edges in shuffled order."""
    vertices = points_named(n, prefix="v")
    w = math.isqrt(n)
    links = [(i, i + 1) for i in range(n - 1) if (i + 1) % w] + \
        [(i, i + w) for i in range(n - w)]
    edges = [Edge(vertices[u], vertices[v], 1.0, lattice_cost(rng))
             for i, j in links for u, v in ((i, j), (j, i))]
    rng.shuffle(edges)
    return DirectedGraph(vertices, tuple(edges))


def geometric_digraph(rng, n):
    """Random points of the unit square; each ordered pair closer than
    sqrt(3 / n) is an edge with probability 0.8, costed 1/16 above its
    length rounded to sixteenths."""
    vertices = points_named(n, prefix="v")
    at = [(rng.random(), rng.random()) for _ in vertices]
    edges = []
    for (u, p), (v, q) in itertools.permutations(zip(vertices, at), 2):
        length = math.dist(p, q)
        if length * length < 3 / n and rng.random() < 0.8:
            edges.append(Edge(u, v, 1.0, (round(16 * length) + 1) / 16))
    return DirectedGraph(vertices, tuple(edges))


# asymmetric graphs whose shortest paths run long, against which the lane
# sweep's order and pass count are tested
STRUCTURED_DIGRAPHS = {
    "path": path_digraph,
    "shuffled path": lambda rng, n: path_digraph(rng, n, shuffled=True),
    "cycle": cycle_digraph,
    "chorded cycle": lambda rng, n: cycle_digraph(rng, n, chords=True),
    "grid": grid_digraph,
    "geometric": geometric_digraph,
}


def edge_power(g, p):
    """phi(k, t) = t^p at every edge position k of g.  A variable exponent
    needs at least one point, so an edgeless graph, whose energy never reads
    its family, gets an exponent at position 0."""
    return MusielakOrlicz.variable_exponent(
        {k: p for k in range(max(len(g.edges), 1))})


# ---------------------------------------------------------------------------
# corruption: break exactly one tabulated triangle


def corrupt_one_entry(g, rng, bump=0.75):
    """Raise w(x, z, u) above w(x, y, t1) (+) w(y, z, t1) at the projected
    scale u of t1 + t1.  Returns the broken gauge and the exact triangle
    witness the checker must report."""
    tab = g.tabulated()
    grid = tab.grid
    t1 = grid[0]
    k = grid.ceil_index(t1 + t1)
    assert k is not None, "corpus grids always contain the t1 + t1 projection"
    u = grid[k]
    x, z = rng.sample(list(tab.points), 2)
    y = rng.choice(list(tab.points))
    a, b = tab.value(x, y, t1), tab.value(y, z, t1)
    if tab.regime is Regime.CONORM:
        rhs = tab.conorm.apply(a, b)
        value = (1.0 + rhs) / 2
        if not rhs < value < 1.0:
            raise ValueError("composite too close to 1 to corrupt cleanly")
    else:
        rhs = a + b
        value = rhs + bump
    row = list(tab.table[(x, z)])
    row[k] = value
    table = dict(tab.table)
    table[(x, z)] = tuple(row)
    bad = GaugeSpec(regime=tab.regime, points=tab.points, conorm=tab.conorm,
                    grid=grid, name=f"{tab.name}_corrupt", table=table)
    return bad, (x, y, z, t1, t1, u)


def brute_force_distance(g, x, y, costs=None):
    """Cheapest-path cost from x to y by exhaustive simple-path search."""
    if x == y:
        return 0.0
    weights = [e.cost for e in g.edges] if costs is None else list(costs)
    adj = {}
    for k, e in enumerate(g.edges):
        adj.setdefault(e.u, []).append((e.v, weights[k]))
    best = INF
    stack = [(x, 0.0, {x})]
    while stack:
        node, total, seen = stack.pop()
        if total >= best:
            continue
        for nxt, w in adj.get(node, ()):
            if nxt == y and total + w < best:
                best = total + w
            if nxt not in seen:
                stack.append((nxt, total + w, seen | {nxt}))
    return best


def convolve_oracle(phi, psi, conorm):
    """Literal double loop: min of conorm over grid splits of u, the
    (t1, t1) pair always included."""
    scales = phi.grid.scales
    out = []
    for u in scales:
        pairs = [(0, 0)] + [(i, j)
                            for i in range(len(scales))
                            for j in range(len(scales))
                            if scales[i] + scales[j] <= u]
        out.append(min(conorm.apply(phi.values[i], psi.values[j])
                       for i, j in pairs))
    return tuple(out)


def random_measure_space(rng, n):
    points = points_named(n)
    mu = {p: rng.randrange(1, 9) / 4 for p in points}
    return DiscreteMeasureSpace(points, mu)


def random_orlicz_family(rng, space):
    kind = rng.choice(("variable_exponent", "double_phase", "weighted"))
    if kind == "variable_exponent":
        p = {q: 1.0 + rng.randrange(0, 13) / 4 for q in space.points}
        return MusielakOrlicz.variable_exponent(p)
    if kind == "double_phase":
        p = 1.0 + rng.randrange(0, 5) / 4
        q = p + rng.randrange(1, 9) / 4
        a = {s: rng.randrange(0, 9) / 4 for s in space.points}
        return MusielakOrlicz.double_phase(p, q, a)
    base = MusielakOrlicz.variable_exponent(
        {q: 1.0 + rng.randrange(0, 13) / 4 for q in space.points}
    )
    w = {q: rng.randrange(1, 9) / 4 for q in space.points}
    return MusielakOrlicz.weighted(base, w)


def random_total_function(rng, space, lo=-16, hi=17):
    f = {p: rng.randrange(lo, hi) / 8 for p in space.points}
    if all(v == 0.0 for v in f.values()):
        f[space.points[0]] = 1.0
    return f


# ---------------------------------------------------------------------------
# tables under no axiom, and the dense layer's corpora


def random_raw_table(rng, n, conorm=None):
    """Table under no axiom: each value drawn per pair and scale from a few
    levels with zero and the top (inf, or 1 for a conorm), so that balls
    and smallest open sets differ across points and scales."""
    levels = (0.0, 0.0, 0.0, 0.5, 1.0) if conorm else (0.0, 0.0, 0.0, 1.0, INF)
    pts = tuple(f"p{i}" for i in range(n))
    grid = ScaleGrid((0.5, 1.0, 2.0))
    table = {(x, y): tuple(rng.choice(levels) for _ in grid)
             for x in pts for y in pts}
    return GaugeSpec(regime=Regime.CONORM if conorm else Regime.ADDITIVE,
                     points=pts, conorm=conorm, grid=grid, table=table,
                     name=f"raw_{conorm.wire_name if conorm else 'additive'}")


def skew_gauge():
    # w(a, b) = 0 puts b in a's forward cell, but the way back costs 9
    return GaugeSpec(regime=Regime.ADDITIVE, points=("a", "b", "c"),
                     grid=ScaleGrid((1.0, 2.0)),
                     table={("a", "b"): (0.0, 0.0), ("b", "a"): (9.0, 9.0),
                            ("a", "c"): (5.0, 5.0), ("c", "a"): (5.0, 5.0),
                            ("b", "c"): (5.0, 5.0), ("c", "b"): (5.0, 5.0)})


def additive_corpus():
    for k in range(6):
        rng = rng_for(700 + k)
        yield ADDITIVE_BUILDERS[k % 4](rng, rng.randrange(2, 6)).tabulated()


def conorm_corpus():
    for k in range(6):
        rng = rng_for(720 + k)
        yield random_conorm_gauge(rng, rng.randrange(2, 6), CONORMS[k % 3])


def closed_form_corpus():
    for k in range(4):
        rng = rng_for(740 + k)
        yield ADDITIVE_BUILDERS[k % 4](rng, rng.randrange(2, 6))
    for k in range(2):
        rng = rng_for(760 + k)
        points = points_named(rng.randrange(2, 6))
        ratio = make_ratio(random_quasi_pseudometric(rng, points), points)
        yield GaugeSpec(regime=ratio.regime, points=ratio.points,
                        conorm=ratio.conorm, grid=CONORM_GRID,
                        name=ratio.name, fn=ratio.fn)


def scale_dependent_corpus():
    """Additive gauges whose values move with the scale: w = g(t) * d
    tables and linear one-sided modulars, closed forms on their grids."""
    for seed in range(2):
        yield from scaled_metric_gauges(seed)
        yield from one_sided_modular_gauges(seed)


CORPORA = {"additive": additive_corpus, "conorm": conorm_corpus,
           "closed_form": closed_form_corpus,
           "scale_dependent": scale_dependent_corpus}


def corpus(name):
    return list(CORPORA[name]())


def _materialize(g, points, grid):
    """One row of values along the grid per distinct ordered pair, as the
    sweeps read them before `GaugeSpec.sample`."""
    idx = [(x, g.index(x)) for x in points]
    columns = [g.matrix(t) for t in grid]
    return {(x, y): [col[i][j] for col in columns]
            for x, i in idx for y, j in idx}


def corrupted_gauges():
    for k in range(8):
        rng = rng_for(900 + k)
        yield corrupt_one_entry(ADDITIVE_BUILDERS[k % 4](
            rng, rng.randrange(3, 6)), rng, bump=8.0)[0]
    for k in range(3):
        rng = rng_for(920 + k)
        yield corrupt_one_entry(random_conorm_gauge(
            rng, rng.randrange(3, 6), TConorm.MAX), rng)[0]
    yield skew_gauge()


def raw_gauges():
    """Tables under no axiom, on their own grid and on one where t/2 of
    the middle scale falls between grid scales."""
    for k, conorm in enumerate((None, *CONORMS, None)):
        rng = rng_for(940 + k)
        g = random_raw_table(rng, rng.randrange(2, 7), conorm)
        yield g
        yield g._replace(grid=ScaleGrid((1.0, 3.0, 4.0)))


# the cover corpora: escapes, off-grid halves and repeated columns
GAUGES = {**CORPORA, "raw": raw_gauges, "corrupted": corrupted_gauges}


# ---------------------------------------------------------------------------
# scale-dependent additive tables: w = g(t) * d


def scaled_metric_data(seed, holes=0.0):
    """(d, g, points) on dyadic data: d from `random_quasi_pseudometric`,
    with that share of +inf holes, and g a nonincreasing profile, so no
    pair raises NonmonotoneGaugeError and many pairs have different
    distances in the two directions."""
    rng = rng_for(1800 + seed)
    for _ in range(3):
        points = points_named(rng.randrange(2, 6))
        exponents = sorted(rng.sample(range(-3, 5), rng.randrange(2, 6)))
        values = sorted((rng.randrange(0, 33) / 8 for _ in exponents),
                        reverse=True)
        profile = Profile(ScaleGrid(tuple(2.0 ** k for k in exponents)),
                          tuple(values))
        yield random_quasi_pseudometric(rng, points, holes), profile, points


def scaled_metric_gauges(seed, holes=0.0):
    """w = g(t) * d over `scaled_metric_data`."""
    for d, profile, points in scaled_metric_data(seed, holes):
        yield make_scaled_metric(d, profile, points)


def one_sided_modular_gauges(seed):
    """w(F, G, t) = sum_p mu_p * (F_p - G_p)_+ / t, the one-sided modular
    gauge of the linear psi (exponent 1 at every point), over dyadic
    functions and masses on power-of-two scales: every value is exact."""
    rng = rng_for(1900 + seed)
    for _ in range(2):
        space = random_measure_space(rng, rng.randrange(1, 4))
        linear = MusielakOrlicz.variable_exponent(
            {p: 1.0 for p in space.points})
        functions = {f"f{i}": random_total_function(rng, space)
                     for i in range(rng.randrange(2, 6))}
        exponents = sorted(rng.sample(range(-3, 5), rng.randrange(2, 6)))
        yield one_sided_modular_gauge(
            space, linear, functions,
            ScaleGrid(tuple(2.0 ** k for k in exponents)))


# ---------------------------------------------------------------------------
# documents


def to_doc(g):
    return {"vertices": list(g.vertices),
            "edges": [{"from": e.u, "to": e.v, "mu": e.mu, "cost": e.cost}
                      for e in g.edges]}


def relabel(doc, names):
    """The same graph with vertex i renamed names[i]."""
    new = dict(zip(doc["vertices"], names))
    return {"vertices": list(names),
            "edges": [dict(e, **{"from": new[e["from"]], "to": new[e["to"]]})
                      for e in doc["edges"]]}


# Benchmark-size graphs: names such as v1, v10 and v2 stop sorting in
# vertex order, and every map has up to 8,100 keys.
BIG = {"strongly_connected": lambda rng, n: to_doc(
           random_strongly_connected_graph(rng, n)),
       "unreachable": lambda rng, n: to_doc(
           random_digraph(rng, n, p=2.5 / n))}


def valid_documents():
    """One seeded valid document per command."""
    rng = rng_for(900)
    conorm = gauge_to_json(random_conorm_gauge(rng, 3, TConorm.MAX))
    additive = gauge_to_json(random_min_cap_gauge(rng, 3))
    space = random_measure_space(rng, 3)
    functions = {f"f{i}": {str(p): v for p, v in
                           random_total_function(rng, space).items()}
                 for i in range(2)}
    points = points_named(3)
    rho = random_quasi_pseudometric(rng, points)
    return {
        "check-axioms": conorm,
        "topology": conorm,
        "cover": {"space": additive, "sequence": list(additive["points"]) * 2},
        "luxemburg": additive,
        "graph": graph_to_json(random_strongly_connected_graph(rng, 4)),
        "orlicz": {"space": space.to_json(), "functions": functions,
                   "phi": random_orlicz_family(rng, space).to_json(),
                   "psi1": random_orlicz_family(rng, space).to_json(),
                   "psi2": random_orlicz_family(rng, space).to_json()},
        "envelope": {"points": list(points),
                     "distance": {f"{x}|{y}": v for (x, y), v in rho.items()},
                     "domain": list(points[:2]),
                     "values": {points[0]: 0.0, points[1]: 0.5},
                     "lipschitz": 1.0},
    }


# ---------------------------------------------------------------------------
# the command line


def _refuse_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


def strict_json(text):
    """The report parsed as JSON proper: NaN, Infinity and -Infinity raise."""
    return json.loads(text, parse_constant=_refuse_constant)


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(tmp_path, command, doc, *extra):
    """(exit code, parsed report) of `quasimod <command>` on `doc`."""
    src = write_doc(tmp_path, "in.json", doc)
    out = tmp_path / "out.json"
    code = main([command, "--input", src, "--output", str(out), *extra])
    return code, strict_json(out.read_text(encoding="utf-8"))

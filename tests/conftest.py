"""Shared randomized-corpus builders.

Every generated table lives on a dyadic lattice (small integers over 64,
16, 8, or 4), so sums, products, and conorm combinations are exact in
double precision.  Exactness matters: the checkers compare with plain
`<=`, and the corpus constructions below carry mathematical triangle /
monotonicity guarantees that exact arithmetic turns into bit-level ones.
No tolerance fudging is needed anywhere in the suite.
"""

import dataclasses
import random

from quasimod import (
    INF,
    DirectedGraph,
    DiscreteMeasureSpace,
    Edge,
    GaugeSpec,
    MusielakOrlicz,
    Regime,
    ScaleGrid,
    TConorm,
    make_min_cap,
    make_one_sided_integral,
    make_sublinear,
)


def points_named(n, prefix="p"):
    return tuple(f"{prefix}{i}" for i in range(n))


def rng_for(seed):
    return random.Random(seed)


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
    for y in points:
        for x in points:
            for z in points:
                cand = d[(x, y)] + d[(y, z)]
                if cand < d[(x, z)]:
                    d[(x, z)] = cand
    while True:
        changed = False
        for y in points:
            for x in points:
                for z in points:
                    cand = d[(x, y)] + d[(y, z)]
                    if cand < d[(x, z)]:
                        d[(x, z)] = cand
                        changed = True
        if not changed:
            return d


def random_quasi_pseudometric(rng, points):
    """Asymmetric distance table with entries in [0.5, 3.0] on a 1/16 grid."""
    d = {}
    for x in points:
        for y in points:
            d[(x, y)] = 0.0 if x == y else rng.randrange(8, 49) / 16
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
    return dataclasses.replace(g, grid=cap_inactive_grid(vals))


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

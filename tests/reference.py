"""The reports by definition, one ordered pair at a time.

A gauge value is read from its table row at the least grid scale >= t (the
last one past the grid), or from its closed form.  A point lies in a ball
when its value, or both its values, lie below the radius; nets, cells and
tails are lists of such points, and a topology is closed from its balls as
a Python set of position masks.  Path distances come from
`min_plus_closure`, and a sum that decides a verdict is compared exactly,
in `fractions.Fraction`.

The library tests compare the sweeps, covers and topologies with these on
point subsets and foreign grids, and `report(command, doc, flags)` builds
the complete report dict and exit code of `check-axioms`, `cover`,
`topology`, `graph` (with or without `--grid`), `luxemburg` and
`envelope` on a valid document.  `orlicz` is left out: its norms are
searched, not read; but every command, `orlicz` too, refuses a flag it does
not read, and a command that reads `--conorm` refuses it on an
additive-regime gauge.  Needs neither pytest nor hypothesis.
"""

import functools
import math
from fractions import Fraction
from types import MappingProxyType

from quasimod import (INF, AxiomReport, CellInclusionError, CoverResult,
                      GaugeSpec, Regime, ScaleGrid, TConorm, Violation,
                      conorm_from_name, format_ext, gauge_from_json,
                      graph_from_json)
from quasimod.completeness import HeineBorelRow
from quasimod.envelopes import envelope_from_json
from quasimod.extreal import point_resolver

from conftest import min_plus_closure

# ---------------------------------------------------------------------------
# values and sums


@functools.lru_cache(maxsize=1 << 16)
def value(g, x, y, t):
    """w(x, y, t) read pair by pair: the table entry at the smallest grid
    scale >= t (the last one past the grid), or the closed form."""
    if g.table is None:
        return float(g.fn(x, y, t))
    row = g.table[(x, y)]
    for k, s in enumerate(g.grid):
        if s >= t:
            return row[k]
    return row[-1]


def law(g):
    """The gauge's conorm, or None for the additive regime."""
    return g.conorm if g.regime is Regime.CONORM else None


@functools.lru_cache(maxsize=1 << 16)
def exact(a, b, conorm=None):
    """a (+) b exactly: a Fraction, or +inf."""
    if conorm is None:
        return INF if INF in (a, b) else Fraction(a) + Fraction(b)
    a, b = Fraction(a), Fraction(b)
    if conorm is TConorm.MAX:
        return max(a, b)
    if conorm is TConorm.PROBABILISTIC_SUM:
        return a + b - a * b
    return min(Fraction(1), a + b)


def oplus(a, b, conorm=None):
    """a (+) b rounded once, as a report writes it."""
    if conorm is TConorm.PROBABILISTIC_SUM:
        return float(exact(a, b, conorm))
    if conorm is None:
        return a + b
    return max(a, b) if conorm is TConorm.MAX else min(1.0, a + b)


def exceeds(v, a, b, conorm=None):
    """v > a (+) b, decided exactly.  Rounding to nearest is monotone, so
    the rounded sum decides every case but a tie with v."""
    s = a + b if conorm is None else oplus(a, b, conorm)
    return v > s if v != s else v > exact(a, b, conorm)


def split(g, r):
    """The radius s that a cover shrinks r to: r/4 under +, the conorm's
    r/2 where r/2 (+) r/2 < r in floats, else r/4."""
    c = law(g)
    return r / 2.0 if c and oplus(r / 2.0, r / 2.0, c) < r else r / 4.0


# ---------------------------------------------------------------------------
# axioms


def axioms(g, points=None, grid=None):
    """`check_axioms` by definition: every pair and scale, each split
    (s, t) read at the least grid scale u >= s + t, and the witnesses of
    the triangle listed in x, z, y, split order."""
    points = g.points if points is None else tuple(points)
    grid = grid or g.grid
    c = law(g)
    w = {(x, y, t): value(g, x, y, t)
         for x in points for y in points for t in grid}
    pairs = [(x, y) for x in points for y in points]
    out = [("zero-self", (x, t), w[x, x, t], 0.0)
           for x in points for t in grid if w[x, x, t] != 0.0]
    if c:
        for x, y in pairs:
            for t in grid:
                if x != y and w[x, y, t] == 0.0:
                    out.append(("separation", (x, y, t), 0.0, 0.0))
                if w[x, y, t] >= 1.0:
                    out.append(("bounded", (x, y, t), w[x, y, t], 1.0))
    out += [("scale-monotone", (x, y, s, t), w[x, y, t], w[x, y, s])
            for x, y in pairs for s, t in zip(grid, grid[1:])
            if w[x, y, s] < w[x, y, t]]
    splits = [(s, t, u) for s in grid for t in grid
              for u in [next((u for u in grid
                              if u >= Fraction(s) + Fraction(t)), None)]
              if u is not None]
    if all(w[x, y, t] == w[x, y, grid[0]] for x, y in pairs for t in grid):
        splits = splits[:1]  # every split reads the same values
    out += [("triangle", (x, y, z, s, t, u), w[x, z, u],
             oplus(w[x, y, s], w[y, z, t], c))
            for x in points for z in points for y in points
            for s, t, u in splits if exceeds(w[x, z, u], w[x, y, s],
                                             w[y, z, t], c)]
    notes = [] if splits else [
        "no grid pair sums land on the grid; triangle not checkable"]
    symmetric = all(w[x, y, t] == w[y, x, t] for x, y in pairs for t in grid)
    claim = g.claims_symmetric
    notes.append(f"claims_symmetric={claim} " + (
        "confirmed" if symmetric == claim else
        f"refuted: table is {'symmetric' if symmetric else 'asymmetric'}"))
    checked = ("zero-self", "separation", "bounded", "triangle",
               "scale-monotone") if c else ("zero-self", "triangle",
                                            "scale-monotone")
    return AxiomReport(checked, tuple(map(Violation._make, out)), tuple(notes))


def quasi_pseudometric(d, points):
    """`quasi_pseudometric_check` by definition, over the (x, y, z) loop; a
    missing entry is 0 on the diagonal and +inf elsewhere."""
    points = tuple(points)

    def get(a, b):
        return float(d.get((a, b), 0.0 if a == b else INF))

    out = [("zero-self", (x,), get(x, x), 0.0)
           for x in points if get(x, x) != 0.0]
    out += [("triangle", (x, y, z), get(x, z), get(x, y) + get(y, z))
            for x in points for y in points for z in points
            if exceeds(get(x, z), get(x, y), get(y, z))]
    symmetric = all(get(x, y) == get(y, x) for x in points for y in points)
    return AxiomReport(("zero-self", "triangle"),
                       tuple(map(Violation._make, out)),
                       ("table is symmetric" if symmetric
                        else "table is asymmetric",))


# ---------------------------------------------------------------------------
# thresholds, balls, nets, covers and tails


def radii(g, points=None, grid=None):
    """Every distinct positive value below the cap, the midpoints between
    consecutive ones, and one radius above the top where one lies below
    the cap: a strict ball at any radius is a ball at one of these."""
    points = g.points if points is None else tuple(points)
    grid, cap = grid or g.grid, 1.0 if law(g) else INF
    values = sorted({v for x in points for y in points for t in grid
                     for v in [value(g, x, y, t)] if 0 < v < cap})
    if not values:
        return (0.5 if law(g) else 1.0,)
    out = set(values) | {(a + b) / 2.0 for a, b in zip(values, values[1:])}
    top = values[-1]
    above = (top + 1.0) / 2.0 if law(g) else \
        max(top + 1.0, math.nextafter(top, INF))
    return tuple(sorted(out | ({above} if above < cap else set())))


def in_ball(g, center, y, r, t, side):
    if side == "forward":
        return value(g, center, y, t) < r
    if side == "backward":
        return value(g, y, center, t) < r
    return value(g, center, y, t) < r and value(g, y, center, t) < r


def greedy_net(points, g, r, t, side):
    """First-uncovered greedy net over the sample: each point in no ball
    around an earlier centre becomes a centre.  Verified pair by pair."""
    sample, centers = tuple(points), []
    for p in sample:
        if not any(in_ball(g, c, p, r, t, side) for c in centers):
            centers.append(p)
    verified = all(any(in_ball(g, c, q, r, t, side) for c in centers)
                   for q in sample)
    return CoverResult(tuple(centers), r, t, side, sample, verified)


def two_sided(g, forward, backward, r, t):
    """The cover composed from one-sided nets at (s, t/2): one cell per
    centre pair, represented by its first point.  Returns the cover, or
    the `CellInclusionError` fields of the first escape as a tuple."""
    s, t_half, sample = forward.radius_r, t / 2.0, forward.sample
    centers = []
    for x_i in forward.centers:
        for y_j in backward.centers:
            cell = [u for u in sample if value(g, x_i, u, t_half) < s
                    and value(g, u, y_j, t_half) < s]
            if not cell:
                continue
            z = cell[0]
            for u in cell:
                out, back = value(g, z, u, t), value(g, u, z, t)
                if not (out < r and back < r):
                    return ((x_i, y_j), z, u, out, back, r)
            if z not in centers:
                centers.append(z)
    verified = all(any(value(g, c, u, t) < r and value(g, u, c, t) < r
                       for c in centers) for u in sample)
    return CoverResult(tuple(centers), r, t, "two_sided", sample, verified)


def heine_borel_rows(g, points, pairs):
    """One `heine_borel_report` row per (r, t) of `pairs`."""
    rows = []
    for r, t in pairs:
        s = split(g, r)
        fwd = greedy_net(points, g, s, t / 2.0, "forward")
        bwd = greedy_net(points, g, s, t / 2.0, "backward")
        direct = greedy_net(points, g, r, t, "two_sided")
        size, ok, witness = None, fwd.verified and bwd.verified, None
        if ok:
            out = two_sided(g, fwd, bwd, r, t)
            if not isinstance(out, CoverResult):  # an escape's fields
                ok, witness = False, str(CellInclusionError(*out))
            else:
                size, ok = len(out.centers), out.verified
        rows.append(HeineBorelRow(r, t, s, len(fwd.centers), len(bwd.centers),
                                  len(direct.centers), size, ok, witness))
    return tuple(rows)


def tail_start(n, good):
    """Least 1-based i0 with good(i, j) for all i0 <= i <= j <= n."""
    worst = max((i for i in range(1, n + 1) for j in range(i, n + 1)
                 if not good(i, j)), default=0)
    return None if worst == n else worst + 1


def cauchy(pts, g, r, t):
    """Forward and backward tail starts of the sequence at (r, t)."""
    f = tail_start(len(pts), lambda i, j:
                   value(g, pts[i - 1], pts[j - 1], t) < r)
    b = tail_start(len(pts), lambda i, j:
                   value(g, pts[j - 1], pts[i - 1], t) < r)
    return f, b


def cauchy_rows(pts, g, pairs):
    """(r, t, kind, i0, forward i0, backward i0) per (r, t): on a finite
    sample the one-point tail qualifies on both sides or on neither."""
    rows = []
    for r, t in pairs:
        f, b = cauchy(pts, g, r, t)
        rows.append((r, t, "bi", max(f, b), f, b) if f and b else
                    (r, t, "neither", None, None, None))
    return rows


def converges_to(pts, g, x, r, t, side):
    return in_ball(g, x, pts[-1], r, t, side) and any(
        all(in_ball(g, x, y, r, t, side) for y in pts[i0:])
        for i0 in range(len(pts)))


# ---------------------------------------------------------------------------
# finite topologies


def closure(n, masks):
    """Generated topology: close the masks, the empty set and the whole
    space under pairwise intersection and union."""
    family = {0, (1 << n) - 1} | set(masks)
    while True:
        grown = family | {a & b for a in family for b in family} \
            | {a | b for a in family for b in family}
        if grown == family:
            return family
        family = grown


def hoods(n, rows):
    """Smallest open set around each point of the topology whose subbase
    is `rows`: the AND of the rows that hold the point."""
    out = [(1 << n) - 1] * n
    for row in set(rows):
        for i in range(n):
            if row >> i & 1:
                out[i] &= row
    return tuple(out)


def listing(points, masks):
    """The open sets as point lists, by size, then by point positions."""
    bits = sorted(([i for i in range(len(points)) if m >> i & 1]
                   for m in masks), key=lambda b: (len(b), b))
    return [[points[i] for i in b] for b in bits]


def ball_rows(g, side, points=None, grid=None):
    """The strict balls on one side around each point at every critical
    radius and grid scale, as bitmasks over the points."""
    points = g.points if points is None else tuple(points)
    grid = grid or g.grid
    return [sum(1 << j for j, y in enumerate(points)
                if in_ball(g, x, y, r, t, side))
            for r in radii(g, points, grid) for t in grid for x in points]


def symmetrized(g, grid=None):
    """The closed form of (x, y, t) -> w(x, y, t) and w(y, x, t) combined
    by max under +, by the conorm otherwise."""
    c = law(g)

    def fn(x, y, t):
        a, b = value(g, x, y, t), value(g, y, x, t)
        return oplus(a, b, c) if c else max(a, b)

    return GaugeSpec(regime=g.regime, points=g.points, conorm=g.conorm,
                     grid=grid or g.grid, claims_symmetric=True, fn=fn)


def topologies(g, points=None, grid=None):
    """The smallest open sets of tau+, tau-, their join and tau_sym."""
    points = g.points if points is None else tuple(points)
    n, grid = len(points), grid or g.grid
    plus = ball_rows(g, "forward", points, grid)
    minus = ball_rows(g, "backward", points, grid)
    sym = ball_rows(symmetrized(g, grid), "two_sided", points, grid)
    return (hoods(n, plus), hoods(n, minus), hoods(n, plus + minus),
            hoods(n, sym))


# ---------------------------------------------------------------------------
# paths and infima


def path_distances(graph):
    """d(x, y) over the vertices: the cheapest edges, min-plus closed; a
    read-only map, shared by every call on the same graph."""
    return _closed(graph.vertices,
                   tuple((e.u, e.v, e.cost) for e in graph.edges))


@functools.lru_cache(maxsize=64)
def _closed(vs, edges):
    d = {(x, y): 0.0 if x == y else INF for x in vs for y in vs}
    for u, v, cost in edges:
        if u != v:
            d[u, v] = min(d[u, v], cost)
    return MappingProxyType(min_plus_closure(vs, d))  # one copy per graph


def luxemburg_infimum(g, x, y, c=1.0):
    """inf{t > 0 : w(x, y, t) <= c} on a table: 0.0, a grid scale or +inf.
    Raises ValueError where the row rises, as the scale-monotone axiom
    reads it (grids below 1e12)."""
    grid = g.grid.scales
    row = [value(g, x, y, t) for t in grid]
    for s, t, a, b in zip(grid, grid[1:], row, row[1:]):
        if a < b:
            raise ValueError(f"value increases with the scale: {a} at {s} "
                             f"but {b} at {t}")
    k = next((k for k, v in enumerate(row) if v <= c), None)
    return INF if k is None else 0.0 if k == 0 else grid[k - 1]


# ---------------------------------------------------------------------------
# reports


HB_KEYS = ("radius", "scale", "split", "forward_size", "backward_size",
           "direct_size", "composed_size", "composed_ok", "witness")
CAUCHY_KEYS = ("radius", "scale", "kind", "i0", "forward_i0", "backward_i0")


def axioms_doc(report):
    return {"checked": list(report.checked), "notes": list(report.notes),
            "violations": [{"axiom": a, "witness": list(w),
                            "lhs": format_ext(lhs), "rhs": format_ext(rhs)}
                           for a, w, lhs, rhs in report.violations]}


def pair_map(points, d):
    return {f"{x}|{y}": format_ext(d(x, y)) for x in points for y in points}


def _gauge_report(command, g, opts, sequence):
    if command == "check-axioms":
        check = axioms(g)
        return {"command": command, "axioms": axioms_doc(check)}, \
            int(bool(check.violations))
    if command == "topology":
        plus, minus, join, sym = topologies(g)
        doc = {"command": command, "join_equals_sym": join == sym}
        for key, hood in zip(("tau_plus", "tau_minus", "join", "tau_sym"),
                             (plus, minus, join, sym)):
            doc[key] = listing(g.points, closure(len(g.points), hood))
        return doc, int(join != sym)
    if command == "cover":
        pairs = [(r, t) for r in radii(g) for t in g.grid]
        rows = heine_borel_rows(g, g.points, pairs)
        ok = all(row.composed_ok for row in rows)
        doc = {"command": command, "heine_borel": {
            "rows": [dict(zip(HB_KEYS, row)) for row in rows],
            "all_composed_ok": ok}}
        if sequence:
            doc["cauchy"] = [dict(zip(CAUCHY_KEYS, row))
                             for row in cauchy_rows(sequence, g, pairs)]
        return doc, int(not ok)
    if command != "luxemburg" or g.regime is not Regime.ADDITIVE:
        raise ValueError(f"no reference report for {command!r} on {g.name}")
    try:
        d = {(x, y): luxemburg_infimum(g, x, y)
             for x in g.points for y in g.points}
    except ValueError as exc:
        return (f"quasimod: error: luxemburg distances need a gauge "
                f"nonincreasing in the scale: {exc}\n"), 2
    return {"command": command, "tol": 1e-9,
            "distances": pair_map(g.points, lambda x, y: d[x, y]),
            "symmetrized": pair_map(g.points, lambda x, y:
                                    max(d[x, y], d[y, x]))}, 0


# the flags each command reads besides --input and --output, and the
# commands that write a .csv --output, as their distance matrix
READS = {"check-axioms": ("--grid", "--conorm"),
         "topology": ("--grid", "--conorm"), "cover": ("--grid", "--conorm"),
         "luxemburg": ("--grid",), "graph": ("--grid",), "orlicz": ("--tol",),
         "envelope": ()}
WRITES_CSV = ("graph", "luxemburg")


def report(command, doc, flags=()):
    """(report dict, exit code) of `quasimod <command>` with `flags` on a
    valid document, or (its stderr text, 2) where the command refuses it:
    `luxemburg` on a table whose row rises and `--conorm` on an
    additive-regime gauge.  A flag the command does not read, and a .csv
    `--output` of a command that writes no CSV, give (its `quasimod:
    error:` line, 2): the command-line reader writes the usage above it."""
    opts = dict(zip(flags[::2], flags[1::2]))
    for flag in ("--tol", "--grid", "--conorm"):
        if flag in opts and flag not in READS[command]:
            return f"quasimod: error: {command} takes no {flag}\n", 2
    if opts.get("--output", "").endswith(".csv") and \
            command not in WRITES_CSV:
        return f"quasimod: error: {command} takes no .csv --output\n", 2
    grid = opts.get("--grid") and ScaleGrid(
        tuple(map(float, opts["--grid"].split(","))))
    if command == "graph":
        graph = graph_from_json(doc)
        vs, d = graph.vertices, path_distances(graph)
        n = len(vs)
        asym = sum(d[x, y] != d[y, x] for x in vs for y in vs) / (n * n - n) \
            if n > 1 else 0.0
        out = {"command": command, "asymmetry_index": asym,
               "forward": pair_map(vs, lambda x, y: d[x, y]),
               "backward": pair_map(vs, lambda x, y: d[y, x])}
        if not grid:
            return out, 0
        check = axioms(GaugeSpec(
            regime=Regime.ADDITIVE, points=vs, grid=grid,
            claims_symmetric=all(d[x, y] == d[y, x] for x in vs for y in vs),
            fn=lambda x, y, t: min(d[x, y], t)))
        return dict(out, axioms=axioms_doc(check)), \
            int(bool(check.violations))
    if command == "envelope":
        points, d, f = envelope_from_json(doc)
        check = quasi_pseudometric(d, points)

        def dist(x, y):
            v = d.get((x, y), 0.0 if x == y else INF)
            return v * f.lipschitz_L if v and f.lipschitz_L else 0.0

        return {"command": command, "distance_check": axioms_doc(check),
                "upper": {str(x): format_ext(min(f.values[a] + dist(x, a)
                                                 for a in f.domain))
                          for x in points},
                "lower": {str(x): format_ext(max(f.values[a] - dist(a, x)
                                                 for a in f.domain))
                          for x in points}}, int(bool(check.violations))
    space = doc["space"] if command == "cover" and "space" in doc else doc
    g = gauge_from_json(space)
    if grid:
        g = g._replace(grid=grid, table={
            (x, y): tuple(value(g, x, y, t) for t in grid)
            for x in g.points for y in g.points})
    if "--conorm" in opts:
        if not law(g):
            return "quasimod: error: --conorm needs a conorm-regime gauge\n", 2
        g = g._replace(conorm=conorm_from_name(opts["--conorm"]))
    sequence = [point_resolver(g.points)(i)
                for i in (space is not doc and doc.get("sequence")) or ()]
    return _gauge_report(command, g, opts, sequence)

"""Scale-indexed asymmetric distance families (gauges) and their constructors.

A gauge assigns a value w(x, y, t) to an ordered point pair at a scale t > 0.
Two regimes are supported:

* additive: values in [0, inf], triangle combined with +;
* conorm: values in [0, 1), triangle combined with a t-conorm.

`GaugeSpec.oplus` is that combination and `split_radius` the radius step
built on it; no other module decides between the two regimes' laws.

Gauges are immutable.  They are either closed-form (a function of x, y, t)
or tabulated (one value per ordered pair per grid scale, read with the
right-continuous ceil convention of Profile).  `matrix(t)` holds every
value at one scale as rows in point order (one prebuilt per grid column);
grid sweeps read `sample`, those matrices stacked along a grid.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from operator import add, eq, gt
from typing import Callable, Mapping

from .conorms import TConorm, conorm_from_name
from .extreal import INF, ensure_ext, ext_mul, format_ext, parse_ext
from .profiles import Profile, ScaleGrid

EPS_BELOW_ONE = 1.0 - 2.0 ** -52


class Regime(enum.Enum):
    ADDITIVE = "additive"
    CONORM = "conorm"


@dataclass(frozen=True, eq=False)
class GaugeSpec:
    regime: Regime
    points: tuple
    conorm: TConorm | None = None
    grid: ScaleGrid | None = None
    claims_symmetric: bool = False
    claims_convex: bool = False
    name: str = "gauge"
    warnings: tuple[str, ...] = ()
    fn: Callable[[object, object, float], float] | None = field(default=None, repr=False)
    table: dict | None = field(default=None, repr=False)

    def __post_init__(self):
        points = tuple(self.points)
        if not points:
            raise ValueError("gauge needs a nonempty point set")
        if len(set(points)) != len(points):
            raise ValueError("gauge points must be distinct")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(points)})
        if self.regime is Regime.CONORM and self.conorm is None:
            raise ValueError("conorm-regime gauge needs a TConorm")
        if (self.fn is None) == (self.table is None):
            raise ValueError("gauge needs exactly one of fn or table")
        if self.table is not None:
            if self.grid is None:
                raise ValueError("tabulated gauge needs a grid")
            table = {}
            m = len(self.grid)
            for x in points:
                for y in points:
                    row = self.table.get((x, y))
                    if row is None:
                        if x != y:
                            raise ValueError(f"table is missing the pair ({x!r}, {y!r})")
                        row = (0.0,) * m
                    row = tuple(ensure_ext(v, f"table value for ({x!r}, {y!r})")
                                for v in row)
                    if len(row) != m:
                        raise ValueError(f"table row for ({x!r}, {y!r}) needs "
                                         f"{m} values, got {len(row)}")
                    if self.regime is Regime.CONORM and any(v > 1.0 for v in row):
                        raise ValueError(f"conorm-regime values must stay within "
                                         f"[0, 1], got {max(row)!r} for ({x!r}, {y!r})")
                    table[(x, y)] = row
            object.__setattr__(self, "table", table)
            object.__setattr__(self, "_columns", tuple(
                tuple(tuple(table[(x, y)][k] for y in points) for x in points)
                for k in range(m)))

    def index(self, x) -> int:
        """Position of x in `points`."""
        try:
            return self._index[x]
        except KeyError:
            raise ValueError(f"unknown point {x!r}") from None

    def matrix(self, t: float) -> tuple[tuple[float, ...], ...]:
        """Entry [i][j] is w(points[i], points[j], t), read like `value`:
        the ceil grid column of a table, or the closed form at t itself."""
        if not t > 0:
            raise ValueError(f"scale must be positive, got {t!r}")
        if self.table is not None:
            k = self.grid.ceil_index(t)
            return self._columns[-1 if k is None else k]
        return tuple(tuple(float(self.fn(x, y, t)) for y in self.points)
                     for x in self.points)

    def sample(self, points=None, grid: ScaleGrid | None = None):
        """(points, grid, stack) with stack[k][i][j] = w(points[i],
        points[j], grid[k]), read from `matrix(grid[k])`: the block every
        grid sweep reads.  Points default to the gauge's own and the grid
        to its grid; every row is a fresh list, so a sweep may write to it."""
        points = self.points if points is None else tuple(points)
        grid = grid or self.grid
        if grid is None:
            raise ValueError("no grid to sample on")
        idx = [self.index(x) for x in points]
        return points, grid, [[list(map(mat[i].__getitem__, idx)) for i in idx]
                              for mat in map(self.matrix, grid)]

    def value(self, x, y, t: float) -> float:
        if not t > 0:
            raise ValueError(f"scale must be positive, got {t!r}")
        i, j = self.index(x), self.index(y)
        if self.table is not None:
            return self.matrix(t)[i][j]
        return float(self.fn(x, y, t))

    @property
    def oplus(self) -> Callable[[float, float], float]:
        """The regime's triangle law: + for an additive gauge, the conorm's
        `apply` otherwise."""
        return add if self.regime is Regime.ADDITIVE else self.conorm.apply

    def split_radius(self, r: float) -> float:
        """The radius s that a cover or composite shrinks r to, with
        0 < s and s (+) s < r: `half_radius(r)` under a conorm, r/4 under +.
        Raises ValueError where floats hold no such s."""
        s = r / 4.0 if self.regime is Regime.ADDITIVE \
            else self.conorm.half_radius(r)
        if not (s > 0 and self.oplus(s, s) < r):
            raise ValueError(f"radius {r!r} has no split s > 0 with "
                             f"s (+) s < r (tried s = {s!r})")
        return s

    def profile(self, x, y, grid: ScaleGrid | None = None) -> Profile:
        grid = grid or self.grid
        if grid is None:
            raise ValueError("no grid to sample the profile on")
        return Profile(grid, tuple(self.value(x, y, t) for t in grid))

    def tabulated(self, grid: ScaleGrid | None = None) -> "GaugeSpec":
        """Materialize the gauge as a table on the given (or own) grid."""
        grid = grid or self.grid
        if grid is None:
            raise ValueError("no grid to tabulate on")
        if self.table is not None and grid == self.grid:
            return self
        columns = [self.matrix(t) for t in grid]
        table = {(x, y): tuple(c[i][j] for c in columns)
                 for i, x in enumerate(self.points)
                 for j, y in enumerate(self.points)}
        return replace(self, grid=grid, fn=None, table=table)


def triangle_violations(lhs, left=None, right=None, oplus=add) -> list[tuple]:
    """Index triples (i, j, k) with lhs[i][k] > oplus(left[i][j],
    right[j][k]), in ascending (i, j, k) order, each as (i, j, k, lhs, rhs).

    The three are square lists of row lists over one point order; left and
    right default to lhs, and values may be +inf.  Each (i, j) is decided by
    one C-level pass over lhs row i and right row j, and k is scanned only
    where that pass finds a violation.
    """
    left = lhs if left is None else left
    right = lhs if right is None else right
    out = []
    for i, (row_i, left_i) in enumerate(zip(lhs, left)):
        for j, (d_ij, row_j) in enumerate(zip(left_i, right)):
            if any(map(gt, row_i, map(oplus, repeat(d_ij), row_j))):
                for k, (v, d_jk) in enumerate(zip(row_i, row_j)):
                    rhs = oplus(d_ij, d_jk)
                    if v > rhs:
                        out.append((i, j, k, v, rhs))
    return out


def _table_rows(d: Mapping, points: tuple) -> list[list[float]]:
    """Row lists of a distance table over points; a missing entry is 0 on
    the diagonal and +inf elsewhere."""
    get = d.get
    return [[float(get((x, y), 0.0 if x == y else INF)) for y in points]
            for x in points]


def _rows_symmetric(rows) -> bool:
    # operator.eq, not list ==, which would call a nan equal to itself
    return all(map(eq, chain.from_iterable(rows),
                   chain.from_iterable(zip(*rows))))


def _row_violations(rows, points: tuple) -> list[tuple]:
    out = [("zero-self", (x,), rows[i][i], 0.0)
           for i, x in enumerate(points) if rows[i][i] != 0.0]
    out.extend(("triangle", (points[i], points[j], points[k]), lhs, rhs)
               for i, j, k, lhs, rhs in triangle_violations(rows))
    return out


def quasi_pseudometric_violations(d: Mapping, points) -> list[tuple]:
    """Zero-self and triangle failures of a distance table.

    Returns (axiom id, witness, lhs, rhs) tuples; missing diagonal entries
    count as 0.  Values may be +inf.
    """
    points = tuple(points)
    return _row_violations(_table_rows(d, points), points)


def _require_quasi_pseudometric(d: Mapping, points: tuple,
                                what: str) -> list[list[float]]:
    """The table's rows; raises with the first violation's witness."""
    rows = _table_rows(d, points)
    bad = _row_violations(rows, points)
    if bad:
        axiom, witness, lhs, rhs = bad[0]
        raise ValueError(f"{what} violates the {axiom} axiom at {witness}: "
                         f"{lhs} > {rhs}" if axiom == "triangle" else
                         f"{what} violates the {axiom} axiom at {witness}: "
                         f"got {lhs}, expected {rhs}")
    return rows


def _pair_values(rows, points: tuple) -> dict:
    return {(x, y): v for x, row in zip(points, rows)
            for y, v in zip(points, row)}


def make_min_cap(rho: Mapping, points=None, grid: ScaleGrid | None = None,
                 name: str = "min_cap") -> GaugeSpec:
    """Cap a quasi-pseudometric at the scale: w(x, y, t) = min(rho(x, y), t).

    rho is validated (zero on the diagonal, triangle inequality); a violation
    raises with a witness.  Entries may be +inf, in which case the cap always
    binds for that pair.
    """
    points = tuple(points) if points is not None else _infer_points(rho)
    rows = _require_quasi_pseudometric(rho, points, "rho")
    return _min_cap_rows(rows, points, grid, name)


def _min_cap_rows(rows, points: tuple, grid: ScaleGrid | None,
                  name: str) -> GaugeSpec:
    """`make_min_cap` on row lists in point order, with no validation."""
    vals = _pair_values(rows, points)
    return GaugeSpec(
        regime=Regime.ADDITIVE, points=points, grid=grid, name=name,
        claims_symmetric=_rows_symmetric(rows),
        fn=lambda x, y, t: min(vals[(x, y)], t))


def make_ratio(p: Mapping, points=None, name: str = "ratio") -> GaugeSpec:
    """Saturating transform of a quasi-pseudometric: w = p / (t + p).

    Lands in [0, 1) with conorm Max.  Pairs with p = +inf would need the
    excluded value 1 and are clamped just below it, with a recorded warning.
    """
    points = tuple(points) if points is not None else _infer_points(p)
    rows = _require_quasi_pseudometric(p, points, "p")
    vals = _pair_values(rows, points)
    warnings = ()
    if any(v == INF for v in vals.values()):
        warnings = ("infinite distances clamp to 1 - 2**-52",)

    def fn(x, y, t):
        v = vals[(x, y)]
        return EPS_BELOW_ONE if v == INF else v / (t + v)

    return GaugeSpec(
        regime=Regime.CONORM, points=points, conorm=TConorm.MAX, name=name,
        claims_symmetric=_rows_symmetric(rows),
        warnings=warnings, fn=fn)


def make_scaled_metric(d: Mapping, g: Profile, points=None,
                       name: str = "scaled_metric") -> GaugeSpec:
    """Separable gauge w(x, y, t) = g(t) * d(x, y) for a nonincreasing g.

    Raises with a witness scale pair if g increases anywhere on its grid.
    The convexity claim is set iff t * g(t) is nonincreasing on the grid.
    """
    bad = g.nonincreasing_violations()
    if bad:
        t0, t1, v0, v1 = bad[0]
        raise ValueError(f"profile must be nonincreasing: g({t0}) = {v0} "
                         f"< g({t1}) = {v1}")
    points = tuple(points) if points is not None else _infer_points(d)
    rows = _require_quasi_pseudometric(d, points, "d")
    symmetric = _rows_symmetric(rows)
    warnings = () if symmetric else ("distance table is asymmetric",)
    vals = _pair_values(rows, points)
    scaled = [ext_mul(t, g.value_at(t)) for t in g.grid]
    convex = all(a >= b for a, b in zip(scaled, scaled[1:]))
    return GaugeSpec(
        regime=Regime.ADDITIVE, points=points, grid=g.grid, name=name,
        claims_symmetric=symmetric, claims_convex=convex,
        warnings=warnings, fn=lambda x, y, t: ext_mul(g.value_at(t), vals[(x, y)]))


def make_classical_modular(rho: Callable[[object], float], points,
                           name: str = "classical_modular") -> GaugeSpec:
    """Gauge from a functional on vector differences: w(x, y, t) = rho((x-y)/t).

    Points are vectors (scalars or tuples).  rho(0) = 0 is required; convexity
    and monotonicity of rho along the sampled difference rays set the convexity
    claim and are otherwise only recorded as warnings.
    """
    points = tuple(points)
    zero = _vzero(points[0])
    if float(rho(zero)) != 0.0:
        raise ValueError(f"rho(0) must be 0, got {rho(zero)!r}")
    warnings = []
    convex = True
    for x in points:
        for y in points:
            v = _vsub(x, y)
            if v == zero:
                continue
            samples = [(a, float(rho(_vscale(v, a)))) for a in (0.25, 0.5, 0.75, 1.0)]
            for (a, ra), (b, rb) in zip(samples, samples[1:]):
                if ra > rb:
                    convex = False
                    warnings.append(f"rho decreases along the ray through {v!r}")
            for (a, ra), (b, rb), (c, rc) in zip(samples, samples[1:], samples[2:]):
                # uniform spacing makes rb the midpoint value of ra and rc
                if rb > (ra + rc) / 2.0 + 1e-12:
                    convex = False
                    warnings.append(f"rho is not midpoint convex along {v!r}")
    return GaugeSpec(
        regime=Regime.ADDITIVE, points=points, name=name,
        claims_symmetric=all(rho(_vsub(x, y)) == rho(_vsub(y, x))
                             for x in points for y in points),
        claims_convex=convex, warnings=tuple(dict.fromkeys(warnings)),
        fn=lambda x, y, t: ensure_ext(float(rho(_vscale(_vsub(x, y), 1.0 / t)))))


def make_sublinear(p: Callable[[object], float], points,
                   grid: ScaleGrid | None = None,
                   name: str = "sublinear_cap") -> GaugeSpec:
    """Capped gauge from an asymmetric sublinear functional on vectors.

    Sets rho(x, y) = p(y - x) and caps at the scale.  Subadditivity of p makes
    rho a quasi-pseudometric; the induced table is validated, so a p that is
    not subadditive on the sampled differences raises with a witness.
    """
    points = tuple(points)
    if float(p(_vzero(points[0]))) != 0.0:
        raise ValueError(f"p(0) must be 0, got {p(_vzero(points[0]))!r}")
    rho = {}
    for x in points:
        for y in points:
            v = float(p(_vsub(y, x)))
            ensure_ext(v, f"p({_vsub(y, x)!r})")
            rho[(x, y)] = v
    return make_min_cap(rho, points, grid, name=name)


def make_one_sided_integral(masses, Phi: Callable[[float], float], functions,
                            grid: ScaleGrid | None = None,
                            name: str = "one_sided_cap") -> GaugeSpec:
    """Capped gauge on functions from a one-sided integral distance.

    rho(f, g) = sum_i mu_i * Phi(max(f_i - g_i, 0)), capped at the scale.
    masses maps sample ids to positive weights; functions maps function ids
    to value dicts over the same sample ids.  The induced rho is validated
    as a quasi-pseudometric, so a Phi that breaks subadditivity (any strictly
    convex Phi does, on suitable inputs) raises with a witness.
    """
    masses = dict(masses)
    if any(not mu > 0 for mu in masses.values()):
        raise ValueError("masses must be positive")
    if float(Phi(0.0)) != 0.0:
        raise ValueError(f"Phi(0) must be 0, got {Phi(0.0)!r}")
    functions = {fid: dict(f) for fid, f in functions.items()}
    ids = tuple(functions)
    rho = {}
    for a in ids:
        for b in ids:
            fa, fb = functions[a], functions[b]
            rho[(a, b)] = sum(mu * float(Phi(max(fa[i] - fb[i], 0.0)))
                              for i, mu in masses.items())
    return make_min_cap(rho, ids, grid, name=name)


def opposite(g: GaugeSpec) -> GaugeSpec:
    """Swap the argument order: (x, y, t) -> w(y, x, t)."""
    name = f"opposite({g.name})"
    if g.table is not None:
        table = {(x, y): g.table[(y, x)] for x in g.points for y in g.points}
        return replace(g, name=name, table=table)
    return replace(g, name=name, fn=lambda x, y, t: g.value(y, x, t))


def symmetrize_max(g: GaugeSpec) -> GaugeSpec:
    """Pointwise max of the gauge and its opposite (additive regime)."""
    if g.regime is not Regime.ADDITIVE:
        raise ValueError("symmetrize_max applies to additive-regime gauges")
    return replace(g, conorm=None, claims_symmetric=True,
                   name=f"sym_max({g.name})", table=None,
                   fn=lambda x, y, t: max(g.value(x, y, t), g.value(y, x, t)))


def symmetrize_conorm(g: GaugeSpec) -> GaugeSpec:
    """Conorm combination of the gauge and its opposite (conorm regime)."""
    if g.regime is not Regime.CONORM:
        raise ValueError("symmetrize_conorm applies to conorm-regime gauges")
    c = g.conorm
    return replace(g, claims_symmetric=True, name=f"sym({g.name})", table=None,
                   fn=lambda x, y, t: c.apply(g.value(x, y, t), g.value(y, x, t)))


def gauge_to_json(g: GaugeSpec, grid: ScaleGrid | None = None) -> dict:
    """Wire form of a (tabulated) gauge; closed forms are tabulated first."""
    tg = g.tabulated(grid)
    strs = [str(x) for x in tg.points]
    if len(set(strs)) != len(strs) or any("|" in s for s in strs):
        raise ValueError("point ids must stringify uniquely and avoid '|'")
    doc = {"regime": tg.regime.value, "points": list(tg.points),
           "grid": list(tg.grid.scales),
           "table": {f"{x}|{y}": [format_ext(v) for v in tg.table[(x, y)]]
                     for x in tg.points for y in tg.points}}
    if tg.conorm is not None:
        doc["conorm"] = tg.conorm.wire_name
    return doc


def gauge_from_json(doc: Mapping, name: str = "gauge") -> GaugeSpec:
    regime = Regime(doc.get("regime"))
    conorm = None
    if regime is Regime.CONORM:
        conorm = conorm_from_name(doc.get("conorm", "max"))
    points = tuple(doc["points"])
    by_str = {str(x): x for x in points}
    if len(by_str) != len(points):
        raise ValueError("point ids must stringify uniquely")
    grid = ScaleGrid(tuple(doc["grid"]))
    table = {}
    for key, row in doc["table"].items():
        sx, sep, sy = key.partition("|")
        if not sep or sx not in by_str or sy not in by_str:
            raise ValueError(f"bad table key {key!r}")
        parsed = tuple(parse_ext(v, f"table[{key}]") for v in row)
        if regime is Regime.CONORM and any(v > 1.0 for v in parsed):
            raise ValueError(f"conorm-regime value out of [0, 1] in table[{key}]")
        table[(by_str[sx], by_str[sy])] = parsed
    # a missing diagonal row is zeros on both sides; a missing pair raises
    # in GaugeSpec
    symmetric = all(table.get((x, y)) == table.get((y, x))
                    for x in points for y in points)
    return GaugeSpec(regime=regime, points=points, conorm=conorm, grid=grid,
                     claims_symmetric=symmetric, name=name, table=table)


def _infer_points(d: Mapping) -> tuple:
    seen = {}
    for x, y in d:
        seen.setdefault(x)
        seen.setdefault(y)
    if not seen:
        raise ValueError("cannot infer points from an empty table")
    try:
        return tuple(sorted(seen))
    except TypeError:
        return tuple(seen)


def _vzero(sample):
    return (0.0,) * len(sample) if isinstance(sample, tuple) else 0.0


def _vsub(x, y):
    if isinstance(x, tuple):
        return tuple(a - b for a, b in zip(x, y))
    return x - y


def _vscale(v, a: float):
    if isinstance(v, tuple):
        return tuple(a * c for c in v)
    return a * v

"""Scale-indexed asymmetric distance families (gauges) and their constructors.

A gauge assigns a value w(x, y, t) to an ordered point pair at a scale t > 0.
Two regimes are supported:

* additive: values in [0, inf], triangle combined with +;
* conorm: values in [0, 1], triangle combined with a t-conorm (the axioms
  ask for values below 1; a 1 is a `bounded` violation, not a range error).

`GaugeSpec.oplus` is that combination; it, `split_radius` and `sym_law` are
the regimes' laws, and no other module decides between them, nor the range:
a table is checked when built, a closed form where `matrix` or `value` reads
it, and a value off the range raises there, naming its pair and scale.

Gauges are immutable.  They are either closed-form (a function of x, y, t)
or tabulated (one value per ordered pair per grid scale, read with the
right-continuous ceil convention of Profile).  `matrix(t)` holds every
value at one scale as rows in point order (one prebuilt per grid column);
grid sweeps read `sample`, those matrices stacked along a grid.  The split
triangle kernel, `triangle_violations`, decides pairs under + on packed
integer lanes where every float sum is exact, and in floats elsewhere.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Mapping
from itertools import chain, compress, product, repeat
from operator import add, and_, eq, gt, mul, ne, sub

from .conorms import TConorm, conorm_from_name
from .extreal import (INF, decode_ids, ext_mul, format_ext, number,
                      numbers, pair_map, parse_ext)
from .profiles import Profile, ScaleGrid
from .records import Frozen

EPS_BELOW_ONE = 1.0 - 2.0 ** -52
_NONNEGATIVE = (0.0).__le__  # false for a negative and for NaN


class Regime(enum.Enum):
    ADDITIVE = "additive"
    CONORM = "conorm"


class GaugeSpec(Frozen):
    """Compared and hashed by identity; the repr leaves out fn and table."""

    _fields = ("regime", "points", "conorm", "grid", "claims_symmetric",
               "claims_convex", "name", "fn", "table")
    __slots__ = _fields + ("_index", "_columns", "_memo")
    _shown = -2
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, regime: Regime, points: tuple,
                 conorm: TConorm | None = None, grid: ScaleGrid | None = None,
                 claims_symmetric: bool = False, claims_convex: bool = False,
                 name: str = "gauge",
                 fn: Callable[[object, object, float], float] | None = None,
                 table: dict | None = None):
        points = tuple(points)
        if not points:
            raise ValueError("gauge needs a nonempty point set")
        if len(set(points)) != len(points):
            raise ValueError("gauge points must be distinct")
        if regime is Regime.CONORM and conorm is None:
            raise ValueError("conorm-regime gauge needs a TConorm")
        if (fn is None) == (table is None):
            raise ValueError("gauge needs exactly one of fn or table")
        columns = None
        if table is not None:
            if grid is None:
                raise ValueError("tabulated gauge needs a grid")
            rows = {}
            m, n = len(grid), len(points)
            for x, y in product(points, points):
                row = table.get((x, y))
                if row is None:
                    if x != y:
                        raise ValueError(f"table is missing the pair ({x!r}, {y!r})")
                    row = (0.0,) * m
                what = f"table value for ({x!r}, {y!r})"
                row = numbers(row, what)
                if not all(map(_NONNEGATIVE, row)):  # name a negative or NaN
                    for v in row:
                        parse_ext(v, what)
                if len(row) != m:
                    raise ValueError(f"table row for ({x!r}, {y!r}) needs "
                                     f"{m} values, got {len(row)}")
                if regime is Regime.CONORM and any(v > 1.0 for v in row):
                    raise ValueError(f"conorm-regime values must stay within "
                                     f"[0, 1], got {max(row)!r} for ({x!r}, {y!r})")
                rows[(x, y)] = row
            table = rows
            # one transpose of the rows, in (x, y) order, cut into n rows
            columns = tuple(tuple(col[i:i + n] for i in range(0, n * n, n))
                            for col in zip(*table.values()))
        self._set(regime, points, conorm, grid, claims_symmetric,
                  claims_convex, name, fn, table,
                  {p: i for i, p in enumerate(points)}, columns, {})

    def index(self, x) -> int:
        """Position of x in `points`."""
        try:
            return self._index[x]
        except KeyError:
            raise ValueError(f"unknown point {x!r}") from None

    def matrix(self, t: float) -> tuple[tuple[float, ...], ...]:
        """Entry [i][j] is w(points[i], points[j], t), read like `value`:
        the ceil grid column of a table, or the closed form at t itself,
        evaluated once per scale (and type of scale) and then memoized."""
        if not t > 0:
            raise ValueError(f"scale must be positive, got {t!r}")
        if self.table is not None:
            k = self.grid.ceil_index(t)
            return self._columns[-1 if k is None else k]
        key = type(t), t
        if key not in self._memo:
            self._memo[key] = tuple(self._read(x, self.points, t)
                                    for x in self.points)
        return self._memo[key]

    def _read(self, x, ys, t: float) -> tuple[float, ...]:
        """w(x, y, t) for each y in ys by the number rule (a plain float as
        it is, `number` any other value), range-checked by C-level passes;
        the first value off its range raises, naming its pair and scale."""
        row = tuple([v if type(v) is float else number(v, "gauge value")
                     for y in ys for v in [self.fn(x, y, t)]])
        cap = 1.0 if self.regime is Regime.CONORM else INF
        if all(map(_NONNEGATIVE, row)) and max(row) <= cap:
            return row
        v, y = next((v, y) for v, y in zip(row, ys) if not 0.0 <= v <= cap)
        raise ValueError(f"gauge value for ({x!r}, {y!r}) at scale {t!r} "
                         f"must lie in [0, {cap:g}], got {v!r}")

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
        return self._read(x, (y,), t)[0]

    @property
    def oplus(self) -> Callable[[float, float], float]:
        """The regime's triangle law: + for an additive gauge, the conorm's
        unchecked `law` otherwise, since every value read is in range."""
        return add if self.regime is Regime.ADDITIVE else self.conorm.law

    @property
    def sym_law(self) -> Callable[[float, float], float]:
        """How w(x, y, t) and w(y, x, t) make the symmetrized gauge's value:
        max under +, the conorm's `law` otherwise."""
        return max if self.regime is Regime.ADDITIVE else self.conorm.law

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
        return self._replace(grid=grid, fn=None, table=table)


def triangle_violations(lhs, left=None, right=None, oplus=add) -> list[tuple]:
    """Index triples (i, j, k) with lhs[i][k] > oplus(left[i][j],
    right[j][k]), in ascending (i, j, k) order, each as (i, j, k, lhs, rhs).

    The three are square lists of row lists over one point order; left and
    right default to lhs, and values may be +inf.  Each (i, j) is decided by
    one C-level pass, on integer lanes where `_lane_codes` takes the three,
    and k is scanned in floats only where that pass finds a violation.
    """
    left = lhs if left is None else left
    right = lhs if right is None else right
    code = _lane_codes((lhs, left, right)) if oplus is add else None
    hits = _lane_hits(lhs, left, right, code) if code else (
        (i, j) for i, (row_i, left_i) in enumerate(zip(lhs, left))
        for j, (d_ij, row_j) in enumerate(zip(left_i, right))
        if any(map(gt, row_i, map(oplus, repeat(d_ij), row_j))))
    out = []
    for i, j in hits:
        row_i, d_ij, row_j = lhs[i], left[i][j], right[j]
        for k, (v, d_jk) in enumerate(zip(row_i, row_j)):
            rhs = oplus(d_ij, d_jk)
            if v > rhs:
                out.append((i, j, k, v, rhs))
    return out


def _lattice(seen) -> tuple:
    """(2**-E, {v: k}) with v = k * 2**E for the one E <= 0 that holds every
    value seen, if each is a float >= 0; else (None, None)."""
    if set(map(type, seen)) - {float} or not all(map(_NONNEGATIVE, seen)):
        return None, None
    ratios = {v: v.as_integer_ratio() for v in seen}
    unit = max([den for _, den in ratios.values()], default=1)  # 2**-E
    return unit, {v: num * unit // den for v, (num, den) in ratios.items()}


def _lane_codes(mats) -> dict | None:
    """`_lattice`'s codes, with +inf's as 2 * top + 1, if 2 * top < 2**53:
    every float sum of two values is then exact.  Else None."""
    _, code = _lattice(set().union(*chain.from_iterable(mats)) - {INF})
    if code is None:
        return None
    top = max(code.values(), default=0)
    code[INF] = 2 * top + 1
    return None if 2 * top >= 1 << 53 else code


def _lane_hits(lhs, left, right, code: dict):
    """The failing (i, j) in order, rows packed into ints of byte lanes:
    (right_j | guard) + left_ij * ones - lhs_i clears failing lanes' guards."""
    n = len(lhs)
    width = (code[INF].bit_length() + 9) // 8
    ones = int.from_bytes(b"\1".ljust(width, b"\0") * n, "little")
    guard = ones << 8 * width - 1
    lane = {v: c.to_bytes(width, "little") for v, c in code.items()}
    packed = [int.from_bytes(b"".join(map(lane.__getitem__, row)), "little")
              for row in chain(right, lhs)]
    sums = map(add, chain.from_iterable(repeat(packed[:n], n)), map(
        mul, map(code.__getitem__, chain.from_iterable(left)), repeat(ones)))
    lanes = map(sub, sums, chain.from_iterable(
        repeat(row - guard, n) for row in packed[n:]))
    return compress(product(range(n), repeat=2),
                    map(ne, map(and_, lanes, repeat(guard)), repeat(guard)))


def _table_rows(d: Mapping, xs, ys, what: str) -> list[tuple[float, ...]]:
    """Rows d(x, y) of a distance table, x over xs and y over ys, each row
    read by the number rule: the one reader of a distance table.  A pair
    left out is 0 on the diagonal and +inf elsewhere."""
    get = d.get
    return [numbers([get((x, y), 0.0 if x == y else INF) for y in ys],
                    f"{what} row for {x!r}") for x in xs]


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


def _require_quasi_pseudometric(d: Mapping, points: tuple,
                                what: str) -> list[tuple[float, ...]]:
    """The table's rows; raises with the first violation's witness, else on
    a negative or NaN entry (off the diagonal one passes both axioms)."""
    rows = _table_rows(d, points, points, what)
    bad = _row_violations(rows, points)
    if bad:
        axiom, witness, lhs, rhs = bad[0]
        raise ValueError(f"{what} violates the {axiom} axiom at {witness}: "
                         f"{lhs} > {rhs}" if axiom == "triangle" else
                         f"{what} violates the {axiom} axiom at {witness}: "
                         f"got {lhs}, expected {rhs}")
    for (x, y), v in zip(product(points, points), chain.from_iterable(rows)):
        if not v >= 0.0:
            parse_ext(v, f"{what} entry at ({x!r}, {y!r})")
    return rows


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
    """`make_min_cap` on rows in point order, with no validation."""
    at = {p: i for i, p in enumerate(points)}
    return GaugeSpec(
        regime=Regime.ADDITIVE, points=points, grid=grid, name=name,
        claims_symmetric=_rows_symmetric(rows),
        fn=lambda x, y, t: min(rows[at[x]][at[y]], t))


def make_ratio(p: Mapping, points=None, name: str = "ratio") -> GaugeSpec:
    """Saturating transform of a quasi-pseudometric: w = p / (t + p).

    Lands in [0, 1) with conorm Max.  Pairs with p = +inf would need the
    excluded value 1 and are clamped just below it, to 1 - 2**-52.
    """
    points = tuple(points) if points is not None else _infer_points(p)
    rows = _require_quasi_pseudometric(p, points, "p")
    at = {q: i for i, q in enumerate(points)}

    def fn(x, y, t):
        v = rows[at[x]][at[y]]
        return EPS_BELOW_ONE if v == INF else v / (t + v)

    return GaugeSpec(
        regime=Regime.CONORM, points=points, conorm=TConorm.MAX, name=name,
        claims_symmetric=_rows_symmetric(rows), fn=fn)


def make_scaled_metric(d: Mapping, g: Profile, points=None,
                       name: str = "scaled_metric") -> GaugeSpec:
    """Separable gauge w(x, y, t) = g(t) * d(x, y) for a nonincreasing g,
    as a table on g's grid, whose ceil read is g's read at every t.
    Raises with a witness scale pair if g increases anywhere on its grid,
    and claims convexity iff t * g(t) is nonincreasing on the grid.
    """
    bad = g.nonincreasing_violations()
    if bad:
        t0, t1, v0, v1 = bad[0]
        raise ValueError(f"profile must be nonincreasing: g({t0}) = {v0} "
                         f"< g({t1}) = {v1}")
    points = tuple(points) if points is not None else _infer_points(d)
    rows = _require_quasi_pseudometric(d, points, "d")
    scaled = [ext_mul(t, g.value_at(t)) for t in g.grid]
    convex = all(a >= b for a, b in zip(scaled, scaled[1:]))
    return GaugeSpec(
        regime=Regime.ADDITIVE, points=points, grid=g.grid, name=name,
        claims_symmetric=_rows_symmetric(rows), claims_convex=convex,
        table={(x, y): tuple(ext_mul(v, d_xy) for v in g.values)
               for x, row in zip(points, rows) for y, d_xy in zip(points, row)})


def make_classical_modular(rho: Callable[[object], float], points,
                           name: str = "classical_modular") -> GaugeSpec:
    """Gauge from a functional on vector differences: w(x, y, t) = rho((x-y)/t).

    Points are vectors (scalars or tuples).  rho(0) = 0 is required.  The
    convexity claim holds iff rho neither decreases nor breaks midpoint
    convexity at the samples of any difference ray.
    """
    points = tuple(points)
    zero = _vzero(points[0])
    if number(rho(zero), "rho(0)") != 0.0:
        raise ValueError(f"rho(0) must be 0, got {rho(zero)!r}")
    rows = [numbers([rho(_vsub(x, y)) for y in points], "rho value")
            for x in points]
    convex = True
    for x, y in product(points, points):
        v = _vsub(x, y)
        if v == zero:
            continue
        ray = numbers([rho(_vscale(v, a)) for a in (0.25, 0.5, 0.75, 1.0)],
                      "rho value")
        # uniform spacing makes rb the midpoint value of ra and rc
        if any(ra > rb for ra, rb in zip(ray, ray[1:])) or any(
                rb > (ra + rc) / 2.0 + 1e-12
                for ra, rb, rc in zip(ray, ray[1:], ray[2:])):
            convex = False
    return GaugeSpec(
        regime=Regime.ADDITIVE, points=points, name=name,
        claims_symmetric=_rows_symmetric(rows), claims_convex=convex,
        fn=lambda x, y, t: rho(_vscale(_vsub(x, y), 1.0 / t)))


def make_sublinear(p: Callable[[object], float], points,
                   grid: ScaleGrid | None = None,
                   name: str = "sublinear_cap") -> GaugeSpec:
    """Capped gauge from an asymmetric sublinear functional on vectors.

    Sets rho(x, y) = p(y - x) and caps at the scale.  Subadditivity of p makes
    rho a quasi-pseudometric; the induced table is validated, so a p that is
    not subadditive on the sampled differences raises with a witness.
    """
    points = tuple(points)
    if number(p(_vzero(points[0])), "p(0)") != 0.0:
        raise ValueError(f"p(0) must be 0, got {p(_vzero(points[0]))!r}")
    rho = {(x, y): parse_ext(p(_vsub(y, x)), f"p({_vsub(y, x)!r})")
           for x in points for y in points}
    return make_min_cap(rho, points, grid, name=name)


def make_one_sided_integral(masses, Phi: Callable[[float], float], functions,
                            grid: ScaleGrid | None = None,
                            name: str = "one_sided_cap") -> GaugeSpec:
    """Capped gauge on functions from a one-sided integral distance.

    rho(f, g) = sum_i mu_i * Phi(max(f_i - g_i, 0)), capped at the scale.
    masses maps sample ids to positive finite weights; functions maps
    function ids to finite value dicts over the same sample ids; both are
    read by the number rule.  The induced rho is validated as a
    quasi-pseudometric, so a Phi that breaks subadditivity (any strictly
    convex Phi does, on suitable inputs) raises with a witness.
    """
    masses = {i: number(m, f"mass at {i!r}") for i, m in dict(masses).items()}
    for i, mu in masses.items():
        if not 0.0 < mu < INF:
            raise ValueError(f"mass at {i!r} must be positive and finite, "
                             f"got {mu!r}")
    if number(Phi(0.0), "Phi(0)") != 0.0:
        raise ValueError(f"Phi(0) must be 0, got {Phi(0.0)!r}")
    functions = {fid: {i: number(v, f"value of {fid!r} at {i!r}")
                       for i, v in dict(f).items()}
                 for fid, f in functions.items()}
    for fid, f in functions.items():
        missing = [i for i in masses if i not in f]
        if missing:
            raise ValueError(f"function {fid!r} misses sample ids {missing!r}")
        for i, v in f.items():
            if i not in masses:
                raise ValueError(f"value of {fid!r} for unknown sample id {i!r}")
            if not -INF < v < INF:
                raise ValueError(f"value of {fid!r} at {i!r} must be finite, "
                                 f"got {v!r}")
    rho = {(a, b): sum(map(mul, masses.values(), numbers(
               [Phi(max(fa[i] - fb[i], 0.0)) for i in masses], "Phi value")))
           for a, fa in functions.items() for b, fb in functions.items()}
    return make_min_cap(rho, tuple(functions), grid, name=name)


def opposite(g: GaugeSpec) -> GaugeSpec:
    """Swap the argument order: (x, y, t) -> w(y, x, t)."""
    name = f"opposite({g.name})"
    if g.table is not None:
        table = {(x, y): g.table[(y, x)] for x in g.points for y in g.points}
        return g._replace(name=name, table=table)
    return g._replace(name=name, fn=lambda x, y, t: g.value(y, x, t))


def symmetrize(g: GaugeSpec) -> GaugeSpec:
    """(x, y, t) -> `g.sym_law`(w(x, y, t), w(y, x, t)): the symmetrized
    gauge of either regime; a table gives a table, the law taken entrywise."""
    law, name = g.sym_law, f"sym({g.name})"
    if g.table is not None:
        table = {(x, y): tuple(map(law, g.table[(x, y)], g.table[(y, x)]))
                 for x in g.points for y in g.points}
        return g._replace(claims_symmetric=True, name=name, table=table)
    return g._replace(claims_symmetric=True, name=name,
                      fn=lambda x, y, t: law(g.value(x, y, t), g.value(y, x, t)))


def gauge_to_json(g: GaugeSpec, grid: ScaleGrid | None = None) -> dict:
    """Wire form of a (tabulated) gauge; closed forms are tabulated first."""
    tg = g.tabulated(grid)
    decode_ids(tg.points, "point")
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
    grid = ScaleGrid(doc["grid"])
    table = pair_map(doc["table"], points, "table", numbers)
    # a missing diagonal row is zeros on both sides; a missing pair and a
    # value off the extended ray raise in GaugeSpec
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

"""Balls, entourages, and the three finite topologies of an asymmetric gauge.

Point sets are finite and small, and subsets and relations are bitmasks, so
every statement here is decided exactly.  A finite topology is stored as the
smallest open set around each point, one bitmask per point; its open sets,
up to 2**n of them, are listed only on request, and only for n <= 16.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import product
from operator import and_

from .axioms import AxiomReport, Violation
from .extreal import INF
from .gauges import GaugeSpec, Regime
from .profiles import ScaleGrid

MAX_TOPOLOGY_POINTS = 16

_SIDES = ("forward", "backward", "two_sided")


def _normalize_side(side: str) -> str:
    if side == "sym":
        return "two_sided"
    if side not in _SIDES:
        raise ValueError(f"side must be one of {_SIDES} or 'sym', got {side!r}")
    return side


@dataclass(frozen=True)
class Relation:
    """Boolean relation on an ordered point set, one bitmask row per source."""

    points: tuple
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != len(self.points):
            raise ValueError("one row per point required")
        full = (1 << len(self.points)) - 1
        if any(row & ~full for row in self.rows):
            raise ValueError("row bits outside the point set")

    @classmethod
    def identity(cls, points) -> "Relation":
        points = tuple(points)
        return cls(points, tuple(1 << i for i in range(len(points))))

    def related(self, x, y) -> bool:
        return bool(self.rows[self.points.index(x)]
                    & (1 << self.points.index(y)))

    def transpose(self) -> "Relation":
        n = len(self.points)
        cols = [0] * n
        for i, row in enumerate(self.rows):
            for j in range(n):
                if row & (1 << j):
                    cols[j] |= 1 << i
        return Relation(self.points, tuple(cols))

    def intersect(self, other: "Relation") -> "Relation":
        _require_same_points(self, other)
        return Relation(self.points, tuple(a & b
                                           for a, b in zip(self.rows, other.rows)))

    def contains(self, other: "Relation") -> bool:
        _require_same_points(self, other)
        return all(b & ~a == 0 for a, b in zip(self.rows, other.rows))

    def has_diagonal(self) -> bool:
        return all(row & (1 << i) for i, row in enumerate(self.rows))

    def pairs(self) -> list[tuple]:
        return [(x, self.points[j]) for x, row in zip(self.points, self.rows)
                for j in range(len(self.points)) if row & (1 << j)]


def _require_same_points(a: Relation, b: Relation) -> None:
    if a.points != b.points:
        raise ValueError("relations live on different point sets")


def compose(a: Relation, b: Relation) -> Relation:
    """(x, z) related iff some y has a(x, y) and b(y, z)."""
    _require_same_points(a, b)
    n = len(a.points)
    out = []
    for row in a.rows:
        acc = 0
        for j in range(n):
            if row & (1 << j):
                acc |= b.rows[j]
        out.append(acc)
    return Relation(a.points, tuple(out))


def _check_radius(g: GaugeSpec, r: float) -> None:
    if not r > 0:
        raise ValueError(f"radius must be positive, got {r!r}")
    if g.regime is Regime.CONORM and not r < 1:
        raise ValueError(f"conorm-regime radius must lie in (0, 1), got {r!r}")


def entourage(g: GaugeSpec, r: float, t: float, side: str = "forward",
              points=None) -> Relation:
    """Pairs (x, y) with w(x, y, t) < r; backward swaps the arguments."""
    side = _normalize_side(side)
    _check_radius(g, r)
    return _relation(g, r, t, side, points)


def _relation(g: GaugeSpec, r: float, t: float, side: str,
              points=None) -> Relation:
    """The entourage without its radius checks, from a one-off `_BallRows`."""
    balls = _BallRows(g, points)
    _, fwd, bwd = balls.rows(r, t)
    if side == "two_sided":
        return Relation(balls.points, tuple(map(and_, fwd, bwd)))
    return Relation(balls.points, fwd if side == "forward" else bwd)


def _below(mat, idx: list[int], r: float) -> tuple[int, ...]:
    """The one ball predicate: row i of {(i, j) : mat[i][j] < r} over `idx`
    as a bitmask.  A NaN entry is below no radius."""
    return tuple(sum(1 << bit for bit, j in enumerate(idx) if row[j] < r)
                 for row in (mat[i] for i in idx))


class _BallRows:
    """Strict ball rows over one point list (the gauge's own by default),
    each relation built once.  {(x, y) : w(x, y, t) < r} depends only on
    the matrix `g.matrix(t)` returns and on the rank of r among its distinct
    values over the points (NaN left out), so (id of the matrix, rank) keys
    it; the instance holds each matrix, so the ids stay valid."""

    def __init__(self, g: GaugeSpec, points=None):
        self.points = g.points if points is None else tuple(points)
        self.g, self.idx = g, [g.index(p) for p in self.points]
        self._scales = {}  # t -> (matrix, its columns, sorted values)
        self._built = {}   # key -> (forward rows, backward rows)

    def rows(self, r: float, t: float):
        """(key, forward rows, backward rows) at (r, t); backward row i
        holds the y with w(y, x_i, t) < r, read from the columns."""
        at = self._scales.get(t)
        if at is None:
            mat, idx = self.g.matrix(t), self.idx
            at = self._scales[t] = (mat, tuple(zip(*mat)), sorted(
                {v for i in idx for j in idx for v in [mat[i][j]] if v == v}))
        mat, cols, values = at
        key = (id(mat), bisect_left(values, r))
        if key not in self._built:
            self._built[key] = (_below(mat, self.idx, r),
                                _below(cols, self.idx, r))
        return (key, *self._built[key])


def ball(g: GaugeSpec, x, r: float, t: float, side: str = "forward",
         points=None) -> tuple:
    """Strict ball {y : w(x, y, t) < r}, one-sided or two-sided: row x of
    the entourage on the same side."""
    rel = entourage(g, r, t, side, points)
    row = rel.rows[rel.points.index(x)]
    return tuple(p for j, p in enumerate(rel.points) if row & (1 << j))


@dataclass(frozen=True)
class ThresholdSet:
    """Radii and scales that realize every distinct ball of a tabulated gauge."""

    radii: tuple[float, ...]
    scales: ScaleGrid

    def pairs(self):
        return [(r, t) for r in self.radii for t in self.scales]


def critical_thresholds(g: GaugeSpec, points=None,
                        grid: ScaleGrid | None = None) -> ThresholdSet:
    """Distinct finite gauge values, midpoints between consecutive ones, and
    one radius above the maximum if a float below the cap (1 for a conorm
    gauge, inf for an additive one) lies above it.  Any strict ball at any
    radius coincides with a ball at one of these radii, because the gauge
    takes finitely many values on the sampled points and scales."""
    _, grid, stack = g.sample(points, grid)
    # conorm radii live in (0, 1): a saturated value of 1 (possible after
    # symmetrization) is outside every admissible ball, so it contributes
    # no radius, and the above-the-top radius below separates it
    cap = 1.0 if g.regime is Regime.CONORM else INF
    values = sorted({v for m in stack for row in m for v in row
                     if 0 < v < cap})
    if not values:
        fallback = 0.5 if g.regime is Regime.CONORM else 1.0
        return ThresholdSet((fallback,), grid)
    radii = set(values)
    radii.update((a + b) / 2.0 for a, b in zip(values, values[1:]))
    top = values[-1]
    # above the top value even where top + 1.0 rounds back to top (2**53
    # on), and only below the cap: from top = 1 - 2**-53 on, (top + 1) / 2
    # rounds to 1 and no conorm radius lies above top
    above = ((top + 1.0) / 2.0 if g.regime is Regime.CONORM
             else max(top + 1.0, math.nextafter(top, INF)))
    if above < cap:
        radii.add(above)
    return ThresholdSet(tuple(sorted(radii)), grid)


@dataclass(frozen=True)
class FiniteTopology:
    """Topology on a finite point set, stored as its smallest open
    neighbourhoods: hoods[i] is the least open set containing points[i]."""

    points: tuple
    hoods: tuple[int, ...]

    @property
    def opens(self) -> frozenset[int]:
        """Every open set, as bitmasks: the unions of the neighbourhoods."""
        opens = {0}
        for hood in self.hoods:
            opens |= {o | hood for o in opens}
        return frozenset(opens)

    def is_open(self, subset) -> bool:
        mask = _mask(self.points, subset)
        return all(h | mask == mask for i, h in enumerate(self.hoods)
                   if mask & (1 << i))

    def open_sets(self) -> list[tuple]:
        families = [tuple(self.points[i] for i in range(len(self.points))
                          if mask & (1 << i)) for mask in self.opens]
        return sorted(families, key=lambda s: (len(s),
                                               tuple(self.points.index(p) for p in s)))

    def to_json(self) -> list[list]:
        return [list(s) for s in self.open_sets()]


def _mask(points: tuple, subset) -> int:
    mask = 0
    for p in subset:
        if p not in points:
            raise ValueError(f"point {p!r} outside the point set")
        mask |= 1 << points.index(p)
    return mask


def _from_subbase(points: tuple, masks) -> FiniteTopology:
    """Topology with subbase `masks`: a point's smallest open set is the
    intersection of the subbase sets that contain it."""
    if len(points) > MAX_TOPOLOGY_POINTS:
        raise ValueError(
            f"topology generation is exponential in the point count; "
            f"{len(points)} points exceeds the {MAX_TOPOLOGY_POINTS}-point cap")
    hoods = [(1 << len(points)) - 1] * len(points)
    for mask in masks:
        hoods = [h & mask if mask & (1 << i) else h for i, h in enumerate(hoods)]
    return FiniteTopology(points, tuple(hoods))


def generate_topology(base, points) -> FiniteTopology:
    """Least topology in which every base set is open: the unions of finite
    intersections of base sets, with the empty set and the whole space."""
    points = tuple(points)
    return _from_subbase(points, [_mask(points, subset) for subset in base])


def join_topologies(t1: FiniteTopology, t2: FiniteTopology) -> FiniteTopology:
    """Least topology refining both: each point's smallest open set is the
    intersection of its two smallest open sets."""
    if t1.points != t2.points:
        raise ValueError("topologies live on different point sets")
    return FiniteTopology(t1.points,
                          tuple(a & b for a, b in zip(t1.hoods, t2.hoods)))


@dataclass(frozen=True)
class JoinReport:
    tau_plus: FiniteTopology
    tau_minus: FiniteTopology
    join: FiniteTopology
    tau_sym: FiniteTopology
    equal: bool

    def to_json(self) -> dict:
        return {"tau_plus": self.tau_plus.to_json(),
                "tau_minus": self.tau_minus.to_json(),
                "join": self.join.to_json(),
                "tau_sym": self.tau_sym.to_json(),
                "join_equals_sym": self.equal}


def _balls(stack) -> set[int]:
    """Every nonempty strict ball {y : w(x, y, t) < r}, r > 0, of the rows
    of the matrices in `stack`: a ball holding y holds each y' with
    w(x, y', t) <= w(x, y, t), so the balls are the row's sublevel sets at
    its values.  The one at a value no radius exceeds (inf, or 1 for a
    conorm) is the whole space, which is open anyway."""
    return {sum(1 << j for j, w in enumerate(row) if w <= v)
            for m in stack for row in m for v in set(row)}


def verify_join_equality(g: GaugeSpec, points=None,
                         grid: ScaleGrid | None = None) -> JoinReport:
    """Forward and backward ball topologies, their join, and the topology of
    the symmetrized gauge, compared by their smallest open neighbourhoods.
    Backward balls are rows of the transposes; the symmetrized gauge is
    symmetric, so its two-sided balls are its forward ones."""
    points, _, mats = g.sample(points, grid)
    opps = [tuple(zip(*m)) for m in mats]
    # the symmetrized gauge's matrices: what symmetrize_conorm or
    # symmetrize_max evaluates, entry by entry
    combine = g.conorm.apply if g.regime is Regime.CONORM else max
    syms = [[list(map(combine, row, col)) for row, col in zip(m, opp)]
            for m, opp in zip(mats, opps)]
    tau_plus, tau_minus, tau_sym = (
        _from_subbase(points, _balls(ms)) for ms in (mats, opps, syms))
    joined = join_topologies(tau_plus, tau_minus)
    return JoinReport(tau_plus, tau_minus, joined, tau_sym,
                      joined.hoods == tau_sym.hoods)


def small_composite_check(g: GaugeSpec, points=None,
                          grid: ScaleGrid | None = None,
                          thresholds: ThresholdSet | None = None) -> AxiomReport:
    """For each threshold (r, t), shrink the radius to r' =
    `g.split_radius(r)`, so r' (+) r' < r, and verify
    E(r', t) o E(r', t) <= E(r, t) on both sides; `thresholds` defaults
    to the critical ones."""
    if g.regime is not Regime.CONORM:
        raise ValueError("small_composite_check applies to conorm-regime gauges")
    balls, violations = _BallRows(g, points), []
    thresholds = thresholds or critical_thresholds(g, balls.points, grid)
    for r, t in thresholds.pairs():
        rp = g.split_radius(r)
        (_, *small), (_, *big) = balls.rows(rp, t), balls.rows(r, t)
        for side, rows, target_rows in zip(("forward", "backward"), small, big):
            comp = compose(*[Relation(balls.points, rows)] * 2)
            target = Relation(balls.points, target_rows)
            if target.contains(comp):
                continue
            for x, z in comp.pairs():
                if not target.related(x, z):
                    lhs = g.value(x, z, t) if side == "forward" \
                        else g.value(z, x, t)
                    violations.append(Violation(
                        "small-composite", (side, x, z, r, rp, t), lhs, r))
    return AxiomReport(("small-composite",), tuple(violations),
                       (f"{len(thresholds.pairs())} thresholds checked",))


def quasi_uniformity_report(g: GaugeSpec, points=None,
                            grid: ScaleGrid | None = None) -> AxiomReport:
    """Diagonal containment, refinement under shrinking thresholds, and the
    small-composite law, over the critical thresholds.

    Upward closure holds by representation (an entourage is the full pair set
    it denotes), so it contributes a note, not a check.
    """
    if g.regime is not Regime.CONORM:
        raise ValueError("quasi_uniformity_report applies to conorm-regime gauges")
    points, grid, stack = g.sample(points, grid)
    thresholds = critical_thresholds(g, points, grid)
    violations: list[Violation] = []
    for r in thresholds.radii:
        violations.extend(Violation("diagonal", (x, r, t), mat[i][i], r)
                          for t, mat in zip(grid, stack)
                          for i, x in enumerate(points) if not mat[i][i] < r)
    # refinement in the radius is immediate from r <= r'; only the scale
    # direction can fail, and only through a monotonicity defect: a pair in
    # the entourage at one grid scale and outside it at the next
    for r in thresholds.radii:
        for k, (small, big) in enumerate(zip(stack, stack[1:])):
            violations.extend(
                Violation("refinement", (x, y, r, grid[k], grid[k + 1]),
                          big[i][j], r)
                for (i, x), (j, y) in product(enumerate(points), repeat=2)
                if small[i][j] < r and not big[i][j] < r)
    composite = small_composite_check(g, points, thresholds=thresholds)
    violations.extend(composite.violations)
    return AxiomReport(("diagonal", "refinement", "small-composite"),
                       tuple(violations),
                       ("upward closure holds by representation",))

"""Balls, entourages, and the three finite topologies of an asymmetric gauge.

Point sets are finite and small, and subsets and relations are bitmasks, so
every statement here is decided exactly.  A finite topology is stored as the
smallest open set around each point p, one bitmask per point: in a ball
topology, the y whose column w(x, y, t) lies at or below p's, entry by
entry (`GaugeSpec` hands out no NaN and nothing above the cap, inf or 1).
Its open sets, up to 2**n of them, are listed only on request, only for
n <= 16, by size, then by positions.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import reduce
from itertools import chain, compress, product
from operator import and_, le, or_

from .axioms import AxiomReport, Violation
from .extreal import INF
from .gauges import GaugeSpec, Regime
from .profiles import ScaleGrid
from .records import NamedTuple

MAX_TOPOLOGY_POINTS = 16
_BITS = bytes.maketrans(b"01", b"\0\1")  # binary digits as bytes 0 and 1

_SIDES = ("forward", "backward", "two_sided")


def _normalize_side(side: str) -> str:
    if side == "sym":
        return "two_sided"
    if side not in _SIDES:
        raise ValueError(f"side must be one of {_SIDES} or 'sym', got {side!r}")
    return side


def compose(a: tuple, b: tuple) -> tuple[int, ...]:
    """Rows of the composite relation: (x, z) related iff some y has
    a(x, y) and b(y, z)."""
    n = len(a)
    if len(b) != n:
        raise ValueError(f"relations on different point sets: {n} rows "
                         f"and {len(b)} rows")
    fmt = f"0{n}b"  # row x's bits, reversed: a 0/1 selector over b's rows
    return tuple(reduce(or_, compress(b, format(row, fmt)[::-1].encode()
                                      .translate(_BITS)), 0) for row in a)


def _check_radius(r: float) -> None:
    """Every ball reader's radius rule: any r > 0, conorm radii of 1 and
    more too, as a quasi-uniformity is upward closed."""
    if not r > 0:
        raise ValueError(f"radius must be positive, got {r!r}")


def entourage(g: GaugeSpec, r: float, t: float, side: str = "forward",
              points=None) -> tuple[int, ...]:
    """Rows of {(x, y) : w(x, y, t) < r} over the points (the gauge's own by
    default): bit j of row i holds (points[i], points[j]).  Backward swaps
    the arguments; two-sided keeps the pairs of both."""
    side = _normalize_side(side)
    _check_radius(r)
    _, fwd, bwd = _BallRows(g, points).rows(r, t)
    if side == "two_sided":
        return tuple(map(and_, fwd, bwd))
    return fwd if side == "forward" else bwd


class _Sweep:
    """One matrix's entries over a point list, sorted once by value: the
    relation {(i, j) : mat[i][j] < r} is the first `bisect_left(values, r)`
    of them, whatever r, since `GaugeSpec` hands out no NaN.  Rows are
    built per cut on demand, each from the nearest cut built below it."""

    def __init__(self, mat, idx: list[int]):
        flat = [row[j] for row in map(mat.__getitem__, idx) for j in idx]
        self.mat, self.n = mat, len(idx)  # holding mat keeps its id valid
        self.order = sorted(range(len(flat)), key=flat.__getitem__)
        self.values = list(map(flat.__getitem__, self.order))
        self.cuts = [0]  # the cuts built, ascending
        self.built = {0: ((0,) * self.n, (0,) * self.n)}

    def rows(self, cut: int):
        """(forward rows, backward rows) of the first `cut` entries."""
        return self.built.get(cut) or self.build(cut)

    def build(self, cut: int):
        """(forward rows, backward rows) of the first `cut` entries, from
        the nearest cut built below it; `built` holds them from then on."""
        k = bisect_left(self.cuts, cut)
        below = self.cuts[k - 1]
        fwd, bwd = map(list, self.built[below])
        n = self.n
        for p in self.order[below:cut]:
            i, j = divmod(p, n)
            fwd[i] |= 1 << j
            bwd[j] |= 1 << i
        self.cuts.insert(k, cut)
        rows = self.built[cut] = (tuple(fwd), tuple(bwd))
        return rows


class _BallRows:
    """Strict ball rows over one point list (the gauge's own by default):
    the one ball predicate.  {(x, y) : w(x, y, t) < r} depends only on the
    matrix `g.matrix(t)` returns and on how many of its entries over the
    points lie below r, so (id of the matrix, that count) keys it; each
    distinct matrix is sorted once, in one `_Sweep`, which holds it, so the
    ids stay valid."""

    def __init__(self, g: GaugeSpec, points=None):
        self.points = g.points if points is None else tuple(points)
        self.g, self.idx = g, [g.index(p) for p in self.points]
        self._scales = {}  # t -> the sweep of g.matrix(t)
        self._sweeps = {}  # id of a matrix -> its sweep

    def sweep(self, t: float) -> _Sweep:
        """The sweep of `g.matrix(t)`, one per distinct matrix."""
        sweep = self._scales.get(t)
        if sweep is None:
            mat = self.g.matrix(t)
            sweep = self._sweeps.get(id(mat))
            if sweep is None:
                sweep = self._sweeps[id(mat)] = _Sweep(mat, self.idx)
            self._scales[t] = sweep
        return sweep

    def rows(self, r: float, t: float):
        """(key, forward rows, backward rows) at (r, t); backward row i
        holds the y with w(y, x_i, t) < r."""
        sweep = self.sweep(t)
        cut = bisect_left(sweep.values, r)
        fwd, bwd = sweep.rows(cut)
        return (id(sweep.mat), cut), fwd, bwd

    def value(self, i: int, j: int, t: float) -> float:
        """w(points[i], points[j], t), from the matrix `rows` read at t."""
        return self._scales[t].mat[self.idx[i]][self.idx[j]]


def ball(g: GaugeSpec, x, r: float, t: float, side: str = "forward",
         points=None) -> tuple:
    """Strict ball {y : w(x, y, t) < r}, one-sided or two-sided: row x of
    the entourage on the same side."""
    points = g.points if points is None else tuple(points)
    if x not in points:
        raise ValueError(f"unknown point {x!r}")
    row = entourage(g, r, t, side, points)[points.index(x)]
    return tuple(p for j, p in enumerate(points) if row & (1 << j))


class ThresholdSet(NamedTuple):
    """Radii and scales that realize every distinct ball of a tabulated gauge."""

    radii: tuple[float, ...]
    scales: ScaleGrid

    def pairs(self):
        return list(product(self.radii, self.scales))


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


class FiniteTopology(NamedTuple):
    """Topology on a finite point set, stored as its smallest open
    neighbourhoods: hoods[i] is the least open set containing points[i]."""

    points: tuple
    hoods: tuple[int, ...]

    def _unions(self, hoods) -> set[int]:
        """Every union of `hoods`: up to 2**n sets, so only up to the cap."""
        if len(self.points) > MAX_TOPOLOGY_POINTS:
            raise ValueError(
                f"listing open sets is exponential in the point count; "
                f"{len(self.points)} points exceeds the "
                f"{MAX_TOPOLOGY_POINTS}-point cap")
        opens = {0}
        for hood in set(hoods):
            opens |= {o | hood for o in opens}
        return opens

    @property
    def opens(self) -> frozenset[int]:
        """Every open set, as bitmasks: the unions of the neighbourhoods."""
        return frozenset(self._unions(self.hoods))

    def is_open(self, subset) -> bool:
        mask = _mask(self.points, subset)
        return all(h | mask == mask for i, h in enumerate(self.hoods)
                   if mask & (1 << i))

    def open_sets(self) -> list[tuple]:
        """Every open set as points, by size, then by point positions."""
        return list(map(tuple, self.to_json()))

    def to_json(self) -> list[list]:
        """The open sets in `open_sets` order, as lists: with point i as bit
        n - 1 - i, descending masks of one size ascend in positions, and a
        stable sort by size keeps that order."""
        fmt = f"0{len(self.points)}b"
        rev = self._unions(int(format(h, fmt)[::-1], 2) for h in self.hoods)
        masks = sorted(sorted(rev, reverse=True), key=int.bit_count)
        return [list(compress(self.points, format(m, fmt).encode()
                              .translate(_BITS))) for m in masks]


def _mask(points: tuple, subset) -> int:
    mask = 0
    for p in subset:
        if p not in points:
            raise ValueError(f"point {p!r} outside the point set")
        mask |= 1 << points.index(p)
    return mask


def generate_topology(base, points) -> FiniteTopology:
    """Least topology in which every base set is open: the unions of finite
    intersections of base sets, with the empty set and the whole space."""
    points = tuple(points)
    hoods = [(1 << len(points)) - 1] * len(points)
    for mask in [_mask(points, subset) for subset in base]:
        hoods = [h & mask if mask & (1 << i) else h for i, h in enumerate(hoods)]
    return FiniteTopology(points, tuple(hoods))


def join_topologies(t1: FiniteTopology, t2: FiniteTopology) -> FiniteTopology:
    """Least topology refining both: each point's smallest open set is the
    intersection of its two smallest open sets."""
    if t1.points != t2.points:
        raise ValueError("topologies live on different point sets")
    return FiniteTopology(t1.points, tuple(map(and_, t1.hoods, t2.hoods)))


class JoinReport(NamedTuple):
    tau_plus: FiniteTopology
    tau_minus: FiniteTopology
    join: FiniteTopology
    tau_sym: FiniteTopology
    equal: bool

    def to_json(self) -> dict:
        """The four listings; equal topologies share one list."""
        doc, lists = {}, {}
        for key in ("tau_plus", "tau_minus", "join", "tau_sym"):
            topo = getattr(self, key)
            if topo not in lists:
                lists[topo] = topo.to_json()
            doc[key] = lists[topo]
        doc["join_equals_sym"] = self.equal
        return doc


def _hoods(cols) -> tuple[int, ...]:
    """Each point p's smallest open set under the strict balls, from its
    column w(x, p, t) over every row x and scale t: the y whose columns lie
    at or below p's entry by entry.  An entry at the cap (inf, or 1 for a
    conorm) lies in no ball and bounds nothing, as no value exceeds it."""
    return tuple(sum(1 << j for j, c in enumerate(cols) if all(map(le, c, col)))
                 for col in cols)


def verify_join_equality(g: GaugeSpec, points=None,
                         grid: ScaleGrid | None = None) -> JoinReport:
    """Forward and backward ball topologies, their join, and the topology of
    the symmetrized gauge, compared by their smallest open neighbourhoods.
    A point's column under forward balls is its column in each matrix, under
    backward balls its row; the symmetrized gauge's balls are forward ones."""
    points, _, mats = g.sample(points, grid)
    opps = [tuple(zip(*m)) for m in mats]
    # the symmetrized gauge's matrix rows: what `symmetrize` evaluates
    syms = [list(map(g.sym_law, row, col))
            for m, opp in zip(mats, opps) for row, col in zip(m, opp)]
    tau_plus, tau_minus, tau_sym = (
        FiniteTopology(points, _hoods(list(zip(*rows)))) for rows in
        (chain.from_iterable(mats), chain.from_iterable(opps), syms))
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
    balls = _BallRows(g, points)
    thresholds = thresholds or critical_thresholds(g, balls.points, grid)
    return AxiomReport(("small-composite",), tuple(_composite_violations(
        balls, thresholds)), (f"{len(thresholds.pairs())} thresholds checked",))


def _composite_violations(balls: _BallRows, thresholds: ThresholdSet):
    """The small-composite violations, read from the rows `balls` holds."""
    splits = {r: balls.g.split_radius(r) for r in thresholds.radii}
    for r, t in thresholds.pairs():
        rp = splits[r]
        (_, *small), (_, *big) = balls.rows(rp, t), balls.rows(r, t)
        for side, rows, target in zip(("forward", "backward"), small, big):
            for i, (comp, goal) in enumerate(zip(compose(rows, rows), target)):
                escaped = comp & ~goal
                while escaped:  # its bits in ascending order
                    k = (escaped & -escaped).bit_length() - 1
                    escaped &= escaped - 1
                    lhs = balls.value(i, k, t) if side == "forward" \
                        else balls.value(k, i, t)
                    yield Violation("small-composite", (
                        side, balls.points[i], balls.points[k], r, rp, t), lhs, r)


def quasi_uniformity_report(g: GaugeSpec, points=None,
                            grid: ScaleGrid | None = None) -> AxiomReport:
    """Diagonal containment, refinement under shrinking thresholds, and the
    small-composite law, over the critical thresholds.

    Upward closure holds by representation (an entourage is the full pair set
    it denotes), so it contributes a note, not a check.
    """
    if g.regime is not Regime.CONORM:
        raise ValueError("quasi_uniformity_report applies to conorm-regime gauges")
    balls = _BallRows(g, points)
    thresholds = critical_thresholds(g, balls.points, grid)
    points, grid = balls.points, thresholds.scales
    span = range(len(points))
    fwds = {r: [balls.rows(r, t)[1] for t in grid] for r in thresholds.radii}
    violations = [Violation("diagonal", (points[i], r, t),
                            balls.value(i, i, t), r)
                  for r, rows in fwds.items() for t, fwd in zip(grid, rows)
                  for i in span if not fwd[i] >> i & 1]
    # refinement in the radius is immediate from r <= r'; only the scale
    # direction can fail, and only through a monotonicity defect: a pair in
    # the entourage at one grid scale and outside it at the next
    for r, rows in fwds.items():
        for t, t_big, small, big in zip(grid, grid[1:], rows, rows[1:]):
            violations.extend(
                Violation("refinement", (points[i], points[j], r, t, t_big),
                          balls.value(i, j, t_big), r)
                for i in span for j in span if (small[i] & ~big[i]) >> j & 1)
    violations.extend(_composite_violations(balls, thresholds))
    return AxiomReport(("diagonal", "refinement", "small-composite"),
                       tuple(violations),
                       ("upward closure holds by representation",))

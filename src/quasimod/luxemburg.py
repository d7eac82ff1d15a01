"""Luxemburg-type scale compression: inf{lambda > 0 : value(lambda) <= c}.

The infimum is taken under the convention that the predicate set
{lambda : value(lambda) <= c} is an upper set, which holds exactly when the
scale map is nonincreasing.  A table (step data included) is a step
function under the ceil convention, read exactly from its row: 0.0, a grid
scale, or inf.  Every other scale map is searched by an Anderson-Bjorck
secant on log(value / c) against log(lambda), safeguarded by bisection
steps.  A table row that rises at all, a searched value that rises by more
than its float slack over an earlier probe, or a search whose predicate
holds low in the range but fails at the top, raises NonmonotoneGaugeError.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping

from .axioms import AxiomReport, Violation
from .extreal import INF, number
from .gauges import (GaugeSpec, Regime, _row_violations, _rows_symmetric,
                     _table_rows)
from .records import NamedTuple

DEFAULT_TOL = 1e-9
DEFAULT_LAMBDA_MAX = 1e12


class NonmonotoneGaugeError(ValueError):
    """The probed scale map is not nonincreasing, so the infimum convention
    of the Luxemburg gauge does not apply."""


class LuxemburgResult(NamedTuple):
    """An infimum and the bracket (lo, hi) that certifies it: value(hi) <= c
    < value(lo), with lo = 0.0 where the infimum is 0.0 and hi = inf where
    it is inf.  A search reports hi, within tol of lo; a table row reports
    lo, the scale where its first column at or under c begins, exactly.
    `iterations` counts the probes, none for a table row."""
    value: float
    bracket: tuple[float, float]
    iterations: int


def _slack(v: float) -> float:
    return max(1e-12, 1e-9 * abs(v)) if v != INF else 0.0


def _increase(v0: float, lam0: float, v: float,
              lam: float) -> NonmonotoneGaugeError:
    return NonmonotoneGaugeError(f"value increases with the scale: {v0} at "
                                 f"{lam0} but {v} at {lam}")


def _raise_first_increase(probes, lam: float, v: float) -> None:
    """Raise for the earliest probe that the probe (lam, v) contradicts by
    more than the slack, which absorbs a closed form's float noise."""
    for lam0, v0 in probes:
        if lam0 < lam and v > v0 + _slack(v0):
            raise _increase(v0, lam0, v, lam)
        if lam0 > lam and v0 > v + _slack(v):
            raise _increase(v, lam, v0, lam0)


def _check_search(c: float, tol: float, lambda_max: float) -> None:
    if not c > 0:
        raise ValueError(f"threshold must be positive, got {c!r}")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if not lambda_max > tol:
        raise ValueError("lambda_max must exceed the tolerance")


def _kept_end_factor(f: float, f_replaced: float) -> float:
    """Anderson-Bjorck weight for the bracket end kept twice in a row:
    1 - f / f_replaced where that is positive, else 1/2."""
    m = 1.0 - f / f_replaced if f_replaced else 0.5
    return m if m > 0 else 0.5


def luxemburg_infimum(value_at: Callable[[float], float], c: float = 1.0,
                      tol: float = DEFAULT_TOL,
                      lambda_max: float = DEFAULT_LAMBDA_MAX) -> LuxemburgResult:
    """Shared root-bracketing kernel for all Luxemburg-style gauges.

    After the probes at tol and lambda_max, each probe is an Anderson-Bjorck
    secant step on log(value / c) against log(lambda), kept tol / 2 inside
    the bracket, or a bisection step at the geometric midpoint: after two
    secant steps in a row that fail to halve the bracket and after each
    further one until a secant step halves it, or where either end's value
    has no finite logarithm (nan, inf, 0).  Every probe lands
    strictly inside the bracket.  The search ends on value(hi) <= c <
    value(lo) with hi - lo <= tol, or on adjacent floats, and reports hi."""
    _check_search(c, tol, lambda_max)

    probes: list[tuple[float, float]] = []

    def ev(lam: float) -> float:
        v = number(value_at(lam), "value_at value")
        _raise_first_increase(probes, lam, v)
        probes.append((lam, v))
        return v

    v_lo = ev(tol)
    if v_lo <= c:
        if ev(lambda_max) > c:
            raise NonmonotoneGaugeError(
                "predicate holds at the bottom of the scale range but fails "
                "at the top: the predicate set is not an upper set")
        return LuxemburgResult(0.0, (0.0, tol), len(probes))
    v_hi = ev(lambda_max)
    if not v_hi <= c:  # a nan fails the predicate as it does below
        return LuxemburgResult(INF, (lambda_max, INF), len(probes))

    log_c = math.log(c)

    def excess(v: float) -> float:  # log(v / c), nan where undefined
        return math.log(v) - log_c if 0.0 < v < INF else math.nan

    lo, hi = tol, lambda_max
    f_lo, f_hi = excess(v_lo), excess(v_hi)
    last = 0    # +1 when the last probe moved hi, -1 when it moved lo
    # secant steps in a row that failed to halve the bracket; a bisection
    # step leaves one, so that each further failing step bisects again
    stalls = 0
    while hi - lo > tol:
        width = hi - lo
        # f_lo > 0 >= f_hi; a nan, or a value at c itself, which pins the
        # secant to the end, fails the test
        secant = stalls < 2 and f_lo > 0.0 >= f_hi
        if secant:
            x_lo, x_hi = math.log(lo), math.log(hi)
            x = x_hi - f_hi * (x_hi - x_lo) / (f_hi - f_lo)
            lam = math.exp(min(max(x, x_lo), x_hi))
            lam = min(max(lam, lo + tol / 2), hi - tol / 2)
            secant = lo < lam < hi
        if not secant:
            lam = math.sqrt(lo) * math.sqrt(hi)
            if not lo < lam < hi:
                lam = lo + (hi - lo) / 2.0
                if not lo < lam < hi:
                    break
        v = ev(lam)
        f = excess(v)
        if v <= c:
            if last > 0:  # lo is kept twice in a row
                f_lo *= _kept_end_factor(f, f_hi)
            hi, f_hi, last = lam, f, 1
        else:
            if last < 0:
                f_hi *= _kept_end_factor(f, f_lo)
            lo, f_lo, last = lam, f, -1
        stalls = (stalls + 1 if hi - lo > width / 2 else 0) if secant else 1
    return LuxemburgResult(hi, (lo, hi), len(probes))


def _row_infimum(row, grid, c: float, lambda_max: float) -> LuxemburgResult:
    """The infimum on a ceil-convention table row, read in one scan: 0.0
    when the first column holds, grid[k - 1] when column k is the first
    that does, inf when no column up to the one read at lambda_max does.
    A row that rises at all raises, as `check_axioms` reports it."""
    scales = grid.scales
    for k in range(len(row) - 1):
        if row[k] < row[k + 1]:
            raise _increase(row[k], scales[k], row[k + 1], scales[k + 1])
    top = grid.ceil_index(lambda_max)
    top = len(row) - 1 if top is None else top
    first = next((k for k in range(top + 1) if row[k] <= c), None)
    if first is None:
        return LuxemburgResult(INF, (lambda_max, INF), 0)
    if first == 0:
        return LuxemburgResult(0.0, (0.0, scales[0]), 0)
    return LuxemburgResult(scales[first - 1],
                           (scales[first - 1], scales[first]), 0)


def luxemburg_distance(g: GaugeSpec, x, y, c: float = 1.0,
                       tol: float = DEFAULT_TOL,
                       lambda_max: float = DEFAULT_LAMBDA_MAX) -> LuxemburgResult:
    """inf{lambda > 0 : w(x, y, lambda) <= c} for an additive-regime gauge:
    read from the row of a tabulated gauge, searched on a closed form."""
    if g.regime is not Regime.ADDITIVE:
        raise ValueError("luxemburg_distance applies to additive-regime gauges")
    if g.table is None:
        return luxemburg_infimum(lambda lam: g.value(x, y, lam), c, tol,
                                 lambda_max)
    _check_search(c, tol, lambda_max)
    g.index(x), g.index(y)  # the unknown-point error of `value`
    return _row_infimum(g.table[(x, y)], g.grid, c, lambda_max)


def symmetrized_luxemburg(g: GaugeSpec, x, y, c: float = 1.0,
                          tol: float = DEFAULT_TOL,
                          lambda_max: float = DEFAULT_LAMBDA_MAX) -> float:
    """The larger of the distances x to y and y to x: the additive law,
    since max(a, b) <= c iff a <= c and b <= c.  On a table it and
    `luxemburg_distance(symmetrize(g), x, y).value` are both the exact
    infimum of the symmetrized gauge; on a closed form nonincreasing in
    both directions both lie within tol above it, and equal it at 0, inf."""
    return max(luxemburg_distance(g, x, y, c, tol, lambda_max).value,
               luxemburg_distance(g, y, x, c, tol, lambda_max).value)


def quasi_pseudometric_check(d: Mapping, points) -> AxiomReport:
    """Zero on the diagonal and the triangle inequality, over all triples.

    Symmetry is reported as a note, never as a violation.
    """
    points = tuple(points)
    rows = _table_rows(d, points, points, "distance")
    violations = tuple(map(Violation._make, _row_violations(rows, points)))
    note = "table is symmetric" if _rows_symmetric(rows) \
        else "table is asymmetric"
    return AxiomReport(("zero-self", "triangle"), violations, (note,))

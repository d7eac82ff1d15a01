"""Luxemburg-type scale compression: inf{lambda > 0 : value(lambda) <= c}.

The infimum is computed by exponential bracketing plus bisection, under the
convention that the predicate set {lambda : value(lambda) <= c} is an upper
set, which holds exactly when the scale map is nonincreasing.  Probed values
that increase with the scale, or a predicate that holds at the bottom of the
search range but fails at the top, raise NonmonotoneGaugeError instead of
returning a number that the definition does not support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .axioms import AxiomReport, Violation
from .extreal import INF
from .gauges import (GaugeSpec, Regime, _row_violations, _rows_symmetric,
                     _table_rows)

DEFAULT_TOL = 1e-9
DEFAULT_LAMBDA_MAX = 1e12


class NonmonotoneGaugeError(ValueError):
    """The probed scale map is not nonincreasing, so the infimum convention
    of the Luxemburg gauge does not apply."""


@dataclass(frozen=True)
class LuxemburgResult:
    value: float
    bracket: tuple[float, float]
    iterations: int


def _slack(v: float) -> float:
    return max(1e-12, 1e-9 * abs(v)) if v != INF else 0.0


def _raise_first_increase(probes, lam: float, v: float) -> None:
    """Raise for the earliest probe that the probe (lam, v) contradicts."""
    for lam0, v0 in probes:
        if lam0 < lam and v > v0 + _slack(v0):
            raise NonmonotoneGaugeError(
                f"value increases with the scale: {v0} at {lam0} "
                f"but {v} at {lam}")
        if lam0 > lam and v0 > v + _slack(v):
            raise NonmonotoneGaugeError(
                f"value increases with the scale: {v} at {lam} "
                f"but {v0} at {lam0}")


def luxemburg_infimum(value_at: Callable[[float], float], c: float = 1.0,
                      tol: float = DEFAULT_TOL,
                      lambda_max: float = DEFAULT_LAMBDA_MAX) -> LuxemburgResult:
    """Shared root-bracketing kernel for all Luxemburg-style gauges."""
    if not c > 0:
        raise ValueError(f"threshold must be positive, got {c!r}")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if not lambda_max > tol:
        raise ValueError("lambda_max must exceed the tolerance")

    probes: list[tuple[float, float]] = []
    # Every probe lands strictly between the probes at or below lo and those
    # at or above hi, so two running bounds decide the guard: the least
    # v0 + slack(v0) to the left and the greatest v0 to the right.  The last
    # probe joins a side once the next one shows where it lies.
    left, right, last_bound = INF, -INF, INF

    def ev(lam: float) -> float:
        nonlocal left, right, last_bound
        if probes:
            lam0, v0 = probes[-1]
            if lam0 < lam:
                left = min(left, last_bound)
            else:
                right = max(right, v0)
        v = float(value_at(lam))
        bound = v + _slack(v)
        if v > left or right > bound:
            _raise_first_increase(probes, lam, v)
        probes.append((lam, v))
        last_bound = bound
        return v

    if ev(tol) <= c:
        if ev(lambda_max) > c:
            raise NonmonotoneGaugeError(
                "predicate holds at the bottom of the scale range but fails "
                "at the top: the predicate set is not an upper set")
        return LuxemburgResult(0.0, (0.0, tol), len(probes))
    if ev(lambda_max) > c:
        return LuxemburgResult(INF, (lambda_max, INF), len(probes))

    lo, hi = tol, 2.0 * tol
    while hi < lambda_max:
        if ev(hi) <= c:
            break
        lo, hi = hi, 2.0 * hi
    else:
        hi = lambda_max
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:
            break
        if ev(mid) <= c:
            hi = mid
        else:
            lo = mid
    return LuxemburgResult(hi, (lo, hi), len(probes))


def luxemburg_distance(g: GaugeSpec, x, y, c: float = 1.0,
                       tol: float = DEFAULT_TOL,
                       lambda_max: float = DEFAULT_LAMBDA_MAX) -> LuxemburgResult:
    """inf{lambda > 0 : w(x, y, lambda) <= c} for an additive-regime gauge."""
    if g.regime is not Regime.ADDITIVE:
        raise ValueError("luxemburg_distance applies to additive-regime gauges")
    return luxemburg_infimum(lambda lam: g.value(x, y, lam), c, tol, lambda_max)


def symmetrized_luxemburg(g: GaugeSpec, x, y, c: float = 1.0,
                          tol: float = DEFAULT_TOL,
                          lambda_max: float = DEFAULT_LAMBDA_MAX) -> float:
    """The larger of the distances x to y and y to x: the additive law.
    Wherever both directions are nonincreasing in the scale it equals
    `luxemburg_distance(symmetrize(g), x, y).value`, since bisection reads
    only the predicate, and max(a, b) <= c holds iff a <= c and b <= c."""
    return max(luxemburg_distance(g, x, y, c, tol, lambda_max).value,
               luxemburg_distance(g, y, x, c, tol, lambda_max).value)


def quasi_pseudometric_check(d: Mapping, points) -> AxiomReport:
    """Zero on the diagonal and the triangle inequality, over all triples.

    Symmetry is reported as a note, never as a violation.
    """
    points = tuple(points)
    rows = _table_rows(d, points)
    violations = tuple(Violation(axiom, witness, lhs, rhs)
                       for axiom, witness, lhs, rhs
                       in _row_violations(rows, points))
    note = "table is symmetric" if _rows_symmetric(rows) \
        else "table is asymmetric"
    return AxiomReport(("zero-self", "triangle"), violations, (note,))

"""Axiom sweeps for gauges on finite point sets and scale grids.

All checks are exhaustive over the supplied points and grid.  Scale sums are
projected to the smallest grid scale >= t + s; pairs whose sum runs past the
grid are skipped, because substituting a smaller scale could only raise the
left side and manufacture violations that say nothing about the gauge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product

from .extreal import ext_mul, format_ext
from .gauges import GaugeSpec, Regime, triangle_violations
from .profiles import Profile, ScaleGrid, profile_convolve


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple
    lhs: float
    rhs: float

    def to_json(self) -> dict:
        return {"axiom": self.axiom, "witness": list(self.witness),
                "lhs": format_ext(self.lhs), "rhs": format_ext(self.rhs)}


@dataclass(frozen=True)
class AxiomReport:
    checked: tuple[str, ...]
    violations: tuple[Violation, ...]
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_axiom(self, axiom: str) -> list[Violation]:
        return [v for v in self.violations if v.axiom == axiom]

    def to_json(self) -> dict:
        return {"checked": list(self.checked),
                "violations": [v.to_json() for v in self.violations],
                "notes": list(self.notes)}


def _pair_series(points: tuple, stack):
    """((x, y), the values of w(x, y, .) along the grid) for every ordered
    pair in row-major order, zipped from a `GaugeSpec.sample` stack."""
    return zip(product(points, repeat=2),
               zip(*(chain.from_iterable(s) for s in stack)))


def check_axioms(g: GaugeSpec, points=None, grid: ScaleGrid | None = None) -> AxiomReport:
    """Exhaustive sweep of the gauge axioms for the gauge's regime.

    Additive regime: zero on the diagonal, split triangle under +, and
    monotonicity in the scale.  Conorm regime: zero exactly on the diagonal,
    values below 1, split triangle under the gauge's conorm, monotonicity.
    Symmetry is only compared against the claims_symmetric flag and reported
    as a note, never as a violation.
    """
    points, grid, stack = g.sample(points, grid)
    conorm = g.conorm if g.regime is Regime.CONORM else None
    m = len(grid)
    violations: list[Violation] = []
    notes: list[str] = []

    for i, x in enumerate(points):
        for k, v in enumerate(s[i][i] for s in stack):
            if v != 0.0:
                violations.append(Violation("zero-self", (x, grid[k]), v, 0.0))

    if conorm is not None:
        clamped = False
        for i, x in enumerate(points):
            for j, y in enumerate(points):
                for k, row in enumerate(s[i] for s in stack):
                    v = row[j]
                    if x != y and v == 0.0:
                        violations.append(
                            Violation("separation", (x, y, grid[k]), 0.0, 0.0))
                    if v >= 1.0:
                        violations.append(
                            Violation("bounded", (x, y, grid[k]), v, 1.0))
                        if v > 1.0:
                            row[j] = 1.0
                            clamped = True
        if clamped:
            notes.append("values above 1 were clamped to 1 for the triangle sweep")

    for (x, y), row in _pair_series(points, stack):
        for k in range(m - 1):
            if row[k] < row[k + 1]:
                violations.append(Violation(
                    "scale-monotone", (x, y, grid[k], grid[k + 1]),
                    row[k + 1], row[k]))

    # (i, j, u) with grid[u] the least grid scale >= grid[i] + grid[j]
    splits = [(i, j, u) for i in range(m) for j in range(m)
              for u in [grid.ceil_index(grid[i] + grid[j])] if u is not None]
    if splits:
        # list == compares by identity first, as the per-pair rows did
        if all(s == stack[0] for s in stack):
            splits = splits[:1]  # every split reads the same values
        # witnesses are listed in x, z, y, split order
        hits = sorted((x, z, y, n, lhs, rhs)
                      for n, (i, j, u) in enumerate(splits)
                      for x, y, z, lhs, rhs in triangle_violations(
                          stack[u], stack[i], stack[j], g.oplus))
        violations.extend(
            Violation("triangle", (points[x], points[y], points[z],
                                   *(grid[k] for k in splits[n])), lhs, rhs)
            for x, z, y, n, lhs, rhs in hits)
    else:
        notes.append("no grid pair sums land on the grid; triangle not checkable")

    # list == again, so one nan object equals itself (not `_rows_symmetric`)
    symmetric = all(list(map(list, zip(*s))) == s for s in stack)
    if symmetric != g.claims_symmetric:
        notes.append(f"claims_symmetric={g.claims_symmetric} refuted: table is "
                     f"{'symmetric' if symmetric else 'asymmetric'}")
    else:
        notes.append(f"claims_symmetric={g.claims_symmetric} confirmed")

    checked = ("zero-self", "separation", "bounded", "triangle", "scale-monotone") \
        if conorm else ("zero-self", "triangle", "scale-monotone")
    return AxiomReport(checked, tuple(violations), tuple(notes))


# absorbs 1-ulp float noise in products like t * (d / t); real violations
# of the convexity laws are orders of magnitude larger
_REL_SLACK = 1e-12


def _exceeds(v: float, bound: float) -> bool:
    """v > bound by more than the slack; nothing exceeds an infinite bound."""
    return v > bound + _REL_SLACK * max(1.0, abs(bound))


def convexity_check(g: GaugeSpec, points=None, grid: ScaleGrid | None = None) -> AxiomReport:
    """Convexity laws for additive gauges on the grid.

    Checks that t * w(x, y, t) is nonincreasing in t and that
    w(x, y, mu) <= (mu / lam) * w(x, y, lam) for grid scales lam <= mu.
    """
    if g.regime is not Regime.ADDITIVE:
        raise ValueError("convexity_check applies to additive-regime gauges")
    points, grid, stack = g.sample(points, grid)
    m = len(grid)
    violations: list[Violation] = []
    for (x, y), row in _pair_series(points, stack):
        scaled = [ext_mul(grid[k], row[k]) for k in range(m)]
        for k in range(m - 1):
            if _exceeds(scaled[k + 1], scaled[k]):
                violations.append(Violation(
                    "scaled-value-monotone", (x, y, grid[k], grid[k + 1]),
                    scaled[k + 1], scaled[k]))
        for a in range(m):
            for b in range(a + 1, m):
                bound = ext_mul(grid[b] / grid[a], row[a])
                if _exceeds(row[b], bound):
                    violations.append(Violation(
                        "scale-ratio", (x, y, grid[a], grid[b]),
                        row[b], bound))
    return AxiomReport(("scaled-value-monotone", "scale-ratio"),
                       tuple(violations))


def enriched_triangle_check(g: GaugeSpec, points=None,
                            grid: ScaleGrid | None = None) -> AxiomReport:
    """Profile-level triangle check for conorm gauges.

    Verifies w(x, z, u) <= (W(x,y) convolved with W(y,z))(u) for every
    ordered triple, at grid scales u >= 2 * t_1: below that no grid split
    of u exists and the convolution falls back to the (t_1, t_1) pair,
    which does not bound w(x, z, u) even for perfectly regular gauges.
    """
    if g.regime is not Regime.CONORM:
        raise ValueError("enriched_triangle_check applies to conorm-regime gauges")
    points, grid, stack = g.sample(points, grid)
    n = len(points)
    profiles = [Profile(grid, row) for _, row in _pair_series(points, stack)]
    threshold = 2.0 * grid[0]
    violations: list[Violation] = []
    for (a, x), (b, y), (c, z) in product(enumerate(points), repeat=3):
        conv = profile_convolve(profiles[a * n + b], profiles[b * n + c],
                                g.conorm).values
        lhs = profiles[a * n + c].values
        for k, u in enumerate(grid):
            if u >= threshold and lhs[k] > conv[k]:
                violations.append(Violation(
                    "convolution-triangle", (x, y, z, u), lhs[k], conv[k]))
    return AxiomReport(("convolution-triangle",), tuple(violations))

"""Axiom sweeps for gauges on finite point sets and scale grids.

All checks are exhaustive over the supplied points and grid.  Scale sums are
projected to the smallest grid scale >= t + s; pairs whose sum runs past the
grid are skipped, because substituting a smaller scale could only raise the
left side and manufacture violations that say nothing about the gauge.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _materialize(g: GaugeSpec, points, grid: ScaleGrid):
    idx = [(x, g.index(x)) for x in points]
    columns = [g.matrix(t) for t in grid]
    return {(x, y): [col[i][j] for col in columns]
            for x, i in idx for y, j in idx}


def _projection_table(grid: ScaleGrid):
    m = len(grid)
    return [[grid.ceil_index(grid[i] + grid[j]) for j in range(m)]
            for i in range(m)]


def check_axioms(g: GaugeSpec, points=None, grid: ScaleGrid | None = None) -> AxiomReport:
    """Exhaustive sweep of the gauge axioms for the gauge's regime.

    Additive regime: zero on the diagonal, split triangle under +, and
    monotonicity in the scale.  Conorm regime: zero exactly on the diagonal,
    values below 1, split triangle under the gauge's conorm, monotonicity.
    Symmetry is only compared against the claims_symmetric flag and reported
    as a note, never as a violation.
    """
    points = tuple(points) if points is not None else g.points
    grid = grid or g.grid
    if grid is None:
        raise ValueError("check_axioms needs a scale grid")
    conorm = g.conorm if g.regime is Regime.CONORM else None
    rows = _materialize(g, points, grid)
    m = len(grid)
    violations: list[Violation] = []
    notes: list[str] = []

    for x in points:
        row = rows[(x, x)]
        for k in range(m):
            if row[k] != 0.0:
                violations.append(Violation("zero-self", (x, grid[k]), row[k], 0.0))

    if conorm is not None:
        clamped = False
        for x in points:
            for y in points:
                row = rows[(x, y)]
                for k in range(m):
                    v = row[k]
                    if x != y and v == 0.0:
                        violations.append(
                            Violation("separation", (x, y, grid[k]), 0.0, 0.0))
                    if v >= 1.0:
                        violations.append(
                            Violation("bounded", (x, y, grid[k]), v, 1.0))
                        if v > 1.0:
                            row[k] = 1.0
                            clamped = True
        if clamped:
            notes.append("values above 1 were clamped to 1 for the triangle sweep")

    for x in points:
        for y in points:
            row = rows[(x, y)]
            for k in range(m - 1):
                if row[k] < row[k + 1]:
                    violations.append(Violation(
                        "scale-monotone", (x, y, grid[k], grid[k + 1]),
                        row[k + 1], row[k]))

    proj = _projection_table(grid)
    splits = [(i, j, proj[i][j]) for i in range(m) for j in range(m)
              if proj[i][j] is not None]
    if splits:
        if all(len(set(row)) == 1 for row in rows.values()):
            splits = splits[:1]  # every split reads the same values
        cols = {k: [[rows[(x, y)][k] for y in points] for x in points]
                for k in set().union(*splits)}
        # witnesses are listed in x, z, y, split order
        hits = sorted((x, z, y, n, lhs, rhs)
                      for n, (i, j, u) in enumerate(splits)
                      for x, y, z, lhs, rhs in triangle_violations(
                          cols[u], cols[i], cols[j], g.oplus))
        violations.extend(
            Violation("triangle", (points[x], points[y], points[z],
                                   *(grid[k] for k in splits[n])), lhs, rhs)
            for x, z, y, n, lhs, rhs in hits)
    else:
        notes.append("no grid pair sums land on the grid; triangle not checkable")

    symmetric = all(rows[(x, y)] == rows[(y, x)] for x in points for y in points)
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


def convexity_check(g: GaugeSpec, points=None, grid: ScaleGrid | None = None) -> AxiomReport:
    """Convexity laws for additive gauges on the grid.

    Checks that t * w(x, y, t) is nonincreasing in t and that
    w(x, y, mu) <= (mu / lam) * w(x, y, lam) for grid scales lam <= mu.
    """
    if g.regime is not Regime.ADDITIVE:
        raise ValueError("convexity_check applies to additive-regime gauges")
    points = tuple(points) if points is not None else g.points
    grid = grid or g.grid
    if grid is None:
        raise ValueError("convexity_check needs a scale grid")
    rows = _materialize(g, points, grid)
    m = len(grid)
    violations: list[Violation] = []
    for x in points:
        for y in points:
            row = rows[(x, y)]
            scaled = [ext_mul(grid[k], row[k]) for k in range(m)]
            for k in range(m - 1):
                slack = _REL_SLACK * max(1.0, abs(scaled[k])) \
                    if scaled[k] != float("inf") else 0.0
                if scaled[k + 1] > scaled[k] + slack:
                    violations.append(Violation(
                        "scaled-value-monotone", (x, y, grid[k], grid[k + 1]),
                        scaled[k + 1], scaled[k]))
            for a in range(m):
                for b in range(a + 1, m):
                    bound = ext_mul(grid[b] / grid[a], row[a])
                    slack = _REL_SLACK * max(1.0, abs(bound)) \
                        if bound != float("inf") else 0.0
                    if row[b] > bound + slack:
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
    points = tuple(points) if points is not None else g.points
    grid = grid or g.grid
    if grid is None:
        raise ValueError("enriched_triangle_check needs a scale grid")
    rows = _materialize(g, points, grid)
    profiles = {pair: Profile(grid, tuple(row)) for pair, row in rows.items()}
    threshold = 2.0 * grid[0]
    violations: list[Violation] = []
    for x in points:
        for y in points:
            for z in points:
                conv = profile_convolve(profiles[(x, y)], profiles[(y, z)], g.conorm)
                for k, u in enumerate(grid):
                    if u < threshold:
                        continue
                    lhs = rows[(x, z)][k]
                    if lhs > conv.values[k]:
                        violations.append(Violation(
                            "convolution-triangle", (x, y, z, u),
                            lhs, conv.values[k]))
    return AxiomReport(("convolution-triangle",), tuple(violations))

"""Differential tests for the triangle kernel.

`triangle_violations` decides each (x, y) with one pass over two rows and
scans z only on a hit.  The oracles below are the triple loops it replaced:
the (x, y, z) loop of `quasi_pseudometric_violations`, with its own
per-pair lookup, the (x, z, y) loop of the scale-constant additive branch
of `check_axioms`, and the two loops of `check_axioms` for every regime,
the scale-constant one over the first grid split and the per-triple one
over every split.  Witnesses, sides and order must match exactly.
"""

import dataclasses
import math

from quasimod import (INF, GaugeSpec, Regime, ScaleGrid, TConorm,
                      check_axioms, make_min_cap, quasi_pseudometric_check,
                      quasi_pseudometric_violations)
from quasimod.axioms import AxiomReport, Violation
from quasimod.gauges import triangle_violations

from conftest import (ADDITIVE_BUILDERS, corrupt_one_entry, points_named,
                      random_conorm_gauge, random_quasi_pseudometric, rng_for)
from test_dense import _materialize, closed_form_corpus
from test_topology import random_raw_table


# ---------------------------------------------------------------------------
# quasi_pseudometric_violations and quasi_pseudometric_check


def oracle_violations(d, points):
    points = tuple(points)
    out = []
    get = lambda a, b: float(d.get((a, b), 0.0 if a == b else INF))  # noqa: E731
    for x in points:
        v = get(x, x)
        if v != 0.0:
            out.append(("zero-self", (x,), v, 0.0))
    for x in points:
        for y in points:
            dxy = get(x, y)
            for z in points:
                lhs = get(x, z)
                rhs = dxy + get(y, z)
                if lhs > rhs:
                    out.append(("triangle", (x, y, z), lhs, rhs))
    return out


def oracle_symmetric(d, points):
    return all(d.get((x, y), 0.0 if x == y else INF)
               == d.get((y, x), 0.0 if x == y else INF)
               for x in points for y in points)


def random_table(rng, points):
    """Entries on a quarter lattice (ties), with missing keys, +inf, nan
    and nonzero diagonals mixed in."""
    d = {}
    for x in points:
        for y in points:
            r = rng.random()
            if r < 0.1:
                continue
            if x == y:
                d[(x, y)] = rng.choice((0.0, 0.0, 0.0, 0.5, INF, math.nan))
            elif r < 0.2:
                d[(x, y)] = INF
            elif r < 0.22:
                d[(x, y)] = math.nan
            else:
                d[(x, y)] = rng.randrange(0, 9) / 4
    return d


def perturbed_closure(rng, points):
    """A closed quasi-pseudometric with a few entries raised, lowered or
    made infinite, so most triples pass and a few fail."""
    d = random_quasi_pseudometric(rng, points)
    for _ in range(rng.randrange(0, 4)):
        x, y = rng.choice(points), rng.choice(points)
        d[(x, y)] = rng.choice((INF, d[(x, y)] + 1.0, d[(x, y)] / 2, 0.0))
    x, y = rng.choice(points), rng.choice(points)
    if x != y and rng.random() < 0.5:
        d[(x, y)] = d[(y, x)] = 1.0  # a tie against the closure
    return d


def table_cases():
    for seed in range(150):
        rng = rng_for(7000 + seed)
        points = points_named(rng.randrange(1, 9))
        d = random_table(rng, points) if seed % 2 else \
            perturbed_closure(rng, points)
        yield d, points
        # a subset in shuffled order, and a list with a repeated point
        subset = rng.sample(points, rng.randrange(1, len(points) + 1))
        yield d, subset
        yield d, subset + [subset[0]]


def test_kernel_matches_the_triple_loop_on_seeded_tables():
    kinds = set()
    for d, points in table_cases():
        got = quasi_pseudometric_violations(d, points)
        want = oracle_violations(d, points)
        assert repr(got) == repr(want), (d, points)
        kinds.update(v[0] for v in want)
        report = quasi_pseudometric_check(d, points)
        assert repr([(v.axiom, v.witness, v.lhs, v.rhs)
                     for v in report.violations]) == repr(want)
        note = "table is symmetric" if oracle_symmetric(d, points) \
            else "table is asymmetric"
        assert report.notes == (note,)
    assert kinds == {"zero-self", "triangle"}


def test_kernel_lists_index_triples_in_order():
    rows = [[0.0, 1.0, 5.0],
            [1.0, 0.0, 1.0],
            [1.0, INF, 0.0]]
    assert triangle_violations(rows) == [(0, 1, 2, 5.0, 2.0),
                                         (2, 0, 1, INF, 2.0)]
    # equal sides are no violation
    assert triangle_violations([[0.0, 1.0, 2.0],
                                [1.0, 0.0, 1.0],
                                [2.0, 1.0, 0.0]]) == []


def test_min_cap_reports_the_first_violation_of_the_loop():
    for d, points in table_cases():
        if len(set(points)) < len(points):
            continue  # a gauge needs distinct points
        want = oracle_violations(d, points)
        try:
            make_min_cap(d, points)
        except ValueError as exc:
            axiom, witness, lhs, rhs = want[0]
            detail = f"{lhs} > {rhs}" if axiom == "triangle" else \
                f"got {lhs}, expected {rhs}"
            assert str(exc) == \
                f"rho violates the {axiom} axiom at {witness}: {detail}"
        else:
            assert not want


# ---------------------------------------------------------------------------
# the scale-constant additive branch of check_axioms


def oracle_scale_constant_triangles(g, points):
    grid = g.grid
    m = len(grid)
    proj = [[grid.ceil_index(grid[i] + grid[j]) for j in range(m)]
            for i in range(m)]
    i0, j0 = next((i, j) for i in range(m) for j in range(m)
                  if proj[i][j] is not None)
    u0 = grid[proj[i0][j0]]
    t = grid[0]
    out = []
    for x in points:
        for z in points:
            lhs = g.value(x, z, t)
            for y in points:
                rhs = g.value(x, y, t) + g.value(y, z, t)
                if lhs > rhs:
                    out.append(Violation(
                        "triangle", (x, y, z, grid[i0], grid[j0], u0),
                        lhs, rhs))
    return out


def constant_copy(g, rng):
    """g tabulated with a few whole rows changed, so it stays constant in
    the scale: raised, lowered to zero, made infinite (1 for a conorm), or
    a nonzero diagonal."""
    tab = g.tabulated()
    m = len(tab.grid)
    table = dict(tab.table)
    for _ in range(rng.randrange(1, 4)):
        x, z = rng.choice(tab.points), rng.choice(tab.points)
        v = table[(x, z)][0]
        new = rng.choice((v + rng.randrange(1, 9) / 4, 0.0, INF, v / 2)
                         if g.regime is Regime.ADDITIVE else
                         ((v + 1.0) / 2, 0.0, 1.0, v / 2))
        table[(x, z)] = (new,) * m
    return dataclasses.replace(tab, name=f"{tab.name}_corrupt", table=table)


def additive_gauges():
    for seed in range(12):
        for builder in ADDITIVE_BUILDERS:
            rng = rng_for(8000 + seed)
            g = builder(rng, rng.randrange(2, 7))
            yield g
            yield constant_copy(g, rng)


def test_scale_constant_branch_matches_its_loop():
    caught = 0
    for g in additive_gauges():
        tab = g.tabulated()
        assert all(len(set(row)) == 1 for row in tab.table.values())
        rng = rng_for(len(g.points))
        subsets = (g.points, tuple(rng.sample(g.points, len(g.points) // 2 + 1)))
        for points in subsets:
            got = check_axioms(g, points).by_axiom("triangle")
            want = oracle_scale_constant_triangles(g, points)
            assert got == want, (g.name, points)
            caught += bool(want)
    assert caught >= 20


def test_scale_constant_branch_on_a_closed_form_gauge():
    # w(a, c) = 3 > w(a, b) + w(b, c) = 2 at every scale
    g = GaugeSpec(regime=Regime.ADDITIVE, points=("a", "b", "c"),
                  grid=ScaleGrid((1.0, 2.0)),
                  fn=lambda x, y, t: 0.0 if x == y else
                  (3.0 if (x, y) == ("a", "c") else 1.0))
    report = check_axioms(g)
    assert report.by_axiom("triangle") == oracle_scale_constant_triangles(
        g, g.points)
    assert [v.witness for v in report.by_axiom("triangle")] == \
        [("a", "b", "c", 1.0, 1.0, 2.0)]


def test_kernel_takes_three_matrices_and_a_law():
    # lhs[i][k] against oplus(left[i][j], right[j][k])
    lhs = [[0.75, 0.75], [0.0, 0.0]]
    left = [[0.5, 0.0], [0.0, 0.0]]
    right = [[0.5, 0.25], [0.0, 0.0]]
    assert triangle_violations(lhs, left, right) == [(0, 1, 0, 0.75, 0.0),
                                                     (0, 1, 1, 0.75, 0.0)]
    assert triangle_violations(lhs, left, right, max) == [
        (0, 0, 0, 0.75, 0.5), (0, 0, 1, 0.75, 0.5),
        (0, 1, 0, 0.75, 0.0), (0, 1, 1, 0.75, 0.0)]


# ---------------------------------------------------------------------------
# check_axioms: one kernel call per checkable grid split


def _projection_table(grid):
    m = len(grid)
    return [[grid.ceil_index(grid[i] + grid[j]) for j in range(m)]
            for i in range(m)]


def oracle_check_axioms(g, points=None, grid=None):
    """check_axioms with the two triple loops the kernel calls replaced,
    each combining with + or the gauge's conorm."""
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
    checkable = [(i, j) for i in range(m) for j in range(m)
                 if proj[i][j] is not None]
    scale_constant = all(len(set(row)) == 1 for row in rows.values())
    if checkable:
        if scale_constant:
            i0, j0 = checkable[0]
            u0 = grid[proj[i0][j0]]
            for x in points:
                for z in points:
                    lhs = rows[(x, z)][0]
                    for y in points:
                        a, b = rows[(x, y)][0], rows[(y, z)][0]
                        rhs = conorm.apply(a, b) if conorm else a + b
                        if lhs > rhs:
                            violations.append(Violation(
                                "triangle", (x, y, z, grid[i0], grid[j0], u0),
                                lhs, rhs))
        else:
            for x in points:
                for z in points:
                    row_xz = rows[(x, z)]
                    for y in points:
                        row_xy, row_yz = rows[(x, y)], rows[(y, z)]
                        for i, j in checkable:
                            lhs = row_xz[proj[i][j]]
                            a, b = row_xy[i], row_yz[j]
                            rhs = conorm.apply(a, b) if conorm else a + b
                            if lhs > rhs:
                                violations.append(Violation(
                                    "triangle",
                                    (x, y, z, grid[i], grid[j], grid[proj[i][j]]),
                                    lhs, rhs))
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


def constant_conorm_gauge(rng, n, conorm):
    """A closed one-scale conorm table repeated on three scales."""
    g = random_conorm_gauge(rng, n, conorm, grid=ScaleGrid((1.0,)))
    return dataclasses.replace(
        g, grid=ScaleGrid((1.0, 2.0, 4.0)),
        table={pair: row * 3 for pair, row in g.table.items()})


def under_every_conorm(g):
    """The conorm gauge read with each conorm, as `--conorm` does: max is
    the strictest law, so a table closed for a sum fails under it."""
    return [dataclasses.replace(g, conorm=c) for c in TConorm]


def axiom_gauges():
    """Every regime, scale-constant and scale-dependent, clean and broken."""
    for seed in range(6):
        rng = rng_for(8100 + seed)
        for builder in ADDITIVE_BUILDERS:
            g = builder(rng, rng.randrange(2, 7))
            yield g
            yield constant_copy(g, rng)
            yield corrupt_one_entry(g, rng, bump=2.0)[0]
        for c in TConorm:
            g = random_conorm_gauge(rng, rng.randrange(2, 6), c)
            yield from under_every_conorm(g)
            yield from under_every_conorm(corrupt_one_entry(g, rng)[0])
            flat = constant_conorm_gauge(rng, rng.randrange(2, 6), c)
            yield from under_every_conorm(flat)
            yield from under_every_conorm(constant_copy(flat, rng))
        for c in (None, *TConorm):
            yield random_raw_table(rng, rng.randrange(2, 6), c)
    yield from closed_form_corpus()


def axiom_cases():
    """Each gauge on its points and grid, on a proper subset in reversed
    order, on a grid whose sums land on fewer scales, and on one where no
    grid pair sum lands on the grid."""
    for g in axiom_gauges():
        subset = tuple(p for k, p in enumerate(g.points)
                       if k != len(g.points) // 2)[::-1]
        yield g, g.points, g.grid
        yield g, subset, g.grid
        yield g, g.points, ScaleGrid((0.5, 1.0, 3.0))
        yield g, subset, ScaleGrid((1.0, 1.5))


def test_check_axioms_matches_the_replaced_loops():
    seen = set()
    for g, points, grid in axiom_cases():
        want = oracle_check_axioms(g, points, grid)
        assert check_axioms(g, points, grid).to_json() == want.to_json(), \
            (g.name, points, grid)
        rows = _materialize(g, points, grid)
        constant = all(len(set(row)) == 1 for row in rows.values())
        bad = want.by_axiom("triangle")
        seen.add((g.regime, constant, len(bad) > 1, len(grid) > 2))
        if "no grid pair sums" in " ".join(want.notes):
            seen.add("uncheckable")
    # both loops found several witnesses in both regimes
    assert {(r, c, True, True) for r in Regime for c in (True, False)} <= seen
    assert "uncheckable" in seen


def test_a_nan_diagonal_keeps_list_equality_semantics():
    # a closed form that returns one nan object on the diagonal: list ==
    # finds it equal to itself by identity, so the gauge still reads as
    # constant in the scale (one split checked) and as symmetric
    nan = math.nan
    off = {("a", "b"): 0.5, ("b", "a"): 0.5, ("b", "c"): 0.5,
           ("c", "b"): 0.5, ("a", "c"): 1.5, ("c", "a"): 1.5}
    g = GaugeSpec(regime=Regime.ADDITIVE, points=("a", "b", "c"),
                  grid=ScaleGrid((1.0, 2.0, 4.0)), claims_symmetric=True,
                  fn=lambda x, y, t: nan if x == y else off[(x, y)])
    report = check_axioms(g)
    assert report.to_json() == oracle_check_axioms(g).to_json()
    assert "claims_symmetric=True confirmed" in report.notes
    assert [v.witness for v in report.by_axiom("triangle")] == [
        ("a", "b", "c", 1.0, 1.0, 2.0), ("c", "b", "a", 1.0, 1.0, 2.0)]

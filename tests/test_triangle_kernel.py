"""Differential tests for the additive triangle kernel.

`triangle_violations` decides each (x, y) with one pass over two rows and
scans z only on a hit.  The oracles below are the triple loops it replaced:
the (x, y, z) loop of `quasi_pseudometric_violations`, with its own
per-pair lookup, and the (x, z, y) loop of the scale-constant additive
branch of `check_axioms`.  Witnesses, sides and order must match exactly.
"""

import dataclasses
import math

from quasimod import (INF, GaugeSpec, Regime, ScaleGrid, check_axioms,
                      make_min_cap, quasi_pseudometric_check,
                      quasi_pseudometric_violations)
from quasimod.axioms import Violation
from quasimod.gauges import triangle_violations

from conftest import (ADDITIVE_BUILDERS, points_named,
                      random_quasi_pseudometric, rng_for)


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
    the scale: raised, lowered to zero, made infinite, or a nonzero
    diagonal."""
    tab = g.tabulated()
    m = len(tab.grid)
    table = dict(tab.table)
    for _ in range(rng.randrange(1, 4)):
        x, z = rng.choice(tab.points), rng.choice(tab.points)
        v = table[(x, z)][0]
        new = rng.choice((v + rng.randrange(1, 9) / 4, 0.0, INF, v / 2))
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

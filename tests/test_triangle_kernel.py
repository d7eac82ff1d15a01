"""Differential tests for the triangle kernel.

`triangle_violations` decides each (x, y) with one pass over two rows and
scans z only on a hit.  The oracle is `reference`: the quasi-pseudometric
check's (x, y, z) loop with its own per-pair lookup, and `check_axioms`
by definition for every regime, over every split, or over the first one
where the gauge is constant in the scale.  Witnesses, sides and order
must match exactly.
"""

import math

from quasimod import (INF, GaugeSpec, Regime, ScaleGrid, TConorm,
                      check_axioms, make_min_cap, quasi_pseudometric_check)
from quasimod.gauges import triangle_violations

from conftest import (ADDITIVE_BUILDERS, _materialize, closed_form_corpus,
                      corrupt_one_entry, points_named, random_conorm_gauge,
                      random_quasi_pseudometric, random_raw_table, rng_for)
from reference import axioms, quasi_pseudometric


# ---------------------------------------------------------------------------
# quasi_pseudometric_check


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
        want = quasi_pseudometric(d, points)
        kinds.update(v.axiom for v in want.violations)
        # repr, since a nan entry equals no other
        assert repr(quasi_pseudometric_check(d, points)) == repr(want), \
            (d, points)
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
        want = quasi_pseudometric(d, points).violations
        # a NaN entry off the diagonal passes both axioms; a table with no
        # violation is refused on its first one
        nan = next(((x, y) for x in points for y in points
                    if math.isnan(d.get((x, y), 0.0))), None)
        try:
            make_min_cap(d, points)
        except ValueError as exc:
            if not want:
                x, y = nan
                assert str(exc) == (f"rho entry at ({x!r}, {y!r}) must be a "
                                    f"nonnegative real or +inf, got nan")
                continue
            axiom, witness, lhs, rhs = want[0]
            detail = f"{lhs} > {rhs}" if axiom == "triangle" else \
                f"got {lhs}, expected {rhs}"
            assert str(exc) == \
                f"rho violates the {axiom} axiom at {witness}: {detail}"
        else:
            assert not want and nan is None


# ---------------------------------------------------------------------------
# the scale-constant additive branch of check_axioms


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
    return tab._replace(name=f"{tab.name}_corrupt", table=table)


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
            want = axioms(g, points).by_axiom("triangle")
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
    assert report == axioms(g)
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


def constant_conorm_gauge(rng, n, conorm):
    """A closed one-scale conorm table repeated on three scales."""
    g = random_conorm_gauge(rng, n, conorm, grid=ScaleGrid((1.0,)))
    return g._replace(
        grid=ScaleGrid((1.0, 2.0, 4.0)),
        table={pair: row * 3 for pair, row in g.table.items()})


def under_every_conorm(g):
    """The conorm gauge read with each conorm, as `--conorm` does: max is
    the strictest law, so a table closed for a sum fails under it."""
    return [g._replace(conorm=c) for c in TConorm]


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
        want = axioms(g, points, grid)
        assert check_axioms(g, points, grid) == want, \
            (g.name, points, grid)
        rows = _materialize(g, points, grid)
        constant = all(len(set(row)) == 1 for row in rows.values())
        bad = want.by_axiom("triangle")
        seen.add((g.regime, constant, len(bad) > 1, len(grid) > 2))
        if "no grid pair sums" in " ".join(want.notes):
            seen.add("uncheckable")
    # several witnesses in both regimes, constant in the scale or not
    assert {(r, c, True, True) for r in Regime for c in (True, False)} <= seen
    assert "uncheckable" in seen


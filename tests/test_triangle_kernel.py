"""Differential tests for the triangle kernel.

`triangle_violations` decides each (x, y) with one pass over two rows and
scans z only on a hit.  Under + that pass runs on integer lanes where the
guard `_lane_codes` takes the three matrices, and on floats elsewhere, so
every seeded case runs twice: on its lattice values and on a copy with one
entry set to 0.3, whose odd 53-bit numerator no lattice of the guard holds.
The oracle is `reference`: the quasi-pseudometric check's (x, y, z) loop
with its own per-pair lookup, and `check_axioms` by definition for every
regime, over every split, or over the first one where the gauge is constant
in the scale.  Witnesses, sides and order must match exactly.  On the edge
tables the oracle is the float triple loop, and on every table the guard
takes the triples must be the ones `fractions.Fraction` finds.
"""

import math
from fractions import Fraction
from itertools import product

from quasimod import (INF, GaugeSpec, Regime, ScaleGrid, TConorm,
                      check_axioms, make_min_cap, quasi_pseudometric_check)
from quasimod.gauges import _lane_codes, triangle_violations

from conftest import (ADDITIVE_BUILDERS, _materialize, closed_form_corpus,
                      corrupt_one_entry, points_named, random_conorm_gauge,
                      random_quasi_pseudometric, random_raw_table, rng_for)
from reference import axioms, quasi_pseudometric

OFF_LATTICE = 0.3


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
    """Each seeded table on the points, on a subset in shuffled order and
    on a list with a repeated point, then each with one entry among those
    points set off the lattice."""
    for seed in range(150):
        rng = rng_for(7000 + seed)
        points = points_named(rng.randrange(1, 9))
        d = random_table(rng, points) if seed % 2 else \
            perturbed_closure(rng, points)
        subset = rng.sample(points, rng.randrange(1, len(points) + 1))
        for pts in (points, subset, subset + [subset[0]]):
            yield d, pts
            yield {**d, (rng.choice(pts), rng.choice(pts)): OFF_LATTICE}, pts


def distance_rows(d, points):
    return [[d.get((x, y), 0.0 if x == y else INF) for y in points]
            for x in points]


def test_kernel_matches_the_triple_loop_on_seeded_tables():
    kinds, lanes = set(), []
    for d, points in table_cases():
        want = quasi_pseudometric(d, points)
        kinds.update(v.axiom for v in want.violations)
        # repr, since a nan entry equals no other
        assert repr(quasi_pseudometric_check(d, points)) == repr(want), \
            (d, points)
        lanes.append(_lane_codes([distance_rows(d, points)]) is not None)
    assert kinds == {"zero-self", "triangle"}
    # the lattice tables but those holding a nan take the lanes, and no copy
    assert not any(lanes[1::2]) and sum(lanes[::2]) >= 300


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
# the lane guard and its edges


def float_triples(lhs, left, right):
    """The kernel by definition: every (i, j, k) in order, decided in
    floats."""
    n = len(lhs)
    return [(i, j, k, lhs[i][k], rhs)
            for i, j, k in product(range(n), repeat=3)
            for rhs in [left[i][j] + right[j][k]] if lhs[i][k] > rhs]


def rational(v):
    return v if v == INF else Fraction(v)


def fraction_triples(lhs, left, right):
    """(i, j, k) where lhs[i][k] exceeds left[i][j] + right[j][k] in the
    rationals the floats denote (+inf absorbing)."""
    n = len(lhs)
    return [(i, j, k) for i, j, k in product(range(n), repeat=3)
            if rational(lhs[i][k]) >
            rational(left[i][j]) + rational(right[j][k])]


def top_table(top):
    """1 and top - 1 sum to top, a tie; w(c, a) = top exceeds 1 + 1."""
    return [[0.0, 1.0, top], [1.0, 0.0, top - 1.0], [top, 1.0, 0.0]]


# each table, and whether the guard takes it
EDGE_TABLES = {
    "negative zero": ([[-0.0, 0.5, 0.25], [-0.0, 0.0, -0.0],
                       [0.75, -0.0, -0.0]], True),
    # +inf on the left side, in a right row and as w(a, b), against the
    # largest finite code
    "inf": ([[0.0, 0.0, INF], [INF, 0.0, 2.0], [0.5, INF, 0.0]], True),
    "all inf": ([[INF, INF], [INF, INF]], True),
    "nan": ([[0.0, math.nan, 3.0], [1.0, 0.0, 1.0], [math.nan, 1.0, 0.0]],
            False),
    "negative": ([[0.0, -1.0, 3.0], [1.0, 0.0, 1.0], [0.5, -0.5, 0.0]],
                 False),
    "-inf": ([[0.0, -INF, 3.0], [1.0, 0.0, INF], [1.0, 1.0, 0.0]], False),
    "int": ([[0, 1, 5], [1, 0, 1], [1, 2, 0]], False),
    "5e-324": ([[0.0, 5e-324, 1e-323], [5e-324, 0.0, 5e-324],
                [INF, 1e-323, 0.0]], True),
    "2**51": (top_table(2.0 ** 51), True),
    "2**52 - 1": (top_table(2.0 ** 52 - 1), True),
    "2**52": (top_table(2.0 ** 52), False),
    "2**53": (top_table(2.0 ** 53), False),
    "1e-300 beside 1e300": ([[0.0, 1e-300, 1e300], [1e-300, 0.0, 1e300],
                             [1e300, 2e-300, 0.0]], False),
    # 1e308 + 1e308 rounds to inf, so the float pass finds no witness where
    # the rationals have one: the guard keeps it off the lanes
    "1e308 + 1e308": ([[0.0, 1e308, INF], [INF, 0.0, 1e308],
                       [INF, INF, 0.0]], False),
    "no points": ([], True),
    "one point": ([[0.0]], True),
    "one nonzero point": ([[0.5]], True),
}


def test_edge_tables_match_the_float_loop():
    for name, (rows, lanes) in EDGE_TABLES.items():
        assert (_lane_codes([rows]) is not None) == lanes, name
        # repr keeps the sign of a zero and tells a nan from a nan
        assert repr(triangle_violations(rows)) == \
            repr(float_triples(rows, rows, rows)), name
    assert repr(triangle_violations(EDGE_TABLES["negative zero"][0])) == \
        "[(0, 2, 1, 0.5, 0.25), (2, 1, 0, 0.75, -0.0)]"


def test_the_guard_takes_exact_lattices_only():
    quarter = [[0.0, 0.25, INF], [1.75, -0.0, 0.5], [0.5, 2.0, 0.0]]
    assert _lane_codes([quarter]) == {0.0: 0, 0.25: 1, 0.5: 2, 1.75: 7,
                                      2.0: 8, INF: 17}
    integer = [[0.0, 3.0, 7.0], [1.0, 0.0, 2.0], [INF, 5.0, 0.0]]
    assert _lane_codes([integer]) == {0.0: 0, 1.0: 1, 2.0: 2, 3.0: 3,
                                      5.0: 5, 7.0: 7, INF: 15}
    # item 2: 0.1 + 0.2 rounds to 0.30000000000000004
    sums = [[0.0, 0.1, 0.30000000000000004], [0.1, 0.0, 0.2],
            [0.30000000000000004, 0.2, 0.0]]
    assert _lane_codes([sums]) is None
    # the bound, 2 * top < 2**53, is strict, and the three share one lattice
    assert _lane_codes([[[1.0, 2.0 ** 52 - 1]]]) is not None
    assert _lane_codes([[[1.0, 2.0 ** 52]]]) is None
    assert _lane_codes([[[2.0 ** 51]], [[1.0]], [[1.0]]]) is not None
    assert _lane_codes([[[2.0 ** 51]], [[0.5]], [[1.0]]]) is None


def lattice_matrix(rng, n):
    """Values from 0 to 2 on a lattice of 1, 1/4 or 1/16, a few +inf."""
    step = rng.choice((1, 4, 16))
    return [[INF if rng.random() < 0.1 else rng.randrange(0, 2 * step + 1)
             / step for _ in range(n)] for _ in range(n)]


def three_matrix_cases():
    """Three distinct lattice matrices of 0 to 7 points, and a copy of each
    with one entry off the lattice."""
    for seed in range(120):
        rng = rng_for(9000 + seed)
        n = seed % 8
        mats = [lattice_matrix(rng, n) for _ in range(3)]
        yield mats
        if n:
            copy = [[row[:] for row in m] for m in mats]
            copy[rng.randrange(3)][rng.randrange(n)][rng.randrange(n)] = \
                OFF_LATTICE
            yield copy


def test_three_matrices_match_the_float_loop():
    lanes = []
    for lhs, left, right in three_matrix_cases():
        assert triangle_violations(lhs, left, right) == \
            float_triples(lhs, left, right), (lhs, left, right)
        lanes.append(_lane_codes([lhs, left, right]) is not None)
    assert all(lanes[:2]) and lanes.count(True) == 120


def test_lane_verdicts_are_the_rational_ones():
    """The certificate: on every table the guard takes, the kernel's
    triples are exactly the Fraction triples."""
    cases = [*three_matrix_cases(),
             *([rows] * 3 for rows, _ in EDGE_TABLES.values()),
             *([distance_rows(d, points)] * 3
               for d, points in table_cases())]
    taken = 0
    for mats in cases:
        if _lane_codes(mats) is not None:
            taken += 1
            assert [t[:3] for t in triangle_violations(*mats)] == \
                fraction_triples(*mats), mats
    assert taken >= 450


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


def off_lattice_copy(g, rng):
    """g tabulated with one pair's whole row set off the lattice, which
    keeps it constant in the scale if it was."""
    tab = g.tabulated()
    pair = rng.choice(list(tab.table))
    return tab._replace(name=f"{tab.name}_off_lattice", table={
        **tab.table, pair: (OFF_LATTICE,) * len(tab.grid)})


def additive_gauges():
    for seed in range(12):
        for builder in ADDITIVE_BUILDERS:
            rng = rng_for(8000 + seed)
            g = builder(rng, rng.randrange(2, 7))
            yield g
            yield constant_copy(g, rng)
            yield off_lattice_copy(g, rng)


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
            yield off_lattice_copy(g, rng_for(8200 + seed))
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
    seen, lanes = set(), {}
    for g, points, grid in axiom_cases():
        want = axioms(g, points, grid)
        assert check_axioms(g, points, grid) == want, \
            (g.name, points, grid)
        if g.regime is Regime.ADDITIVE and points == g.points:
            taken = _lane_codes(g.sample(points, grid)[2]) is not None
            lanes[taken, g.name.endswith("_off_lattice")] = True
        rows = _materialize(g, points, grid)
        constant = all(len(set(row)) == 1 for row in rows.values())
        bad = want.by_axiom("triangle")
        seen.add((g.regime, constant, len(bad) > 1, len(grid) > 2))
        if "no grid pair sums" in " ".join(want.notes):
            seen.add("uncheckable")
    # several witnesses in both regimes, constant in the scale or not
    assert {(r, c, True, True) for r in Regime for c in (True, False)} <= seen
    assert "uncheckable" in seen
    # on all its points every additive gauge takes the lanes, and every
    # off-lattice copy the float pass
    assert set(lanes) == {(True, False), (False, True)}


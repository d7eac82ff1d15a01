"""Step data stays a table, and witnesses come from the held matrix.

`make_scaled_metric` tabulates w(x, y, t) = g(t) * d(x, y) on g's grid, and
`symmetrize` of a table is a table.  The oracle is the closed form the
constructor used to return, kept inline: the profile read at the raw scale
times the distance.  Both must give the same floats at every scale, on the
grid, between grid scales, below it and past it, and the same for their
symmetrizations.  Luxemburg distances of the tables are the exact grid
infimum with no probe, and the oracle's searched value lies within tol
above it.

The escape witnesses of the cover and the small-composite values are read
from the matrix the ball sweep already holds, never through
`GaugeSpec.value`: on a closed form they still equal `g.value`.
"""

import pytest

from quasimod import (INF, CellInclusionError, GaugeSpec,
                      NonmonotoneGaugeError, Profile, Regime, ScaleGrid,
                      TConorm, ext_mul, greedy_net,
                      heine_borel_report, luxemburg_distance,
                      make_scaled_metric, small_composite_check, symmetrize,
                      symmetrized_luxemburg, two_sided_cover_from_onesided)
from quasimod.luxemburg import DEFAULT_TOL

from conftest import (corrupt_one_entry, min_plus_closure, points_named,
                      random_conorm_gauge, rng_for, scaled_metric_data)
from reference import luxemburg_infimum


def infinite_and_zero_data(seed):
    """(d, g, points) with +inf distances, where no path joins two points,
    and profiles that start at +inf and end at 0."""
    rng = rng_for(2200 + seed)
    for _ in range(3):
        points = points_named(rng.randrange(2, 6))
        d = {(x, y): 0.0 if x == y else
             rng.choice((INF, INF, 0.0, rng.randrange(1, 33) / 8))
             for x in points for y in points}
        n = rng.randrange(2, 6)
        scales = tuple(2.0 ** k for k in sorted(rng.sample(range(-3, 5), n)))
        values = sorted((rng.randrange(0, 17) / 4 for _ in range(n - 2)),
                        reverse=True)
        yield (min_plus_closure(points, d),
               Profile(ScaleGrid(scales), (INF, *values, 0.0)), points)


def corpus():
    for seed in range(20):
        yield from scaled_metric_data(seed)
        yield from infinite_and_zero_data(seed)


def closed_form(d, profile, points):
    """The closure `make_scaled_metric` returned before it tabulated."""
    g = make_scaled_metric(d, profile, points)
    return g._replace(table=None,
                      fn=lambda x, y, t: ext_mul(profile.value_at(t), d[x, y]))


def scales(grid):
    """Every grid scale, the midpoints between them, one below the grid
    and one past it."""
    s = grid.scales
    return (s[0] / 2, *s, *((a + b) / 2 for a, b in zip(s, s[1:])), 2 * s[-1])


def bits(mat):
    return [[v.hex() for v in row] for row in mat]


def exact_infimum(g, x, y):
    """The grid infimum of a nonincreasing step row at c = 1, with its
    bracket."""
    grid, v = g.grid.scales, luxemburg_infimum(g, x, y)
    return v, ((1e12, INF) if v == INF else (0.0, grid[0]) if v == 0.0
               else (v, grid[grid.index(v) + 1]))


def test_the_corpus_meets_infinite_distances_and_zero_profiles():
    data = list(corpus())
    assert any(INF in d.values() for d, _, _ in data)
    assert any(0.0 in g.values for _, g, _ in data)
    assert any(v == INF for _, g, _ in data for v in g.values)


def test_a_scaled_metric_is_the_closed_form_tabulated_bit_for_bit():
    for d, profile, points in corpus():
        table, oracle = make_scaled_metric(d, profile, points), \
            closed_form(d, profile, points)
        assert table.table is not None and table.grid == profile.grid
        assert (table.claims_symmetric, table.claims_convex) \
            == (oracle.claims_symmetric, oracle.claims_convex)
        for t in scales(profile.grid):
            assert bits(table.matrix(t)) == bits(oracle.matrix(t)), (d, t)
            sym_table, sym_oracle = symmetrize(table), symmetrize(oracle)
            assert sym_table.table is not None and sym_oracle.table is None
            assert bits(sym_table.matrix(t)) == bits(sym_oracle.matrix(t)), \
                (d, t)
            assert all(table.value(x, y, t) == oracle.value(x, y, t)
                       for x in points for y in points)


def test_luxemburg_distances_of_step_data_are_exact_with_no_probe():
    searched = 0
    for d, profile, points in corpus():
        table, oracle = make_scaled_metric(d, profile, points), \
            closed_form(d, profile, points)
        sym = symmetrize(table)
        for x in points:
            for y in points:
                exact, bracket = exact_infimum(oracle, x, y)
                got = luxemburg_distance(table, x, y)
                assert (got.value, got.bracket, got.iterations) == \
                    (exact, bracket, 0), (d, x, y)
                # the closed form's search lands within tol above it
                old = luxemburg_distance(oracle, x, y)
                assert exact <= old.value <= exact + DEFAULT_TOL, (d, x, y)
                searched += 0.0 < exact < INF
                both = max(exact, exact_infimum(oracle, y, x)[0])
                got = luxemburg_distance(sym, x, y)
                assert (got.value, got.iterations) == (both, 0), (d, x, y)
                assert symmetrized_luxemburg(table, x, y) == both
    assert searched > 100  # rows whose infimum sits inside the grid


def test_symmetrize_keeps_a_conorm_table_and_a_closure_apart():
    rng = rng_for(2300)
    for conorm in (TConorm.MAX, TConorm.PROBABILISTIC_SUM,
                   TConorm.BOUNDED_SUM):
        g = random_conorm_gauge(rng, 4, conorm)
        closure = g._replace(table=None,
                             fn=lambda x, y, t, g=g: g.value(x, y, t))
        sym, sym_closure = symmetrize(g), symmetrize(closure)
        assert sym.table is not None and sym_closure.table is None
        assert sym.name == sym_closure.name == f"sym({g.name})"
        assert sym.claims_symmetric and sym_closure.claims_symmetric
        for t in scales(g.grid):
            assert bits(sym.matrix(t)) == bits(sym_closure.matrix(t))


def test_a_rising_symmetrized_row_raises_like_any_table():
    g = GaugeSpec(regime=Regime.ADDITIVE, points=("a", "b"),
                  grid=ScaleGrid((1.0, 2.0)),
                  table={("a", "b"): (1.0, 1.0), ("b", "a"): (0.5, 3.0)})
    with pytest.raises(NonmonotoneGaugeError, match="increases"):
        luxemburg_distance(symmetrize(g), "a", "b")


# ---------------------------------------------------------------------------
# witnesses read from the held matrix


def skew_closure():
    """w = rho / t with w(a, b) = 0 and w(b, a) = 9 / t: the composed cell
    of a escapes its two-sided ball."""
    rho = {("a", "b"): 0.0, ("b", "a"): 9.0, ("a", "c"): 5.0,
           ("c", "a"): 6.0, ("b", "c"): 5.0, ("c", "b"): 7.0}
    return GaugeSpec(regime=Regime.ADDITIVE, points=("a", "b", "c"),
                     grid=ScaleGrid((1.0, 2.0, 4.0)), name="skew",
                     fn=lambda x, y, t: 0.0 if x == y else rho[x, y] / t)


def count_value_calls(monkeypatch):
    calls = [0]
    value = GaugeSpec.value

    def counted(self, x, y, t):
        calls[0] += 1
        return value(self, x, y, t)

    monkeypatch.setattr(GaugeSpec, "value", counted)
    return calls


def closure_of(table):
    """The table as a closed form that reads its matrices, not `value`."""
    return table._replace(table=None, fn=lambda x, y, t: table.matrix(t)[
        table.index(x)][table.index(y)])


def test_cover_witnesses_on_a_closure_equal_its_value(monkeypatch):
    g = skew_closure()
    calls = count_value_calls(monkeypatch)
    report = heine_borel_report(g)
    failed = [row for row in report.rows if row.witness is not None]
    errors = []
    for row in failed:
        s, t = row.split_s, row.scale_t
        fwd = greedy_net(g.points, g, s, t / 2, "forward")
        bwd = greedy_net(g.points, g, s, t / 2, "backward")
        with pytest.raises(CellInclusionError) as exc:
            two_sided_cover_from_onesided(g, fwd, bwd, row.radius_r, t)
        errors.append((row, exc.value))
    assert calls[0] == 0
    monkeypatch.undo()
    assert errors
    for row, err in errors:
        t = row.scale_t
        assert str(err) == row.witness
        assert err.lhs_out == g.value(err.z, err.u, t)
        assert err.lhs_back == g.value(err.u, err.z, t)
        assert err.lhs_out != err.lhs_back  # so the order is seen


def test_small_composite_values_on_a_closure_equal_its_value(monkeypatch):
    found = asymmetric = 0
    for k in range(6):
        rng = rng_for(2400 + k)
        try:
            table, _ = corrupt_one_entry(random_conorm_gauge(
                rng, rng.randrange(3, 6), TConorm.MAX), rng)
        except ValueError:  # a composite too close to 1 to corrupt
            continue
        g = closure_of(table)
        calls = count_value_calls(monkeypatch)
        report = small_composite_check(g)
        assert calls[0] == 0
        monkeypatch.undo()
        assert report == small_composite_check(table)
        for v in report.violations:
            side, x, z, r, rp, t = v.witness
            want = g.value(x, z, t) if side == "forward" else g.value(z, x, t)
            assert v.lhs == want, (k, v)
            found += 1
            asymmetric += g.value(x, z, t) != g.value(z, x, t)
    assert found > 0 and asymmetric > 0


def test_table_witness_reads_call_no_value(monkeypatch):
    skew = GaugeSpec(regime=Regime.ADDITIVE, points=("a", "b"),
                     grid=ScaleGrid((1.0, 2.0)),
                     table={("a", "b"): (0.0, 0.0), ("b", "a"): (9.0, 9.0)})
    rng = rng_for(2400)
    broken, _ = corrupt_one_entry(random_conorm_gauge(rng, 4, TConorm.MAX),
                                  rng)
    calls = count_value_calls(monkeypatch)
    assert any(row.witness for row in heine_borel_report(skew).rows)
    assert small_composite_check(broken).violations
    assert calls[0] == 0

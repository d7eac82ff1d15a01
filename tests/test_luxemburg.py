"""Luxemburg infimum kernel and the induced quasi-distances."""

import pytest

from quasimod import (
    INF,
    GaugeSpec,
    LuxemburgResult,
    NonmonotoneGaugeError,
    Regime,
    ScaleGrid,
    luxemburg_distance,
    luxemburg_infimum,
    make_min_cap,
    make_scaled_metric,
    opposite,
    quasi_pseudometric_check,
    symmetrized_luxemburg,
)
from quasimod.profiles import Profile

from conftest import points_named, random_quasi_pseudometric, rng_for


def scaled_gauge(d, points):
    """w(x, y, t) = d(x, y) / t, the textbook norm-like gauge: its Luxemburg
    distance at c = 1 recovers d exactly."""
    return GaugeSpec(regime=Regime.ADDITIVE, points=points,
                     fn=lambda x, y, t: d[(x, y)] / t)


def test_recovers_the_underlying_distance():
    for seed in range(10):
        rng = rng_for(seed)
        pts = points_named(rng.randrange(2, 6))
        d = random_quasi_pseudometric(rng, pts)
        g = scaled_gauge(d, pts)
        for x in pts:
            for y in pts:
                res = luxemburg_distance(g, x, y)
                if x == y:
                    assert res.value == 0.0
                else:
                    assert abs(res.value - d[(x, y)]) <= 1e-9
                    lo, hi = res.bracket
                    assert lo < res.value <= hi
                    assert hi - lo <= 1e-9


def test_a_search_keeps_no_matrix_and_a_sweep_one_per_scale():
    # a search probes off-grid scales through `value`, which reads a closed
    # form per pair: neither g nor its opposite, which reads g.value, keeps
    # a matrix; `matrix` keeps one per scale and hands it out again
    rng = rng_for(31)
    pts = points_named(4)
    g = scaled_gauge(random_quasi_pseudometric(rng, pts), pts)
    opp = opposite(g)
    for gauge in (g, opp):
        for x in pts:
            for y in pts:
                assert luxemburg_distance(gauge, x, y).iterations > 0
    assert g._memo == {} and opp._memo == {}
    mat = opp.matrix(0.5)
    assert opp.matrix(0.5) is mat and len(opp._memo) == 1
    assert mat == tuple(tuple(g.value(y, x, 0.5) for y in pts) for x in pts)
    assert g._memo == {}


def test_zero_distance_short_circuits():
    g = scaled_gauge({("a", "a"): 0.0}, ("a",))
    res = luxemburg_distance(g, "a", "a")
    assert res.value == 0.0
    assert res.bracket == (0.0, 1e-9)
    assert res.iterations == 2  # the bottom probe plus the upper-set audit


def test_infinite_when_threshold_is_unreachable():
    res = luxemburg_infimum(lambda lam: 5.0, c=1.0)
    assert res.value == INF
    assert res.bracket == (1e12, INF)


def test_threshold_monotonicity_in_c():
    value_at = lambda lam: 4.0 / lam
    v1 = luxemburg_infimum(value_at, c=1.0).value
    v2 = luxemburg_infimum(value_at, c=2.0).value
    assert abs(v1 - 4.0) <= 1e-9
    assert abs(v2 - 2.0) <= 1e-9
    assert v2 <= v1


def test_min_cap_probes_are_rejected_as_nonmonotone():
    # min(rho, lambda) grows with the scale, so the infimum convention is
    # meaningless; the kernel must refuse rather than return 0
    g = make_min_cap({("a", "b"): 3.0, ("b", "a"): 3.0}, ("a", "b"))
    with pytest.raises(NonmonotoneGaugeError, match="increases with the scale"):
        luxemburg_distance(g, "a", "b")


def test_nonmonotone_probe_pairs_are_flagged():
    with pytest.raises(NonmonotoneGaugeError, match="increases with the scale"):
        luxemburg_infimum(lambda lam: lam if lam > 1 else 2.0, c=1.5)


def test_parameter_validation():
    with pytest.raises(ValueError, match="threshold"):
        luxemburg_infimum(lambda lam: 1.0 / lam, c=0.0)
    with pytest.raises(ValueError, match="tolerance"):
        luxemburg_infimum(lambda lam: 1.0 / lam, tol=0.0)
    with pytest.raises(ValueError, match="lambda_max"):
        luxemburg_infimum(lambda lam: 1.0 / lam, tol=1.0, lambda_max=0.5)


def test_additive_regime_only():
    from quasimod import TConorm, make_ratio

    g = make_ratio({("a", "b"): 1.0, ("b", "a"): 1.0}, ("a", "b"))
    with pytest.raises(ValueError, match="additive"):
        luxemburg_distance(g, "a", "b")


def test_symmetrized_takes_the_larger_direction():
    d = {("a", "b"): 1.0, ("b", "a"): 4.0, ("a", "a"): 0.0, ("b", "b"): 0.0}
    g = scaled_gauge(d, ("a", "b"))
    v = symmetrized_luxemburg(g, "a", "b")
    assert abs(v - 4.0) <= 1e-9
    assert v == symmetrized_luxemburg(g, "b", "a")


def test_luxemburg_of_scaled_metric_matches_closed_form():
    # w = d/t on the grid, read right-continuously: a table, so the
    # infimum at c = 1 is read from the row with no probe
    grid = ScaleGrid(tuple((k + 1) / 8 for k in range(64)))
    recip = Profile(grid, tuple(1.0 / t for t in grid))
    d = {("a", "b"): 2.0, ("b", "a"): 0.5}
    g = make_scaled_metric(d, recip, ("a", "b"))
    res = luxemburg_distance(g, "a", "b", tol=1e-6)
    # right-continuous steps: the predicate already holds just past the
    # grid scale below 2.0, so the infimum is that left edge, 15/8
    assert res == LuxemburgResult(1.875, (1.875, 2.0), 0)


def test_triple_check_wraps_table_audits():
    report = quasi_pseudometric_check(
        {("a", "b"): 1.0, ("b", "a"): 2.0}, ("a", "b"))
    assert report.ok
    assert report.notes == ("table is asymmetric",)
    report = quasi_pseudometric_check({("a", "a"): 3.0}, ("a",))
    assert not report.ok
    assert report.violations[0].axiom == "zero-self"


def table_gauge(row, grid=(1.0, 2.0, 4.0, 8.0)):
    """A two-point table whose (a, b) row is `row` and (b, a) row is 0."""
    zeros = [0.0] * len(grid)
    return GaugeSpec(regime=Regime.ADDITIVE, points=("a", "b"),
                     grid=ScaleGrid(grid),
                     table={("a", "b"): row, ("b", "a"): zeros})


def test_table_rows_are_read_exactly():
    # the ceil convention holds a column's value on (previous scale, scale]
    for row, want in (([4.0, 2.0, 1.0, 0.5], 2.0), ([0.5] * 4, 0.0),
                      ([3.0, 1.0, 1.0, 0.0], 1.0), ([3.0, 2.0, 2.0, 2.0], INF),
                      ([INF, INF, 1.0, 1.0], 2.0), ([INF] * 4, INF)):
        g = table_gauge(row)
        res = luxemburg_distance(g, "a", "b")
        assert (res.value, res.iterations) == (want, 0), row
        # the bracket certifies the infimum as a search's does
        lo, hi = res.bracket
        assert lo == (want if want < INF else 1e12), row
        assert lo == 0.0 or g.value("a", "b", lo) > 1.0, row
        assert hi == INF or g.value("a", "b", hi) <= 1.0, row
    assert luxemburg_distance(table_gauge([4.0, 2.0, 1.0, 0.5]), "a", "b",
                              c=2.0).value == 1.0
    # columns past the one read at lambda_max are not searched
    assert luxemburg_distance(table_gauge([4.0, 2.0, 1.0, 0.5]), "a", "b",
                              lambda_max=3.0).value == 2.0
    assert luxemburg_distance(table_gauge([4.0, 2.0, 2.0, 0.5]), "a", "b",
                              lambda_max=3.0).value == INF


def test_table_rows_are_checked_whole():
    # a rise past the column the infimum sits in still raises, with the
    # two grid scales as the witness
    with pytest.raises(NonmonotoneGaugeError,
                       match=r"^value increases with the scale: 0.5 at 2.0 "
                             r"but 0.75 at 4.0$"):
        luxemburg_distance(table_gauge([2.0, 0.5, 0.75, 0.25]), "a", "b")
    # a table is read exactly: a rise within a search's float slack is a
    # rise, as the scale-monotone axiom reads it
    with pytest.raises(NonmonotoneGaugeError,
                       match=r"^value increases with the scale: 1.0 at 2.0 "
                             r"but 1.0000000005 at 4.0$"):
        luxemburg_distance(table_gauge([2.0, 1.0, 1.0 + 5e-10, 1.0 + 5e-10]),
                           "a", "b")
    g = table_gauge([2.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="unknown point 'z'"):
        luxemburg_distance(g, "a", "z")
    with pytest.raises(ValueError, match="threshold"):
        luxemburg_distance(g, "a", "b", c=0.0)

"""The three t-conorms and their shared algebra."""

import math
import re
import sys
from fractions import Fraction
from operator import add

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quasimod import (GaugeSpec, Regime, ScaleGrid, TConorm, check_axioms,
                      conorm_from_name, enriched_triangle_check,
                      heine_borel_report, quasi_uniformity_report,
                      small_composite_check, symmetrize,
                      verify_join_equality)

from conftest import (corrupt_one_entry, random_conorm_gauge,
                      random_raw_table, rng_for)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
conorms = st.sampled_from(list(TConorm))


@given(conorms, unit, unit)
def test_commutative_and_in_range(c, a, b):
    v = c.apply(a, b)
    assert v == c.apply(b, a)
    assert 0.0 <= v <= 1.0


@given(conorms, unit)
def test_zero_is_the_unit(c, a):
    assert c.apply(0.0, a) == a
    assert c.apply(a, 0.0) == a


@given(conorms, unit, unit)
def test_dominates_max(c, a, b):
    assert c.apply(a, b) >= max(a, b)


@given(conorms, unit, unit, unit)
# a + b - a*b rounded step by step gave 1.0 here for b and less for b2
@example(TConorm.PROBABILISTIC_SUM, 0.9999999999999999, 0.5, 0.9067356965570263)
def test_monotone_in_each_argument(c, a, b, b2):
    lo, hi = min(b, b2), max(b, b2)
    assert c.apply(a, lo) <= c.apply(a, hi)


@given(unit, unit)
@example(0.9999999999999999, 0.5)
@example(1e-300, 6.755056992018944e-301)  # a*b underflows to 0
@example(2.0 ** -485, 2.0 ** -485)
def test_prob_sum_is_the_exact_value_rounded_once(a, b):
    exact = Fraction(a) + Fraction(b) - Fraction(a) * Fraction(b)
    assert TConorm.PROBABILISTIC_SUM.apply(a, b) == float(exact)


# dyadic arguments keep prob_sum exact, so associativity is an equality
@given(conorms, st.integers(0, 64), st.integers(0, 64), st.integers(0, 64))
def test_associative_on_dyadics(c, i, j, k):
    a, b, d = i / 64, j / 64, k / 64
    assert c.apply(a, c.apply(b, d)) == c.apply(c.apply(a, b), d)


def test_apply_rejects_out_of_range():
    with pytest.raises(ValueError, match=re.escape(
            "conorm arguments must lie in [0, 1], got 1.5, 0.2")):
        TConorm.MAX.apply(1.5, 0.2)
    with pytest.raises(ValueError, match=re.escape(
            "conorm arguments must lie in [0, 1], got 0.2, -0.1")):
        TConorm.BOUNDED_SUM.apply(0.2, -0.1)
    with pytest.raises(ValueError, match="got nan, 0.5"):
        TConorm.PROBABILISTIC_SUM.apply(math.nan, 0.5)


def test_gauge_sweeps_never_call_the_checked_conorm(monkeypatch):
    # a gauge hands out only values in range, so its sweeps, balls and
    # symmetrization combine them with the unchecked law
    gauges = []
    for k, conorm in enumerate(TConorm):
        rng = rng_for(60 + k)
        g = random_conorm_gauge(rng, rng.randrange(3, 6), conorm)
        gauges += [g, corrupt_one_entry(g, rng)[0],
                   random_raw_table(rng, rng.randrange(2, 6), conorm)]

    def reports(g):
        return (check_axioms(g), verify_join_equality(g).to_json(),
                heine_borel_report(g).rows, small_composite_check(g),
                quasi_uniformity_report(g), enriched_triangle_check(g),
                symmetrize(g).table)

    want = [reports(g) for g in gauges]

    def refuse(self, a, b):
        raise AssertionError(f"TConorm.apply({a!r}, {b!r}) called")

    monkeypatch.setattr(TConorm, "apply", refuse)
    assert [reports(g) for g in gauges] == want
    assert any(v.axiom == "bounded" for r in want for v in r[0].violations)


@given(conorms, st.floats(min_value=1e-6, max_value=1.0, allow_nan=False))
def test_half_radius_splits_strictly_below(c, r):
    h = c.half_radius(r)
    assert 0.0 < h < r
    assert c.apply(h, h) < r


def test_half_radius_table():
    assert TConorm.MAX.half_radius(0.8) == 0.4
    assert TConorm.PROBABILISTIC_SUM.half_radius(0.8) == 0.4
    assert TConorm.BOUNDED_SUM.half_radius(0.8) == 0.2
    with pytest.raises(ValueError):
        TConorm.MAX.half_radius(0.0)
    with pytest.raises(ValueError):
        TConorm.MAX.half_radius(1.2)


def one_point_gauge(conorm):
    return GaugeSpec(regime=Regime.CONORM if conorm else Regime.ADDITIVE,
                     points=("a",), conorm=conorm, grid=ScaleGrid((1.0,)),
                     table={})


def old_split(conorm, r):
    """The split before the one rule: r/4 for + and the bounded sum, r/2
    for max and the probabilistic sum."""
    return r / 4.0 if conorm in (None, TConorm.BOUNDED_SUM) else r / 2.0


def radii_down_to_the_smallest_normal():
    for e in range(0, -1023, -1):
        for mantissa in (1.0, 1.25, 1.5, 1.9999999999999998):
            r = math.ldexp(mantissa, e)
            if sys.float_info.min <= r <= 1.0:
                yield r
    yield from (0.8, 0.3, 1e-16, 1e-17, math.nextafter(1.0, 0.0))


@pytest.mark.parametrize("conorm", [None, *TConorm])
def test_split_radius_is_one_law_per_regime(conorm):
    g = one_point_gauge(conorm)
    assert g.oplus is add if conorm is None else g.oplus == conorm.law
    kept, changed = 0, []
    for r in radii_down_to_the_smallest_normal():
        s = g.split_radius(r)
        assert 0.0 < s and g.oplus(s, s) < r, r
        old = old_split(conorm, r)
        if old > 0 and g.oplus(old, old) < r:
            assert s == old, r
            kept += 1
        else:
            changed.append(r)
    assert kept >= 200
    # the old rule failed only for the probabilistic sum below about 1e-16
    assert bool(changed) == (conorm is TConorm.PROBABILISTIC_SUM)
    assert max(changed, default=0.0) < 1e-15
    for r in (5e-324, 1e-323):
        if conorm is TConorm.MAX and r == 1e-323:
            assert g.split_radius(r) == 5e-324  # max(h, h) = h < r
            continue
        with pytest.raises(ValueError, match=f"radius {r!r} has no split"):
            g.split_radius(r)


def test_names_round_trip():
    for c in TConorm:
        assert conorm_from_name(c.wire_name) is c
        assert conorm_from_name(c.value) is c
    with pytest.raises(ValueError, match="unknown conorm"):
        conorm_from_name("lukasiewicz")

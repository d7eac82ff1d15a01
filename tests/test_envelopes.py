"""One-sided Lipschitz envelopes over asymmetric distances."""

import pytest

from quasimod import INF, PartialFunction, lower_envelope, upper_envelope

from conftest import points_named, random_quasi_pseudometric, rng_for


def dyadic_phi(rng, domain):
    return {a: rng.randrange(-32, 33) / 16 for a in domain}


def test_partial_function_validation():
    with pytest.raises(ValueError, match="nonempty"):
        PartialFunction((), {}, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        PartialFunction(("a",), {"a": 1.0}, -0.5)
    with pytest.raises(ValueError, match="no values"):
        PartialFunction(("a", "b"), {"a": 1.0}, 1.0)


@pytest.mark.parametrize("value, message", [
    ("1", 'value at \'a\' must be a number or "inf", got \'1\''),
    (True, 'value at \'a\' must be a number or "inf", got True'),
    (INF, "value at 'a' must be finite, got inf"),
], ids=["string", "bool", "inf"])
def test_partial_function_reads_its_values_by_the_number_rule(value,
                                                              message):
    with pytest.raises(ValueError) as refused:
        PartialFunction(("a",), {"a": value}, 1.0)
    assert str(refused.value) == message


def test_single_anchor_closed_form():
    d = {("x", "a"): 2.0, ("a", "x"): 0.5}
    f = PartialFunction(("a",), {"a": 1.0}, 3.0)
    assert upper_envelope(f, d, ("a", "x")) == {"a": 1.0, "x": 7.0}
    assert lower_envelope(f, d, ("a", "x")) == {"a": 1.0, "x": -0.5}


def test_direction_of_the_distance_is_load_bearing():
    # leaving x toward the anchor is free, arriving from it costs 5: the
    # upper extension stays at the anchor value while the lower one drops
    d = {("x", "a"): 0.0, ("a", "x"): 5.0}
    f = PartialFunction(("a",), {"a": 0.0}, 1.0)
    assert upper_envelope(f, d, ("x",))["x"] == 0.0
    assert lower_envelope(f, d, ("x",))["x"] == -5.0


def test_missing_pairs_count_as_unreachable():
    # no path from x to a: the upper envelope puts no ceiling there, but
    # 0 * inf = 0 keeps L = 0 extensions constant
    f = PartialFunction(("a",), {"a": 2.0}, 1.0)
    assert upper_envelope(f, {}, ("x",))["x"] == INF
    flat = PartialFunction(("a",), {"a": 2.0}, 0.0)
    assert upper_envelope(flat, {}, ("x",))["x"] == 2.0
    assert lower_envelope(flat, {}, ("x",))["x"] == 2.0


def test_envelopes_are_one_sided_lipschitz_exhaustively():
    for seed in range(30):
        rng = rng_for(seed)
        pts = points_named(rng.randrange(2, 9))
        d = random_quasi_pseudometric(rng, pts)
        k = rng.randrange(1, len(pts))
        domain = pts[:k]
        L = rng.randrange(0, 13) / 4
        f = PartialFunction(domain, dyadic_phi(rng, domain), L)
        upper = upper_envelope(f, d, pts)
        lower = lower_envelope(f, d, pts)
        for x in pts:
            for y in pts:
                assert upper[x] - upper[y] <= L * d[(x, y)]
                assert lower[x] - lower[y] <= L * d[(x, y)]
        # the envelopes never cross the data from the wrong side
        for a in domain:
            assert upper[a] <= f.values[a]
            assert lower[a] >= f.values[a]


def test_compatible_data_is_reproduced_and_bracketed():
    # build phi as the trace of an envelope: that makes it one-sided
    # L-Lipschitz on the domain, the exact compatibility condition
    for seed in range(30):
        rng = rng_for(100 + seed)
        pts = points_named(rng.randrange(3, 9))
        d = random_quasi_pseudometric(rng, pts)
        L = rng.randrange(1, 13) / 4
        seedf = PartialFunction(pts[:2], dyadic_phi(rng, pts[:2]), L)
        trace = upper_envelope(seedf, d, pts)
        k = rng.randrange(1, len(pts))
        domain = pts[:k]
        f = PartialFunction(domain, {a: trace[a] for a in domain}, L)
        upper = upper_envelope(f, d, pts)
        lower = lower_envelope(f, d, pts)
        for a in domain:
            assert upper[a] == f.values[a]
            assert lower[a] == f.values[a]
        for x in pts:
            assert lower[x] <= upper[x]


def test_incompatible_data_is_flattened():
    # a jump of 10 across a distance of 1 cannot survive an L = 1 extension
    d = {("a", "b"): 1.0, ("b", "a"): 1.0}
    f = PartialFunction(("a", "b"), {"a": 0.0, "b": 10.0}, 1.0)
    upper = upper_envelope(f, d, ("a", "b"))
    assert upper["b"] == 1.0  # pulled down to phi(a) + L * d(b, a)
    assert upper["a"] == 0.0
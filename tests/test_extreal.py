"""Extended-real helpers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quasimod import (INF, Profile, ScaleGrid, ensure_ext, ext_mul,
                      format_ext, is_ext, parse_ext)

nonneg = st.floats(min_value=0.0, allow_nan=False, allow_infinity=True)


def test_is_ext_accepts_the_ray():
    assert is_ext(0.0)
    assert is_ext(2)
    assert is_ext(INF)
    assert not is_ext(-1.0)
    assert not is_ext(float("nan"))
    assert not is_ext(True)  # bools are ints but not quantities
    assert not is_ext("3")
    assert not is_ext(10 ** 400)  # past the float range


def test_a_profile_refuses_an_integer_past_the_float_range():
    with pytest.raises(ValueError, match="profile value must be"):
        Profile(ScaleGrid((1.0,)), (10 ** 400,))


def test_ensure_ext_error_names_the_field():
    with pytest.raises(ValueError, match="edge cost"):
        ensure_ext(-2.0, "edge cost")


@given(nonneg, nonneg)
def test_ext_mul_never_produces_nan(a, b):
    v = ext_mul(a, b)
    assert not math.isnan(v)
    assert v >= 0.0


def test_ext_mul_zero_absorbs_infinity():
    assert ext_mul(0.0, INF) == 0.0
    assert ext_mul(INF, 0.0) == 0.0
    assert ext_mul(2.0, INF) == INF
    assert ext_mul(3.0, 4.0) == 12.0


@given(nonneg)
def test_parse_format_round_trip(v):
    assert parse_ext(format_ext(v)) == v


def test_parse_ext_rejects_junk():
    assert parse_ext("inf") == INF
    for bad in ("infinity", None, [1], True, -0.5, float("nan")):
        with pytest.raises(ValueError):
            parse_ext(bad)

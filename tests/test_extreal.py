"""Extended-real helpers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quasimod import INF, Profile, ScaleGrid, ext_mul, format_ext, parse_ext
from quasimod.extreal import number, numbers

nonneg = st.floats(min_value=0.0, allow_nan=False, allow_infinity=True)


def test_parse_ext_accepts_the_ray():
    assert parse_ext(0.0) == 0.0
    assert parse_ext(2) == 2.0 and type(parse_ext(2)) is float
    assert parse_ext(INF) == parse_ext("inf") == INF
    for bad in (-1.0, float("nan"), True, "3", 10 ** 400):
        with pytest.raises(ValueError):
            parse_ext(bad)


def test_a_profile_refuses_an_integer_past_the_float_range():
    with pytest.raises(ValueError, match="profile value is too large for a "
                                         "float: an integer of 1329 bits"):
        Profile(ScaleGrid((1.0,)), (10 ** 400,))


def test_parse_ext_error_names_the_field():
    with pytest.raises(ValueError, match="edge cost must be a nonnegative"):
        parse_ext(-2.0, "edge cost")


ROWS = {"empty": (), "plain": (0, 1.5, INF), "rounded": (2 ** 53 + 1, -0.0),
        "spelled-inf": ("inf", 1), "huge": (1, 10 ** 400), "bool": (1.0, True),
        "string": (0, "3"), "null": (0.5, None), "nan": (float("nan"),)}


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS)
def test_numbers_reads_a_row_as_number_reads_each_value(row):
    """The same floats, or the same message, as `number` value by value."""
    try:
        want = tuple(number(v, "row") for v in row)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            numbers(row, "row")
        assert str(got.value) == str(exc)
    else:
        got = numbers(iter(row), "row")
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert all(type(v) is float for v in got)


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

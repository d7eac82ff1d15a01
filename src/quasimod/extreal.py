"""Helpers for nonnegative extended-real values ([0, +inf]), and the wire.

Plain Python floats already model the extended ray: ``float("inf")`` absorbs
addition and compares correctly under ``min``/``max``.  On top of that the
package needs the product convention ``0 * inf == 0``, a JSON spelling for
infinity, and one number rule, which every constructor and document reader
reads its numbers by: `number` reads one value, `parse_ext` one value of the
ray (no negative, no NaN) and `numbers` a row.  Other range checks stay with
the models.
"""

from __future__ import annotations

import math

INF = float("inf")


def ext_mul(a: float, b: float) -> float:
    """Product with the convention 0 * inf == 0."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def number(raw: object, what: str = "value") -> float:
    """A JSON number, or "inf"; booleans, every other string and integers
    past the float range are refused."""
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            return float(raw)
        except OverflowError:
            raise ValueError(f"{what} is too large for a float: an integer "
                             f"of {raw.bit_length()} bits") from None
    if raw == "inf":
        return INF
    raise ValueError(f"{what} must be a number or \"inf\", got {raw!r}")


def parse_ext(raw: object, what: str = "value") -> float:
    """A number of the extended ray [0, +inf]."""
    v = number(raw, what)
    if not v >= 0.0:  # a negative or NaN
        raise ValueError(f"{what} must be a nonnegative real or +inf, got {v!r}")
    return v


def numbers(row, what: str = "value") -> tuple[float, ...]:
    """`number` of each value of row: two C-level passes over plain ints and
    floats, and a `number` call per value only on any other row."""
    row = tuple(row)
    if set(map(type, row)) <= {int, float}:  # not bool, which float() reads
        try:
            return tuple(map(float, row))
        except OverflowError:  # an integer past the float range
            pass
    return tuple(number(v, what) for v in row)


def format_ext(value: float) -> object:
    """Inverse of parse_ext: +inf becomes the string "inf", and -inf, which
    a lower envelope reaches at a point no datum reaches, "-inf"."""
    return "inf" if value == INF else "-inf" if value == -INF else value


def decode_ids(ids, what: str) -> dict:
    """{str(id): id} under the one rule for every document id: raises
    ValueError unless the strings are unique and none holds "|", so that
    every "x|y" key names one ordered pair, on ids one dict key would merge
    (1, 1.0 and True), and on a float id that is not finite, which no report
    may write.  An unhashable id raises TypeError."""
    for i in ids:
        if isinstance(i, float) and not math.isfinite(i):
            raise ValueError(f"{what} id {i!r} is not a finite number")
    by_str = {str(i): i for i in ids}
    if len(by_str) != len(ids) or any("|" in s for s in by_str):
        raise ValueError(f"{what} ids must stringify uniquely and avoid '|'")
    if len(set(ids)) != len(ids):
        raise ValueError(f"{what} ids must be distinct as values: 1, 1.0 "
                         f"and true are one id")
    return by_str


def point_resolver(points):
    """Map an id to the point with its string form: "1" names 1 and True
    does not.  The points must pass `decode_ids`; unknown ids raise
    ValueError."""
    by_str = decode_ids(points, "point")

    def resolve(i):
        if str(i) not in by_str:
            raise ValueError(f"unknown point id {i!r}")
        return by_str[str(i)]

    return resolve


def keyed_numbers(raw, ids, what: str, noun: str = "point") -> dict:
    """{id: number} from a JSON object keyed by the ids' strings; the ids
    must pass `decode_ids`."""
    by_str = decode_ids(ids, noun)
    out = {}
    for key, v in raw.items():
        if key not in by_str:
            raise ValueError(f"{what} for unknown {noun} {key!r}")
        out[by_str[key]] = number(v, f"{what} at {key!r}")
    return out


def pair_map(raw, points, what: str, read) -> dict:
    """{(x, y): read(v, what[key])} for each "x|y" key naming two points."""
    by_str = decode_ids(points, "point")
    out = {}
    for key, v in raw.items():
        sx, sep, sy = key.partition("|")
        if not (sep and sx in by_str and sy in by_str):
            raise ValueError(f"bad {what} key {key!r}")
        out[by_str[sx], by_str[sy]] = read(v, f"{what}[{key}]")
    return out

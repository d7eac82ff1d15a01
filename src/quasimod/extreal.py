"""Helpers for nonnegative extended-real values ([0, +inf]).

Plain Python floats already model the extended ray: ``float("inf")`` absorbs
addition and compares correctly under ``min``/``max``.  What the rest of the
package needs on top of that is validation (no negatives, no NaN), the
measure-theoretic product convention ``0 * inf == 0``, and a JSON spelling
for infinity.
"""

from __future__ import annotations

import math

INF = float("inf")


def is_ext(value: object) -> bool:
    """True if value is a nonnegative, non-NaN int or float (inf allowed)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    v = float(value)
    return not math.isnan(v) and v >= 0.0


def ensure_ext(value: float, what: str = "value") -> float:
    if not is_ext(value):
        raise ValueError(f"{what} must be a nonnegative real or +inf, got {value!r}")
    return float(value)


def ext_mul(a: float, b: float) -> float:
    """Product with the convention 0 * inf == 0."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def parse_ext(raw: object, what: str = "value") -> float:
    """Parse a JSON scalar, accepting the string "inf" for infinity."""
    if raw == "inf":
        return INF
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return ensure_ext(float(raw), what)
    raise ValueError(f"{what} must be a number or \"inf\", got {raw!r}")


def format_ext(value: float) -> object:
    """Inverse of parse_ext: +inf becomes the string "inf", and -inf, which
    a lower envelope reaches at a point no datum reaches, "-inf"."""
    return "inf" if value == INF else "-inf" if value == -INF else value

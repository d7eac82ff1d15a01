"""Triangular conorms on [0, 1].

A t-conorm combines two "degrees of farness" into one.  The three supported
here are the classical trio: maximum, probabilistic sum a + b - a*b, and the
bounded (Lukasiewicz) sum min(1, a + b).  All are associative, commutative,
monotone, and have 0 as unit; the probabilistic sum keeps monotonicity in
floats by rounding once.
"""

from __future__ import annotations

import enum
from math import fsum

# Veltkamp's splitter for doubles, 2**27 + 1
_SPLIT = 134217729.0
# below this a product's error term can lose bits to underflow
_SPLIT_MIN = 2.0 ** -969


class TConorm(enum.Enum):
    MAX = "max"
    PROBABILISTIC_SUM = "probabilistic_sum"
    BOUNDED_SUM = "bounded_sum"

    def apply(self, a: float, b: float) -> float:
        """`law` after a range check of both arguments."""
        if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
            raise ValueError(f"conorm arguments must lie in [0, 1], got {a!r}, {b!r}")
        return self.law(a, b)

    @property
    def law(self):
        """`apply` without the range check, for values already in range."""
        return _LAWS[self]

    @property
    def wire_name(self) -> str:
        """Short spelling used in JSON documents and on the command line."""
        return _WIRE_NAMES[self]

    def half_radius(self, r: float) -> float:
        """A value h with h (+) h < r, used to split a ball radius in two:
        r/2 where that splits strictly, else r/4.  That is r/2 for max and
        r/4 for the bounded sum, whose r/2 (+) r/2 is r itself; the
        probabilistic sum takes r/2 until h + h - h*h rounds back to r,
        below about 1e-16."""
        if not 0.0 < r <= 1.0:
            raise ValueError(f"radius must lie in (0, 1], got {r!r}")
        h = r / 2.0
        return h if self.law(h, h) < r else r / 4.0


def _prob_sum(a: float, b: float) -> float:
    """a + b - a*b rounded once, so monotone and within [max(a, b), 1] like
    the exact value; rounded step by step it is not (1.0 for 1 - 2**-53
    with 0.5, less with 0.9).  Dekker's split makes a*b = p + err exactly
    and fsum rounds the four terms once; a product too small to split
    goes through exact rationals."""
    p = a * b
    if a and b and p < _SPLIT_MIN:
        from fractions import Fraction  # rare, and heavy to import
        return float(Fraction(a) + Fraction(b) - Fraction(a) * Fraction(b))
    c = _SPLIT * a
    a_hi = c - (c - a)
    c = _SPLIT * b
    b_hi = c - (c - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return fsum((a, b, -p, -err))


_LAWS = {TConorm.MAX: max, TConorm.PROBABILISTIC_SUM: _prob_sum,
         TConorm.BOUNDED_SUM: lambda a, b: min(1.0, a + b)}

_WIRE_NAMES = {
    TConorm.MAX: "max",
    TConorm.PROBABILISTIC_SUM: "prob_sum",
    TConorm.BOUNDED_SUM: "bounded_sum",
}

_BY_NAME = {c.value: c for c in TConorm} | {v: k for k, v in _WIRE_NAMES.items()}


def conorm_from_name(name: str) -> TConorm:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown conorm {name!r}; expected one of "
                         f"{sorted(_BY_NAME)}") from None

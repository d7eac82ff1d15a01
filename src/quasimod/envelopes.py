"""One-sided Lipschitz extension of partial functions over quasi-metrics.

The two envelope formulas only differ in which argument slot of the
asymmetric distance they use, and that order is load-bearing: it is what
makes the extensions one-sided Lipschitz in the same direction as the input
data.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from .extreal import ext_mul, number, pair_map, parse_ext, point_resolver
from .gauges import _table_rows
from .records import Frozen


class PartialFunction(Frozen):
    __slots__ = _fields = ("domain", "values", "lipschitz_L")

    def __init__(self, domain: tuple, values: Mapping, lipschitz_L: float):
        domain = tuple(domain)
        missing = [a for a in domain if a not in values]
        if missing:
            raise ValueError(f"no values for domain points {missing!r}")
        values = {a: number(values[a], f"value at {a!r}") for a in domain}
        for a, v in values.items():
            if not math.isfinite(v):
                raise ValueError(f"value at {a!r} must be finite, got {v!r}")
        lipschitz_L = number(lipschitz_L, "lipschitz")
        if not domain:
            raise ValueError("domain must be nonempty")
        if not lipschitz_L >= 0:
            raise ValueError(f"Lipschitz constant must be nonnegative, "
                             f"got {lipschitz_L!r}")
        self._set(domain, values, lipschitz_L)


def upper_envelope(f: PartialFunction, d: Mapping, points) -> dict:
    """phi_bar(x) = min over a in A of phi(a) + L * d(x, a).  A pair left
    out of d is at distance 0 on the diagonal and +inf elsewhere."""
    points = tuple(points)
    rows = _table_rows(d, points, f.domain, "distance")
    return {x: min(f.values[a] + ext_mul(f.lipschitz_L, v)
                   for a, v in zip(f.domain, row))
            for x, row in zip(points, rows)}


def lower_envelope(f: PartialFunction, d: Mapping, points) -> dict:
    """phi_under(x) = max over a in A of phi(a) - L * d(a, x).  A pair left
    out of d is at distance 0 on the diagonal and +inf elsewhere."""
    points = tuple(points)
    columns = zip(*_table_rows(d, f.domain, points, "distance"))
    return {x: max(f.values[a] - ext_mul(f.lipschitz_L, v)
                   for a, v in zip(f.domain, column))
            for x, column in zip(points, columns)}


def envelope_from_json(doc: Mapping) -> tuple[list, dict, PartialFunction]:
    """(points, distance, data) of an envelope document: "x|y" distance
    keys over the points, and finite values on the domain."""
    points = list(doc["points"])
    d = pair_map(doc["distance"], points, "distance", parse_ext)
    domain = list(map(point_resolver(points), doc["domain"]))
    values = {a: doc["values"][str(a)] for a in domain}
    return points, d, PartialFunction(tuple(domain), values, doc["lipschitz"])

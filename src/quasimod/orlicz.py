"""Discrete weighted Musielak-Orlicz modulars, norms, and one-sided variants.

Measure spaces are finite weighted point sets, so modulars are finite sums
and every norm is the Luxemburg infimum of one, found by the safeguarded
secant search of `luxemburg_infimum` on the nonincreasing map
lambda -> modular(f / lambda).
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from .extreal import format_ext, keyed_numbers, number
from .gauges import GaugeSpec, Regime
from .luxemburg import DEFAULT_LAMBDA_MAX, DEFAULT_TOL, luxemburg_infimum
from .profiles import ScaleGrid
from .records import Frozen, NamedTuple


class DiscreteMeasureSpace(Frozen):
    __slots__ = _fields = ("points", "mu")

    def __init__(self, points: tuple, mu: Mapping):
        points = tuple(points)
        if not points:
            raise ValueError("measure space needs at least one point")
        if len(set(points)) != len(points):
            raise ValueError("points must be distinct")
        if not mu:
            raise ValueError("measure space needs masses")
        masses = dict(mu)
        mu = {p: number(masses[p], f"mass at {p!r}") for p in points}
        for p, m in mu.items():
            if not (m > 0 and math.isfinite(m)):
                raise ValueError(f"mass at {p!r} must be positive and finite, "
                                 f"got {m!r}")
        self._set(points, mu)

    def to_json(self) -> dict:
        return {"points": list(self.points),
                "mu": {str(p): self.mu[p] for p in self.points}}

    @classmethod
    def from_json(cls, doc: Mapping) -> "DiscreteMeasureSpace":
        points = tuple(doc["points"])
        return cls(points, keyed_numbers(doc["mu"], points, "mu"))


class MusielakOrlicz(Frozen):
    """Point-indexed growth functions phi_p(t), convex and nondecreasing
    with phi_p(0) = 0, in one of three fixed shapes: "variable_exponent"
    reads `exponents` (point -> p_i), "double_phase" reads p < q and `a`
    (point -> a_i >= 0), and "weighted" reads `weights` (point -> w_i > 0)
    over a `base` family."""

    __slots__ = _fields = ("kind", "exponents", "p", "q", "a", "weights",
                           "base")

    def __init__(self, kind: str, exponents: Mapping | None = None,
                 p: float | None = None, q: float | None = None,
                 a: Mapping | None = None, weights: Mapping | None = None,
                 base: "MusielakOrlicz | None" = None):
        if kind == "variable_exponent":
            exponents = {pt: number(e, f"exponent at {pt!r}")
                         for pt, e in (exponents or {}).items()}
            if not exponents:
                raise ValueError("variable exponent needs per-point exponents")
            for pt, e in exponents.items():
                if not 1.0 <= e < math.inf:
                    raise ValueError(f"exponent at {pt!r} must lie in "
                                     f"[1, inf), got {e!r}")
        elif kind == "double_phase":
            p, q = number(p, "p"), number(q, "q")
            if not 1.0 <= p < q < math.inf:
                raise ValueError(f"double phase needs 1 <= p < q < inf, got "
                                 f"p={p!r}, q={q!r}")
            a = {pt: number(c, f"a at {pt!r}") for pt, c in (a or {}).items()}
            for pt, c in a.items():
                if not 0.0 <= c < math.inf:
                    raise ValueError(f"double-phase coefficient a at {pt!r} "
                                     f"must be >= 0 and finite, got {c!r}")
        elif kind == "weighted":
            if base is None:
                raise ValueError("weighted family needs a base family")
            weights = {pt: number(w, f"w at {pt!r}")
                       for pt, w in (weights or {}).items()}
            for pt, w in weights.items():
                if not 0.0 < w < math.inf:
                    raise ValueError(f"weights must be positive and finite: "
                                     f"w at {pt!r} is {w!r}")
        else:
            raise ValueError(f"unknown Musielak-Orlicz kind {kind!r}")
        self._set(kind, exponents, p, q, a, weights, base)

    @classmethod
    def variable_exponent(cls, exponents: Mapping) -> "MusielakOrlicz":
        return cls("variable_exponent", exponents=exponents)

    @classmethod
    def double_phase(cls, p: float, q: float, a: Mapping) -> "MusielakOrlicz":
        return cls("double_phase", p=p, q=q, a=a)

    @classmethod
    def weighted(cls, base: "MusielakOrlicz", weights: Mapping) -> "MusielakOrlicz":
        return cls("weighted", weights=weights, base=base)

    def value(self, point, t: float) -> float:
        if not t >= 0:
            raise ValueError(f"argument must be nonnegative, got {t!r}")
        if self.kind == "variable_exponent":
            if point not in self.exponents:
                raise ValueError(f"no exponent for point {point!r}")
            return t ** self.exponents[point]
        if self.kind == "double_phase":
            if point not in self.a:
                raise ValueError(f"no coefficient for point {point!r}")
            return t ** self.p + self.a[point] * t ** self.q
        if point not in self.weights:
            raise ValueError(f"no weight for point {point!r}")
        return self.weights[point] * self.base.value(point, t)

    def to_json(self) -> dict:
        if self.kind == "variable_exponent":
            return {"kind": self.kind,
                    "p": {str(pt): p for pt, p in self.exponents.items()}}
        if self.kind == "double_phase":
            return {"kind": self.kind, "p": self.p, "q": self.q,
                    "a": {str(pt): c for pt, c in self.a.items()}}
        return {"kind": self.kind,
                "w": {str(pt): w for pt, w in self.weights.items()},
                "base": self.base.to_json()}


def orlicz_from_json(doc: Mapping, space: DiscreteMeasureSpace) -> MusielakOrlicz:
    kind = doc.get("kind")
    if kind == "variable_exponent":
        return MusielakOrlicz.variable_exponent(
            keyed_numbers(doc["p"], space.points, "p"))
    if kind == "double_phase":
        return MusielakOrlicz.double_phase(
            number(doc["p"], "p"), number(doc["q"], "q"),
            keyed_numbers(doc["a"], space.points, "a"))
    if kind == "weighted":
        return MusielakOrlicz.weighted(
            orlicz_from_json(doc["base"], space),
            keyed_numbers(doc["w"], space.points, "w"))
    raise ValueError(f"unknown Musielak-Orlicz kind {kind!r}")


def parse_function(doc: Mapping, space: DiscreteMeasureSpace) -> dict:
    """Real function from JSON {point id: value}; every point must appear."""
    f = keyed_numbers(doc, space.points, "function value")
    for p, v in f.items():
        if not math.isfinite(v):
            raise ValueError(f"function value at {str(p)!r} must be finite")
    _require_total(space, f)
    return f


def _require_total(space: DiscreteMeasureSpace, f: Mapping) -> None:
    missing = [p for p in space.points if p not in f]
    if missing:
        raise ValueError(f"function misses points {missing!r}")


def _positive(v: float) -> float:
    return max(v, 0.0)


def _negative(v: float) -> float:
    return max(-v, 0.0)


def _modular(space: DiscreteMeasureSpace, phi: MusielakOrlicz, f: Mapping,
             lam: float = 1.0, part=abs) -> float:
    """Sum over points of phi_p(part(f(p) / lam)) * mu(p); f is total."""
    return sum(phi.value(p, part(f[p] / lam)) * space.mu[p]
               for p in space.points)


def _norm(space: DiscreteMeasureSpace, phi: MusielakOrlicz, f: Mapping,
          tol: float, lambda_max: float = DEFAULT_LAMBDA_MAX,
          part=abs) -> float:
    """inf{lambda > 0 : _modular(f, lambda, part) <= 1}; f is total."""
    return luxemburg_infimum(lambda lam: _modular(space, phi, f, lam, part),
                             1.0, tol, lambda_max).value


def modular(space: DiscreteMeasureSpace, phi: MusielakOrlicz,
            f: Mapping) -> float:
    """Sum over points of phi_p(|f(p)|) * mu(p)."""
    _require_total(space, f)
    return _modular(space, phi, f)


def luxemburg_norm(space: DiscreteMeasureSpace, phi: MusielakOrlicz,
                   f: Mapping, tol: float = DEFAULT_TOL,
                   lambda_max: float = DEFAULT_LAMBDA_MAX) -> float:
    """inf{lambda > 0 : modular(f / lambda) <= 1}."""
    _require_total(space, f)
    return _norm(space, phi, f, tol, lambda_max)


class UnitBallReport(NamedTuple):
    norm: float
    modular_value: float
    equivalence_ok: bool
    lower_ok: bool
    upper_ok: bool

    @property
    def ok(self) -> bool:
        return self.equivalence_ok and self.lower_ok and self.upper_ok

    def to_json(self) -> dict:
        return {"norm": format_ext(self.norm),
                "modular": format_ext(self.modular_value),
                "equivalence_ok": self.equivalence_ok,
                "lower_ok": self.lower_ok, "upper_ok": self.upper_ok,
                "ok": self.ok}


def unit_ball_check(space: DiscreteMeasureSpace, phi: MusielakOrlicz,
                    f: Mapping, tol: float = 1e-9) -> UnitBallReport:
    """Three clauses linking the norm and the modular at threshold 1, each
    within a tol band: norm <= 1 iff modular <= 1; norm >= 1 implies
    modular >= norm; norm <= 1 implies modular <= norm."""
    norm = luxemburg_norm(space, phi, f, tol)
    rho = modular(space, phi, f)
    near_one = abs(norm - 1.0) <= tol or abs(rho - 1.0) <= tol
    equivalence_ok = (norm <= 1.0) == (rho <= 1.0) or near_one
    lower_ok = norm < 1.0 or rho >= norm - tol
    upper_ok = norm > 1.0 or rho <= norm + tol
    return UnitBallReport(norm, rho, equivalence_ok, lower_ok, upper_ok)


class OneSidedPair(NamedTuple):
    psi1: MusielakOrlicz
    psi2: MusielakOrlicz


def one_sided_modulars(space: DiscreteMeasureSpace, pair: OneSidedPair,
                       f: Mapping) -> tuple[float, float]:
    """rho_plus feeds positive parts to psi1; rho_minus feeds negative parts
    to psi2."""
    _require_total(space, f)
    return (_modular(space, pair.psi1, f, part=_positive),
            _modular(space, pair.psi2, f, part=_negative))


def one_sided_gauges(space: DiscreteMeasureSpace, pair: OneSidedPair,
                     f: Mapping, tol: float = DEFAULT_TOL
                     ) -> tuple[float, float, float]:
    """(norm_plus, norm_minus, norm_sym) with norm_sym the max of the two."""
    _require_total(space, f)
    norm_plus = _norm(space, pair.psi1, f, tol, part=_positive)
    norm_minus = _norm(space, pair.psi2, f, tol, part=_negative)
    return norm_plus, norm_minus, max(norm_plus, norm_minus)


def quasi_metric_from_gauges(space: DiscreteMeasureSpace, pair: OneSidedPair,
                             f: Mapping, g: Mapping, tol: float = DEFAULT_TOL
                             ) -> tuple[float, float]:
    """d_plus(f, g) = norm_plus of f - g, and d_minus likewise."""
    _require_total(space, f)
    _require_total(space, g)
    diff = {p: f[p] - g[p] for p in space.points}
    norm_plus, norm_minus, _ = one_sided_gauges(space, pair, diff, tol)
    return norm_plus, norm_minus


def one_sided_modular_gauge(space: DiscreteMeasureSpace, psi1: MusielakOrlicz,
                            functions: Mapping, grid: ScaleGrid | None = None,
                            name: str = "one_sided_modular") -> GaugeSpec:
    """Additive gauge w(F, G, t) = rho_plus((F - G) / t) over named functions.

    For convex nondecreasing psi1 this satisfies the split-scale triangle
    inequality: positive parts are subadditive and psi1 turns the two-scale
    convex combination into a sum bound.
    """
    functions = {fid: dict(f) for fid, f in functions.items()}
    for fid, f in functions.items():
        _require_total(space, f)
    ids = tuple(functions)

    def fn(a, b, t):
        diff = {p: functions[a][p] - functions[b][p] for p in space.points}
        return _modular(space, psi1, diff, t, _positive)

    return GaugeSpec(regime=Regime.ADDITIVE, points=ids, grid=grid,
                     name=name, fn=fn)

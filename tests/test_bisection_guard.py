"""Differential and work-count tests for the monotonicity guard of
`luxemburg_infimum`.

The guard decides each probe from two running bounds.  The oracle is the
previous kernel verbatim, whose guard rescanned every earlier probe: on
seeded scale maps both must return the same value, bracket and iteration
count, or raise the same error with the same message.
"""

import math
import random

import pytest

from quasimod import INF, NonmonotoneGaugeError, luxemburg_infimum
from quasimod import luxemburg


def _slack(v):
    return max(1e-12, 1e-9 * abs(v)) if v != INF else 0.0


def oracle_infimum(value_at, c=1.0, tol=1e-9, lambda_max=1e12):
    if not c > 0:
        raise ValueError(f"threshold must be positive, got {c!r}")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    if not lambda_max > tol:
        raise ValueError("lambda_max must exceed the tolerance")

    probes = []

    def ev(lam):
        v = float(value_at(lam))
        for lam0, v0 in probes:
            if lam0 < lam and v > v0 + _slack(v0):
                raise NonmonotoneGaugeError(
                    f"value increases with the scale: {v0} at {lam0} "
                    f"but {v} at {lam}")
            if lam0 > lam and v0 > v + _slack(v):
                raise NonmonotoneGaugeError(
                    f"value increases with the scale: {v} at {lam} "
                    f"but {v0} at {lam0}")
        probes.append((lam, v))
        return v

    if ev(tol) <= c:
        if ev(lambda_max) > c:
            raise NonmonotoneGaugeError(
                "predicate holds at the bottom of the scale range but fails "
                "at the top: the predicate set is not an upper set")
        return 0.0, (0.0, tol), len(probes)
    if ev(lambda_max) > c:
        return INF, (lambda_max, INF), len(probes)
    lo, hi = tol, 2.0 * tol
    while hi < lambda_max:
        if ev(hi) <= c:
            break
        lo, hi = hi, 2.0 * hi
    else:
        hi = lambda_max
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:
            break
        if ev(mid) <= c:
            hi = mid
        else:
            lo = mid
    return hi, (lo, hi), len(probes)


def steps(rng):
    """A nonincreasing step function read with the ceil convention, as a
    tabulated gauge is: plateaus, sometimes +inf at the small scales."""
    scales = sorted(rng.sample([2.0 ** k for k in range(-8, 9)], 5))
    values, v = [], rng.choice((INF, 16.0, 4.0, 1.5))
    for _ in scales:
        values.append(v)
        v = v / rng.choice((1, 2, 4)) if v != INF else rng.choice((8.0, 1.0))

    def at(lam):
        for s, val in zip(scales, values):
            if lam <= s:
                return val
        return values[-1]
    return at


def scale_map(seed):
    """A fresh seeded map lam -> value.  Some call-count-dependent maps
    change one probe's value; both kernels probe in the same order up to
    their first disagreement, so they see the same values."""
    rng = random.Random(seed)
    kind = rng.choice(("power", "steps", "inf_below", "nan", "bump",
                       "noise", "increasing", "flat", "creep"))
    a = rng.choice((0.5, 1.0, 3.0, 1e6))
    p = rng.choice((0.5, 1.0, 2.0))
    if kind == "power":
        base = lambda lam: a / lam ** p  # noqa: E731
    elif kind == "steps":
        base = steps(rng)
    elif kind == "inf_below":
        s = rng.choice((1e-6, 0.5, 3.0, 1e13))
        base = lambda lam: INF if lam < s else a / lam  # noqa: E731
    elif kind == "nan":
        s = rng.choice((1e-6, 0.5, 3.0))
        inner = steps(rng)
        base = lambda lam: math.nan if lam < s else inner(lam)  # noqa: E731
    elif kind == "increasing":
        base = lambda lam: lam * a  # noqa: E731
    elif kind == "flat":
        base = lambda lam: a  # noqa: E731
    elif kind == "creep":
        # rises within the slack: no guard error, but the predicate can
        # hold at the bottom and fail at the top
        s = rng.choice((1e-6, 1.0, 1e6))
        base = lambda lam: a if lam < s else a * (1 + 5e-10)  # noqa: E731
    else:
        base = steps(rng) if rng.random() < 0.5 else \
            (lambda lam: a / lam ** p)
    if kind not in ("bump", "noise"):
        return base
    calls = [0]
    at_call = rng.randrange(0, 70)
    factor = rng.choice((1 + 1e-12, 1 + 5e-10, 1 + 2e-9, 1.5, 100.0))
    shift = rng.choice((0.0, 5e-13, 2e-12, 1.0))

    def changed(lam):
        calls[0] += 1
        v = base(lam)
        if kind == "bump" and calls[0] == at_call or \
                kind == "noise" and rng.random() < 0.3:
            return v * factor + shift
        return v
    return changed


def outcome(kernel, seed, c, tol, lambda_max):
    try:
        res = kernel(scale_map(seed), c, tol, lambda_max)
    except NonmonotoneGaugeError as exc:
        return "raised", str(exc)
    if isinstance(res, tuple):
        return "ok", repr(res)
    return "ok", repr((res.value, res.bracket, res.iterations))


def test_guard_matches_the_rescanning_guard_on_seeded_maps():
    seen = set()
    for seed in range(1500):
        rng = random.Random(-seed - 1)
        c = rng.choice((0.5, 1.0, 2.0))
        tol = rng.choice((1e-9, 1e-9, 1e-3, 0.25))
        lambda_max = rng.choice((1e12, 1e12, 100.0, 3 * tol))
        got = outcome(luxemburg_infimum, seed, c, tol, lambda_max)
        want = outcome(oracle_infimum, seed, c, tol, lambda_max)
        assert got == want, (seed, c, tol, lambda_max)
        seen.add(want[0])
        if want[0] == "raised":
            seen.add(want[1].split(":")[0])
    assert seen == {"ok", "raised", "value increases with the scale",
                    "predicate holds at the bottom of the scale range but "
                    "fails at the top"}


def creeping(lam):
    """Nonincreasing but for rises within the slack on both sides of the
    crossing at 3: a guard that ignored the slack would rescan often."""
    return (2.0 if lam < 3.0 else 0.5) + 1e-10 * min(lam, 4.0)


@pytest.mark.parametrize("value_at, c", [
    (lambda lam: 3.0 / lam, 1.0),
    (lambda lam: 3.0 / lam, 1e-3),
    (creeping, 1.0),
], ids=["reciprocal", "reciprocal-small-c", "creeping"])
def test_guard_work_is_linear_in_the_probes(monkeypatch, value_at, c):
    calls = [0]

    def counted(v):
        calls[0] += 1
        return _slack(v)

    want = oracle_infimum(value_at, c, tol=1e-12)
    monkeypatch.setattr(luxemburg, "_slack", counted)
    res = luxemburg_infimum(value_at, c, tol=1e-12)
    assert (res.value, res.bracket, res.iterations) == want
    assert res.iterations >= 60
    assert calls[0] <= 2 * res.iterations + 2

"""Differential tests for `luxemburg_infimum`.

The guard checks each probe against every earlier probe, with a slack for
a closed form's float noise.  On seeded scale maps, the call-count-dependent
bump and noise maps included, the kernel's own probes are replayed in order
through the rescanning guard written out here: where the kernel returns, no
probe contradicts an earlier one; where it raises that the value increases,
its last probe is the first that contradicts one, and the message names the
earliest it contradicts, as the rescanning guard words it.  A returned
value is certified by the kernel's own probes: value(hi) <= c < value(lo)
with hi - lo <= tol, or no float strictly between them.

The oracle is the bisection kernel that the safeguarded secant replaced,
verbatim: doubling from tol, then bisection, with the rescanning guard.
The two probe different scales, so on the maps whose value depends on the
scale alone they are compared on what the definition fixes: the same
outcome, 0.0 and inf at the same maps, other values within tol of each
other, the same message when raising, and at most 3x the oracle's probes.
"""

import math
import random

import pytest

from quasimod import INF, NonmonotoneGaugeError, luxemburg_infimum


def _slack(v):
    return max(1e-12, 1e-9 * abs(v)) if v != INF else 0.0


def rescan(probes, lam, v):
    """The rescanning guard: raise for the earliest of `probes` that the
    probe (lam, v) contradicts by more than the slack."""
    for lam0, v0 in probes:
        if lam0 < lam and v > v0 + _slack(v0):
            raise NonmonotoneGaugeError(
                f"value increases with the scale: {v0} at {lam0} "
                f"but {v} at {lam}")
        if lam0 > lam and v0 > v + _slack(v):
            raise NonmonotoneGaugeError(
                f"value increases with the scale: {v} at {lam} "
                f"but {v0} at {lam0}")


def first_contradiction(probes):
    """(index, message) of the first probe that the rescanning guard
    refuses when `probes` are replayed in order, or None."""
    for n, (lam, v) in enumerate(probes):
        try:
            rescan(probes[:n], lam, v)
        except NonmonotoneGaugeError as exc:
            return n, str(exc)
    return None


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
        rescan(probes, lam, v)
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


KINDS = ("power", "steps", "inf_below", "nan", "bump", "noise", "increasing",
         "flat", "creep")


def scale_map(seed):
    """A fresh seeded map lam -> value.  The bump and noise maps change
    the values of some calls by their count, so two kernels that probe
    different scales see different values there."""
    rng = random.Random(seed)
    kind = rng.choice(KINDS)
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


DETERMINISTIC = ("power", "steps", "inf_below", "nan", "increasing", "flat",
                 "creep")
UPPER_SET = ("predicate holds at the bottom of the scale range but fails at "
             "the top: the predicate set is not an upper set")


def kind_of(seed):
    return random.Random(seed).choice(KINDS)


def search(seed):
    """(c, tol, lambda_max) for the seeded map `seed`."""
    rng = random.Random(-seed - 1)
    c = rng.choice((0.5, 1.0, 2.0))
    tol = rng.choice((1e-9, 1e-9, 1e-3, 0.25))
    return c, tol, rng.choice((1e12, 1e12, 100.0, 3 * tol))


def run(kernel, seed, c, tol, lambda_max):
    """(outcome, value or message, the probes made as (lam, value))."""
    probes, at = [], scale_map(seed)

    def value_at(lam):
        v = at(lam)
        probes.append((lam, float(v)))
        return v
    try:
        res = kernel(value_at, c, tol, lambda_max)
    except NonmonotoneGaugeError as exc:
        return "raised", str(exc), probes
    return "ok", res[0] if isinstance(res, tuple) else res.value, probes


def certified(value, probes, c, tol):
    """The kernel's own probes show `value` is the infimum within tol."""
    seen = dict(probes)
    if value in (0.0, INF):
        return value == 0.0 and seen[tol] <= c or \
            value == INF and not any(v <= c for v in seen.values())
    lo = max((lam for lam, v in probes if not v <= c and lam < value),
             default=None)
    return seen[value] <= c and lo is not None and (
        value - lo <= tol or math.nextafter(lo, INF) == value)


def test_guard_matches_the_rescanning_guard_on_seeded_maps():
    sides = set()
    for seed in range(1500):
        c, tol, lambda_max = search(seed)
        got, value, probes = run(luxemburg_infimum, seed, c, tol, lambda_max)
        case = (seed, kind_of(seed), c, tol, lambda_max)
        hit = first_contradiction(probes)
        if got == "ok" or value == UPPER_SET:
            assert hit is None, case
            if got == "ok":
                assert certified(value, probes, c, tol), case
            continue
        assert hit == (len(probes) - 1, value), case
        if len(probes) > 2:
            # a rise above a probe to the left (the left bound), or a probe
            # below one to the right (the right bound), inside the search
            lam = probes[-1][0]
            sides.add("left" if value.endswith(f" at {lam}") else "right")
    assert sides == {"left", "right"}


def test_kernel_agrees_with_the_bisection_oracle_on_seeded_maps():
    kinds, ratios = set(), []
    for seed in range(1500):
        if kind_of(seed) not in DETERMINISTIC:
            continue
        c, tol, lambda_max = search(seed)
        got, value, probes = run(luxemburg_infimum, seed, c, tol, lambda_max)
        want, want_value, oracle_probes = run(oracle_infimum, seed, c, tol,
                                              lambda_max)
        case = (seed, kind_of(seed), c, tol, lambda_max)
        assert got == want, case
        if math.isnan(scale_map(seed)(lambda_max)):
            # the oracle searched below a nan at lambda_max as if the
            # predicate held there; nowhere holding, it has no infimum
            assert value == INF and want_value == lambda_max, case
        elif got == "raised" or value in (0.0, INF) or \
                want_value in (0.0, INF):
            assert value == want_value, case
        else:
            assert abs(value - want_value) <= tol, case
        ratios.append(len(probes) / len(oracle_probes))
        assert len(probes) <= 3 * len(oracle_probes), case
        kinds.add((kind_of(seed), got))
    # every deterministic kind is met, and both outcomes
    assert {k for k, _ in kinds} == set(DETERMINISTIC)
    assert {o for _, o in kinds} == {"ok", "raised"}
    assert sum(ratios) / len(ratios) < 1.2


def test_nan_inf_and_overflow_at_small_scales_take_the_bisection_step():
    """No logarithm of the value below 1 exists, so the first search probe
    is the geometric midpoint of [tol, lambda_max], and the answer is the
    oracle's within tol."""
    for low in (math.nan, INF, 1e200 * 1e200):
        def value_at(lam, low=low):
            return low if lam < 1.0 else 2.0 / lam ** 2
        seen = []
        res = luxemburg_infimum(lambda lam: seen.append(lam) or value_at(lam))
        assert seen[2] == math.sqrt(1e-9) * math.sqrt(1e12)
        want = oracle_infimum(value_at)[0]
        assert abs(res.value - want) <= 1e-9
        assert abs(res.value - math.sqrt(2.0)) <= 1e-9


def test_values_that_overflow_at_the_bottom_probe_propagate():
    def value_at(lam):
        return (2.0 / lam) ** 1e3
    with pytest.raises(OverflowError):
        luxemburg_infimum(value_at)
    with pytest.raises(OverflowError):
        oracle_infimum(value_at)


def creeping(lam):
    """Nonincreasing but for rises within the slack on both sides of the
    crossing at 3: a guard that ignored the slack would raise."""
    return (2.0 if lam < 3.0 else 0.5) + 1e-10 * min(lam, 4.0)


@pytest.mark.parametrize("value_at, c", [
    (lambda lam: 3.0 / lam, 1.0),
    (lambda lam: 3.0 / lam, 1e-3),
    (creeping, 1.0),
], ids=["reciprocal", "reciprocal-small-c", "creeping"])
def test_rises_within_the_slack_are_searched(value_at, c):
    want = oracle_infimum(value_at, c, tol=1e-12)[0]
    res = luxemburg_infimum(value_at, c, tol=1e-12)
    assert abs(res.value - want) <= 1e-12

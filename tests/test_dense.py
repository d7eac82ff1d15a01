"""Differential tests for the dense evaluation layer.

The sweeps read whole rows from `GaugeSpec.matrix(t)` and take their balls
from entourage rows.  The oracle below decides everything one ordered pair
at a time, with a ball predicate per pair.  Its value lookup reads the
table row itself rather than `matrix`, so a wrong column in the dense layer
cannot hide on both sides of a comparison.
"""

import pytest

from quasimod import (CellInclusionError, GaugeSpec, Regime, SampledSequence,
                      ScaleGrid, TConorm, classify_cauchy, converges_to,
                      critical_thresholds, entourage, greedy_net, make_ratio,
                      two_sided_cover_from_onesided)
from quasimod.completeness import CoverResult

from conftest import (ADDITIVE_BUILDERS, CONORM_GRID, corrupt_one_entry,
                      random_conorm_gauge, random_quasi_pseudometric,
                      points_named, rng_for)

CONORMS = (TConorm.MAX, TConorm.PROBABILISTIC_SUM, TConorm.BOUNDED_SUM)


# ---------------------------------------------------------------------------
# brute-force per-pair oracle


def value(g, x, y, t):
    """w(x, y, t) read pair by pair: the table entry at the smallest grid
    scale >= t (the last one past the grid), or the closed form."""
    if g.table is None:
        return float(g.fn(x, y, t))
    row = g.table[(x, y)]
    for k, s in enumerate(g.grid):
        if s >= t:
            return row[k]
    return row[-1]


def in_ball(g, center, y, r, t, side):
    fwd = value(g, center, y, t) < r
    bwd = value(g, y, center, t) < r
    if side == "forward":
        return fwd
    if side == "backward":
        return bwd
    return fwd and bwd


def oracle_radii(g, points, grid):
    cap = 1.0 if g.regime is Regime.CONORM else float("inf")
    values = sorted({v for x in points for y in points for t in grid
                     for v in [value(g, x, y, t)] if 0 < v < cap})
    if not values:
        return (0.5 if g.regime is Regime.CONORM else 1.0,)
    radii = set(values)
    radii.update((a + b) / 2.0 for a, b in zip(values, values[1:]))
    top = values[-1]
    radii.add((top + 1.0) / 2.0 if g.regime is Regime.CONORM else top + 1.0)
    return tuple(sorted(radii))


def oracle_greedy_net(points, g, r, t, side):
    sample = tuple(points)
    centers = []
    covered = [False] * len(sample)
    for i, p in enumerate(sample):
        if covered[i]:
            continue
        centers.append(p)
        for j, q in enumerate(sample):
            if not covered[j] and in_ball(g, p, q, r, t, side):
                covered[j] = True
    verified = all(any(in_ball(g, c, q, r, t, side) for c in centers)
                   for q in sample)
    return CoverResult(tuple(centers), r, t, side, sample, verified)


def oracle_two_sided(g, forward, backward, r, t):
    """Returns the cover, or the CellInclusionError fields as a tuple."""
    s, t_half, sample = forward.radius_r, t / 2.0, forward.sample
    centers = []
    for x_i in forward.centers:
        for y_j in backward.centers:
            cell = [u for u in sample if value(g, x_i, u, t_half) < s
                    and value(g, u, y_j, t_half) < s]
            if not cell:
                continue
            z = cell[0]
            for u in cell:
                out, back = value(g, z, u, t), value(g, u, z, t)
                if not (out < r and back < r):
                    return ((x_i, y_j), z, u, out, back, r)
            if z not in centers:
                centers.append(z)
    verified = all(any(value(g, c, u, t) < r and value(g, u, c, t) < r
                       for c in centers) for u in sample)
    return CoverResult(tuple(centers), r, t, "two_sided", sample, verified)


def oracle_tail_start(n, good):
    worst = 0
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if not good(i, j):
                worst = max(worst, i)
    return None if worst == n else worst + 1


def oracle_cauchy(pts, g, r, t):
    f = oracle_tail_start(len(pts), lambda i, j:
                          value(g, pts[i - 1], pts[j - 1], t) < r)
    b = oracle_tail_start(len(pts), lambda i, j:
                          value(g, pts[j - 1], pts[i - 1], t) < r)
    return f, b


def oracle_converges_to(pts, g, x, r, t, side):
    return in_ball(g, x, pts[-1], r, t, side) and any(
        all(in_ball(g, x, y, r, t, side) for y in pts[i0:])
        for i0 in range(len(pts)))


# ---------------------------------------------------------------------------
# corpora: tabulated additive, tabulated conorm, closed form


def additive_corpus():
    for k in range(6):
        rng = rng_for(700 + k)
        yield ADDITIVE_BUILDERS[k % 4](rng, rng.randrange(2, 6)).tabulated()


def conorm_corpus():
    for k in range(6):
        rng = rng_for(720 + k)
        yield random_conorm_gauge(rng, rng.randrange(2, 6), CONORMS[k % 3])


def closed_form_corpus():
    for k in range(4):
        rng = rng_for(740 + k)
        yield ADDITIVE_BUILDERS[k % 4](rng, rng.randrange(2, 6))
    for k in range(2):
        rng = rng_for(760 + k)
        points = points_named(rng.randrange(2, 6))
        ratio = make_ratio(random_quasi_pseudometric(rng, points), points)
        yield GaugeSpec(regime=ratio.regime, points=ratio.points,
                        conorm=ratio.conorm, grid=CONORM_GRID,
                        name=ratio.name, fn=ratio.fn)


CORPORA = {"additive": additive_corpus, "conorm": conorm_corpus,
           "closed_form": closed_form_corpus}


def corpus(name):
    return list(CORPORA[name]())


def sample_scales(grid):
    """Grid scales, off-grid halves, and one scale past the top."""
    return sorted({t for s in grid for t in (s, s / 2.0)} | {2 * grid[-1]})


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_matrix_matches_value_on_and_off_the_grid(name):
    for g in corpus(name):
        for t in sample_scales(g.grid):
            mat = g.matrix(t)
            assert len(mat) == len(g.points)
            for i, x in enumerate(g.points):
                assert g.index(x) == i
                for j, y in enumerate(g.points):
                    assert mat[i][j] == value(g, x, y, t) == g.value(x, y, t)


def test_matrix_and_index_keep_the_value_errors():
    g = next(conorm_corpus())
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="scale must be positive"):
            g.matrix(bad)
    with pytest.raises(ValueError, match="unknown point 'zz'"):
        g.index("zz")
    with pytest.raises(ValueError, match="scale must be positive"):
        g.value("zz", "zz", 0.0)


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_critical_thresholds_on_a_subset_match_the_oracle(name):
    for g in corpus(name):
        subset = g.points[::2] if len(g.points) > 2 else g.points[:1]
        for points in (g.points, subset):
            got = critical_thresholds(g, points, g.grid)
            assert got.radii == oracle_radii(g, points, g.grid)


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_greedy_net_matches_the_oracle_on_every_side(name):
    for g in corpus(name):
        order = g.points[::-1] + g.points[:1]  # reversed, with a repeat
        for r, t in critical_thresholds(g).pairs():
            for side in ("forward", "backward", "two_sided"):
                for sample in (g.points, order):
                    assert greedy_net(sample, g, r, t, side) == \
                        oracle_greedy_net(sample, g, r, t, side)


def two_sided_outcome(g, fwd, bwd, r, t):
    try:
        return two_sided_cover_from_onesided(g, fwd, bwd, r, t)
    except CellInclusionError as exc:
        return (exc.cell, exc.z, exc.u, exc.lhs_out, exc.lhs_back, exc.r)


def split_radius(g, r):
    return g.conorm.half_radius(r) if g.regime is Regime.CONORM else r / 4.0


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_two_sided_cover_matches_the_oracle(name):
    for g in corpus(name):
        for r, t in critical_thresholds(g).pairs():
            s = split_radius(g, r)
            fwd = greedy_net(g.points, g, s, t / 2.0, "forward")
            bwd = greedy_net(g.points, g, s, t / 2.0, "backward")
            if fwd.verified and bwd.verified:
                assert two_sided_outcome(g, fwd, bwd, r, t) == \
                    oracle_two_sided(g, fwd, bwd, r, t)


def test_planted_cell_escapes_carry_the_oracle_witness():
    escapes = 0
    for k in range(12):
        rng = rng_for(780 + k)
        clean = ADDITIVE_BUILDERS[k % 4](rng, rng.randrange(3, 6))
        g, _ = corrupt_one_entry(clean, rng, bump=8.0)
        for r, t in critical_thresholds(g).pairs():
            fwd = greedy_net(g.points, g, r / 4.0, t / 2.0, "forward")
            bwd = greedy_net(g.points, g, r / 4.0, t / 2.0, "backward")
            if not (fwd.verified and bwd.verified):
                continue
            got = two_sided_outcome(g, fwd, bwd, r, t)
            assert got == oracle_two_sided(g, fwd, bwd, r, t)
            escapes += isinstance(got, tuple)
    # w(a, b) = 0 puts b in a's forward cell, but the way back costs 9
    skew = GaugeSpec(regime=Regime.ADDITIVE, points=("a", "b", "c"),
                     grid=ScaleGrid((1.0, 2.0)),
                     table={("a", "b"): (0.0, 0.0), ("b", "a"): (9.0, 9.0),
                            ("a", "c"): (5.0, 5.0), ("c", "a"): (5.0, 5.0),
                            ("b", "c"): (5.0, 5.0), ("c", "b"): (5.0, 5.0)})
    fwd = greedy_net(skew.points, skew, 0.25, 1.0, "forward")
    bwd = greedy_net(skew.points, skew, 0.25, 1.0, "backward")
    planted = oracle_two_sided(skew, fwd, bwd, 1.0, 2.0)
    assert planted == (("a", "b"), "a", "b", 0.0, 9.0, 1.0)
    assert two_sided_outcome(skew, fwd, bwd, 1.0, 2.0) == planted
    assert escapes > 0


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_classify_cauchy_matches_the_oracle_on_repeating_sequences(name):
    for k, g in enumerate(corpus(name)):
        rng = rng_for(800 + k)
        seqs = [tuple(rng.choice(g.points) for _ in range(rng.randrange(1, 9)))
                for _ in range(3)]
        seqs.append(g.points * 2)
        for r, t in critical_thresholds(g).pairs():
            for pts in seqs:
                res = classify_cauchy(SampledSequence(pts), g, r, t)
                assert (res.forward_i0, res.backward_i0) == \
                    oracle_cauchy(pts, g, r, t)


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_converges_to_matches_the_oracle(name):
    for k, g in enumerate(corpus(name)):
        rng = rng_for(820 + k)
        pts = tuple(rng.choice(g.points) for _ in range(rng.randrange(1, 7)))
        seq = SampledSequence(pts)
        for r, t in critical_thresholds(g).pairs():
            for x in g.points[:2]:
                for side in ("forward", "backward", "two_sided"):
                    assert converges_to(seq, g, x, r, t, side) == \
                        oracle_converges_to(pts, g, x, r, t, side)


def test_greedy_net_takes_conorm_radii_above_one():
    # entourage keeps conorm radii in (0, 1); the covers accept any r > 0,
    # and at r = 1.5 every value lies inside every ball
    for g in conorm_corpus():
        with pytest.raises(ValueError, match="must lie in"):
            entourage(g, 1.5, 1.0)
        for side in ("forward", "backward", "two_sided"):
            net = greedy_net(g.points, g, 1.5, 1.0, side)
            assert net.verified
            assert net.centers == g.points[:1]
            assert net == oracle_greedy_net(g.points, g, 1.5, 1.0, side)

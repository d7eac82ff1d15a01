"""Differential tests for the dense evaluation layer.

The sweeps read whole rows from `GaugeSpec.matrix(t)`, grid sweeps read
them stacked by `GaugeSpec.sample`, and balls come from entourage rows.
The oracle below decides everything one ordered pair at a time, with a
ball predicate per pair.  Its value lookup reads the table row itself
rather than `matrix`, so a wrong column in the dense layer cannot hide on
both sides of a comparison.  `convexity_check` and
`enriched_triangle_check` are compared against the per-pair loops they
ran before `sample`, over the per-pair rows of `_materialize`, and
`quasi_uniformity_report` and `small_composite_check` against their
entourage loops.
"""

import pytest

from quasimod import (INF, CellInclusionError, GaugeSpec, Profile, Regime,
                      SampledSequence, ScaleGrid, TConorm, ThresholdSet,
                      check_axioms, classify_cauchy, compose,
                      convexity_check, converges_to, critical_thresholds,
                      enriched_triangle_check, entourage, greedy_net,
                      heine_borel_report, make_ratio, make_scaled_metric,
                      profile_convolve, quasi_uniformity_report,
                      small_composite_check, two_sided_cover_from_onesided)
from quasimod.axioms import AxiomReport, Violation
from quasimod.completeness import CoverResult
from quasimod.extreal import ext_mul

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


# ---------------------------------------------------------------------------
# GaugeSpec.sample: the block every grid sweep reads


def oracle_stack(g, points, grid):
    return [[[value(g, x, y, t) for y in points] for x in points]
            for t in grid]


def sample_cases(g):
    """Own points and grid, a proper subset in reversed order, a repeated
    point, and a grid with one scale between the gauge's first two and one
    past its top."""
    subset = g.points[1:][::-1] if len(g.points) > 2 else g.points[::-1]
    repeated = g.points + g.points[:1]
    between = (g.grid[0] + g.grid[1]) / 2.0 if len(g.grid) > 1 \
        else g.grid[0] / 2.0
    foreign = ScaleGrid((between, 2.0 * g.grid[-1]))
    return [(g.points, g.grid), (subset, g.grid), (repeated, g.grid),
            (subset, foreign), (repeated, foreign)]


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_sample_matches_the_per_pair_oracle(name):
    for g in corpus(name):
        assert g.sample() == (g.points, g.grid,
                              oracle_stack(g, g.points, g.grid))
        for points, grid in sample_cases(g):
            got_points, got_grid, stack = g.sample(list(points), grid)
            assert got_points == points and got_grid is grid
            assert stack == oracle_stack(g, points, grid), (g.name, points)


def test_sample_rows_are_fresh_lists():
    for g in corpus("additive") + corpus("conorm") + corpus("closed_form"):
        before = [g.matrix(t) for t in g.grid]
        _, _, stack = g.sample()
        _, _, again = g.sample()
        for k, mat in enumerate(stack):
            for i, row in enumerate(mat):
                assert type(row) is list and row is not again[k][i]
                row[:] = [7.0] * len(row)
        assert [g.matrix(t) for t in g.grid] == before
        assert again == oracle_stack(g, g.points, g.grid)


def test_sample_errors():
    g = make_ratio({("a", "b"): 1.0, ("b", "a"): 2.0})
    assert g.grid is None
    with pytest.raises(ValueError, match="^no grid to sample on$"):
        g.sample()
    assert g.sample(grid=ScaleGrid((1.0,)))[2] == [[[0.0, 0.5], [2 / 3, 0.0]]]
    with pytest.raises(ValueError, match="unknown point 'zz'"):
        g.sample(("a", "zz"), ScaleGrid((1.0,)))


# ---------------------------------------------------------------------------
# convexity_check and enriched_triangle_check against their per-pair loops


def _materialize(g, points, grid):
    """One row of values along the grid per distinct ordered pair, as the
    sweeps read them before `GaugeSpec.sample`."""
    idx = [(x, g.index(x)) for x in points]
    columns = [g.matrix(t) for t in grid]
    return {(x, y): [col[i][j] for col in columns]
            for x, i in idx for y, j in idx}


_REL_SLACK = 1e-12


def oracle_convexity_check(g, points=None, grid=None):
    if g.regime is not Regime.ADDITIVE:
        raise ValueError("convexity_check applies to additive-regime gauges")
    points = tuple(points) if points is not None else g.points
    grid = grid or g.grid
    if grid is None:
        raise ValueError("convexity_check needs a scale grid")
    rows = _materialize(g, points, grid)
    m = len(grid)
    violations = []
    for x in points:
        for y in points:
            row = rows[(x, y)]
            scaled = [ext_mul(grid[k], row[k]) for k in range(m)]
            for k in range(m - 1):
                slack = _REL_SLACK * max(1.0, abs(scaled[k])) \
                    if scaled[k] != float("inf") else 0.0
                if scaled[k + 1] > scaled[k] + slack:
                    violations.append(Violation(
                        "scaled-value-monotone", (x, y, grid[k], grid[k + 1]),
                        scaled[k + 1], scaled[k]))
            for a in range(m):
                for b in range(a + 1, m):
                    bound = ext_mul(grid[b] / grid[a], row[a])
                    slack = _REL_SLACK * max(1.0, abs(bound)) \
                        if bound != float("inf") else 0.0
                    if row[b] > bound + slack:
                        violations.append(Violation(
                            "scale-ratio", (x, y, grid[a], grid[b]),
                            row[b], bound))
    return AxiomReport(("scaled-value-monotone", "scale-ratio"),
                       tuple(violations))


def oracle_enriched_triangle_check(g, points=None, grid=None):
    if g.regime is not Regime.CONORM:
        raise ValueError("enriched_triangle_check applies to conorm-regime gauges")
    points = tuple(points) if points is not None else g.points
    grid = grid or g.grid
    if grid is None:
        raise ValueError("enriched_triangle_check needs a scale grid")
    rows = _materialize(g, points, grid)
    profiles = {pair: Profile(grid, tuple(row)) for pair, row in rows.items()}
    threshold = 2.0 * grid[0]
    violations = []
    for x in points:
        for y in points:
            for z in points:
                conv = profile_convolve(profiles[(x, y)], profiles[(y, z)], g.conorm)
                for k, u in enumerate(grid):
                    if u < threshold:
                        continue
                    lhs = rows[(x, z)][k]
                    if lhs > conv.values[k]:
                        violations.append(Violation(
                            "convolution-triangle", (x, y, z, u),
                            lhs, conv.values[k]))
    return AxiomReport(("convolution-triangle",), tuple(violations))


def convex_gauges():
    """Additive corpora, scale-constant or capped, clean and corrupted, and
    scaled metrics rho * g(t) with a g that is and one that is not convex."""
    grid = ScaleGrid((0.5, 1.0, 2.0, 4.0))
    for seed in range(4):
        rng = rng_for(840 + seed)
        for builder in ADDITIVE_BUILDERS:
            g = builder(rng, rng.randrange(2, 6))
            yield g
            yield corrupt_one_entry(g, rng, bump=2.0)[0]
        rho = random_quasi_pseudometric(rng, points_named(rng.randrange(2, 6)))
        yield make_scaled_metric(rho, Profile(grid, (2.0, 1.0, 0.5, 0.25)))
        yield make_scaled_metric(rho, Profile(grid, (2.0, 1.5, 0.5, 0.5)))
    # an unreachable pair: inf values, and 0 * inf = 0 where g reaches 0
    for profile in ((2.0, 1.0, 0.5, 0.0), (2.0, 1.5, 1.5, 0.25)):
        yield make_scaled_metric({("a", "b"): INF, ("b", "a"): 1.0},
                                 Profile(grid, profile))
    yield from (g for g in closed_form_corpus() if g.regime is Regime.ADDITIVE)


def conorm_gauges():
    for seed in range(4):
        rng = rng_for(860 + seed)
        for c in CONORMS:
            g = random_conorm_gauge(rng, rng.randrange(2, 6), c)
            yield g
            if c is not TConorm.BOUNDED_SUM:  # its sums saturate at 1
                yield corrupt_one_entry(g, rng)[0]
    yield from (g for g in closed_form_corpus() if g.regime is Regime.CONORM)


def sweep_cases(gauges, foreign):
    for g in gauges:
        for points, grid in sample_cases(g):
            yield g, points, grid
        yield g, g.points, foreign


def test_convexity_check_matches_the_per_pair_loops():
    found = 0
    for g, points, grid in sweep_cases(convex_gauges(),
                                       ScaleGrid((0.25, 0.75, 3.0))):
        want = oracle_convexity_check(g, points, grid)
        assert convexity_check(g, points, grid).to_json() == want.to_json(), \
            (g.name, points, grid)
        found += len(want.violations)
    assert found > 0


def test_enriched_triangle_check_matches_the_per_pair_loops():
    found = 0
    for g, points, grid in sweep_cases(conorm_gauges(),
                                       ScaleGrid((0.25, 0.5, 1.5, 3.0))):
        want = oracle_enriched_triangle_check(g, points, grid)
        assert enriched_triangle_check(g, points, grid).to_json() == \
            want.to_json(), (g.name, points, grid)
        found += len(want.violations)
    assert found > 0


def oracle_quasi_uniformity_report(g, points=None, grid=None):
    """quasi_uniformity_report deciding diagonal and refinement through
    entourage relations."""
    if g.regime is not Regime.CONORM:
        raise ValueError("quasi_uniformity_report applies to conorm-regime gauges")
    points = tuple(points) if points is not None else g.points
    grid = grid or g.grid
    if grid is None:
        raise ValueError("quasi_uniformity_report needs a scale grid")
    thresholds = critical_thresholds(g, points, grid)
    violations = []
    for r, t in thresholds.pairs():
        rel = entourage(g, r, t, "forward", points)
        if not rel.has_diagonal():
            for i, x in enumerate(points):
                if not rel.rows[i] & (1 << i):
                    violations.append(Violation("diagonal", (x, r, t),
                                                g.value(x, x, t), r))
    scales = list(grid)
    for r in thresholds.radii:
        for t_small, t_big in zip(scales, scales[1:]):
            small = entourage(g, r, t_small, "forward", points)
            big = entourage(g, r, t_big, "forward", points)
            if big.contains(small):
                continue
            for x, y in small.pairs():
                if not big.related(x, y):
                    violations.append(Violation(
                        "refinement", (x, y, r, t_small, t_big),
                        g.value(x, y, t_big), r))
    composite = oracle_small_composite_check(g, points, grid)
    violations.extend(composite.violations)
    return AxiomReport(("diagonal", "refinement", "small-composite"),
                       tuple(violations),
                       ("upward closure holds by representation",))


def oracle_small_composite_check(g, points=None, grid=None):
    """small_composite_check building two entourages per threshold and
    transposing them for the backward side."""
    if g.regime is not Regime.CONORM:
        raise ValueError("small_composite_check applies to conorm-regime gauges")
    points = tuple(points) if points is not None else g.points
    grid = grid or g.grid
    if grid is None:
        raise ValueError("small_composite_check needs a scale grid")
    thresholds = critical_thresholds(g, points, grid)
    violations = []
    for r, t in thresholds.pairs():
        rp = g.split_radius(r)
        fwd = entourage(g, rp, t, "forward", points)
        big = entourage(g, r, t, "forward", points)
        for small, target, side in ((fwd, big, "forward"),
                                    (fwd.transpose(), big.transpose(), "backward")):
            comp = compose(small, small)
            if target.contains(comp):
                continue
            for x, z in comp.pairs():
                if not target.related(x, z):
                    lhs = g.value(x, z, t) if side == "forward" \
                        else g.value(z, x, t)
                    violations.append(Violation(
                        "small-composite", (side, x, z, r, rp, t), lhs, r))
    return AxiomReport(("small-composite",), tuple(violations),
                       (f"{len(thresholds.radii) * len(grid)} thresholds checked",))


def uniformity_gauges():
    """The conorm corpora and raw conorm tables, which break monotonicity
    and the composite law."""
    from test_topology import random_raw_table

    yield from conorm_gauges()
    for seed in range(4):
        rng = rng_for(880 + seed)
        for c in CONORMS:
            yield random_raw_table(rng, rng.randrange(2, 6), c)


def test_small_composite_check_matches_the_entourage_loops():
    found = 0
    for g, points, grid in sweep_cases(uniformity_gauges(),
                                       ScaleGrid((0.25, 0.5, 1.5, 3.0))):
        want = oracle_small_composite_check(g, points, grid)
        assert small_composite_check(g, points, grid).to_json() == \
            want.to_json(), (g.name, points, grid)
        # handed the thresholds it would compute, it reports the same
        thresholds = critical_thresholds(g, points, grid)
        assert small_composite_check(g, iter(points), thresholds=thresholds) \
            .to_json() == want.to_json(), (g.name, points, grid)
        found += len(want.violations)
    assert found > 0


def test_threshold_readers_sample_nothing_when_handed_thresholds(monkeypatch):
    # the grid comes from the thresholds, so a gauge without one works too,
    # and quasi_uniformity_report hands its thresholds down
    g = next(g for g in closed_form_corpus() if g.regime is Regime.CONORM)
    thresholds = ThresholdSet((0.25, 0.5), ScaleGrid((0.5, 1.0)))
    want_hb = heine_borel_report(g, thresholds=thresholds).to_json()
    want_sc = small_composite_check(g, thresholds=thresholds).to_json()
    calls = []
    sample = GaugeSpec.sample
    monkeypatch.setattr(GaugeSpec, "sample",
                        lambda self, *a: calls.append(a) or sample(self, *a))
    bare = GaugeSpec(regime=g.regime, points=g.points, conorm=g.conorm,
                     fn=g.fn)
    assert heine_borel_report(bare, thresholds=thresholds).to_json() == want_hb
    assert small_composite_check(bare, thresholds=thresholds).to_json() == \
        want_sc
    assert calls == []
    quasi_uniformity_report(g)
    assert len(calls) == 2  # its own block and its critical thresholds


def test_quasi_uniformity_report_matches_the_entourage_loops():
    seen = set()
    for g, points, grid in sweep_cases(uniformity_gauges(),
                                       ScaleGrid((0.25, 0.5, 1.5, 3.0))):
        want = oracle_quasi_uniformity_report(g, points, grid)
        assert quasi_uniformity_report(g, points, grid).to_json() == \
            want.to_json(), (g.name, points, grid)
        seen.update(v.axiom for v in want.violations)
    assert {"diagonal", "refinement"} <= seen


def test_a_repeated_point_reports_every_cell_of_the_gauge():
    # the per-pair rows shared one list per distinct pair, so a conorm value
    # above 1, clamped on its first visit, read 1.0 on the repeat; the
    # stack reports the gauge's own value at every cell
    from test_triangle_kernel import oracle_check_axioms

    g = GaugeSpec(regime=Regime.CONORM, points=("a", "b"),
                  conorm=TConorm.MAX, grid=ScaleGrid((1.0,)),
                  fn=lambda x, y, t: 0.0 if x == y else 1.5)
    points = ("a", "b", "a")

    def bounded(report):
        return [(v.witness[:2], v.lhs) for v in report.by_axiom("bounded")]

    assert bounded(check_axioms(g, points)) == [
        (("a", "b"), 1.5), (("b", "a"), 1.5),
        (("b", "a"), 1.5), (("a", "b"), 1.5)]
    assert bounded(oracle_check_axioms(g, points)) == [
        (("a", "b"), 1.5), (("b", "a"), 1.5),
        (("b", "a"), 1.0), (("a", "b"), 1.0)]
    # apart from those lhs values the two reports agree
    got, want = check_axioms(g, points).to_json(), \
        oracle_check_axioms(g, points).to_json()
    for report in (got, want):
        for v in report["violations"]:
            v.pop("lhs")
    assert got == want

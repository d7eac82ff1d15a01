"""Differential tests for the dense evaluation layer.

The sweeps read whole rows from `GaugeSpec.matrix(t)`, grid sweeps read
them stacked by `GaugeSpec.sample`, and balls come from entourage rows.
The oracle, `reference`, decides everything one ordered pair at a time,
with a ball predicate per pair.  Its value lookup reads the table row
itself rather than `matrix`, so a wrong column in the dense layer cannot
hide on both sides of a comparison.  `convexity_check` and
`enriched_triangle_check` are compared against the per-pair loops they
ran before `sample`, over the per-pair rows of `_materialize`, and
`quasi_uniformity_report` and `small_composite_check` against their
entourage loops.
"""

from itertools import product

import pytest

from quasimod import (INF, CellInclusionError, CoverResult, GaugeSpec,
                      Profile, Regime, ScaleGrid, TConorm, ThresholdSet, ball,
                      check_axioms, classify_cauchy, compose,
                      convexity_check, converges_to, critical_thresholds,
                      enriched_triangle_check, entourage, greedy_net,
                      heine_borel_report, make_ratio, make_scaled_metric,
                      profile_convolve, quasi_uniformity_report,
                      small_composite_check, two_sided_cover_from_onesided)
from quasimod.axioms import AxiomReport, Violation
from quasimod.extreal import ext_mul

from conftest import (ADDITIVE_BUILDERS, CONORMS, CORPORA, GAUGES,
                      _materialize, closed_form_corpus, conorm_corpus, corpus,
                      corrupt_one_entry, points_named, probe_scales,
                      random_conorm_gauge, random_quasi_pseudometric,
                      random_raw_table, rng_for, skew_gauge, transpose)
import reference as ref


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_matrix_matches_value_on_and_off_the_grid(name):
    for g in corpus(name):
        for t in probe_scales(g.grid):
            mat = g.matrix(t)
            assert len(mat) == len(g.points)
            for i, x in enumerate(g.points):
                assert g.index(x) == i
                for j, y in enumerate(g.points):
                    assert mat[i][j] == ref.value(g, x, y, t) == g.value(x, y, t)


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
            assert got.radii == ref.radii(g, points, g.grid)


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_greedy_net_matches_the_oracle_on_every_side(name):
    for g in corpus(name):
        order = g.points[::-1] + g.points[:1]  # reversed, with a repeat
        for r, t in critical_thresholds(g).pairs():
            for side in ("forward", "backward", "two_sided"):
                for sample in (g.points, order):
                    assert greedy_net(sample, g, r, t, side) == \
                        ref.greedy_net(sample, g, r, t, side)


def two_sided_outcome(g, fwd, bwd, r, t):
    try:
        return two_sided_cover_from_onesided(g, fwd, bwd, r, t)
    except CellInclusionError as exc:
        return (exc.cell, exc.z, exc.u, exc.lhs_out, exc.lhs_back, exc.r)


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_two_sided_cover_matches_the_oracle(name):
    for g in corpus(name):
        for r, t in critical_thresholds(g).pairs():
            s = ref.split(g, r)
            fwd = greedy_net(g.points, g, s, t / 2.0, "forward")
            bwd = greedy_net(g.points, g, s, t / 2.0, "backward")
            if fwd.verified and bwd.verified:
                assert two_sided_outcome(g, fwd, bwd, r, t) == \
                    ref.two_sided(g, fwd, bwd, r, t)


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
            assert got == ref.two_sided(g, fwd, bwd, r, t)
            escapes += not isinstance(got, CoverResult)
    skew = skew_gauge()
    fwd = greedy_net(skew.points, skew, 0.25, 1.0, "forward")
    bwd = greedy_net(skew.points, skew, 0.25, 1.0, "backward")
    planted = ref.two_sided(skew, fwd, bwd, 1.0, 2.0)
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
                res = classify_cauchy(pts, g, r, t)
                assert (res.forward_i0, res.backward_i0) == \
                    ref.cauchy(pts, g, r, t)


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_converges_to_matches_the_oracle(name):
    for k, g in enumerate(corpus(name)):
        rng = rng_for(820 + k)
        pts = tuple(rng.choice(g.points) for _ in range(rng.randrange(1, 7)))
        for r, t in critical_thresholds(g).pairs():
            for x in g.points[:2]:
                for side in ("forward", "backward", "two_sided"):
                    assert converges_to(pts, g, x, r, t, side) == \
                        ref.converges_to(pts, g, x, r, t, side)


def test_greedy_net_takes_conorm_radii_above_one():
    # every ball reader takes any r > 0, conorm radii of 1 and more too: a
    # quasi-uniformity is upward closed, and at r = 1.5 every value lies
    # inside every ball
    for g in conorm_corpus():
        pts = g.points[::-1]
        for r, side in product((1.0, 1.5), ("forward", "backward",
                                            "two_sided")):
            rows = entourage(g, r, 1.0, side)
            assert rows == tuple(
                sum(1 << j for j, y in enumerate(g.points)
                    if ref.in_ball(g, x, y, r, 1.0, side)) for x in g.points)
            for x in g.points:
                assert ball(g, x, r, 1.0, side) == tuple(
                    y for y in g.points if ref.in_ball(g, x, y, r, 1.0, side))
                assert converges_to(pts, g, x, r, 1.0, side) == \
                    ref.converges_to(pts, g, x, r, 1.0, side)
            net = greedy_net(g.points, g, r, 1.0, side)
            assert net == ref.greedy_net(g.points, g, r, 1.0, side)
            if r == 1.5:
                assert rows == (2 ** len(g.points) - 1,) * len(g.points)
                assert net.verified and net.centers == g.points[:1]


# ---------------------------------------------------------------------------
# GaugeSpec.sample: the block every grid sweep reads


def oracle_stack(g, points, grid):
    return [[[ref.value(g, x, y, t) for y in points] for x in points]
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
        assert convexity_check(g, points, grid) == want, \
            (g.name, points, grid)
        found += len(want.violations)
    assert found > 0


def signed_zero_tables():
    """Conorm tables under no axiom whose zeros carry either sign, so that
    failing splits tie at 0.0 and -0.0 on the right side."""
    for k, conorm in enumerate(CONORMS * 2):
        rng = rng_for(960 + k)
        pts = points_named(rng.randrange(2, 6))
        grid = ScaleGrid((0.5, 1.0, 1.5, 2.0))
        yield GaugeSpec(
            regime=Regime.CONORM, points=pts, conorm=conorm, grid=grid,
            name=f"signed_zero_{conorm.wire_name}",
            table={(x, y): tuple(rng.choice((0.0, -0.0, -0.0, 0.5, 0.75))
                                 for _ in grid) for x in pts for y in pts})


def enriched_gauges():
    """Every corpus, additive ones included, seeded conorm gauges under each
    conorm with a corrupted copy where the composite allows one, and the
    signed-zero tables."""
    for name in sorted(GAUGES):
        yield from GAUGES[name]()
    for seed in range(4):
        rng = rng_for(970 + seed)
        for c in CONORMS:
            g = random_conorm_gauge(rng, rng.randrange(2, 6), c)
            yield g
            try:
                yield corrupt_one_entry(g, rng)[0]
            except ValueError:  # a composite too close to 1 to corrupt
                pass
    yield from signed_zero_tables()


def outcome(check, *args):
    """The repr of the check's report, which tells -0.0 from 0.0, or the
    ValueError it raises."""
    try:
        return repr(check(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_enriched_triangle_check_matches_the_per_pair_loops():
    found, ties = 0, 0
    for g, points, grid in sweep_cases(enriched_gauges(),
                                       ScaleGrid((0.25, 0.5, 1.5, 3.0))):
        want = outcome(oracle_enriched_triangle_check, g, points, grid)
        assert outcome(enriched_triangle_check, g, points, grid) == want, \
            (g.name, points, grid)
        found += want.count("Violation(")
        ties += want.count("rhs=-0.0)")
    assert found > 0 and ties > 0


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
        for i, x in enumerate(points):
            if not rel[i] & (1 << i):
                violations.append(Violation("diagonal", (x, r, t),
                                            g.value(x, x, t), r))
    scales = list(grid)
    for r in thresholds.radii:
        for t_small, t_big in zip(scales, scales[1:]):
            small = entourage(g, r, t_small, "forward", points)
            big = entourage(g, r, t_big, "forward", points)
            for (i, x), (j, y) in product(enumerate(points), repeat=2):
                if small[i] & (1 << j) and not big[i] & (1 << j):
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
                                    (transpose(fwd), transpose(big), "backward")):
            comp = compose(small, small)
            for (i, x), (j, z) in product(enumerate(points), repeat=2):
                if comp[i] & (1 << j) and not target[i] & (1 << j):
                    lhs = g.value(x, z, t) if side == "forward" \
                        else g.value(z, x, t)
                    violations.append(Violation(
                        "small-composite", (side, x, z, r, rp, t), lhs, r))
    return AxiomReport(("small-composite",), tuple(violations),
                       (f"{len(thresholds.radii) * len(grid)} thresholds checked",))


def uniformity_gauges():
    """The conorm corpora and raw conorm tables, which break monotonicity
    and the composite law."""
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
        assert small_composite_check(g, points, grid) == want, \
            (g.name, points, grid)
        # handed the thresholds it would compute, it reports the same
        thresholds = critical_thresholds(g, points, grid)
        assert small_composite_check(g, iter(points),
                                     thresholds=thresholds) == want, \
            (g.name, points, grid)
        found += len(want.violations)
    assert found > 0


def test_threshold_readers_sample_nothing_when_handed_thresholds(monkeypatch):
    # the grid comes from the thresholds, so a gauge without one works too,
    # and quasi_uniformity_report hands its thresholds down
    g = next(g for g in closed_form_corpus() if g.regime is Regime.CONORM)
    thresholds = ThresholdSet((0.25, 0.5), ScaleGrid((0.5, 1.0)))
    want_hb = heine_borel_report(g, thresholds=thresholds)
    want_sc = small_composite_check(g, thresholds=thresholds)
    calls = []
    sample = GaugeSpec.sample
    monkeypatch.setattr(GaugeSpec, "sample",
                        lambda self, *a: calls.append(a) or sample(self, *a))
    bare = GaugeSpec(regime=g.regime, points=g.points, conorm=g.conorm,
                     fn=g.fn)
    got_hb = heine_borel_report(bare, thresholds=thresholds)
    assert got_hb.rows == want_hb.rows
    assert got_hb.all_composed_ok == want_hb.all_composed_ok
    assert small_composite_check(bare, thresholds=thresholds) == want_sc
    assert calls == []
    quasi_uniformity_report(g)
    # its critical thresholds only: diagonal and refinement read ball rows
    assert len(calls) == 1


def test_quasi_uniformity_report_matches_the_entourage_loops():
    seen = set()
    for g, points, grid in sweep_cases(uniformity_gauges(),
                                       ScaleGrid((0.25, 0.5, 1.5, 3.0))):
        want = oracle_quasi_uniformity_report(g, points, grid)
        assert quasi_uniformity_report(g, points, grid) == want, \
            (g.name, points, grid)
        seen.update(v.axiom for v in want.violations)
    assert {"diagonal", "refinement"} <= seen


def test_a_repeated_point_reports_every_cell_of_the_gauge():
    # the per-pair rows shared one list per distinct pair; the stack reports
    # the gauge's own value, 1.0 and so bounded, at every cell of a repeat
    g = GaugeSpec(regime=Regime.CONORM, points=("a", "b"),
                  conorm=TConorm.MAX, grid=ScaleGrid((1.0,)),
                  table={("a", "b"): (1.0,), ("b", "a"): (1.0,)})
    points = ("a", "b", "a")
    report = check_axioms(g, points)
    assert [(v.witness[:2], v.lhs) for v in report.by_axiom("bounded")] == [
        (("a", "b"), 1.0), (("b", "a"), 1.0),
        (("b", "a"), 1.0), (("a", "b"), 1.0)]
    assert report == ref.axioms(g, points)

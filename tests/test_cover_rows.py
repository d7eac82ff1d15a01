"""Differential tests for the cover steps, which run scale by scale.

`heine_borel_report` reads its ball rows from one source per call, which
builds each relation once per (grid column, radius rank), and decides each
distinct (near cut, cut) pair of a scale once.  `classify_cauchy_thresholds`
reads each scale's tail starts from the suffix maxima of the sequence's
rows, one bisection per radius and direction.  The oracle, `reference`,
builds every row by definition: three greedy nets and one composition per
threshold pair, and one Cauchy scan per pair, each reading table rows one
pair at a time rather than `matrix`.  Both are compared on every corpus,
on hand-built threshold sets with unsorted and repeated radii on scales on
and off the grid, on sequences with repeats, and on a last point outside
its own ball.  The ball rows themselves are compared with the reference's
strict balls, and their work is counted: one sort per distinct matrix, one
snapshot per rank read.
"""

import math
from bisect import bisect_left

import pytest

from quasimod import (GaugeSpec, Regime, ScaleGrid, ThresholdSet,
                      classify_cauchy, classify_cauchy_thresholds,
                      critical_thresholds, entourage, heine_borel_report)
from quasimod import topology

from conftest import (GAUGES, corrupted_gauges, points_named, probe_scales,
                      raw_gauges, rng_for)
from reference import cauchy_rows, heine_borel_rows, in_ball, split


# ---------------------------------------------------------------------------
# gauges: conftest's `GAUGES`, each read on these point lists


def samples(g):
    """The gauge's points, a proper subset, and a reversed order with a
    repeat."""
    subset = tuple(p for k, p in enumerate(g.points)
                   if k != len(g.points) // 2)
    return (g.points, subset, g.points[::-1] + g.points[:1])


def sequences(g, seed):
    rng = rng_for(seed)
    seqs = [tuple(rng.choice(g.points) for _ in range(rng.randrange(1, 9)))
            for _ in range(3)]
    return seqs + [g.points * 2]


# ---------------------------------------------------------------------------
# differential tests


@pytest.mark.parametrize("name", sorted(GAUGES))
def test_report_matches_the_reference(name):
    for g in GAUGES[name]():
        for points in samples(g):
            thresholds = critical_thresholds(g, points, g.grid)
            got = heine_borel_report(g, points, thresholds=thresholds)
            want = heine_borel_rows(g, points, thresholds.pairs())
            assert got.rows == want, (g.name, points)
            assert got.all_composed_ok == all(row.composed_ok for row in want)


@pytest.mark.parametrize("name", sorted(GAUGES))
def test_cauchy_scan_matches_the_reference(name):
    for k, g in enumerate(GAUGES[name]()):
        thresholds = critical_thresholds(g)
        for pts in sequences(g, 980 + k):
            got = [(r, t, c.kind, c.i0, c.forward_i0, c.backward_i0) for r, t, c
                   in classify_cauchy_thresholds(pts, g, thresholds)]
            assert got == cauchy_rows(pts, g, thresholds.pairs()), \
                (g.name, pts)


def cauchy_table(points, g, thresholds):
    return [(r, t, *c) for r, t, c
            in classify_cauchy_thresholds(points, g, thresholds)]


def hand_built_thresholds(g, seed):
    """The critical radii shuffled, with repeats and radii between them,
    on the grid and on a grid that reaches below and past it."""
    rng = rng_for(seed)
    radii = list(critical_thresholds(g).radii)
    radii += rng.sample(radii, min(3, len(radii)))
    radii += [(a + b) / 3.0 for a, b in zip(radii[:3], radii[1:4])]
    rng.shuffle(radii)
    wide = ScaleGrid((g.grid[0] / 3.0, *g.grid, g.grid[-1] * 1.5))
    return [ThresholdSet(tuple(radii), grid) for grid in (g.grid, wide)]


@pytest.mark.parametrize("name", sorted(GAUGES))
def test_hand_built_thresholds_match_the_reference(name):
    met = set()
    for k, g in enumerate(list(GAUGES[name]())[:4]):
        for thresholds in hand_built_thresholds(g, 1300 + k):
            radii = thresholds.radii
            met |= {"unsorted"} if list(radii) != sorted(radii) else set()
            met |= {"repeated"} if len(set(radii)) < len(radii) else set()
            got = heine_borel_report(g, thresholds=thresholds)
            assert got.rows == heine_borel_rows(g, g.points,
                                                thresholds.pairs()), g.name
            for pts in sequences(g, 1400 + k):
                assert cauchy_table(pts, g, thresholds) == cauchy_rows(
                    pts, g, thresholds.pairs()), (g.name, pts)
    assert met == {"unsorted", "repeated"}


def test_a_last_point_outside_its_own_ball_starts_no_tail():
    # w(b, b) = 0.5: no tail holds at a radius up to 0.5 on either side,
    # since the one-point tail at b fails; at 0.5 exactly, S_i = r for the
    # last i, which the tail must count as outside
    g = GaugeSpec(regime=Regime.ADDITIVE, points=("a", "b"),
                  grid=ScaleGrid((1.0, 2.0)),
                  table={("a", "b"): (1.0, 0.5), ("b", "a"): (2.0, 1.0),
                         ("b", "b"): (0.5, 0.5)})
    thresholds = critical_thresholds(g)
    for pts in (("b",), ("a", "b"), ("b", "a", "a", "b"), ("a", "b") * 3):
        got = cauchy_table(pts, g, thresholds)
        assert got == cauchy_rows(pts, g, thresholds.pairs()), pts
        assert {row[2:] for row in got if row[0] <= 0.5} == {
            ("neither", None, None, None)}, pts
        assert any(row[2] == "bi" for row in got), pts
        for r, t, *kind in got:
            assert tuple(classify_cauchy(pts, g, r, t)) == tuple(kind)
    # a repeat of b before the end changes nothing; one a after it starts
    # the forward tail at that a, which w(a, a) = 0 lets through
    assert cauchy_table(("b", "b", "a"), g, thresholds)[0][2:] == (
        "bi", 3, 3, 3)


def test_corpora_exercise_escapes_and_off_grid_halves():
    # the comparisons above are only as strong as the rows they meet
    escapes = off_grid = 0
    for g in corrupted_gauges():
        report = heine_borel_report(g)
        escapes += sum(row.witness is not None for row in report.rows)
    for g in raw_gauges():
        off_grid += any(t / 2.0 not in g.grid.scales and t / 2.0 > g.grid[0]
                        for t in g.grid)
    assert escapes > 0 and off_grid > 0
    # and the ball rows below meet repeated points and a scale whose half
    # reads its own column
    assert all(len(set(samples(g)[2])) < len(samples(g)[2])
               for g in raw_gauges())
    assert any(g.matrix(3.0) is g.matrix(1.5) for g in raw_gauges())


# ---------------------------------------------------------------------------
# the ball rows against brute force


def brute_rows(g, points, r, t):
    """Forward and backward rows of the strict balls over `points`, one
    pair at a time."""
    return tuple(tuple(sum(1 << j for j, y in enumerate(points)
                           if in_ball(g, x, y, r, t, side)) for x in points)
                 for side in ("forward", "backward"))


def probe_radii(g, points, t):
    """Each value over the points, the floats just below and above it, a
    radius below the least value and one above the top, and inf."""
    mat, idx = g.matrix(t), [g.index(p) for p in points]
    values = {mat[i][j] for i in idx for j in idx if mat[i][j] == mat[i][j]}
    radii = {5e-324, math.inf, 2.0 * max(values - {math.inf}, default=1.0)}
    for v in values:
        radii |= {v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)}
    radii |= {min(values) / 2.0, math.nextafter(min(values), -math.inf)}
    return sorted(radii)


@pytest.mark.parametrize("name", sorted(GAUGES))
def test_ball_rows_match_brute_force(name):
    for k, g in enumerate(GAUGES[name]()):
        point_lists = (*samples(g), *sequences(g, 1000 + k))
        for points in point_lists:
            queries = [(r, t) for t in probe_scales(g.grid)
                       for r in probe_radii(g, points, t)]
            rng = rng_for(1100 + k)
            shuffled = rng.sample(queries, len(queries))
            for order in (queries, queries[::-1], shuffled):
                balls = topology._BallRows(g, points)
                for r, t in order:
                    key, fwd, bwd = balls.rows(r, t)
                    assert (fwd, bwd) == brute_rows(g, points, r, t), \
                        (g.name, points, r, t)
                    # the key counts the pairs below r
                    assert key[1] == sum(map(int.bit_count, fwd)), \
                        (g.name, points, r, t)


def test_a_scale_and_its_off_grid_half_share_one_sweep():
    # on the grid (1, 3, 4), t = 3 and t/2 = 1.5 both read column 3
    for g in raw_gauges():
        if g.grid.scales != (1.0, 3.0, 4.0):
            continue
        balls = topology._BallRows(g, samples(g)[2])
        for r in probe_radii(g, balls.points, 3.0):
            for t in (3.0, 1.5):
                assert balls.rows(r, t)[1:] == brute_rows(g, balls.points,
                                                          r, t)
            assert balls.rows(r, 3.0)[0] == balls.rows(r, 1.5)[0]
        assert len(balls._sweeps) == 1


# ---------------------------------------------------------------------------
# work: one sort per distinct matrix, one snapshot per (grid column, rank)


@pytest.fixture
def sweeps(monkeypatch):
    """Count sorts (one per sweep built) and rank snapshots."""
    counts = {"sorts": 0, "snapshots": 0}

    class Counted(topology._Sweep):
        def __init__(self, mat, idx):
            counts["sorts"] += 1
            super().__init__(mat, idx)

        def build(self, cut):
            counts["snapshots"] += 1
            return super().build(cut)

    monkeypatch.setattr(topology, "_Sweep", Counted)
    return counts


def column_of(g, t):
    k = g.grid.ceil_index(t)
    return len(g.grid) - 1 if k is None else k


def column_keys(g, points, pairs):
    """Distinct (grid column, rank of r among its finite-or-inf values over
    `points`) keys of the (r, t) pairs of a table gauge."""
    keys = set()
    for r, t in pairs:
        k = column_of(g, t)
        values = sorted({g.table[(x, y)][k] for x in points for y in points})
        keys.add((k, bisect_left(values, r)))
    return keys


def test_row_builds_stay_within_the_distinct_keys(sweeps):
    gauges = [g for name in ("additive", "conorm", "raw", "corrupted")
              for g in GAUGES[name]()]
    totals = dict.fromkeys(sweeps, 0)

    def run(call, g, pairs, columns):
        before = dict(sweeps)
        call()
        sorts = sweeps["sorts"] - before["sorts"]
        snapshots = sweeps["snapshots"] - before["snapshots"]
        # `columns` sorts (one per distinct column a cover reads, none for
        # the Cauchy scan, which reads the matrices), and no snapshot
        # beyond the distinct keys
        assert sorts == columns, g.name
        assert snapshots <= len(column_keys(g, points, pairs)), g.name
        for name, n in (("sorts", sorts), ("snapshots", snapshots)):
            totals[name] += n

    for g in gauges:
        for points in samples(g):
            thresholds = critical_thresholds(g, points, g.grid)
            pairs = thresholds.pairs()
            halves = [(split(g, r), t / 2.0) for r, t in pairs]
            run(lambda: heine_borel_report(g, points, thresholds=thresholds),
                g, pairs + halves,
                len({column_of(g, t) for _, t in pairs + halves}))
        points, thresholds = g.points[::-1] + g.points, critical_thresholds(g)
        run(lambda: classify_cauchy_thresholds(points, g, thresholds),
            g, thresholds.pairs(), 0)
    assert totals["sorts"] > 0 and totals["snapshots"] > 0


def test_a_one_off_entourage_builds_only_the_rank_it_reads(sweeps):
    rng = rng_for(1200)
    points = points_named(64)
    table = {(x, y): (v, v / 2.0) for x in points for y in points if x != y
             for v in [rng.randrange(1, 64) / 8.0]}
    g = GaugeSpec(regime=Regime.ADDITIVE, points=points,
                  grid=ScaleGrid((1.0, 2.0)), table=table)
    rel = entourage(g, 3.0, 1.0, "two_sided")
    assert sweeps == {"sorts": 1, "snapshots": 1}
    assert rel == tuple(map(int.__and__, *brute_rows(g, points, 3.0, 1.0)))

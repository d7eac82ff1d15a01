"""Differential tests for the memoized cover steps.

`heine_borel_report` and `classify_cauchy_thresholds` read their ball rows
from one source per call, which builds each relation once per (grid
column, radius rank), and reuse a row's outcome wherever its relations
repeat.  The oracles are the loops those two replaced: the report loop of
three greedy nets and one composition per threshold pair, and the cover
command's loop of one `classify_cauchy` per pair.  Each loop runs on the
per-pair oracles of test_dense, which read table rows rather than
`matrix`, and again on the public one-shot functions.  The ball rows
themselves are compared with brute force `mat[i][j] < r`, and their work
is counted: one sort per distinct matrix, one snapshot per rank read.
"""

import dataclasses
import math
from bisect import bisect_left

import pytest

from quasimod import (CauchyClassification, CellInclusionError, GaugeSpec,
                      HeineBorelReport, Regime, ScaleGrid,
                      TConorm, classify_cauchy, classify_cauchy_thresholds,
                      critical_thresholds, entourage, greedy_net,
                      heine_borel_report,
                      two_sided_cover_from_onesided)
from quasimod import topology
from quasimod.completeness import HeineBorelRow

from conftest import (ADDITIVE_BUILDERS, corrupt_one_entry, points_named,
                      random_conorm_gauge, rng_for)
from test_dense import (CORPORA, oracle_cauchy, oracle_greedy_net,
                        oracle_two_sided, split_radius)
from test_topology import random_raw_table

CONORMS = (TConorm.MAX, TConorm.PROBABILISTIC_SUM, TConorm.BOUNDED_SUM)


# ---------------------------------------------------------------------------
# oracles: the replaced loops, over per-pair or public steps


def loop_report(g, points, thresholds, net, compose):
    rows = []
    for r, t in thresholds.pairs():
        s = split_radius(g, r)
        fwd = net(points, g, s, t / 2.0, "forward")
        bwd = net(points, g, s, t / 2.0, "backward")
        direct = net(points, g, r, t, "two_sided")
        composed_size, ok, witness = None, fwd.verified and bwd.verified, None
        if ok:
            try:
                composed = compose(g, fwd, bwd, r, t)
                composed_size, ok = len(composed.centers), composed.verified
            except CellInclusionError as exc:
                ok, witness = False, str(exc)
        rows.append(HeineBorelRow(r, t, s, len(fwd.centers), len(bwd.centers),
                                  len(direct.centers), composed_size, ok,
                                  witness))
    return HeineBorelReport(tuple(rows))


def loop_cauchy(seq, g, thresholds, classify):
    rows = []
    for r, t in thresholds.pairs():
        c = classify(seq, g, r, t)
        rows.append({"radius": r, "scale": t, "kind": c.kind,
                     "i0": c.i0, "forward_i0": c.forward_i0,
                     "backward_i0": c.backward_i0})
    return rows


def pair_compose(g, fwd, bwd, r, t):
    out = oracle_two_sided(g, fwd, bwd, r, t)
    if isinstance(out, tuple):
        raise CellInclusionError(*out)
    return out


def pair_classify(seq, g, r, t):
    f, b = oracle_cauchy(seq, g, r, t)
    if f and b:
        return CauchyClassification("bi", max(f, b), f, b)
    if f:
        return CauchyClassification("forward", f, f, None)
    if b:
        return CauchyClassification("backward", b, None, b)
    return CauchyClassification("neither", None, None, None)


ORACLES = {"per_pair": (oracle_greedy_net, pair_compose, pair_classify),
           "public": (greedy_net, two_sided_cover_from_onesided,
                      classify_cauchy)}


def scan_rows(seq, g, thresholds):
    return [{"radius": r, "scale": t, "kind": c.kind, "i0": c.i0,
             "forward_i0": c.forward_i0, "backward_i0": c.backward_i0}
            for r, t, c in classify_cauchy_thresholds(seq, g, thresholds)]


# ---------------------------------------------------------------------------
# gauges


def skew_gauge():
    # w(a, b) = 0 puts b in a's forward cell, but the way back costs 9
    return GaugeSpec(regime=Regime.ADDITIVE, points=("a", "b", "c"),
                     grid=ScaleGrid((1.0, 2.0)),
                     table={("a", "b"): (0.0, 0.0), ("b", "a"): (9.0, 9.0),
                            ("a", "c"): (5.0, 5.0), ("c", "a"): (5.0, 5.0),
                            ("b", "c"): (5.0, 5.0), ("c", "b"): (5.0, 5.0)})


def corrupted_gauges():
    for k in range(8):
        rng = rng_for(900 + k)
        yield corrupt_one_entry(ADDITIVE_BUILDERS[k % 4](
            rng, rng.randrange(3, 6)), rng, bump=8.0)[0]
    for k in range(3):
        rng = rng_for(920 + k)
        yield corrupt_one_entry(random_conorm_gauge(
            rng, rng.randrange(3, 6), TConorm.MAX), rng)[0]
    yield skew_gauge()


def raw_gauges():
    """Tables under no axiom, on their own grid and on one where t/2 of
    the middle scale falls between grid scales."""
    for k, conorm in enumerate((None, *CONORMS, None)):
        rng = rng_for(940 + k)
        g = random_raw_table(rng, rng.randrange(2, 7), conorm)
        yield g
        yield dataclasses.replace(g, grid=ScaleGrid((1.0, 3.0, 4.0)))


GAUGES = {**CORPORA, "raw": raw_gauges, "corrupted": corrupted_gauges}


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


@pytest.mark.parametrize("oracle", sorted(ORACLES))
@pytest.mark.parametrize("name", sorted(GAUGES))
def test_report_matches_the_replaced_loop(name, oracle):
    net, compose, _ = ORACLES[oracle]
    for g in GAUGES[name]():
        for points in samples(g):
            thresholds = critical_thresholds(g, points, g.grid)
            got = heine_borel_report(g, points, thresholds=thresholds)
            want = loop_report(g, points, thresholds, net, compose)
            assert got.rows == want.rows, (g.name, points)
            assert got.all_composed_ok == want.all_composed_ok


@pytest.mark.parametrize("oracle", sorted(ORACLES))
@pytest.mark.parametrize("name", sorted(GAUGES))
def test_cauchy_scan_matches_the_replaced_loop(name, oracle):
    classify = ORACLES[oracle][2]
    for k, g in enumerate(GAUGES[name]()):
        thresholds = critical_thresholds(g)
        for pts in sequences(g, 980 + k):
            assert scan_rows(pts, g, thresholds) == \
                loop_cauchy(pts, g, thresholds, classify), (g.name, pts)


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
    """Forward and backward rows of {(i, j) : mat[i][j] < r} over
    `points`, one pair at a time."""
    mat, idx = g.matrix(t), [g.index(p) for p in points]
    fwd = tuple(sum(1 << b for b, j in enumerate(idx) if mat[i][j] < r)
                for i in idx)
    bwd = tuple(sum(1 << b for b, j in enumerate(idx) if mat[j][i] < r)
                for i in idx)
    return fwd, bwd


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


def probe_scales(g):
    """Grid scales, their halves, and one past the top."""
    return sorted({s for t in g.grid for s in (t, t / 2.0)}
                  | {2.0 * g.grid[-1]})


@pytest.mark.parametrize("name", sorted(GAUGES))
def test_ball_rows_match_brute_force(name):
    for k, g in enumerate(GAUGES[name]()):
        point_lists = (*samples(g), *sequences(g, 1000 + k))
        for points in point_lists:
            queries = [(r, t) for t in probe_scales(g)
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

    def run(call, g, pairs, scales):
        before = dict(sweeps)
        call()
        sorts = sweeps["sorts"] - before["sorts"]
        snapshots = sweeps["snapshots"] - before["snapshots"]
        # one sort per distinct column the scales read, and no snapshot
        # beyond the distinct keys
        assert sorts == len({column_of(g, t) for t in scales}), g.name
        assert snapshots <= len(column_keys(g, points, pairs)), g.name
        for name, n in (("sorts", sorts), ("snapshots", snapshots)):
            totals[name] += n

    for g in gauges:
        for points in samples(g):
            thresholds = critical_thresholds(g, points, g.grid)
            pairs = thresholds.pairs()
            halves = [(split_radius(g, r), t / 2.0) for r, t in pairs]
            run(lambda: heine_borel_report(g, points, thresholds=thresholds),
                g, pairs + halves, [t for _, t in pairs + halves])
        points, thresholds = g.points[::-1] + g.points, critical_thresholds(g)
        run(lambda: classify_cauchy_thresholds(points, g, thresholds),
            g, thresholds.pairs(), thresholds.scales)
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

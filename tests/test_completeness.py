"""Cauchy classification, greedy nets, two-sided covers, and lp tails."""

import itertools
import json

import pytest

from quasimod import (
    CauchyClassification,
    CellInclusionError,
    GaugeSpec,
    Regime,
    ScaleGrid,
    TConorm,
    ThresholdSet,
    TruncatedSequenceFamily,
    ball,
    classify_cauchy,
    classify_cauchy_thresholds,
    converges_to,
    critical_thresholds,
    entourage,
    gauge_to_json,
    generate_topology,
    greedy_net,
    heine_borel_report,
    join_topologies,
    lp_distance,
    lp_family_net,
    lp_tail_criterion,
    transport_total_boundedness,
    two_sided_cover_from_onesided,
)
from quasimod.cli import main
from quasimod.completeness import _HB_KEYS, HeineBorelRow

from conftest import (ADDITIVE_BUILDERS, random_conorm_gauge,
                      random_min_cap_gauge, rng_for)

GRID1 = ScaleGrid((1.0,))


def skew_gauge(near=0.5, far=2.0):
    """w(a, b) = near, w(b, a) = far: cheap one way, expensive back."""
    return GaugeSpec(regime=Regime.ADDITIVE, points=("a", "b"), grid=GRID1,
                     table={("a", "b"): (near,), ("b", "a"): (far,)})


def test_classify_alternating_sequence():
    g = skew_gauge()
    seq = ("a", "b") * 4
    res = classify_cauchy(seq, g, r=1.0, t=1.0)
    # the b->a hops at 2.0 block both directions until the tail runs out of
    # them: forward settles at the last a, backward only at the last point
    assert res.kind == "bi"
    assert res.forward_i0 == 7
    assert res.backward_i0 == 8
    assert res.i0 == 8


def test_classify_block_sequence_shows_the_asymmetry_as_an_i0_gap():
    g = skew_gauge()
    seq = ("a",) * 4 + ("b",) * 4
    res = classify_cauchy(seq, g, r=1.0, t=1.0)
    assert res.kind == "bi"
    assert res.forward_i0 == 1   # a-to-later pairs are always cheap
    assert res.backward_i0 == 5  # looking back across b->a costs 2.0
    assert res.i0 == 5


def test_classify_constant_sequence():
    res = classify_cauchy(("a",) * 5, skew_gauge(), 0.1, 1.0)
    assert res == type(res)("bi", 1, 1, 1)


def test_classify_neither_needs_a_degenerate_tail():
    # only a gauge that keeps the last point away from itself can defeat
    # every tail, since (N, N) belongs to each of them
    g = GaugeSpec(regime=Regime.ADDITIVE, points=("a", "c"), grid=GRID1,
                  table={("a", "c"): (0.1,), ("c", "a"): (0.1,),
                         ("c", "c"): (5.0,)})
    res = classify_cauchy(("a", "c"), g, r=1.0, t=1.0)
    assert res == type(res)("neither", None, None, None)
    with pytest.raises(ValueError, match="radius"):
        classify_cauchy(("a",), g, r=0.0, t=1.0)


# a before b: forward tails start at once, and looking back across the
# b -> a hop at 2.0 waits for the b block; b before a is the mirror image
ONE_SIDED_TAILS = {"forward": (("a",) * 4 + ("b",) * 4, 1, 5),
                   "backward": (("b",) * 4 + ("a",) * 4, 5, 1)}


@pytest.mark.parametrize("lead", sorted(ONE_SIDED_TAILS))
def test_one_sided_tails_agree_across_the_three_paths(tmp_path, lead):
    # the kind stays "bi": both directions hold on the one-point tail
    # (x_N, x_N), so a finite sample tells one-sided Cauchy notions apart
    # only by where their tails start
    seq, forward_i0, backward_i0 = ONE_SIDED_TAILS[lead]
    g = skew_gauge()
    want = CauchyClassification("bi", 5, forward_i0, backward_i0)
    assert classify_cauchy(seq, g, r=1.0, t=1.0) == want
    thresholds = critical_thresholds(g)
    scanned = classify_cauchy_thresholds(seq, g, thresholds)
    assert (1.25, 1.0, want) in scanned
    assert [c for _, _, c in scanned] == \
        [classify_cauchy(seq, g, r, t) for r, t in thresholds.pairs()]
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps({"space": gauge_to_json(g),
                               "sequence": list(seq)}), encoding="utf-8")
    assert main(["cover", "--input", str(src), "--output", str(out)]) == 0
    rows = json.loads(out.read_text(encoding="utf-8"))["cauchy"]
    assert rows == [{"radius": r, "scale": t, "kind": c.kind, "i0": c.i0,
                     "forward_i0": c.forward_i0,
                     "backward_i0": c.backward_i0} for r, t, c in scanned]


def random_raw_gauge(rng, n):
    """A table under no axiom, diagonal included, so "neither" occurs."""
    pts = tuple(f"p{i}" for i in range(n))
    return GaugeSpec(regime=Regime.ADDITIVE, points=pts, grid=GRID1,
                     table={(x, y): (rng.choice((0.0, 1.0, 3.0)),)
                            for x in pts for y in pts})


@pytest.mark.parametrize("seed", range(12))
def test_finite_samples_classify_both_directions_or_neither(seed):
    # row N of either direction holds only the diagonal pair (x_N, x_N), one
    # entry for both, so the "forward" and "backward" kinds never occur
    rng = rng_for(1900 + seed)
    g = rng.choice((*ADDITIVE_BUILDERS, random_raw_gauge))(rng, 4)
    seq = tuple(rng.choice(g.points) for _ in range(rng.randrange(1, 9)))
    kinds = set()
    for _, _, c in classify_cauchy_thresholds(seq, g, critical_thresholds(g)):
        assert (c.forward_i0 is None) == (c.backward_i0 is None), (seed, c)
        kinds.add(c.kind)
    assert kinds <= {"bi", "neither"}


def test_converges_to_needs_a_full_tail():
    g = skew_gauge(near=0.5, far=2.0)
    inward = ("b", "a", "a")
    assert converges_to(inward, g, "a", r=1.0, t=1.0)
    # forward from a reaches b cheaply, so b-tails converge to a forward
    assert converges_to(("b", "b"), g, "a", 1.0, 1.0)
    assert not converges_to(("b", "b"), g, "a", 1.0, 1.0,
                            side="backward")
    # a visit is not a tail
    outward = ("a", "b")
    assert not converges_to(outward, g, "a", 1.0, 1.0, side="backward")


def brute_force_min_cover(points, covers):
    """Smallest center set such that every point lies in some center's ball;
    covers[c] is the set of points c covers."""
    for k in range(1, len(points) + 1):
        for combo in itertools.combinations(points, k):
            if set().union(*(covers[c] for c in combo)) >= set(points):
                return k
    return len(points)


def test_greedy_net_covers_and_is_not_far_from_optimal():
    for seed in range(8):
        rng = rng_for(seed)
        g = random_conorm_gauge(rng, rng.randrange(2, 7), TConorm.MAX)
        r, t = 0.4, 1.0
        for side in ("forward", "backward", "two_sided"):
            net = greedy_net(g.points, g, r, t, side)
            assert net.verified
            assert net.centers[0] == g.points[0]  # first point is uncovered
            assert set(net.centers) <= set(g.points)
            covers = {c: set(ball(g, c, r, t, side)) for c in g.points}
            opt = brute_force_min_cover(g.points, covers)
            assert opt <= len(net.centers)


def test_greedy_net_json_shape():
    g = skew_gauge()
    net = greedy_net(("a", "b"), g, 3.0, 1.0)
    assert (net.centers, net.radius_r, net.scale_t, net.side, net.verified) \
        == (("a",), 3.0, 1.0, "forward", True)


def test_two_sided_cover_composes_on_symmetric_corpora():
    for seed in range(6):
        rng = rng_for(seed)
        g = random_conorm_gauge(rng, rng.randrange(2, 6), TConorm.MAX,
                                symmetric=True)
        r, t = 0.5, 2.0
        s = g.conorm.half_radius(r)
        fwd = greedy_net(g.points, g, s, t / 2, "forward")
        bwd = greedy_net(g.points, g, s, t / 2, "backward")
        cover = two_sided_cover_from_onesided(g, fwd, bwd, r, t)
        assert cover.verified
        assert cover.side == "two_sided"
        assert set(cover.centers) <= set(g.points)


def test_two_sided_cover_validates_its_inputs():
    g = skew_gauge()
    fwd = greedy_net(("a", "b"), g, 0.2, 1.0, "forward")
    bwd = greedy_net(("a", "b"), g, 0.2, 1.0, "backward")
    with pytest.raises(ValueError, match="forward cover"):
        two_sided_cover_from_onesided(g, bwd, fwd, 1.0, 2.0)
    with pytest.raises(ValueError, match="scale t/2"):
        two_sided_cover_from_onesided(g, fwd, bwd, 1.0, 4.0)
    with pytest.raises(ValueError, match="share one radius"):
        other = greedy_net(("a", "b"), g, 0.3, 1.0, "backward")
        two_sided_cover_from_onesided(g, fwd, other, 1.0, 2.0)
    with pytest.raises(ValueError, match="split radius fails"):
        wide_f = greedy_net(("a", "b"), g, 0.6, 1.0, "forward")
        wide_b = greedy_net(("a", "b"), g, 0.6, 1.0, "backward")
        two_sided_cover_from_onesided(g, wide_f, wide_b, 1.0, 2.0)


EMPTY = "a sampled sequence needs at least one point"


def _error_cases():
    g = skew_gauge()
    fwd = greedy_net(("a", "b"), g, 0.2, 1.0, "forward")
    bwd = greedy_net(("a", "b"), g, 0.2, 1.0, "backward")
    one = generate_topology([], ("a",))
    return {
        "unverified-cover": (lambda: two_sided_cover_from_onesided(
            g, fwd._replace(verified=False), bwd, 1.0, 2.0),
            "both one-sided covers must be verified"),
        "different-samples": (lambda: two_sided_cover_from_onesided(
            g, fwd, greedy_net(("a",), g, 0.2, 1.0, "backward"), 1.0, 2.0),
            "must cover the same sample"),
        "table-value": (lambda: GaugeSpec(
            regime=Regime.ADDITIVE, points=("a", "b"), grid=GRID1,
            table={("a", "b"): (-1.0,), ("b", "a"): (1.0,)}),
            r"table value for \('a', 'b'\)"),
        "join-points": (lambda: join_topologies(
            one, generate_topology([], ("b",))), "different point sets"),
        "entourage-radius": (lambda: entourage(g, 0.0, 1.0),
                             "radius must be positive"),
        "ball-radius": (lambda: ball(g, "a", -1.0, 1.0),
                        "radius must be positive"),
        "ball-centre": (lambda: ball(g, "zz", 1.0, 1.0),
                        "unknown point 'zz'"),
        "net-radius": (lambda: greedy_net(("a", "b"), g, 0.0, 1.0),
                       "radius must be positive"),
        "converges-radius": (lambda: converges_to(("a",), g, "a", -1.0, 1.0),
                             "radius must be positive"),
        "classify-radius": (lambda: classify_cauchy(("a",), g, 0.0, 1.0),
                            "radius must be positive"),
        "scan-radius": (lambda: classify_cauchy_thresholds(
            ("a",), g, ThresholdSet((-1.0,), g.grid)),
            "radius must be positive"),
        "empty-classify": (lambda: classify_cauchy((), g, 1.0, 1.0), EMPTY),
        "empty-scan": (lambda: classify_cauchy_thresholds(
            [], g, critical_thresholds(g)), EMPTY),
        "empty-converges": (lambda: converges_to((), g, "a", 1.0, 1.0),
                            EMPTY),
    }


@pytest.mark.parametrize("case", sorted(_error_cases()))
def test_refusals_name_their_cause(case):
    call, message = _error_cases()[case]
    with pytest.raises(ValueError, match=message):
        call()


def test_cell_escape_raises_with_the_witness():
    # w(a, b) = 0 pulls b into every forward cell of a, but the way back
    # costs 9: the composed cell cannot sit inside any two-sided ball
    g = GaugeSpec(regime=Regime.ADDITIVE, points=("a", "b"),
                  grid=ScaleGrid((1.0, 2.0)),
                  table={("a", "b"): (0.0, 0.0), ("b", "a"): (9.0, 9.0)})
    fwd = greedy_net(("a", "b"), g, 0.25, 1.0, "forward")
    bwd = greedy_net(("a", "b"), g, 0.25, 1.0, "backward")
    with pytest.raises(CellInclusionError) as exc:
        two_sided_cover_from_onesided(g, fwd, bwd, 1.0, 2.0)
    assert exc.value.z == "a"
    assert exc.value.u == "b"
    assert exc.value.lhs_back == 9.0


def test_transport_pulls_a_net_back():
    source = ("s0", "s1", "s2", "s3")
    image = ("i0", "i1", "i2", "i3")
    coords = {"s0": 0.0, "s1": 0.1, "s2": 1.0, "s3": 1.05, "i0": 0.0,
              "i1": 0.05, "i2": 0.5, "i3": 0.525}
    d = lambda a, b: abs(coords[a] - coords[b])
    # image halves distances: delta = eps/2 makes the modulus condition exact
    res = transport_total_boundedness(source, image, d, d, eps=0.4, delta=0.2)
    assert res.verified
    assert res.source_centers == ("s0", "s2")
    assert res.image_centers == ("i0", "i2")


def test_transport_rejects_a_modulus_violation():
    source = ("s0", "s1")
    image = ("i0", "i1")
    src = lambda a, b: 0.0 if a == b else 5.0
    img = lambda a, b: 0.0 if a == b else 0.1
    with pytest.raises(ValueError, match="modulus condition"):
        transport_total_boundedness(source, image, src, img, eps=1.0,
                                    delta=1.0)
    with pytest.raises(ValueError, match="paired lists"):
        transport_total_boundedness(("s0",), image, src, img, 1.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        transport_total_boundedness(source, image, src, img, 0.0, 1.0)


def test_family_padding_and_validation():
    fam = TruncatedSequenceFamily(((1.0, 2.0), (3.0,)), p=2.0)
    assert fam.members == ((1.0, 2.0), (3.0, 0.0))
    assert fam.length == 2
    with pytest.raises(ValueError, match="nonempty"):
        TruncatedSequenceFamily((), p=2.0)
    with pytest.raises(ValueError, match="exponent"):
        TruncatedSequenceFamily(((1.0,),), p=0.5)
    with pytest.raises(ValueError, match="at least one coordinate"):
        TruncatedSequenceFamily(((), ()), p=2.0)


def test_lp_distance_pinned():
    assert lp_distance((0.0, 0.0), (3.0, 4.0), 2.0) == 5.0
    assert lp_distance((1.0,), (4.0,), 1.0) == 3.0


def test_tail_criterion_finds_the_uniform_index():
    basis = TruncatedSequenceFamily(
        ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), p=2.0)
    report = lp_tail_criterion(basis, eps=0.5)
    assert report.verdict and report.tail_index == 3
    assert report.pointwise_bounded
    assert report.sup_vector == (1.0, 1.0, 1.0)
    assert report.witness is None
    # with a tighter budget the spike at position 2 survives as the witness
    short = lp_tail_criterion(basis, eps=0.5, n_max=1)
    assert not short.verdict and short.tail_index is None
    assert short.witness == (1, 1, 1.0)
    with pytest.raises(ValueError, match="n_max"):
        lp_tail_criterion(basis, eps=0.5, n_max=7)
    with pytest.raises(ValueError, match="eps"):
        lp_tail_criterion(basis, eps=0.0)


def test_family_net_is_a_2eps_net():
    rng = rng_for(11)
    for _ in range(20):
        p = rng.choice((1.0, 2.0, 3.0))
        members = tuple(
            tuple(rng.randrange(-8, 9) / 4 for _ in range(rng.randrange(1, 9)))
            for _ in range(rng.randrange(1, 6)))
        fam = TruncatedSequenceFamily(members, p=p)
        eps = rng.choice((0.5, 1.0, 2.0))
        report = lp_tail_criterion(fam, eps)
        assert report.verdict  # no budget: truncation always satisfies it
        net = lp_family_net(fam, eps, report.tail_index)
        assert net.verified
        assert net.radius == 2 * eps
        assert net.worst_distance < 2 * eps
        assert all(lp_distance(m, min(net.centers,
                                      key=lambda c: lp_distance(m, c, p)),
                               p) < 2 * eps for m in fam.members)


def test_family_net_rejects_an_unsafe_cut():
    fam = TruncatedSequenceFamily(((0.0, 0.0, 2.0),), p=2.0)
    with pytest.raises(ValueError, match="tail sum"):
        lp_family_net(fam, eps=0.5, n=1)
    with pytest.raises(ValueError, match="eps must be positive"):
        lp_family_net(fam, eps=0.0, n=1)
    with pytest.raises(ValueError, match=r"n must lie in \[0, 3\]"):
        lp_family_net(fam, eps=0.5, n=4)


def test_heine_borel_report_composes_on_symmetric_corpora():
    for seed in range(4):
        rng = rng_for(seed)
        g = random_conorm_gauge(rng, rng.randrange(2, 5),
                                TConorm.PROBABILISTIC_SUM, symmetric=True)
        report = heine_borel_report(g)
        assert report.rows
        assert report.all_composed_ok is True
        # `cover` writes each row under these keys, one per field
        keys = dict(zip(_HB_KEYS, report.rows[0]))
        assert {"radius", "scale", "split", "composed_ok"} <= set(keys)
        assert len(_HB_KEYS) == len(HeineBorelRow._fields)


def test_heine_borel_report_records_cell_escapes_per_row():
    g = GaugeSpec(regime=Regime.ADDITIVE, points=("a", "b"),
                  grid=ScaleGrid((1.0, 2.0)),
                  table={("a", "b"): (0.0, 0.0), ("b", "a"): (9.0, 9.0)})
    report = heine_borel_report(g)
    assert not report.all_composed_ok
    failed = [row for row in report.rows if not row.composed_ok]
    assert failed and all("escapes" in row.witness for row in failed)
    # larger radii swallow the asymmetry and still compose
    assert any(row.composed_ok for row in report.rows)


def test_additive_greedy_nets_on_min_cap_corpora():
    for seed in range(5):
        rng = rng_for(seed)
        g = random_min_cap_gauge(rng, rng.randrange(2, 7))
        top = g.grid[0]
        net = greedy_net(g.points, g, r=top + 1.0, t=top, side="two_sided")
        assert net.verified and net.centers == (g.points[0],)
        tight = greedy_net(g.points, g, r=0.25, t=top)
        assert tight.verified and set(tight.centers) == set(g.points)
"""Entourages, finite ball topologies, and the quasi-uniformity laws."""

import time

import pytest

from quasimod import (
    INF,
    GaugeSpec,
    Regime,
    ScaleGrid,
    TConorm,
    ball,
    compose,
    critical_thresholds,
    entourage,
    generate_topology,
    join_topologies,
    quasi_uniformity_report,
    small_composite_check,
    verify_join_equality,
)

from conftest import (ADDITIVE_BUILDERS, members, random_conorm_gauge,
                      random_graph_gauge, random_raw_table, rng_for,
                      transpose)
from reference import closure, in_ball, topologies


def random_subbase(rng, n):
    return [rng.randrange(0, 1 << n) for _ in range(rng.randrange(0, 2 * n))]


def random_relation(rng, n):
    return tuple(rng.randrange(0, 1 << n) for _ in range(n))


def pairs(rows):
    return {(i, j) for i, row in enumerate(rows) for j in range(len(rows))
            if row & (1 << j)}


def test_compose_matches_set_oracle():
    for seed in range(25):
        rng = rng_for(seed)
        r1, r2 = random_relation(rng, 4), random_relation(rng, 4)
        via = compose(r1, r2)
        expected = {(x, z) for x, y in pairs(r1) for y2, z in pairs(r2)
                    if y == y2}
        assert pairs(via) == expected
        # associativity
        r3 = random_relation(rng, 4)
        assert compose(compose(r1, r2), r3) == compose(r1, compose(r2, r3))
    with pytest.raises(ValueError, match="different point sets"):
        compose((0, 0, 0), (0, 0))


def test_entourage_sides_are_transposes():
    g = random_conorm_gauge(rng_for(2), 4, TConorm.MAX)
    fwd = entourage(g, 0.5, 1.0, "forward")
    bwd = entourage(g, 0.5, 1.0, "backward")
    two = entourage(g, 0.5, 1.0, "sym")
    assert bwd == transpose(fwd)
    assert two == tuple(a & b for a, b in zip(fwd, bwd))
    assert all(row & (1 << i) for i, row in enumerate(fwd))  # the diagonal
    with pytest.raises(ValueError, match="side must be one of"):
        entourage(g, 0.5, 1.0, "sideways")
    # a conorm radius of 1 or more is a radius too: the pairs below it
    for side in ("forward", "backward", "two_sided"):
        assert entourage(g, 1.5, 1.0, side) == tuple(
            sum(1 << j for j, y in enumerate(g.points)
                if in_ball(g, x, y, 1.5, 1.0, side)) for x in g.points)


def test_ball_is_strict_and_one_sided():
    table = {("a", "b"): (0.5,), ("b", "a"): (0.25,)}
    g = GaugeSpec(regime=Regime.ADDITIVE, points=("a", "b"),
                  grid=ScaleGrid((1.0,)), table=table)
    assert ball(g, "a", 0.5, 1.0) == ("a",)          # strict: 0.5 is out
    assert ball(g, "a", 0.51, 1.0) == ("a", "b")
    assert ball(g, "a", 0.3, 1.0, "backward") == ("a", "b")
    assert ball(g, "a", 0.3, 1.0, "sym") == ("a",)


def test_critical_thresholds_realize_every_ball():
    # dense radius sweep as the oracle: every strict ball at any radius must
    # already occur at one of the listed radii
    for conorm in (TConorm.MAX, TConorm.BOUNDED_SUM):
        for seed in range(4):
            rng = rng_for(seed)
            g = random_conorm_gauge(rng, rng.randrange(2, 5), conorm)
            ts = critical_thresholds(g)
            for side in ("forward", "backward", "two_sided"):
                for t in g.grid:
                    listed = {x: {ball(g, x, r, t, side) for r in ts.radii}
                              for x in g.points}
                    for k in range(1, 200):
                        r = k / 200
                        for x in g.points:
                            assert ball(g, x, r, t, side) in listed[x]


def test_critical_thresholds_fallback_for_degenerate_gauges():
    g = GaugeSpec(regime=Regime.ADDITIVE, points=("a",),
                  grid=ScaleGrid((1.0,)), table={("a", "a"): (0.0,)})
    assert critical_thresholds(g).radii == (1.0,)
    c = GaugeSpec(regime=Regime.CONORM, points=("a",), conorm=TConorm.MAX,
                  grid=ScaleGrid((1.0,)), table={("a", "a"): (0.0,)})
    assert critical_thresholds(c).radii == (0.5,)


def test_critical_thresholds_top_radius_exceeds_huge_values():
    # from 2**53 on, top + 1.0 == top, and a ball at that radius would miss
    # the top value
    table = {("a", "b"): (1e17,), ("b", "a"): (1.0,)}
    g = GaugeSpec(regime=Regime.ADDITIVE, points=("a", "b"),
                  grid=ScaleGrid((1.0,)), table=table)
    assert ball(g, "a", max(critical_thresholds(g).radii), 1.0) == ("a", "b")


def test_generate_topology_closure_properties():
    pts = ("a", "b", "c")
    topo = generate_topology([("a",), ("a", "b")], pts)
    assert topo.is_open(()) and topo.is_open(pts)
    assert topo.is_open(("a",)) and topo.is_open(("a", "b"))
    assert not topo.is_open(("b",))
    # unions of opens are open
    for u in topo.opens:
        for v in topo.opens:
            assert (u | v) in topo.opens
    assert topo.open_sets()[0] == ()
    with pytest.raises(ValueError, match="outside the point set"):
        generate_topology([("z",)], pts)
    # generating is polynomial at any size; only listing the opens is capped
    big = generate_topology([], tuple(range(17)))
    with pytest.raises(ValueError, match="cap"):
        big.opens


def test_generate_topology_closes_a_subbase_under_intersection():
    # {a, b} and {b, c} are open, so {b} must be too: unions alone miss it
    pts = ("a", "b", "c")
    topo = generate_topology([("a", "b"), ("b", "c")], pts)
    assert topo.opens == {0b000, 0b010, 0b011, 0b110, 0b111}
    assert topo.is_open(("b",)) and not topo.is_open(("a",))
    assert topo.to_json() == [[], ["b"], ["a", "b"], ["b", "c"],
                              ["a", "b", "c"]]


def test_generate_and_join_match_the_closure_oracle():
    for seed in range(60):
        rng = rng_for(seed)
        n = rng.randrange(2, 6)
        pts = tuple(range(n))
        base1, base2 = random_subbase(rng, n), random_subbase(rng, n)
        t1 = generate_topology([members(pts, m) for m in base1], pts)
        t2 = generate_topology([members(pts, m) for m in base2], pts)
        assert t1.opens == closure(n, base1), (seed, base1)
        assert t2.opens == closure(n, base2), (seed, base2)
        assert join_topologies(t1, t2).opens == closure(
            n, closure(n, base1) | closure(n, base2)), seed
        for mask in range(1 << n):
            assert t1.is_open(members(pts, mask)) == (mask in t1.opens)


def test_join_report_matches_the_closure_oracle_on_corpora():
    # the oracle is the threshold definition: strict balls at every critical
    # radius, decided one pair at a time; each gauge is also read on a
    # proper subset of its points and on a grid with one scale between two
    # of its own and one past its top
    gauges = []
    for seed in range(4):
        rng = rng_for(seed)
        gauges += [random_conorm_gauge(rng, rng.randrange(2, 6), conorm)
                   for conorm in TConorm]
        gauges += [build(rng, rng.randrange(2, 6))
                   for build in ADDITIVE_BUILDERS]
        gauges += [random_raw_table(rng, rng.randrange(2, 6), conorm)
                   for conorm in (None, *TConorm)]
    for g in gauges:
        s = g.grid.scales
        subset = tuple(p for k, p in enumerate(g.points)
                       if k != len(g.points) // 2)
        wide = ScaleGrid(((s[0] + s[1]) / 2, 2 * s[-1]))
        for pts, grid in ((g.points, g.grid), (subset, wide)):
            report = verify_join_equality(g, pts, grid)
            got = (report.tau_plus, report.tau_minus, report.join,
                   report.tau_sym)
            assert [topo.opens for topo in got] == [
                closure(len(pts), hoods)
                for hoods in topologies(g, pts, grid)], (g.name, pts, grid)
            assert report.equal == (report.join.opens == report.tau_sym.opens)


def corpus_builders():
    """One builder per family of the corpora: additive, conorm and raw."""
    yield from ADDITIVE_BUILDERS
    for conorm in TConorm:
        yield lambda rng, n, c=conorm: random_conorm_gauge(rng, n, c)
    for conorm in (None, *TConorm):
        yield lambda rng, n, c=conorm: random_raw_table(rng, n, c)


def test_topologies_above_the_listing_cap_match_the_reference():
    # past 16 points the hoods are decided as below it; the reference ANDs
    # the strict balls at every critical threshold around each point
    for k, build in enumerate(corpus_builders()):
        rng = rng_for(1700 + k)
        g = build(rng, 17 + k % 8)
        report = verify_join_equality(g)
        assert (report.tau_plus.hoods, report.tau_minus.hoods,
                report.join.hoods, report.tau_sym.hoods) == topologies(g), \
            g.name
        assert report.equal == (report.join.hoods == report.tau_sym.hoods)
        for listing in (lambda: report.join.opens, report.join.open_sets,
                        report.to_json):
            with pytest.raises(ValueError, match="16-point cap"):
                listing()
    g = random_graph_gauge(rng_for(1764), 64)
    start = time.perf_counter()
    verify_join_equality(g)
    assert time.perf_counter() - start < 1.0


def test_ball_topologies_depend_only_on_the_order_of_values():
    # only the order of the values matters; from 2**53 on top + 1.0 == top,
    # so a top radius of top + 1.0 would miss the ball {a, b} at w(a, b)
    def gauge(v):
        table = {("a", "b"): (v,), ("a", "c"): (INF,), ("b", "a"): (0.0,),
                 ("b", "c"): (0.0,), ("c", "a"): (INF,), ("c", "b"): (INF,)}
        return GaugeSpec(regime=Regime.ADDITIVE, points=("a", "b", "c"),
                         grid=ScaleGrid((1.0,)), table=table)

    small = verify_join_equality(gauge(1e3))
    huge = verify_join_equality(gauge(1e17))
    assert small.tau_plus.hoods == (0b001, 0b011, 0b100)
    assert huge.tau_plus.hoods == small.tau_plus.hoods
    assert huge.tau_minus.hoods == small.tau_minus.hoods
    assert huge.tau_sym.hoods == small.tau_sym.hoods


def test_ball_topologies_are_intersection_stable():
    # same-scale closed corpora: pairwise intersections of opens stay open,
    # which is what makes the ball family an honest topology base
    for conorm in TConorm:
        for seed in range(4):
            rng = rng_for(seed)
            g = random_conorm_gauge(rng, rng.randrange(2, 5), conorm)
            ts = critical_thresholds(g)
            topo = generate_topology(
                [ball(g, x, r, t, "forward") for x in g.points
                 for r, t in ts.pairs()], g.points)
            for u in topo.opens:
                for v in topo.opens:
                    assert (u & v) in topo.opens


def test_join_of_identical_topologies_is_idempotent():
    pts = ("a", "b", "c")
    topo = generate_topology([("a",), ("b", "c")], pts)
    assert join_topologies(topo, topo).opens == topo.opens
    discrete = generate_topology([("a",), ("b",), ("c",)], pts)
    assert join_topologies(topo, discrete).opens == discrete.opens


def test_two_point_asymmetric_example():
    # w(a, b) = 0 glues b onto a in the forward topology and conversely;
    # the join separates the points again, matching the symmetrized gauge
    table = {("a", "b"): (0.0,), ("b", "a"): (1.0,)}
    g = GaugeSpec(regime=Regime.ADDITIVE, points=("a", "b"),
                  grid=ScaleGrid((1.0,)), table=table)
    report = verify_join_equality(g)
    assert report.tau_plus.to_json() == [[], ["b"], ["a", "b"]]
    assert report.tau_minus.to_json() == [[], ["a"], ["a", "b"]]
    assert report.join.to_json() == [[], ["a"], ["b"], ["a", "b"]]
    assert report.equal
    assert report.to_json()["join_equals_sym"] is True


def test_join_equality_on_conorm_corpora():
    for conorm in TConorm:
        for seed in range(8):
            rng = rng_for(seed)
            g = random_conorm_gauge(rng, rng.randrange(2, 6), conorm)
            report = verify_join_equality(g)
            assert report.equal, (conorm, seed)


def test_small_composite_clean_on_corpora():
    for conorm in TConorm:
        for seed in range(6):
            rng = rng_for(seed)
            g = random_conorm_gauge(rng, rng.randrange(2, 6), conorm)
            report = small_composite_check(g)
            assert report.ok, (conorm, seed, report.violations[:2])
            assert any("thresholds checked" in n for n in report.notes)


def test_small_composite_flags_a_planted_shortcut():
    pts = ("x", "y", "z")
    row = lambda v: (v, v)
    # cheap hops x->y->z but an expensive direct edge: composing the two
    # small entourages escapes the big one
    table = {("x", "y"): row(0.1), ("y", "z"): row(0.1), ("x", "z"): row(0.9),
             ("y", "x"): row(0.9), ("z", "y"): row(0.9), ("z", "x"): row(0.9)}
    g = GaugeSpec(regime=Regime.CONORM, points=pts, conorm=TConorm.MAX,
                  grid=ScaleGrid((1.0, 2.0)), table=table)
    report = small_composite_check(g)
    bad = report.by_axiom("small-composite")
    assert bad
    assert {v.witness[0] for v in bad} == {"forward", "backward"}
    assert all(v.witness[1] == "x" and v.witness[2] == "z"
               or v.witness[1] == "z" and v.witness[2] == "x" for v in bad)


def test_quasi_uniformity_report_clean_on_corpora():
    rng = rng_for(5)
    g = random_conorm_gauge(rng, 4, TConorm.MAX)
    report = quasi_uniformity_report(g)
    assert report.ok
    assert report.checked == ("diagonal", "refinement", "small-composite")
    assert any("upward closure" in n for n in report.notes)


def test_refinement_flags_a_scale_monotonicity_defect():
    # w(a, b) grows from 0.2 to 0.9 across scales, so the entourage at the
    # small scale is not refined by the one at the large scale
    table = {("a", "b"): (0.2, 0.9, 0.9), ("b", "a"): (0.3, 0.3, 0.3)}
    g = GaugeSpec(regime=Regime.CONORM, points=("a", "b"), conorm=TConorm.MAX,
                  grid=ScaleGrid((0.5, 1.0, 2.0)), table=table)
    report = quasi_uniformity_report(g)
    assert not report.ok
    bad = report.by_axiom("refinement")
    assert any(v.witness[:2] == ("a", "b") and v.witness[3:] == (0.5, 1.0)
               for v in bad)


def test_diagonal_violation_is_reported():
    table = {("a", "a"): (0.4,), ("a", "b"): (0.5,), ("b", "a"): (0.5,)}
    g = GaugeSpec(regime=Regime.CONORM, points=("a", "b"), conorm=TConorm.MAX,
                  grid=ScaleGrid((1.0,)), table=table)
    report = quasi_uniformity_report(g)
    diag = report.by_axiom("diagonal")
    assert diag and diag[0].witness[0] == "a"


def test_regime_guards():
    g = GaugeSpec(regime=Regime.ADDITIVE, points=("a",),
                  grid=ScaleGrid((1.0,)), table={("a", "a"): (0.0,)})
    with pytest.raises(ValueError, match="conorm-regime"):
        small_composite_check(g)
    with pytest.raises(ValueError, match="conorm-regime"):
        quasi_uniformity_report(g)

"""Ball topologies from column dominance, and their open-set listing, against
brute-force oracles."""

from quasimod import (INF, GaugeSpec, Regime, ScaleGrid, TConorm,
                      generate_topology, quasi_uniformity_report,
                      small_composite_check, verify_join_equality)
from quasimod import topology
from quasimod.topology import FiniteTopology, JoinReport

from conftest import members, random_conorm_gauge, random_raw_table, rng_for
from reference import closure, listing, topologies


def test_listing_matches_the_sorted_closure_oracle():
    # names that sort against their positions, so only positions can order
    # a listing; past five points a few base sets keep the oracle small
    for seed in range(120):
        rng = rng_for(4000 + seed)
        n = seed % 17
        pts = tuple(f"p{n - i}" for i in range(n))
        count = rng.randrange(2 * n + 1) if n <= 5 else rng.randrange(4)
        base = [rng.randrange(1 << n) for _ in range(count)]
        topo = generate_topology([members(pts, m) for m in base], pts)
        want = listing(pts, closure(n, base))
        assert topo.to_json() == want, (n, base)
        assert topo.open_sets() == [tuple(s) for s in want], (n, base)


def test_topologies_with_equal_hoods_share_one_listing():
    pts = ("a", "b", "c")
    coarse = FiniteTopology(pts, (0b111, 0b111, 0b111))
    fine = FiniteTopology(pts, (0b001, 0b010, 0b110))
    same = JoinReport(fine, coarse, fine, fine, True).to_json()
    assert same["tau_sym"] is same["join"] is same["tau_plus"]
    assert same["tau_minus"] == [[], ["a", "b", "c"]]
    apart = JoinReport(fine, coarse, fine, coarse, False).to_json()
    assert apart["join"] == fine.to_json() == [[], ["a"], ["b"], ["a", "b"],
                                               ["b", "c"], ["a", "b", "c"]]
    assert apart["tau_sym"] == coarse.to_json() == [[], ["a", "b", "c"]]
    # gauges: each listing is its own hoods' listing, shared exactly when
    # the hoods agree
    seen = set()
    for seed in range(40):
        rng = rng_for(seed)
        g = random_raw_table(rng, rng.randrange(2, 6), (None, *TConorm)[seed % 4])
        report = verify_join_equality(g)
        doc = report.to_json()
        topos = {key: getattr(report, key)
                 for key in ("tau_plus", "tau_minus", "join", "tau_sym")}
        for key, topo in topos.items():
            assert doc[key] == topo.to_json(), (g.name, key)
            for other, them in topos.items():
                assert (doc[key] is doc[other]) == (topo.hoods == them.hoods)
        assert (doc["tau_sym"] is doc["join"]) == report.equal
        seen.add(report.equal)
    assert seen == {True, False}


def test_values_at_the_cap_bound_no_hood():
    # w(a, b) = inf puts b in no ball around a, so w(a, c) = inf keeps c
    # out of no hood of b: b's smallest open set is {b, c}
    w = {("a", "a"): 0.0, ("a", "b"): INF, ("a", "c"): INF,
         ("b", "a"): 1.0, ("b", "b"): 0.0, ("b", "c"): 0.0,
         ("c", "a"): 1.0, ("c", "b"): 1.0, ("c", "c"): 0.0}
    g = GaugeSpec(regime=Regime.ADDITIVE, points=("a", "b", "c"),
                  grid=ScaleGrid((1.0,)), fn=lambda x, y, t: w[(x, y)])
    report = verify_join_equality(g)
    assert (report.tau_plus.hoods, report.tau_minus.hoods,
            report.join.hoods, report.tau_sym.hoods) == topologies(g)
    assert report.tau_plus.hoods[1] == 0b110


def test_quasi_uniformity_report_sorts_each_matrix_once(monkeypatch):
    g = random_conorm_gauge(rng_for(5), 5, TConorm.MAX)
    plain = quasi_uniformity_report(g)
    built = []

    class CountingSweep(topology._Sweep):
        def __init__(self, mat, idx):
            built.append(id(mat))
            super().__init__(mat, idx)

    monkeypatch.setattr(topology, "_Sweep", CountingSweep)
    report = quasi_uniformity_report(g)
    assert len(built) == len(g.grid) == 3
    assert report == plain
    # the shared rows give the standalone check's violations, in its order
    pts, row = ("x", "y", "z"), lambda v: (v, v)
    table = {("x", "y"): row(0.1), ("y", "z"): row(0.1), ("x", "z"): row(0.9),
             ("y", "x"): row(0.9), ("z", "y"): row(0.9), ("z", "x"): row(0.9)}
    shortcut = GaugeSpec(regime=Regime.CONORM, points=pts, conorm=TConorm.MAX,
                         grid=ScaleGrid((1.0, 2.0)), table=table)
    composite = quasi_uniformity_report(shortcut).by_axiom("small-composite")
    assert composite and tuple(composite) == small_composite_check(
        shortcut).violations

"""Gauge construction, evaluation semantics, the range rule, and the JSON
wire format."""

import math
import re

import pytest

from quasimod import extreal
from quasimod import (
    INF,
    GaugeSpec,
    Profile,
    Regime,
    ScaleGrid,
    TConorm,
    Violation,
    check_axioms,
    classify_cauchy,
    entourage,
    gauge_from_json,
    gauge_to_json,
    heine_borel_report,
    luxemburg_distance,
    make_classical_modular,
    make_min_cap,
    make_one_sided_integral,
    make_ratio,
    make_scaled_metric,
    make_sublinear,
    opposite,
    quasi_pseudometric_check,
    quasi_uniformity_report,
    symmetrize,
    verify_join_equality,
)

from conftest import (
    ADDITIVE_BUILDERS,
    points_named,
    random_conorm_gauge,
    random_quasi_pseudometric,
    rng_for,
)

GRID = ScaleGrid((1.0, 2.0, 4.0))


def two_point_table():
    return {("a", "a"): (0.0,) * 3, ("a", "b"): (0.75, 0.5, 0.25),
            ("b", "a"): (0.5, 0.5, 0.5), ("b", "b"): (0.0,) * 3}


def test_spec_validation():
    with pytest.raises(ValueError, match="nonempty"):
        GaugeSpec(regime=Regime.ADDITIVE, points=(), fn=lambda x, y, t: 0.0)
    with pytest.raises(ValueError, match="distinct"):
        GaugeSpec(regime=Regime.ADDITIVE, points=("a", "a"),
                  fn=lambda x, y, t: 0.0)
    with pytest.raises(ValueError, match="TConorm"):
        GaugeSpec(regime=Regime.CONORM, points=("a",), fn=lambda x, y, t: 0.0)
    with pytest.raises(ValueError, match="exactly one"):
        GaugeSpec(regime=Regime.ADDITIVE, points=("a",))
    with pytest.raises(ValueError, match="exactly one"):
        GaugeSpec(regime=Regime.ADDITIVE, points=("a",),
                  fn=lambda x, y, t: 0.0, table={("a", "a"): (0.0,)})
    with pytest.raises(ValueError, match="needs a grid"):
        GaugeSpec(regime=Regime.ADDITIVE, points=("a",),
                  table={("a", "a"): (0.0,)})
    with pytest.raises(ValueError, match="missing the pair"):
        GaugeSpec(regime=Regime.ADDITIVE, points=("a", "b"), grid=GRID,
                  table={("a", "a"): (0.0,) * 3, ("b", "b"): (0.0,) * 3,
                         ("b", "a"): (1.0,) * 3})
    with pytest.raises(ValueError, match="3 values"):
        GaugeSpec(regime=Regime.ADDITIVE, points=("a",), grid=GRID,
                  table={("a", "a"): (0.0, 0.0)})
    with pytest.raises(ValueError, match=r"within \[0, 1\]"):
        GaugeSpec(regime=Regime.CONORM, points=("a", "b"), conorm=TConorm.MAX,
                  grid=GRID, table={("a", "b"): (0.5, 0.5, 1.5),
                                    ("b", "a"): (0.5,) * 3})


def test_missing_diagonal_rows_default_to_zero():
    g = GaugeSpec(regime=Regime.ADDITIVE, points=("a", "b"), grid=GRID,
                  table={("a", "b"): (1.0,) * 3, ("b", "a"): (2.0,) * 3})
    assert g.value("a", "a", 1.0) == 0.0
    assert g.value("b", "b", 4.0) == 0.0


def test_value_uses_ceil_scale_and_saturates_past_the_grid():
    g = GaugeSpec(regime=Regime.ADDITIVE, points=("a", "b"), grid=GRID,
                  table=two_point_table())
    assert g.value("a", "b", 0.5) == 0.75   # below the grid: first scale
    assert g.value("a", "b", 1.0) == 0.75
    assert g.value("a", "b", 1.5) == 0.5    # rounds up to t = 2
    assert g.value("a", "b", 3.0) == 0.25
    assert g.value("a", "b", 50.0) == 0.25  # past the grid: last scale
    with pytest.raises(ValueError, match="positive"):
        g.value("a", "b", 0.0)
    with pytest.raises(ValueError, match="unknown point"):
        g.value("a", "c", 1.0)


def test_tabulated_materializes_closed_forms():
    g = GaugeSpec(regime=Regime.ADDITIVE, points=("a", "b"), grid=GRID,
                  fn=lambda x, y, t: 0.0 if x == y else min(3.0, t))
    tab = g.tabulated()
    assert tab.table[("a", "b")] == (1.0, 2.0, 3.0)
    assert tab.tabulated() is tab  # same grid: no copy
    assert tab.tabulated(ScaleGrid((8.0,))).table[("a", "b")] == (3.0,)
    with pytest.raises(ValueError, match="no grid to tabulate on"):
        g._replace(grid=None).tabulated()


def test_quasi_pseudometric_violations_witnesses():
    pts = ("a", "b", "c")
    clean = {("a", "b"): 1.0, ("b", "c"): 1.0, ("a", "c"): 2.0,
             ("b", "a"): 1.0, ("c", "b"): 1.0, ("c", "a"): 2.0}
    assert quasi_pseudometric_check(clean, pts).violations == ()
    assert quasi_pseudometric_check({("a", "a"): 0.5}, ("a",)).violations \
        == (Violation("zero-self", ("a",), 0.5, 0.0),)
    broken = {**clean, ("a", "c"): 9.0, ("c", "a"): 9.0}
    bad = quasi_pseudometric_check(broken, pts).violations
    assert Violation("triangle", ("a", "b", "c"), 9.0, 2.0) in bad


def test_quasi_pseudometric_clean_on_closed_corpora():
    for seed in range(20):
        rng = rng_for(seed)
        pts = points_named(rng.randrange(2, 7))
        rho = random_quasi_pseudometric(rng, pts)
        assert quasi_pseudometric_check(rho, pts).violations == ()


def test_min_cap_caps_at_the_scale():
    pts = ("a", "b")
    g = make_min_cap({("a", "b"): 3.0, ("b", "a"): 0.5}, pts, grid=GRID)
    assert g.value("a", "b", 1.0) == 1.0
    assert g.value("a", "b", 4.0) == 3.0
    assert g.value("b", "a", 4.0) == 0.5
    assert not g.claims_symmetric
    # a missing pair counts as infinitely far: the cap always binds
    h = make_min_cap({("a", "b"): 1.0}, pts)
    assert h.value("b", "a", 7.0) == 7.0
    # points inferred from the table: sorted, or in first-seen order where
    # they do not sort
    assert make_min_cap({("b", "a"): 1.0}).points == ("a", "b")
    assert make_min_cap({("b", 1): 1.0, (1, "b"): 2.0}).points == ("b", 1)


def test_min_cap_rejects_broken_tables():
    pts = ("a", "b", "c")
    with pytest.raises(ValueError, match="zero-self"):
        make_min_cap({("a", "a"): 1.0}, pts)
    with pytest.raises(ValueError, match="cannot infer points"):
        make_min_cap({})
    with pytest.raises(ValueError, match="triangle"):
        make_min_cap({("a", "b"): 1.0, ("b", "c"): 1.0, ("a", "c"): 5.0,
                      ("b", "a"): 1.0, ("c", "b"): 1.0, ("c", "a"): 1.0}, pts)


# a negative or NaN entry passes zero-self and the triangle (NaN compares
# false both ways, -1 + 1 = 0), so each constructor refuses it by itself
BAD_ENTRIES = [({("a", "b"): -1.0, ("b", "a"): 1.0}, "('a', 'b')", "-1.0"),
               ({("a", "b"): 1.0, ("b", "a"): float("nan")}, "('b', 'a')",
                "nan"),
               ({("a", "b"): 2.0, ("b", "a"): -0.5}, "('b', 'a')", "-0.5")]


@pytest.mark.parametrize("table, pair, value", BAD_ENTRIES)
def test_constructors_refuse_negative_and_nan_entries(table, pair, value):
    pts = ("a", "b")
    profile = Profile(GRID, (1.0, 0.5, 0.25))
    for build, what in (
            (lambda: make_min_cap(table, pts, ScaleGrid((1.0, 2.0))), "rho"),
            (lambda: make_ratio(table, pts), "p"),
            (lambda: make_scaled_metric(table, profile, pts), "d")):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == (f"{what} entry at {pair} must be a "
                                   f"nonnegative real or +inf, got {value}")


def test_ratio_saturates_into_the_unit_interval():
    pts = ("a", "b")
    g = make_ratio({("a", "b"): 1.0, ("b", "a"): 3.0}, pts)
    assert g.regime is Regime.CONORM and g.conorm is TConorm.MAX
    assert g.value("a", "b", 1.0) == 0.5
    assert g.value("b", "a", 1.0) == 0.75
    assert g.value("a", "b", 3.0) == 0.25
    h = make_ratio({("a", "b"): INF}, pts)
    v = h.value("a", "b", 10.0)
    assert 0.999 < v < 1.0


def test_scaled_metric_and_convexity_claim():
    d = {("a", "b"): 2.0, ("b", "a"): 2.0}
    recip = Profile(GRID, (1.0, 0.5, 0.25))  # g(t) = 1/t: t*g(t) constant
    g = make_scaled_metric(d, recip, ("a", "b"))
    assert g.claims_convex and g.claims_symmetric
    assert g.value("a", "b", 2.0) == 1.0
    flat = Profile(GRID, (1.0, 1.0, 1.0))    # t*g(t) grows: not convex
    assert not make_scaled_metric(d, flat, ("a", "b")).claims_convex
    with pytest.raises(ValueError, match="nonincreasing"):
        make_scaled_metric(d, Profile(GRID, (0.5, 1.0, 0.25)), ("a", "b"))


def test_classical_modular_detects_ray_shape():
    g = make_classical_modular(lambda v: v * v, (0.0, 1.0, 3.0))
    assert g.claims_convex and g.claims_symmetric
    assert g.value(3.0, 1.0, 2.0) == 1.0
    bump = lambda v: 0.0 if v == 0 else 1.0 / abs(v)
    h = make_classical_modular(bump, (0.0, 1.0))
    assert not h.claims_convex
    with pytest.raises(ValueError, match=r"rho\(0\)"):
        make_classical_modular(lambda v: 1.0, (0.0, 1.0))
    # vector points: rho of the difference (x - y) / t, coordinate-wise
    vec = make_classical_modular(lambda v: v[0] * v[0] + abs(v[1]),
                                 ((0.0, 0.0), (2.0, -4.0)))
    assert vec.value((2.0, -4.0), (0.0, 0.0), 2.0) == 3.0
    assert vec.claims_symmetric and vec.claims_convex


def test_sublinear_requires_subadditivity():
    pts = (0.0, 1.0, 2.0)
    g = make_sublinear(lambda v: 2.0 * v if v >= 0 else -v, pts)
    assert g.value(0.0, 2.0, 100.0) == 4.0
    assert g.value(2.0, 0.0, 100.0) == 2.0
    with pytest.raises(ValueError, match="triangle"):
        make_sublinear(lambda v: v * v, pts)
    with pytest.raises(ValueError, match=r"p\(0\)"):
        make_sublinear(lambda v: v + 1.0, pts)
    # vector points: rho(x, y) = p(y - x), coordinate-wise
    vec = make_sublinear(lambda v: max(v[0], 0.0) + max(v[1], 0.0),
                         ((0.0, 0.0), (1.0, -2.0)))
    assert vec.value((0.0, 0.0), (1.0, -2.0), 100.0) == 1.0
    assert vec.value((1.0, -2.0), (0.0, 0.0), 100.0) == 2.0


def test_one_sided_integral_accepts_linear_integrands_only():
    masses = {0: 1.0, 1: 2.0}
    funcs = {"f": {0: 1.0, 1: 0.0}, "g": {0: 0.0, 1: 1.0}}
    g = make_one_sided_integral(masses, lambda t: 0.5 * t, funcs)
    assert g.value("f", "g", 100.0) == 0.5   # only the first coordinate rises
    assert g.value("g", "f", 100.0) == 1.0
    with pytest.raises(ValueError, match="triangle"):
        make_one_sided_integral(masses, lambda t: t * t,
                                {"f": {0: 2.0, 1: 0.0}, "g": {0: 1.0, 1: 0.0},
                                 "h": {0: 0.0, 1: 0.0}})
    with pytest.raises(ValueError, match="positive"):
        make_one_sided_integral({0: 0.0}, lambda t: t, {"f": {0: 1.0}})
    with pytest.raises(ValueError, match=r"Phi\(0\)"):
        make_one_sided_integral(masses, lambda t: t + 1.0, funcs)


def test_opposite_and_symmetrizations():
    g = GaugeSpec(regime=Regime.ADDITIVE, points=("a", "b"), grid=GRID,
                  table=two_point_table())
    op = opposite(g)
    assert op.value("a", "b", 1.0) == g.value("b", "a", 1.0)
    assert op.table[("a", "b")] == g.table[("b", "a")]
    # one symmetrize for both regimes: max under +, the conorm otherwise
    sym = symmetrize(g)
    assert sym.value("a", "b", 1.0) == sym.value("b", "a", 1.0) == 0.75
    assert sym.claims_symmetric and sym.name == "sym(gauge)"
    assert sym.regime is Regime.ADDITIVE
    c = random_conorm_gauge(rng_for(3), 3, TConorm.PROBABILISTIC_SUM)
    cs = symmetrize(c)
    a, b = c.value("p0", "p1", 1.0), c.value("p1", "p0", 1.0)
    assert cs.value("p0", "p1", 1.0) == TConorm.PROBABILISTIC_SUM.apply(a, b)
    assert cs.value("p1", "p0", 1.0) == cs.value("p0", "p1", 1.0)
    assert (cs.regime, cs.conorm) == (Regime.CONORM, c.conorm)


def test_json_round_trip_preserves_values():
    for seed in range(10):
        rng = rng_for(seed)
        pts = points_named(rng.randrange(2, 6))
        rho = random_quasi_pseudometric(rng, pts)
        g = make_min_cap(rho, pts, grid=GRID)
        doc = gauge_to_json(g)
        back = gauge_from_json(doc)
        assert back.regime is Regime.ADDITIVE
        assert back.points == pts
        for x in pts:
            for y in pts:
                for t in GRID:
                    assert back.value(x, y, t) == g.value(x, y, t)
        assert back.claims_symmetric == g.claims_symmetric


def test_json_encodes_infinity_and_conorms():
    g = make_min_cap({("a", "b"): INF, ("b", "a"): 1.0}, ("a", "b"),
                     grid=ScaleGrid((2.0,)))
    doc = gauge_to_json(g)
    assert doc["table"]["a|b"] == [2.0]  # the cap hides the infinity
    c = random_conorm_gauge(rng_for(0), 3, TConorm.BOUNDED_SUM)
    doc = gauge_to_json(c)
    assert doc["conorm"] == "bounded_sum"
    assert gauge_from_json(doc).conorm is TConorm.BOUNDED_SUM


def test_json_rejects_malformed_documents():
    base = gauge_to_json(make_min_cap({("a", "b"): 1.0, ("b", "a"): 1.0},
                                      ("a", "b"), grid=ScaleGrid((1.0,))))
    bad_key = dict(base, table=dict(base["table"], **{"a|zz": [1.0]}))
    with pytest.raises(ValueError, match="bad table key"):
        gauge_from_json(bad_key)
    with pytest.raises(ValueError, match=r"within \[0, 1\], got 1.5"):
        gauge_from_json({"regime": "conorm", "conorm": "max",
                         "points": ["a", "b"], "grid": [1.0],
                         "table": {"a|b": [1.5], "b|a": [0.5]}})
    with pytest.raises(ValueError, match="avoid"):
        gauge_to_json(make_min_cap({("a|b", "c"): 1.0, ("c", "a|b"): 1.0},
                                   ("a|b", "c"), grid=ScaleGrid((1.0,))))


# ---------------------------------------------------------------------------
# reading a table: one range check per value, one transpose into columns


def corpus_tables():
    """(gauge, table) over the conftest builders: each tabulated gauge's own
    table, the table without its diagonal rows, and the table with -0.0 and
    the regime's top value (inf, or 1 for a conorm) written in."""
    built = [build(rng_for(930 + k), n).tabulated()
             for k, build in enumerate(ADDITIVE_BUILDERS) for n in (1, 2, 5)]
    built += [random_conorm_gauge(rng_for(940 + n), n, conorm)
              for conorm in TConorm for n in (1, 3, 4)]
    for g in built:
        top = INF if g.regime is Regime.ADDITIVE else 1.0
        edited = dict(g.table)
        for x, y in edited:
            row = list(edited[x, y])
            row[-1 if x == y else 0] = -0.0 if x == y else top
            edited[x, y] = tuple(row)
        yield from ((g, g.table),
                    (g, {(x, y): r for (x, y), r in g.table.items() if x != y}),
                    (g, edited))


def test_the_columns_are_the_pair_lookup_layout_bit_for_bit():
    for g, table in corpus_tables():
        read = GaugeSpec(regime=g.regime, points=g.points, conorm=g.conorm,
                         grid=g.grid, table=table)
        want = tuple(tuple(tuple(read.table[(x, y)][k] for y in g.points)
                           for x in g.points) for k in range(len(g.grid)))
        got = read._columns
        assert all(type(row) is tuple for col in got for row in col)
        assert [[[v.hex() for v in row] for row in col] for col in got] == \
            [[[v.hex() for v in row] for row in col] for col in want], g.name
    values = {v.hex() for _, table in corpus_tables()
              for row in table.values() for v in row}
    assert {"-0x0.0p+0", "inf"} <= values


def test_reading_a_gauge_document_checks_each_table_value_once(monkeypatch):
    """`gauge_from_json` reads a table value by `number` at most once, and
    only in a row that holds "inf"; `GaugeSpec` reads a row of plain ints
    and floats with no `number` call at all."""
    calls, number = [], extreal.number

    def counted(value, what="value"):
        calls.append(value)
        return number(value, what)

    monkeypatch.setattr(extreal, "number", counted)
    spelled = 0
    for g, table in corpus_tables():
        doc = gauge_to_json(GaugeSpec(regime=g.regime, points=g.points,
                                      conorm=g.conorm, grid=g.grid,
                                      table=table))
        calls.clear()
        gauge_from_json(doc)
        assert calls == [v for row in doc["table"].values() if "inf" in row
                         for v in row], g.name
        spelled += bool(calls)
        plain = {k: tuple(int(v) if v.is_integer() else v for v in row)
                 for k, row in table.items()}
        calls.clear()
        GaugeSpec(regime=g.regime, points=g.points, conorm=g.conorm,
                  grid=g.grid, table=plain)
        assert calls == [], g.name
    assert spelled  # some rows spell +inf as "inf"


# ---------------------------------------------------------------------------
# one range rule: a closed-form value off the regime's range raises where it
# is read, naming its pair and scale, whichever entry point reads it

RANGE_READS = {
    "check_axioms": check_axioms,
    "verify_join_equality": verify_join_equality,
    "heine_borel_report": heine_borel_report,
    "quasi_uniformity_report": quasi_uniformity_report,
    "classify_cauchy": lambda g: classify_cauchy(g.points, g, 0.5, 1.0),
    "entourage": lambda g: entourage(g, 0.5, 1.0),
    "luxemburg_distance": lambda g: luxemburg_distance(g, "b", "c"),
    "tabulated": lambda g: g.tabulated(),
    "opposite": lambda g: opposite(g).matrix(1.0),
    "symmetrize": lambda g: symmetrize(g).matrix(1.0),
}
OFF_RANGE = [(None, math.nan), (None, -0.5), (TConorm.MAX, math.nan),
             (TConorm.MAX, -0.5), (TConorm.MAX, 1.5)]
# each entry point in each regime it takes
RANGE_CASES = [
    pytest.param(read, conorm, bad,
                 id=f"{read}-{conorm.wire_name if conorm else 'additive'}-{bad}")
    for read in sorted(RANGE_READS) for conorm, bad in OFF_RANGE
    if read != ("luxemburg_distance" if conorm else "quasi_uniformity_report")]


def off_range_closed_form(conorm, bad):
    """w(b, c, t) = bad at every scale, and values in range elsewhere."""
    def fn(x, y, t):
        return bad if (x, y) == ("b", "c") else 0.0 if x == y else 0.25

    return GaugeSpec(regime=Regime.CONORM if conorm else Regime.ADDITIVE,
                     points=("a", "b", "c"), conorm=conorm,
                     grid=ScaleGrid((0.5, 1.0, 2.0)), fn=fn)


@pytest.mark.parametrize("read, conorm, bad", RANGE_CASES)
def test_a_closed_form_value_off_its_range_raises_where_it_is_read(
        read, conorm, bad):
    with pytest.raises(ValueError) as err:
        RANGE_READS[read](off_range_closed_form(conorm, bad))
    assert re.fullmatch(
        r"gauge value for \('b', 'c'\) at scale [0-9.e+-]+ must lie in "
        + re.escape(f"[0, {'1' if conorm else 'inf'}], got {bad!r}"),
        str(err.value)), str(err.value)

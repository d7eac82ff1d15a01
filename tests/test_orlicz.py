"""Discrete Musielak-Orlicz modulars, Luxemburg norms, one-sided gauges."""

import json
import math
from collections.abc import Mapping

import pytest

from quasimod import (DiscreteMeasureSpace, MusielakOrlicz, OneSidedPair,
                      ScaleGrid, check_axioms, luxemburg_norm, modular,
                      one_sided_gauges, one_sided_modular_gauge,
                      one_sided_modulars, orlicz_from_json, parse_function,
                      quasi_metric_from_gauges, unit_ball_check)

from conftest import (random_measure_space, random_orlicz_family,
                      random_total_function, rng_for)

TWO_POINTS = DiscreteMeasureSpace(("a", "b"), {"a": 1.0, "b": 1.0})


def test_measure_space_validation():
    with pytest.raises(ValueError, match="at least one point"):
        DiscreteMeasureSpace((), {})
    with pytest.raises(ValueError, match="distinct"):
        DiscreteMeasureSpace(("a", "a"), {"a": 1.0})
    with pytest.raises(ValueError, match="needs masses"):
        DiscreteMeasureSpace(("a",), {})
    with pytest.raises(ValueError, match="positive and finite"):
        DiscreteMeasureSpace(("a",), {"a": 0.0})
    with pytest.raises(ValueError, match="positive and finite"):
        DiscreteMeasureSpace(("a",), {"a": math.inf})


class CountingMasses(Mapping):
    """A mass mapping that counts how often it is walked and read."""

    def __init__(self, masses):
        self.masses, self.walks, self.reads = masses, 0, 0

    def __getitem__(self, key):
        self.reads += 1
        return self.masses[key]

    def __iter__(self):
        self.walks += 1
        return iter(self.masses)

    def __len__(self):
        return len(self.masses)


def test_measure_space_reads_its_masses_once():
    # copying the mapping once per point made construction quadratic
    points = tuple(range(50))
    masses = CountingMasses({p: 1.0 + p for p in points})
    space = DiscreteMeasureSpace(points, masses)
    assert (masses.walks, masses.reads) == (1, len(points))
    assert space.mu == {p: 1.0 + p for p in points}
    with pytest.raises(KeyError, match="'b'"):
        DiscreteMeasureSpace(("a", "b"), CountingMasses({"a": 1.0}))
    with pytest.raises(ValueError, match="needs masses"):
        DiscreteMeasureSpace(("a",), CountingMasses({}))


def test_measure_space_json_round_trip():
    space = DiscreteMeasureSpace((1, 2), {1: 0.5, 2: 2.0})
    doc = json.loads(json.dumps(space.to_json()))
    assert DiscreteMeasureSpace.from_json(doc) == space
    with pytest.raises(ValueError, match="stringify uniquely"):
        DiscreteMeasureSpace.from_json({"points": [1, "1"],
                                        "mu": {"1": 1.0}})


def test_family_validation():
    with pytest.raises(ValueError, match="unknown Musielak-Orlicz kind"):
        MusielakOrlicz("power", p=2.0)
    with pytest.raises(ValueError, match="per-point exponents"):
        MusielakOrlicz.variable_exponent({})
    with pytest.raises(ValueError, match=r"lie in \[1, inf\)"):
        MusielakOrlicz.variable_exponent({"a": 0.5})
    with pytest.raises(ValueError, match=r"lie in \[1, inf\)"):
        MusielakOrlicz.variable_exponent({"a": math.inf})
    with pytest.raises(ValueError, match="needs 1 <= p < q"):
        MusielakOrlicz.double_phase(2.0, 2.0, {"a": 1.0})
    with pytest.raises(ValueError, match="must be >= 0"):
        MusielakOrlicz.double_phase(1.0, 2.0, {"a": -1.0})
    with pytest.raises(ValueError, match="needs a base family"):
        MusielakOrlicz("weighted", weights={"a": 1.0})
    base = MusielakOrlicz.variable_exponent({"a": 2.0})
    with pytest.raises(ValueError, match="weights must be positive"):
        MusielakOrlicz.weighted(base, {"a": 0.0})


def test_family_values_pinned():
    var = MusielakOrlicz.variable_exponent({"a": 2.0})
    assert var.value("a", 3.0) == 9.0
    dp = MusielakOrlicz.double_phase(1.0, 2.0, {"a": 0.5})
    assert dp.value("a", 2.0) == 4.0
    wt = MusielakOrlicz.weighted(var, {"a": 3.0})
    assert wt.value("a", 2.0) == 12.0
    with pytest.raises(ValueError, match="nonnegative"):
        var.value("a", -1.0)
    with pytest.raises(ValueError, match="no exponent for point"):
        var.value("z", 1.0)
    with pytest.raises(ValueError, match="no coefficient for point"):
        dp.value("z", 1.0)
    with pytest.raises(ValueError, match="no weight for point"):
        wt.value("z", 1.0)


def test_modular_pinned():
    space = DiscreteMeasureSpace(("a", "b"), {"a": 2.0, "b": 0.5})
    phi = MusielakOrlicz.variable_exponent({"a": 2.0, "b": 1.0})
    # 2.0 * 1.5^2 + 0.5 * 4.0
    assert modular(space, phi, {"a": 1.5, "b": -4.0}) == 6.5
    with pytest.raises(ValueError, match="misses points"):
        modular(space, phi, {"a": 1.5})


def test_norm_closed_form_for_a_constant_exponent():
    # modular(f / lam) = 25 / lam^2, so the norm is 5
    phi = MusielakOrlicz.variable_exponent({"a": 2.0, "b": 2.0})
    f = {"a": 3.0, "b": 4.0}
    assert abs(luxemburg_norm(TWO_POINTS, phi, f) - 5.0) <= 1e-8
    assert luxemburg_norm(TWO_POINTS, phi, {"a": 0.0, "b": 0.0}) == 0.0


def test_norm_reference_value_for_mixed_exponents():
    # (1/lam)^2 + (1/lam)^4 = 1 with s = 1/lam^2 gives s^2 + s = 1,
    # s = (sqrt(5) - 1)/2, so lam = sqrt(2 / (sqrt(5) - 1))
    phi = MusielakOrlicz.variable_exponent({"a": 2.0, "b": 4.0})
    f = {"a": 1.0, "b": 1.0}
    expected = math.sqrt(2.0 / (math.sqrt(5.0) - 1.0))
    assert abs(luxemburg_norm(TWO_POINTS, phi, f) - expected) <= 1e-8


def test_unit_ball_report_clauses():
    phi = MusielakOrlicz.variable_exponent({"a": 2.0, "b": 2.0})
    big = unit_ball_check(TWO_POINTS, phi, {"a": 3.0, "b": 4.0})
    assert big.ok and big.modular_value == 25.0
    assert abs(big.norm - 5.0) <= 1e-8
    small = unit_ball_check(TWO_POINTS, phi, {"a": 0.5, "b": 0.0})
    assert small.ok
    assert small.modular_value == 0.25 and abs(small.norm - 0.5) <= 1e-8
    keys = set(big.to_json())
    assert keys == {"norm", "modular", "equivalence_ok", "lower_ok",
                    "upper_ok", "ok"}


@pytest.mark.parametrize("seed", range(10))
def test_rescaling_by_the_norm_lands_on_the_unit_sphere(seed):
    rng = rng_for(600 + seed)
    space = random_measure_space(rng, rng.randrange(1, 5))
    phi = random_orlicz_family(rng, space)
    f = random_total_function(rng, space)
    assert unit_ball_check(space, phi, f).ok
    norm = luxemburg_norm(space, phi, f)
    scaled = {p: f[p] / norm for p in space.points}
    assert abs(modular(space, phi, scaled) - 1.0) <= 1e-6


def test_one_sided_modulars_split_by_sign():
    pair = OneSidedPair(MusielakOrlicz.variable_exponent({"a": 1.0, "b": 1.0}),
                        MusielakOrlicz.variable_exponent({"a": 1.0, "b": 1.0}))
    f = {"a": 4.0, "b": -3.0}
    assert one_sided_modulars(TWO_POINTS, pair, f) == (4.0, 3.0)
    neg = {p: -v for p, v in f.items()}
    assert one_sided_modulars(TWO_POINTS, pair, neg) == (3.0, 4.0)
    plus, minus, sym = one_sided_gauges(TWO_POINTS, pair, f)
    assert abs(plus - 4.0) <= 1e-8 and abs(minus - 3.0) <= 1e-8
    assert sym == max(plus, minus)


def test_quasi_metric_direction_witness():
    # mass 4 makes the exponent visible: a displaced value v under t^p costs
    # v * 4^(1/p), so psi1 = t^2 and psi2 = t disagree, and the uneven rise
    # (+2 at a) versus drop (-1 at b) makes each gauge order-sensitive too
    space = DiscreteMeasureSpace(("a", "b"), {"a": 4.0, "b": 4.0})
    pair = OneSidedPair(MusielakOrlicz.variable_exponent({"a": 2.0, "b": 2.0}),
                        MusielakOrlicz.variable_exponent({"a": 1.0, "b": 1.0}))
    f = {"a": 2.0, "b": 0.0}
    g = {"a": 0.0, "b": 1.0}
    d_plus, d_minus = quasi_metric_from_gauges(space, pair, f, g)
    assert abs(d_plus - 4.0) <= 1e-8
    assert abs(d_minus - 4.0) <= 1e-8
    d_plus_back, d_minus_back = quasi_metric_from_gauges(space, pair, g, f)
    assert abs(d_plus_back - 2.0) <= 1e-8
    assert abs(d_minus_back - 8.0) <= 1e-8


def test_quasi_metric_reflexivity_and_triangle():
    rng = rng_for(640)
    for _ in range(25):
        space = random_measure_space(rng, rng.randrange(1, 5))
        pair = OneSidedPair(random_orlicz_family(rng, space),
                            random_orlicz_family(rng, space))
        f, g, h = (random_total_function(rng, space) for _ in range(3))
        assert quasi_metric_from_gauges(space, pair, f, f) == (0.0, 0.0)
        fg = quasi_metric_from_gauges(space, pair, f, g)
        gh = quasi_metric_from_gauges(space, pair, g, h)
        fh = quasi_metric_from_gauges(space, pair, f, h)
        for k in range(2):
            assert fh[k] <= fg[k] + gh[k] + 2e-9


def test_one_sided_gauge_values_pinned():
    space = DiscreteMeasureSpace(("a",), {"a": 1.0})
    psi1 = MusielakOrlicz.variable_exponent({"a": 1.0})
    functions = {"F": {"a": 2.0}, "G": {"a": 0.0}}
    w = one_sided_modular_gauge(space, psi1, functions,
                                grid=ScaleGrid((1.0, 2.0, 4.0)))
    assert w.value("F", "G", 1.0) == 2.0
    assert w.value("F", "G", 2.0) == 1.0
    assert w.value("F", "G", 4.0) == 0.5
    assert w.value("G", "F", 1.0) == 0.0
    with pytest.raises(ValueError, match="misses points"):
        one_sided_modular_gauge(space, psi1, {"F": {}})


@pytest.mark.parametrize("seed", range(6))
def test_one_sided_gauge_satisfies_the_additive_axioms(seed):
    # convex nondecreasing psi1 gives the split-scale triangle inequality,
    # and this family genuinely varies with the scale
    rng = rng_for(660 + seed)
    space = random_measure_space(rng, rng.randrange(1, 4))
    psi1 = random_orlicz_family(rng, space)
    functions = {f"f{i}": random_total_function(rng, space)
                 for i in range(rng.randrange(2, 5))}
    w = one_sided_modular_gauge(space, psi1, functions,
                                grid=ScaleGrid((0.5, 1.0, 2.0, 4.0)))
    report = check_axioms(w)
    assert report.ok, report.violations
    assert w.value("f0", "f1", 0.5) != w.value("f0", "f1", 4.0) or \
        all(functions["f0"][p] <= functions["f1"][p] for p in space.points)


def test_family_json_round_trips():
    space = DiscreteMeasureSpace(("a", "b"), {"a": 1.0, "b": 2.0})
    var = MusielakOrlicz.variable_exponent({"a": 2.0, "b": 3.0})
    dp = MusielakOrlicz.double_phase(1.5, 2.5, {"a": 0.0, "b": 1.0})
    wt = MusielakOrlicz.weighted(var, {"a": 0.5, "b": 4.0})
    for phi in (var, dp, wt):
        doc = json.loads(json.dumps(phi.to_json()))
        assert orlicz_from_json(doc, space) == phi
    with pytest.raises(ValueError, match="unknown point"):
        orlicz_from_json({"kind": "variable_exponent", "p": {"z": 2.0}},
                         space)
    with pytest.raises(ValueError, match="unknown Musielak-Orlicz kind"):
        orlicz_from_json({"kind": "entropy"}, space)


def test_parse_function_validation():
    space = DiscreteMeasureSpace(("a", "b"), {"a": 1.0, "b": 1.0})
    assert parse_function({"a": 1, "b": -2.5}, space) == {"a": 1.0, "b": -2.5}
    with pytest.raises(ValueError, match="unknown point"):
        parse_function({"a": 1.0, "b": 0.0, "z": 3.0}, space)
    with pytest.raises(ValueError, match="must be finite"):
        parse_function({"a": math.inf, "b": 0.0}, space)
    with pytest.raises(ValueError, match="misses points"):
        parse_function({"a": 1.0}, space)


# the one-sided layer is the modular and norm of f+ under psi1 and of f-
# under psi2; these identities hold float-exactly on the dyadic corpora


def _parts(f):
    return ({p: max(v, 0.0) for p, v in f.items()},
            {p: max(-v, 0.0) for p, v in f.items()})


def _one_sided_corpus(seed, same_psi=False):
    rng = rng_for(seed)
    space = random_measure_space(rng, rng.randrange(1, 6))
    psi1 = random_orlicz_family(rng, space)
    psi2 = psi1 if same_psi else random_orlicz_family(rng, space)
    return rng, space, OneSidedPair(psi1, psi2)


@pytest.mark.parametrize("seed", range(20))
def test_one_sided_modulars_are_the_modulars_of_the_parts(seed):
    rng, space, pair = _one_sided_corpus(700 + seed)
    f = random_total_function(rng, space)
    plus, minus = _parts(f)
    assert one_sided_modulars(space, pair, f) == (
        modular(space, pair.psi1, plus), modular(space, pair.psi2, minus))


@pytest.mark.parametrize("seed", range(20))
def test_one_sided_norms_are_the_norms_of_the_parts(seed):
    rng, space, pair = _one_sided_corpus(720 + seed)
    f = random_total_function(rng, space)
    plus, minus = _parts(f)
    assert one_sided_gauges(space, pair, f)[:2] == (
        luxemburg_norm(space, pair.psi1, plus),
        luxemburg_norm(space, pair.psi2, minus))


@pytest.mark.parametrize("seed", range(20))
def test_negating_f_swaps_the_one_sided_norms_under_one_psi(seed):
    rng, space, pair = _one_sided_corpus(740 + seed, same_psi=True)
    f = random_total_function(rng, space)
    plus, minus, sym = one_sided_gauges(space, pair, f)
    neg = {p: -v for p, v in f.items()}
    assert one_sided_gauges(space, pair, neg) == (minus, plus, sym)


@pytest.mark.parametrize("seed", range(10))
def test_one_sided_gauge_is_the_modular_of_the_scaled_positive_part(seed):
    rng, space, pair = _one_sided_corpus(760 + seed)
    functions = {f"f{i}": random_total_function(rng, space)
                 for i in range(rng.randrange(2, 5))}
    w = one_sided_modular_gauge(space, pair.psi1, functions,
                                grid=ScaleGrid((0.5, 1.0, 2.0, 4.0)))
    for a in functions:
        for b in functions:
            for t in (0.25, 0.5, 0.75, 1.0, 3.0, 4.0):
                scaled = {p: (functions[a][p] - functions[b][p]) / t
                          for p in space.points}
                assert w.value(a, b, t) == modular(space, pair.psi1,
                                                   _parts(scaled)[0])

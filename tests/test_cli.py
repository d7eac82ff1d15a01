"""Command-line interface: exit codes, report shapes, determinism, logging."""

import contextlib
import copy
import errno
import io
import json
import logging
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quasimod import (DynamicCostSchedule, GaugeSpec, TConorm,
                      conorm_from_name, gauge_from_json, gauge_to_json,
                      quasi_uniformity_report, schedule_from_json,
                      schedule_to_json)
from quasimod import cli
from quasimod.cli import main
from quasimod.extreal import point_resolver

from conftest import (random_conorm_gauge, rng_for, run, strict_json,
                      valid_documents, write_doc)

ADDITIVE_DOC = {
    "regime": "additive",
    "points": ["a", "b"],
    "grid": [1.0, 2.0, 4.0],
    "table": {"a|a": [0, 0, 0], "a|b": [4.0, 2.0, 1.0],
              "b|a": [3.0, 1.5, 0.75], "b|b": [0, 0, 0]},
}

# constant in the scale, closed for prob_sum but not for max: the direct
# a -> c value 0.7 exceeds max(0.5, 0.5) yet stays under 0.5 + 0.5 - 0.25
PROBSUM_ONLY_DOC = {
    "regime": "conorm",
    "conorm": "prob_sum",
    "points": ["a", "b", "c"],
    "grid": [0.5, 1.0],
    "table": {"a|a": [0, 0], "b|b": [0, 0], "c|c": [0, 0],
              "a|b": [0.5, 0.5], "b|a": [0.5, 0.5],
              "b|c": [0.5, 0.5], "c|b": [0.5, 0.5],
              "a|c": [0.7, 0.7], "c|a": [0.7, 0.7]},
}


def test_check_axioms_clean_and_broken(tmp_path):
    code, doc = run(tmp_path, "check-axioms", ADDITIVE_DOC)
    assert code == 0
    assert doc["command"] == "check-axioms"
    assert doc["axioms"]["violations"] == []
    broken = json.loads(json.dumps(ADDITIVE_DOC))
    broken["table"]["a|b"] = [4.0, 5.0, 1.0]
    code, doc = run(tmp_path, "check-axioms", broken)
    assert code == 1
    assert doc["axioms"]["violations"]


def test_conorm_override_changes_the_verdict(tmp_path):
    code, doc = run(tmp_path, "check-axioms", PROBSUM_ONLY_DOC)
    assert code == 0
    code, doc = run(tmp_path, "check-axioms", PROBSUM_ONLY_DOC,
                    "--conorm", "max")
    assert code == 1
    axioms = [v["axiom"] for v in doc["axioms"]["violations"]]
    assert "triangle" in axioms


def test_topology_with_a_conorm_value_just_below_one(tmp_path, capsys):
    # (top + 1) / 2 rounds to 1.0 here, a radius the threshold route rejected
    doc = {"regime": "conorm", "conorm": "max", "points": ["a", "b"],
           "grid": [1.0],
           "table": {"a|a": [0], "a|b": [0.9999999999999999],
                     "b|a": [0.5], "b|b": [0]}}
    code, report = run(tmp_path, "topology", doc)
    assert code == 0 and report["join_equals_sym"] is True
    assert "Traceback" not in capsys.readouterr().err


PROB_SUM_TINY_DOC = {"regime": "conorm", "conorm": "prob_sum",
                     "points": ["a", "b"], "grid": [1.0, 2.0],
                     "table": {"a|a": [0, 0], "b|b": [0, 0],
                               "a|b": [1e-17, 1e-17], "b|a": [1e-17, 1e-17]}}
MAX_NEAR_ONE_DOC = {"regime": "conorm", "conorm": "max", "points": ["a", "b"],
                    "grid": [1.0],
                    "table": {"a|a": [0], "a|b": [0.9999999999999999],
                              "b|a": [0.5], "b|b": [0]}}


@pytest.mark.parametrize("doc", [PROB_SUM_TINY_DOC, MAX_NEAR_ONE_DOC],
                         ids=["prob-sum-1e-17", "max-below-one"])
def test_cover_radii_and_splits_stay_admissible(tmp_path, capsys, doc):
    # r/2 (+) r/2 rounds back to r = 1e-17 under prob_sum, and
    # (top + 1) / 2 rounds to 1.0 for top = 1 - 2**-53
    code, report = run(tmp_path, "cover", doc)
    assert code == 0 and "Traceback" not in capsys.readouterr().err
    law = conorm_from_name(doc["conorm"]).apply
    for row in report["heine_borel"]["rows"]:
        r, s = row["radius"], row["split"]
        assert 0.0 < r < 1.0 and 0.0 < s and law(s, s) < r
    assert quasi_uniformity_report(gauge_from_json(doc)).ok


def test_topology_and_cover_on_a_generated_gauge(tmp_path):
    g = random_conorm_gauge(rng_for(31), 3, TConorm.PROBABILISTIC_SUM, symmetric=True)
    code, doc = run(tmp_path, "topology", gauge_to_json(g))
    assert code == 0
    assert doc["command"] == "topology"
    assert doc["join_equals_sym"] is True
    code, doc = run(tmp_path, "cover", gauge_to_json(g))
    assert code == 0
    assert doc["heine_borel"]["all_composed_ok"] is True
    assert "cauchy" not in doc


def test_cover_classifies_a_supplied_sequence(tmp_path):
    g = random_conorm_gauge(rng_for(32), 3, TConorm.PROBABILISTIC_SUM, symmetric=True)
    payload = {"space": gauge_to_json(g),
               "sequence": [str(p) for p in g.points] * 3}
    code, doc = run(tmp_path, "cover", payload)
    assert code == 0
    assert doc["cauchy"]
    for row in doc["cauchy"]:
        assert row["kind"] in ("bi", "neither")
        assert set(row) == {"radius", "scale", "kind", "i0",
                            "forward_i0", "backward_i0"}


def test_cover_splits_each_radius_once(tmp_path, monkeypatch):
    calls, real = [], GaugeSpec.split_radius
    monkeypatch.setattr(GaugeSpec, "split_radius",
                        lambda g, r: calls.append(r) or real(g, r))
    g = random_conorm_gauge(rng_for(33), 4, TConorm.PROBABILISTIC_SUM)
    code, doc = run(tmp_path, "cover", gauge_to_json(g))
    radii = sorted({row["radius"] for row in doc["heine_borel"]["rows"]})
    assert code in (0, 1) and len(radii) > 1 and sorted(calls) == radii


def test_cover_flags_an_escaping_ball(tmp_path):
    doc = {"regime": "additive", "points": ["a", "b"], "grid": [1.0, 2.0],
           "table": {"a|a": [0, 0], "b|b": [0, 0],
                     "a|b": [0, 0], "b|a": [9.0, 9.0]}}
    code, report = run(tmp_path, "cover", doc)
    assert code == 1
    assert report["heine_borel"]["all_composed_ok"] is False


def test_luxemburg_distances_and_csv(tmp_path):
    src = write_doc(tmp_path, "g.json", ADDITIVE_DOC)
    out = tmp_path / "lux.json"
    assert main(["luxemburg", "--input", src, "--output", str(out)]) == 0
    doc = strict_json(out.read_text(encoding="utf-8"))
    assert abs(doc["distances"]["a|b"] - 2.0) <= 1e-6
    assert doc["distances"]["a|a"] == 0.0
    assert abs(doc["symmetrized"]["a|b"] - 2.0) <= 1e-6
    csv_out = tmp_path / "lux.csv"
    assert main(["luxemburg", "--input", src, "--output", str(csv_out)]) == 0
    lines = csv_out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == ",a,b"
    assert lines[1].startswith("a,0.0,")


# a table whose rows rise with the scale: luxemburg refuses it with exit 2
RISING_DOC = {"regime": "additive", "points": ["a", "b"], "grid": [1.0, 2.0],
              "table": {"a|a": [0, 0], "b|b": [0, 0],
                        "a|b": [1.0, 2.0], "b|a": [1.0, 2.0]}}
RISING = ("quasimod: error: luxemburg distances need a gauge nonincreasing "
          "in the scale: value increases with the scale: ")


def refusal(tmp_path, capsys, command, doc):
    """(exit code, stdout, stderr) of `quasimod <command>` on `doc` with an
    --output, which must not be written."""
    src, out = write_doc(tmp_path, "in.json", doc), tmp_path / "out.json"
    code = main([command, "--input", src, "--output", str(out)])
    assert not out.exists()
    return (code, *capsys.readouterr())


def test_luxemburg_rejects_nonmonotone_and_conorm_gauges(tmp_path, capsys):
    assert refusal(tmp_path, capsys, "luxemburg", RISING_DOC) == (
        2, "", RISING + "1.0 at 1.0 but 2.0 at 2.0\n")
    assert refusal(tmp_path, capsys, "luxemburg", PROBSUM_ONLY_DOC) == (
        2, "", "quasimod: error: luxemburg distances need an additive-regime "
        "gauge\n")


def test_luxemburg_exits_2_on_a_row_that_rises_past_its_infimum(tmp_path,
                                                                capsys):
    # rows are checked whole: the rise from 0.5 to 0.75 lies past the
    # column the infimum of a|b sits in, which a search never probed
    doc = {"regime": "additive", "points": ["a", "b"],
           "grid": [1.0, 2.0, 4.0, 8.0],
           "table": {"a|a": [0] * 4, "b|b": [0] * 4,
                     "a|b": [2.0, 0.5, 0.75, 0.25], "b|a": [1.0] * 4}}
    assert refusal(tmp_path, capsys, "luxemburg", doc) == (
        2, "", RISING + "0.5 at 2.0 but 0.75 at 4.0\n")


def test_orlicz_overflow_keeps_its_error_line(tmp_path, capsys):
    doc = {"space": {"points": ["a"], "mu": {"a": 1.0}},
           "functions": {"f": {"a": 2.0}},
           "phi": {"kind": "variable_exponent", "p": {"a": 1e308}}}
    src = write_doc(tmp_path, "in.json", doc)
    assert main(["orlicz", "--input", src]) == 2
    assert capsys.readouterr().err == (
        "quasimod: error: bad orlicz document: (34, 'Numerical result out "
        "of range')\n")


def test_a_fault_in_the_orlicz_computation_is_not_an_input_error(
        tmp_path, monkeypatch):
    # exit 2 is for usage and input errors; a program fault stays a fault
    def broken(*args):
        raise TypeError("planted fault")

    monkeypatch.setattr(cli, "unit_ball_check", broken)
    src = write_doc(tmp_path, "in.json", ORLICZ_DOC)
    with pytest.raises(TypeError, match="planted fault"):
        main(["orlicz", "--input", src])


def test_an_orlicz_document_is_read_whole_before_any_norm(tmp_path, capsys):
    # the overflowing phi would stop the computation, but the malformed
    # psi2 is found first, in the read
    doc = {"space": {"points": ["a"], "mu": {"a": 1.0}},
           "functions": {"f": {"a": 2.0}},
           "phi": {"kind": "variable_exponent", "p": {"a": 1e308}},
           "psi1": {"kind": "variable_exponent", "p": {"a": 2.0}},
           "psi2": {"kind": "no-such-kind"}}
    assert main(["orlicz", "--input", write_doc(tmp_path, "in.json", doc)]) \
        == 2
    assert capsys.readouterr().err == (
        "quasimod: error: bad orlicz document: unknown Musielak-Orlicz kind "
        "'no-such-kind'\n")


def test_graph_command_reports_both_directions(tmp_path):
    doc = {"vertices": ["a", "b"],
           "edges": [{"from": "a", "to": "b", "cost": 1.0},
                     {"from": "b", "to": "a", "cost": 2.0}]}
    code, report = run(tmp_path, "graph", doc, "--grid", "2,4,6")
    assert code == 0
    assert report["forward"]["a|b"] == 1.0
    assert report["backward"]["a|b"] == 2.0
    assert report["asymmetry_index"] == 1.0
    assert report["axioms"]["violations"] == []


def test_graph_gauge_with_unreachable_pairs_fails_the_axioms(tmp_path):
    doc = {"vertices": ["a", "b"],
           "edges": [{"from": "a", "to": "b", "cost": 2.0}]}
    code, report = run(tmp_path, "graph", doc)
    assert code == 0
    assert report["forward"]["b|a"] == "inf"
    # capping +inf at the scale makes the gauge grow with the scale
    code, report = run(tmp_path, "graph", doc, "--grid", "1,2")
    assert code == 1
    src = write_doc(tmp_path, "g.json", doc)
    csv_out = tmp_path / "g.csv"
    assert main(["graph", "--input", src, "--output", str(csv_out)]) == 0
    assert "inf" in csv_out.read_text(encoding="utf-8")


def test_an_infinite_violation_side_is_written_as_the_string_inf(tmp_path):
    # a|b jumps to +inf at the larger scale: the lhs of every violation
    doc = {"regime": "additive", "points": ["a", "b"], "grid": [1.0, 2.0],
           "table": {"a|a": [0, 0], "b|b": [0, 0], "a|b": [1.0, "inf"],
                     "b|a": [1.0, 1.0]}}
    code, report = run(tmp_path, "check-axioms", doc)
    violations = report["axioms"]["violations"]
    assert code == 1 and {v["axiom"] for v in violations} == {
        "scale-monotone", "triangle"}
    assert {(v["lhs"], v["rhs"]) for v in violations} == {("inf", 1.0)}


def test_graph_grid_reports_a_rounded_path_sum_as_a_triangle_witness(
        tmp_path, capsys):
    # Dijkstra sums the path x -> z as (0.1 + 0.2) + 0.3, one ulp above
    # 0.1 + (0.2 + 0.3); the axiom sweep lists that, with no traceback
    doc = {"vertices": ["x", "y", "w", "z"],
           "edges": [{"from": "x", "to": "y", "cost": 0.1},
                     {"from": "y", "to": "w", "cost": 0.2},
                     {"from": "w", "to": "z", "cost": 0.3}]}
    code, report = run(tmp_path, "graph", doc, "--grid", "1,2,4")
    assert code == 1
    assert report["forward"]["x|z"] == 0.6000000000000001
    assert {"axiom": "triangle", "witness": ["x", "y", "z", 1.0, 1.0, 2.0],
            "lhs": 0.6000000000000001, "rhs": 0.6} \
        in report["axioms"]["violations"]
    assert capsys.readouterr().err == ""


ORLICZ_DOC = {
    "space": {"points": ["a", "b"], "mu": {"a": 1.0, "b": 1.0}},
    "functions": {"f": {"a": 3.0, "b": 4.0}, "g": {"a": 0.0, "b": 0.0}},
    "phi": {"kind": "variable_exponent", "p": {"a": 2.0, "b": 2.0}},
    "psi1": {"kind": "variable_exponent", "p": {"a": 2.0, "b": 2.0}},
    "psi2": {"kind": "variable_exponent", "p": {"a": 1.0, "b": 1.0}},
}


def test_orlicz_command_reports_norms_and_distances(tmp_path):
    code, doc = run(tmp_path, "orlicz", ORLICZ_DOC)
    assert code == 0
    assert abs(doc["phi"]["f"]["norm"] - 5.0) <= 1e-6
    assert doc["phi"]["f"]["modular"] == 25.0
    assert doc["phi"]["f"]["unit_ball"]["ok"] is True
    assert doc["phi"]["g"]["norm"] == 0.0
    assert set(doc["one_sided"]["distances"]) == {"f|g", "g|f"}
    assert doc["one_sided"]["norms"]["f"]["sym"] >= \
        doc["one_sided"]["norms"]["f"]["plus"]
    bad = json.loads(json.dumps(ORLICZ_DOC))
    bad["phi"]["p"]["z"] = 2.0
    src = write_doc(tmp_path, "bad.json", bad)
    assert main(["orlicz", "--input", src]) == 2


ENVELOPE_DOC = {
    "points": ["a", "x"],
    "distance": {"a|a": 0.0, "x|x": 0.0, "x|a": 2.0, "a|x": 0.5},
    "domain": ["a"],
    "values": {"a": 1.0},
    "lipschitz": 3.0,
}


def test_envelope_command_pins_the_closed_form(tmp_path):
    code, doc = run(tmp_path, "envelope", ENVELOPE_DOC)
    assert code == 0
    assert doc["upper"] == {"a": 1.0, "x": 7.0}
    assert doc["lower"] == {"a": 1.0, "x": -0.5}
    bad_diag = json.loads(json.dumps(ENVELOPE_DOC))
    bad_diag["distance"]["a|a"] = 1.0
    code, doc = run(tmp_path, "envelope", bad_diag)
    assert code == 1
    assert doc["distance_check"]["violations"]
    bad_key = json.loads(json.dumps(ENVELOPE_DOC))
    bad_key["distance"] = {"ax": 1.0}
    src = write_doc(tmp_path, "bad.json", bad_key)
    assert main(["envelope", "--input", src]) == 2


@pytest.mark.parametrize("distance", [-1.0, math.nan, "-inf"],
                         ids=["negative", "nan", "minus-inf-string"])
def test_envelope_distances_outside_the_extended_ray_exit_2(tmp_path, capsys,
                                                            distance):
    doc = json.loads(json.dumps(ENVELOPE_DOC))
    doc["distance"]["x|a"] = distance
    assert main(["envelope", "--input", write_doc(tmp_path, "in.json", doc)]) \
        == 2
    out, err = capsys.readouterr()
    assert out == "" and _single_error_line(err)
    assert "bad envelope document: distance[x|a] must be" in err


# json.dumps writes these as the literals -1.0, NaN and -Infinity, which the
# wire reader takes as numbers; the gauge refuses them, naming the pair
@pytest.mark.parametrize("value, literal", [(-1.0, "-1.0"), (math.nan, "NaN"),
                                            (-math.inf, "-Infinity")],
                         ids=["negative", "nan", "minus-infinity"])
@pytest.mark.parametrize("command", ["check-axioms", "cover"])
def test_gauge_table_values_outside_the_extended_ray_exit_2(
        tmp_path, capsys, command, value, literal):
    doc = copy.deepcopy(ADDITIVE_DOC)
    doc["table"]["a|b"][1] = value
    src = write_doc(tmp_path, "in.json", doc)
    assert f"[4.0, {literal}, 1.0]" in (tmp_path / "in.json").read_text()
    assert main([command, "--input", src]) == 2
    out, err = capsys.readouterr()
    assert out == "" and _single_error_line(err)
    assert err == ("quasimod: error: bad gauge document: table value for "
                   f"('a', 'b') must be a nonnegative real or +inf, got "
                   f"{value!r}\n")


def test_grid_scales_are_json_numbers(tmp_path, capsys):
    """Each --grid item is a JSON number, whitespace around it allowed;
    float() read "1_0" as 10 and "+1" as 1."""
    src = write_doc(tmp_path, "in.json", ADDITIVE_DOC)
    assert main(["check-axioms", "--input", src, "--grid", " 1 ,2\t"]) == 0
    spaced = capsys.readouterr().out
    assert main(["check-axioms", "--input", src, "--grid", "1,2"]) == 0
    assert capsys.readouterr().out == spaced
    for raw, item in (("1_0,2_0", "1_0"), ("+1", "+1"), ("0.5,1.", "1.")):
        assert main(["check-axioms", "--input", src, "--grid", raw]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (f"quasimod: error: bad --grid value "
                                     f"{raw!r}: {item!r} is not a JSON "
                                     f"number\n")


@pytest.mark.parametrize("key, value", [("x|z", 1.0), ("x|a|x", 1.0)])
def test_envelope_distance_keys_name_two_points(tmp_path, capsys, key, value):
    doc = json.loads(json.dumps(ENVELOPE_DOC))
    doc["distance"][key] = value
    assert main(["envelope", "--input", write_doc(tmp_path, "in.json", doc)]) \
        == 2
    assert f"bad distance key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("value", [math.nan, math.inf, "inf"],
                         ids=["nan", "inf", "inf-string"])
def test_envelope_values_must_be_finite(tmp_path, capsys, value):
    doc = dict(ENVELOPE_DOC, values={"a": value})
    assert main(["envelope", "--input", write_doc(tmp_path, "in.json", doc)]) \
        == 2
    assert "bad envelope document: value at 'a' must be finite" in \
        capsys.readouterr().err


def test_envelope_writes_unreachable_bounds_as_strings(tmp_path):
    # x reaches a by no listed distance and a reaches x by none: the upper
    # bound at x is +inf, the lower -inf
    doc = dict(ENVELOPE_DOC, distance={"a|a": 0.0, "x|x": 0.0})
    code, report = run(tmp_path, "envelope", doc)
    assert code == 0
    assert report["upper"] == {"a": 1.0, "x": "inf"}
    assert report["lower"] == {"a": 1.0, "x": "-inf"}


def test_orlicz_norm_past_the_search_cutoff_exits_2(tmp_path, capsys):
    # on a finite space a finite function has a finite norm, so a norm the
    # search cannot bracket below its 1e12 cutoff is an input limit, not a
    # unit-ball violation: 1e13 / lambda_max = 10 leaves the modular at
    # 100 > 1 at the top of the searched scales; f and g each stay under
    # the cutoff, but f - g = 1.8e12 does not
    space = {"points": ["a"], "mu": {"a": 1.0}}
    square = {"kind": "variable_exponent", "p": {"a": 2.0}}
    huge = {"f": {"a": 1e13}, "g": {"a": 0.0}}
    apart = {"f": {"a": 9e11}, "g": {"a": -9e11}}
    cases = [({"phi": square}, huge, "phi norm of function 'f'"),
             ({"psi1": square, "psi2": square}, huge,
              "one-sided norm of function 'f'"),
             ({"psi1": square, "psi2": square}, apart,
              "one-sided distance from function 'f' to 'g'")]
    for families, functions, message in cases:
        doc = dict(families, space=space, functions=functions)
        src = write_doc(tmp_path, "in.json", doc)
        assert main(["orlicz", "--input", src]) == 2
        out, err = capsys.readouterr()
        assert out == "" and _single_error_line(err)
        assert f"{message} lies past the largest searched scale 1e+12" in err
    # just under the cutoff the norm is read, and the unit ball holds
    doc = dict(space=space, functions={"f": {"a": 9e11}}, phi=square)
    code, report = run(tmp_path, "orlicz", doc)
    assert code == 0 and report["phi"]["f"]["norm"] == pytest.approx(9e11)


def test_point_ids_resolve_like_the_per_id_scan():
    """The lookup built once per document resolves like a scan for the
    point whose str is str(id), else "unknown point id": the string form
    alone names a point, so "1" names the point 1, and True and 1.0 name
    no point 1.  The point sets pass `decode_ids`."""

    def scan(i, points):
        for p in points:
            if str(p) == str(i):
                return p
        raise ValueError(f"unknown point id {i!r}")

    ids = [1, "1", True, "True", 1.0, "1.0", False, 0, "0", 2.5, "2.5", "b",
           [3], "[3]", {"k": 1}, "x", None, "None", 7, (1,), "(1,)", [1]]
    for points in ([1, 2.5, "b", "[3]", None, (1,)], [True, 0, "x"],
                   [1.0, False, "None"], ["1", "0", "[1]"]):
        resolve = point_resolver(points)
        for i in ids:
            try:
                want = ("ok", repr(scan(i, points)))
            except ValueError as exc:
                want = ("error", str(exc))
            try:
                got = ("ok", repr(resolve(i)))
            except ValueError as exc:
                got = ("error", str(exc))
            assert got == want, (points, i)
    assert point_resolver([1, "b"])("1") == 1
    with pytest.raises(ValueError, match="unknown point id True"):
        point_resolver([1, "b"])(True)
    with pytest.raises(TypeError, match="unhashable"):
        point_resolver(["a", [1]])
    with pytest.raises(ValueError, match="distinct as values"):
        point_resolver([1, 1.0])


def test_usage_and_input_errors(tmp_path, capsys):
    src = write_doc(tmp_path, "g.json", ADDITIVE_DOC)
    assert main(["no-such-command", "--input", src]) == 2
    assert main(["check-axioms"]) == 2
    assert main(["check-axioms", "--input", src, "--tol", "0"]) == 2
    assert "quasimod: error: check-axioms takes no --tol\n" in \
        capsys.readouterr().err
    o_src = write_doc(tmp_path, "o.json", ORLICZ_DOC)
    assert main(["orlicz", "--input", o_src, "--tol", "0"]) == 2
    assert "--tol must be positive" in capsys.readouterr().err
    assert main(["check-axioms", "--input", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err
    mangled = tmp_path / "mangled.json"
    mangled.write_text('{"regime": ', encoding="utf-8")
    assert main(["check-axioms", "--input", str(mangled)]) == 2
    err = capsys.readouterr().err
    assert "malformed JSON" in err and "line 1" in err
    assert main(["--help"]) == 0
    # each flag's help names the commands that read it
    text = " ".join(capsys.readouterr().out.split())
    for flag, metavar in (("tol", "TOL"), ("grid", "GRID"),
                          ("conorm", "{max,prob_sum,bounded_sum}")):
        readers = re.search(rf"--{flag} {re.escape(metavar)} ([a-z, -]+): ",
                            text).group(1)
        assert readers.split(", ") == [c for c, (_, flags)
                                       in cli._COMMANDS.items()
                                       if flag in flags], flag


@pytest.mark.parametrize("flags, message", [
    # NaN as json spells it; a bare nan is no JSON number
    (["--tol", "NaN"], "--tol must be positive"),
    (["--tol", "1e13"], "--tol must be below"),
    (["--output", "{tmp}/missing/report.json"], "cannot write"),
])
def test_hostile_flags_exit_2_without_a_traceback(tmp_path, capsys, flags,
                                                  message):
    src = write_doc(tmp_path, "o.json", ORLICZ_DOC)
    flags = [f.format(tmp=tmp_path) for f in flags]
    assert main(["orlicz", "--input", src] + flags) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


class FullStdout(io.StringIO):
    """A standard output that refuses its writes or only its flush, as a
    full device does."""

    def __init__(self, refuses):
        super().__init__()
        self.refuses = refuses

    def write(self, text):
        self.fail("write")
        return super().write(text)

    def flush(self):
        self.fail("flush")

    def fail(self, call):
        if call == self.refuses:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


FULL_ARGV = [pytest.param(["envelope", "--input", "{src}"], id="envelope"),
             pytest.param(["graph", "--input", "{graph}"], id="graph"),
             pytest.param(["--help"], id="help")]


@pytest.mark.parametrize("refuses", ["write", "flush"])
@pytest.mark.parametrize("argv", FULL_ARGV)
def test_a_full_standard_output_exits_2_with_one_error_line(
        tmp_path, capsys, monkeypatch, argv, refuses):
    paths = {"src": write_doc(tmp_path, "e.json", ENVELOPE_DOC),
             "graph": write_doc(tmp_path, "g.json", LOG_GRAPH)}
    monkeypatch.setattr(sys, "stdout", FullStdout(refuses))
    assert main([a.format(**paths) for a in argv]) == 2
    assert capsys.readouterr().err == (
        f"quasimod: error: cannot write standard output: "
        f"{os.strerror(errno.ENOSPC)}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", FULL_ARGV)
@pytest.mark.parametrize("unbuffered", [None, "1"],
                         ids=["buffered", "unbuffered"])
def test_dev_full_as_standard_output_exits_2_with_one_error_line(
        tmp_path, argv, unbuffered):
    # a buffered standard output keeps the bytes a failed flush could not
    # write and flushes them again at interpreter exit, which prints an
    # ignored error and exits 120 unless main leaves nothing to fail there
    paths = {"src": write_doc(tmp_path, "e.json", ENVELOPE_DOC),
             "graph": write_doc(tmp_path, "g.json", LOG_GRAPH)}
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update({"PYTHONUNBUFFERED": unbuffered} if unbuffered else {})
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "quasimod.cli",
                               *(a.format(**paths) for a in argv)], env=env,
                              stdout=full, stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) == (
        2, f"quasimod: error: cannot write standard output: "
           f"{os.strerror(errno.ENOSPC)}\n")


def test_reports_are_deterministic(tmp_path):
    src = write_doc(tmp_path, "g.json", ADDITIVE_DOC)
    first, second = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["luxemburg", "--input", src, "--output", str(first)]) == 0
    assert main(["luxemburg", "--input", src, "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    o_src = write_doc(tmp_path, "o.json", ORLICZ_DOC)
    o1, o2 = tmp_path / "o1.json", tmp_path / "o2.json"
    assert main(["orlicz", "--input", o_src, "--output", str(o1)]) == 0
    assert main(["orlicz", "--input", o_src, "--output", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_console_entry_point_round_trip(tmp_path):
    src = write_doc(tmp_path, "g.json", ADDITIVE_DOC)
    proc = subprocess.run([sys.executable, "-m", "quasimod.cli",
                           "check-axioms", "--input", src],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["axioms"]["violations"] == []


# b is unreachable from a, so graph --grid exits 1
LOG_GRAPH = {"vertices": ["a", "b", "c"],
             "edges": [{"from": "a", "to": "c", "cost": 1.0},
                       {"from": "b", "to": "a", "cost": 2.0},
                       {"from": "c", "to": "a", "cost": 0.5}]}
# w(a, b) = 0 and w(b, a) = 9 escape a cell, so cover exits 1
LOG_COVER = {"regime": "additive", "points": ["a", "b", "c"],
             "grid": [1.0, 2.0],
             "table": {"a|b": [0, 0], "b|a": [9.0, 9.0], "a|c": [1, 1],
                       "c|a": [1, 1], "b|c": [9.0, 9.0], "c|b": [1, 1]}}
LOGGED = [
    pytest.param("graph", LOG_GRAPH, [], 0, 3, "read all-pairs layout write",
                 id="graph"),
    pytest.param("graph", LOG_GRAPH, ["--grid", "1,2"], 1, 3,
                 "read all-pairs layout axioms write", id="graph-grid"),
    # the grid is read before the input, so its refusal logs no phase
    pytest.param("graph", LOG_GRAPH, ["--grid", "0"], 2, 3, "",
                 id="graph-bad-grid"),
    pytest.param("cover", LOG_COVER, [], 1, 3,
                 "read thresholds heine-borel cauchy write", id="cover"),
    pytest.param("cover", {"space": LOG_COVER, "sequence": ["a", "b", "a"]},
                 [], 1, 3, "read thresholds heine-borel cauchy write",
                 id="cover-sequence"),
    pytest.param("topology", ADDITIVE_DOC, [], 0, 2,
                 "read topologies listing write", id="topology"),
    pytest.param("check-axioms", ADDITIVE_DOC, [], 0, 2, "read axioms write",
                 id="check-axioms"),
    pytest.param("luxemburg", ADDITIVE_DOC, [], 0, 2,
                 "read distances layout write", id="luxemburg"),
    pytest.param("luxemburg", RISING_DOC, [], 2, 2, "read",
                 id="luxemburg-error"),
    pytest.param("orlicz", ORLICZ_DOC, [], 0, 2, "read phi one-sided write",
                 id="orlicz"),
    pytest.param("envelope", ENVELOPE_DOC, [], 0, 2,
                 "read distance-check envelopes write", id="envelope"),
]


@pytest.mark.parametrize("command, doc, flags, code, n, phases", LOGGED)
def test_debug_logging_goes_to_stderr_only(tmp_path, command, doc, flags,
                                           code, n, phases):
    src = write_doc(tmp_path, "in.json", doc)
    quiet = {k: v for k, v in os.environ.items() if k != "QUASIMOD_LOG"}
    tables = ["r.csv"] if command in ("graph", "luxemburg") else []
    for output in (None, "r.json", *tables):
        runs = []
        for env in (quiet, dict(quiet, QUASIMOD_LOG="DEBUG")):
            argv = [sys.executable, "-m", "quasimod.cli", command,
                    "--input", src, *flags]
            if output:
                argv += ["--output", str(tmp_path / output)]
            proc = subprocess.run(argv, capture_output=True, env=env)
            written = output and tmp_path / output
            runs.append((proc, written.read_bytes()
                         if written and written.exists() else None))
        (plain, plain_out), (logged, logged_out) = runs
        assert logged.returncode == plain.returncode == code
        assert (logged.stdout, logged_out) == (plain.stdout, plain_out)
        lines = logged.stderr.decode().splitlines()
        if code == 2:  # a refusal: one error line and no report
            assert (plain.stdout, plain_out) == (b"", None)
            assert _single_error_line(plain.stderr.decode())
            assert lines.pop() + "\n" == plain.stderr.decode()
        else:
            assert (plain.stdout == b"") == bool(output)
            assert plain.stderr == b""
        if output != "r.csv" and code != 2:
            report = json.loads(plain_out or plain.stdout)
            assert report["command"] == command
            if command == "cover":
                assert ("cauchy" in report) == ("sequence" in doc)
            if command == "topology":
                assert report["join_equals_sym"]
        assert [re.fullmatch(rf"DEBUG:quasimod\.cli:{command} ([a-z-]+): "
                             rf"[0-9]+\.[0-9]{{6}} s, n={n}", line).group(1)
                for line in lines] == phases.split(), lines


# logging.BASIC_FORMAT is a str and logging._STYLES a dict: upper-case
# names in the logging module that are not levels, so each logs at INFO
@pytest.mark.parametrize("value", ["basic_format", "_styles"])
def test_a_log_value_that_names_no_level_logs_at_info(tmp_path, value):
    src = write_doc(tmp_path, "in.json", ADDITIVE_DOC)
    quiet = {k: v for k, v in os.environ.items() if k != "QUASIMOD_LOG"}
    argv = [sys.executable, "-m", "quasimod.cli", "check-axioms", "--input",
            src]
    plain, logged = (subprocess.run(argv, capture_output=True, env=env)
                     for env in (quiet, dict(quiet, QUASIMOD_LOG=value)))
    assert logged.returncode == plain.returncode == 0
    assert logged.stdout == plain.stdout
    assert logged.stderr == plain.stderr == b""


@pytest.mark.parametrize("flags", [[], ["--grid", "1,2"]])
def test_graph_debug_logging_reaches_a_configured_root_logger(
        tmp_path, monkeypatch, flags):
    # a root handler makes logging.basicConfig a no-op, so the level must
    # reach the package logger on its own; repeated calls add no handler
    src = write_doc(tmp_path, "g.json", LOG_GRAPH)
    phases = ["read", "all-pairs", "layout", *(["axioms"] if flags else []),
              "write"]
    root = logging.getLogger()
    seen = io.StringIO()
    handler = logging.StreamHandler(seen)
    root.addHandler(handler)
    package = logging.getLogger("quasimod")
    try:
        runs = []
        for level in (None, "DEBUG", "DEBUG"):
            if level:
                monkeypatch.setenv("QUASIMOD_LOG", level)
            else:
                monkeypatch.delenv("QUASIMOD_LOG", raising=False)
            handlers = list(root.handlers)
            for output in (None, tmp_path / "r.json"):
                out = io.StringIO()
                argv = ["graph", "--input", src, *flags]
                argv += ["--output", str(output)] if output else []
                with contextlib.redirect_stdout(out):
                    code = main(argv)
                written = output.read_bytes() if output else None
                runs.append((code, out.getvalue(), written))
            assert root.handlers == handlers
        assert len(set(runs[0::2])) == len(set(runs[1::2])) == 1, runs
        lines = seen.getvalue().splitlines()
        assert [re.fullmatch(r"graph ([a-z-]+): [0-9]+\.[0-9]{6} s, n=3",
                             line).group(1) for line in lines] == phases * 4
    finally:
        root.removeHandler(handler)
        package.setLevel(logging.NOTSET)


# a host program that logs at DEBUG gets the phase lines without
# QUASIMOD_LOG, whether it imports logging before or after the CLI
HOST_IMPORTS = {
    "logging-first": "import logging\nfrom quasimod.cli import main",
    "cli-first": "from quasimod.cli import main\nimport logging",
}


@pytest.mark.parametrize("order", HOST_IMPORTS)
def test_a_host_root_logger_at_debug_gets_the_phase_lines(tmp_path, order):
    src = write_doc(tmp_path, "in.json", ADDITIVE_DOC)
    quiet = {k: v for k, v in os.environ.items() if k != "QUASIMOD_LOG"}
    host = (f"{HOST_IMPORTS[order]}\n"
            f"logging.basicConfig(level=logging.DEBUG)\n"
            f"raise SystemExit(main(['check-axioms', '--input', {src!r}]))\n")
    hosted = subprocess.run([sys.executable, "-c", host], capture_output=True,
                            env=quiet)
    plain = subprocess.run([sys.executable, "-m", "quasimod.cli",
                            "check-axioms", "--input", src],
                           capture_output=True, env=quiet)
    assert hosted.returncode == plain.returncode == 0
    assert hosted.stdout == plain.stdout and plain.stderr == b""
    lines = hosted.stderr.decode().splitlines()
    assert [re.fullmatch(r"DEBUG:quasimod\.cli:check-axioms ([a-z-]+): "
                         r"[0-9]+\.[0-9]{6} s, n=2", line).group(1)
            for line in lines] == ["read", "axioms", "write"], lines


def test_luxemburg_and_graph_lay_out_only_the_maps_they_write(tmp_path,
                                                              monkeypatch):
    built = []
    real = cli._pair_maps

    def counting(vertices, *tables):
        maps = real(vertices, *tables)
        built.append(len(maps))
        return maps

    monkeypatch.setattr(cli, "_pair_maps", counting)
    assert run(tmp_path, "luxemburg", ADDITIVE_DOC)[0] == 0
    graph = {"vertices": ["a", "b"],
             "edges": [{"from": "a", "to": "b", "cost": 1.0}]}
    assert run(tmp_path, "graph", graph)[0] == 0
    assert built == [2, 2]


SEVENTEEN_POINTS = [f"p{i}" for i in range(17)]


@pytest.mark.parametrize("command, doc, message", [
    ("check-axioms", dict(ADDITIVE_DOC, table=[]), "bad gauge document"),
    ("envelope", dict(ENVELOPE_DOC, distance=[]), "bad envelope document"),
    ("envelope", dict(ENVELOPE_DOC, points=["a", "x", [1]]),
     "bad envelope document: unhashable type"),
    ("cover", {"space": ADDITIVE_DOC, "sequence": 3}, "bad cover sequence"),
    ("orlicz", {"space": {"points": ["a"], "mu": {"a": 1.0}},
                "functions": {"f": {"a": 2.0}},
                "phi": {"kind": "variable_exponent", "p": {"a": 1e308}}},
     "bad orlicz document"),
    ("cover", dict(ADDITIVE_DOC, grid=[1.0, 2.0],
                   table={"a|a": [0, 0], "b|b": [0, 0], "a|b": [5e-324] * 2,
                          "b|a": [1.0, 1.0]}),
     "radius 5e-324 has no split"),
    ("cover", dict(ADDITIVE_DOC, grid=[5e-324, 1.0],
                   table={"a|a": [0, 0], "b|b": [0, 0], "a|b": [4.0, 1.0],
                          "b|a": [3.0, 0.75]}),
     "scale 5e-324 halves to 0.0"),
    ("topology", {"regime": "additive", "points": SEVENTEEN_POINTS,
                  "grid": [1.0],
                  "table": {f"{x}|{y}": [0.0 if x == y else 1.0]
                            for x in SEVENTEEN_POINTS
                            for y in SEVENTEEN_POINTS}},
     "at most 16 points"),
    # the JSON literals NaN, Infinity and -Infinity read as float ids
    ("check-axioms", {"regime": "additive", "points": [math.inf, "b"],
                      "grid": [1.0], "table": {"inf|b": [1.0], "b|inf": [1.0]}},
     "bad gauge document: point id inf is not a finite number"),
    ("graph", {"vertices": [-math.inf, "b"],
               "edges": [{"from": "b", "to": -math.inf, "cost": 1.0}]},
     "bad graph document: vertex id -inf is not a finite number"),
    ("envelope", {"points": [math.nan, 1], "distance": {"nan|1": 1, "1|nan": 3},
                  "domain": [1], "values": {"1": 0.5}, "lipschitz": 1},
     "bad envelope document: point id nan is not a finite number"),
], ids=["gauge-table-list", "envelope-distance-list",
        "envelope-unhashable-point", "cover-sequence-number",
        "orlicz-exponent-overflow", "cover-unsplittable-radius",
        "cover-scale-halving-to-zero", "topology-17-points",
        "gauge-infinite-point", "graph-infinite-vertex", "envelope-nan-point"])
def test_malformed_documents_exit_2_without_a_traceback(tmp_path, capsys,
                                                        command, doc,
                                                        message):
    src = write_doc(tmp_path, "in.json", doc)
    assert main([command, "--input", src]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def _single_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("quasimod: error: ")


@pytest.mark.parametrize("command", ["check-axioms", "graph"])
@pytest.mark.parametrize("content, message", [
    (None, "cannot read"),
    (b"\xff\xfe{}", "cannot parse"),
    pytest.param(b"1" + b"0" * 4999, "in.json: integer literal too long "
                 "(over 4300 digits)", marks=pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="this Python parses integers of any length")),
    (b"[" * 100000 + b"]" * 100000, "cannot parse"),
], ids=["directory", "utf16-bom", "5000-digit-integer", "deep-nesting"])
def test_unreadable_input_exits_2_with_one_error_line(tmp_path, capsys,
                                                      command, content,
                                                      message):
    src = tmp_path / "in.json"
    if content is None:
        src.mkdir()
    else:
        src.write_bytes(content)
    assert main([command, "--input", str(src)]) == 2
    err = capsys.readouterr().err
    assert _single_error_line(err) and message in err


# a JSON integer that no float holds
HUGE = 10 ** 400
HUGE_GRAPH = {"vertices": ["u", "v"], "edges": [{"from": "u", "to": "v"}]}


@pytest.mark.parametrize("command, doc, message", [
    ("check-axioms", dict(ADDITIVE_DOC, table=dict(ADDITIVE_DOC["table"],
                                                   **{"a|b": [HUGE, 2, 1]})),
     "bad gauge document"),
    ("topology", dict(ADDITIVE_DOC, grid=[1.0, 2.0, HUGE]),
     "bad gauge document"),
    ("graph", dict(HUGE_GRAPH, edges=[{"from": "u", "to": "v", "cost": HUGE}]),
     "bad graph document"),
    ("graph", dict(HUGE_GRAPH, edges=[{"from": "u", "to": "v", "mu": HUGE}]),
     "bad graph document"),
    ("envelope", dict(ENVELOPE_DOC, distance=dict(ENVELOPE_DOC["distance"],
                                                  **{"x|a": HUGE})),
     "bad envelope document"),
    ("orlicz", dict(ORLICZ_DOC, space={"points": ["a", "b"],
                                       "mu": {"a": 1.0, "b": HUGE}}),
     "bad orlicz document"),
], ids=["gauge-value", "grid-scale", "graph-cost", "graph-mu",
        "envelope-distance", "orlicz-mass"])
def test_oversize_integers_exit_2_with_one_error_line(tmp_path, capsys,
                                                      command, doc, message):
    src = write_doc(tmp_path, "in.json", doc)
    assert main([command, "--input", src]) == 2
    err = capsys.readouterr().err
    assert _single_error_line(err) and message in err and "too large" in err


@pytest.mark.parametrize("cost", [-1, -0.5, "x", "inf", "nan", True, None,
                                  [], math.nan, math.inf])
def test_every_bad_edge_cost_exits_2(tmp_path, capsys, cost):
    doc = dict(HUGE_GRAPH, edges=[{"from": "u", "to": "v", "cost": cost}])
    assert main(["graph", "--input", write_doc(tmp_path, "in.json", doc)]) \
        == 2
    out, err = capsys.readouterr()
    assert out == "" and _single_error_line(err) and "edge cost" in err


# one number rule for every numeric field of every document: a JSON number
# or "inf".  Each row is (command, document, path to the field, the name
# the error gives it); bare float() once read several of these fields and
# took true as 1.0 and "2" as 2.0
WIRE_GRAPH = {"vertices": ["u", "v"],
              "edges": [{"from": "u", "to": "v", "mu": 1.0, "cost": 1.0}],
              "measure": {"u": 1.0, "v": 2.0}}
SQUARES = {"kind": "variable_exponent", "p": {"a": 2.0, "b": 2.0}}
DOUBLE_PHASE = dict(ORLICZ_DOC, phi={"kind": "double_phase", "p": 2.0,
                                     "q": 3.0, "a": {"a": 1.0, "b": 0.5}})
WEIGHTED = dict(ORLICZ_DOC, phi={"kind": "weighted", "base": SQUARES,
                                 "w": {"a": 1.0, "b": 2.0}})
NUMERIC_FIELDS = {
    "gauge-grid": ("check-axioms", ADDITIVE_DOC, ("grid", 1), "grid"),
    "gauge-table": ("check-axioms", ADDITIVE_DOC, ("table", "a|b", 0),
                    "table[a|b]"),
    "graph-mu": ("graph", WIRE_GRAPH, ("edges", 0, "mu"), "edge mu"),
    "graph-cost": ("graph", WIRE_GRAPH, ("edges", 0, "cost"), "edge cost"),
    "graph-measure": ("graph", WIRE_GRAPH, ("measure", "u"),
                      "measure at 'u'"),
    "orlicz-mu": ("orlicz", ORLICZ_DOC, ("space", "mu", "a"), "mu at 'a'"),
    "orlicz-exponent": ("orlicz", ORLICZ_DOC, ("phi", "p", "a"), "p at 'a'"),
    "orlicz-p": ("orlicz", DOUBLE_PHASE, ("phi", "p"), "p"),
    "orlicz-q": ("orlicz", DOUBLE_PHASE, ("phi", "q"), "q"),
    "orlicz-a": ("orlicz", DOUBLE_PHASE, ("phi", "a", "a"), "a at 'a'"),
    "orlicz-w": ("orlicz", WEIGHTED, ("phi", "w", "a"), "w at 'a'"),
    "orlicz-function": ("orlicz", ORLICZ_DOC, ("functions", "f", "a"),
                        "function value at 'a'"),
    "envelope-distance": ("envelope", ENVELOPE_DOC, ("distance", "x|a"),
                          "distance[x|a]"),
    "envelope-value": ("envelope", ENVELOPE_DOC, ("values", "a"),
                       "value at 'a'"),
    "envelope-lipschitz": ("envelope", ENVELOPE_DOC, ("lipschitz",),
                           "lipschitz"),
}
NON_NUMBERS = {"true": True, "false": False, "string": "2", "null": None,
                  "list": [1]}


@pytest.mark.parametrize("field", NUMERIC_FIELDS)
def test_number_table_documents_pass_as_written(tmp_path, field):
    command, doc, _, _ = NUMERIC_FIELDS[field]
    assert main([command, "--input", write_doc(tmp_path, "in.json", doc)]) \
        == 0


def _set_field(field, value):
    """The field's document with the field set to value, and its name."""
    command, doc, path, name = NUMERIC_FIELDS[field]
    doc = copy.deepcopy(doc)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return command, doc, name


@pytest.mark.parametrize("value", NON_NUMBERS)
@pytest.mark.parametrize("field", NUMERIC_FIELDS)
def test_every_numeric_field_refuses_non_numbers(tmp_path, capsys, field,
                                                 value):
    command, doc, name = _set_field(field, NON_NUMBERS[value])
    assert main([command, "--input", write_doc(tmp_path, "in.json", doc)]) \
        == 2
    out, err = capsys.readouterr()
    assert out == "" and _single_error_line(err)
    assert f'{name} must be a number or "inf", got ' \
        f'{NON_NUMBERS[value]!r}' in err


@pytest.mark.parametrize("field", NUMERIC_FIELDS)
def test_every_numeric_field_names_itself_past_the_float_range(
        tmp_path, capsys, field):
    command, doc, name = _set_field(field, 10 ** 400)
    assert main([command, "--input", write_doc(tmp_path, "in.json", doc)]) \
        == 2
    out, err = capsys.readouterr()
    assert out == "" and _single_error_line(err)
    assert f"{name} is too large for a float: an integer of 1329 bits" in err


# the Orlicz coefficients read by the number rule, which admits "inf", and
# refused as infinite by the model, each with the line that names it
INFINITE_COEFFICIENTS = {
    "orlicz-q": "double phase needs 1 <= p < q < inf, got p=2.0, q=inf",
    "orlicz-a": "double-phase coefficient a at 'a' must be >= 0 and finite, "
                "got inf",
    "orlicz-w": "weights must be positive and finite: w at 'a' is inf",
}


@pytest.mark.parametrize("field", INFINITE_COEFFICIENTS)
def test_infinite_orlicz_coefficients_exit_2_naming_the_coefficient(
        tmp_path, capsys, field):
    command, doc, _ = _set_field(field, "inf")
    assert main([command, "--input", write_doc(tmp_path, "in.json", doc)]) \
        == 2
    out, err = capsys.readouterr()
    assert out == "" and _single_error_line(err)
    assert f"bad orlicz document: {INFINITE_COEFFICIENTS[field]}" in err


@pytest.mark.parametrize("value", NON_NUMBERS)
def test_schedule_times_refuse_non_numbers(value):
    with pytest.raises(ValueError, match=re.escape(
            f'times must be a number or "inf", got {NON_NUMBERS[value]!r}')):
        schedule_from_json({"times": [0.0, NON_NUMBERS[value]],
                            "costs": {}})


# float() and int() alone read each of these as a time and an edge
@pytest.mark.parametrize("key", ["1_0|0", " 1 |+0", "1|01", "1.|0", ".5|0",
                                 "1|-0", "1|0.0", "nan|0", "Infinity|0",
                                 "\u0661|0", "1|\u0660", "1|0|0"])
def test_schedule_keys_are_a_json_number_and_a_json_index(key):
    with pytest.raises(ValueError, match=re.escape(
            f"bad schedule key {key!r}; expected 'time|edge' with a JSON "
            f"number and a non-negative integer")):
        schedule_from_json({"times": [1.0, 10.0], "costs": {key: 1.0}})


def test_schedule_key_times_take_the_number_rule():
    huge = f"{10 ** 400}|0"
    with pytest.raises(ValueError, match=re.escape(
            f"time of {huge!r} is too large for a float")):
        schedule_from_json({"times": [1.0], "costs": {huge: 1.0}})


def test_schedule_keys_round_trip():
    times = (-2.5, 0.0, 1e-05, 0.1, 3.0, 1e+16, math.inf)
    s = DynamicCostSchedule(times, {(t, k): 1.0 + k for t in times
                                    for k in (0, 1, 12)})
    doc = json.loads(json.dumps(schedule_to_json(s)))
    assert {"1e-05|12", "1e+16|0", "inf|1", "-2.5|0"} <= set(doc["costs"])
    assert schedule_from_json(doc) == s


# ids that end up in "x|y" keys must stringify uniquely and hold no "|":
# ("a|b", "c") and ("a", "b|c") would share the key "a|b|c"
BARRED = ["a|b", "c", "a", "b|c"]
VALUE_EQUAL = "ids must be distinct as values: 1, 1.0 and true are one id"
COVER_01 = {"regime": "additive", "points": [0, 1], "grid": [1.0, 2.0],
            "table": {"0|0": [0, 0], "0|1": [2.0, 1.0], "1|0": [1.0, 0.5],
                      "1|1": [0, 0]}}


def orlicz_on(points):
    """An orlicz document whose masses, function and phi read each point
    by its string form."""
    def each(v):
        return {str(p): v for p in points}

    return {"space": {"points": points, "mu": each(1.0)},
            "functions": {"f": each(1.0)},
            "phi": {"kind": "variable_exponent", "p": each(2.0)}}


@pytest.mark.parametrize("command, doc, message", [
    ("graph", {"vertices": BARRED, "edges": [{"from": "a|b", "to": "c"},
                                             {"from": "c", "to": "a"},
                                             {"from": "a", "to": "b|c"}]},
     "bad graph document: vertex ids must stringify uniquely and avoid '|'"),
    ("orlicz", dict(ORLICZ_DOC, functions={f: {"a": float(i), "b": 1.0}
                                           for i, f in enumerate(BARRED)}),
     "bad orlicz document: function ids must stringify uniquely and avoid"),
    ("envelope", dict(ENVELOPE_DOC, points=[1, "1", "b"],
                      distance={"1|b": 1.0, "b|1": 1.0}, domain=[1],
                      values={"1": 0.0}),
     "bad envelope document: point ids must stringify uniquely and avoid"),
    ("envelope", dict(ENVELOPE_DOC, points=["a", "a", "x"]),
     "bad envelope document: point ids must stringify uniquely and avoid"),
    ("check-axioms", {"regime": "additive", "points": ["a|b"],
                      "grid": [1.0], "table": {}},
     "bad gauge document: point ids must stringify uniquely and avoid"),
    ("cover", {"space": ADDITIVE_DOC, "sequence": "abba"},
     "bad cover sequence: expected a JSON list, not str"),
    ("cover", {"space": ADDITIVE_DOC, "sequence": {"a": 1}},
     "bad cover sequence: expected a JSON list, not dict"),
    # ids must also be distinct as values, which one dict key would merge,
    # and a sequence id names only the point of its string form
    ("envelope", {"points": [1, 1.0, "x"],
                  "distance": {"1|x": 1.0, "x|1": 2.0, "1.0|x": 5.0,
                               "x|1.0": 1.0},
                  "domain": [1], "values": {"1": 0.0}, "lipschitz": 1.0},
     f"bad envelope document: point {VALUE_EQUAL}"),
    ("envelope", {"points": [True, 1, "x"],
                  "distance": {"True|x": 1.0, "x|True": 1.0, "1|x": 1.0,
                               "x|1": 1.0},
                  "domain": ["x"], "values": {"x": 0.0}, "lipschitz": 1.0},
     f"bad envelope document: point {VALUE_EQUAL}"),
    ("check-axioms", dict(ADDITIVE_DOC, points=[1, 1.0], grid=[1.0],
                          table={"1|1": [0], "1|1.0": [1], "1.0|1": [1],
                                 "1.0|1.0": [0]}),
     f"bad gauge document: point {VALUE_EQUAL}"),
    ("graph", {"vertices": [1, True], "edges": []},
     f"bad graph document: vertex {VALUE_EQUAL}"),
    ("cover", {"space": COVER_01, "sequence": [True, False]},
     "bad cover sequence: unknown point id True"),
    ("cover", {"space": dict(COVER_01, points=[1, 0]), "sequence": [1.0]},
     "bad cover sequence: unknown point id 1.0"),
    # measure-space points follow the same rule, though no pair key holds
    # them
    ("orlicz", orlicz_on([1, 1.0]),
     f"bad orlicz document: point {VALUE_EQUAL}"),
    ("orlicz", orlicz_on([True, 1]),
     f"bad orlicz document: point {VALUE_EQUAL}"),
    ("orlicz", orlicz_on([1, "1"]),
     "bad orlicz document: point ids must stringify uniquely and avoid '|'"),
    ("orlicz", orlicz_on(["a|b", "c"]),
     "bad orlicz document: point ids must stringify uniquely and avoid '|'"),
], ids=["graph-vertices", "orlicz-function-ids", "envelope-str-collision",
        "envelope-duplicate-points", "gauge-point", "cover-sequence-string",
        "cover-sequence-object", "envelope-int-float", "envelope-bool-int",
        "gauge-int-float", "graph-int-bool", "cover-bool-sequence",
        "cover-float-sequence", "orlicz-int-float", "orlicz-bool-int",
        "orlicz-str-collision", "orlicz-bar"])
def test_ambiguous_ids_and_non_list_sequences_exit_2(tmp_path, capsys,
                                                     command, doc, message):
    src = write_doc(tmp_path, "in.json", doc)
    assert main([command, "--input", src]) == 2
    out, err = capsys.readouterr()
    assert out == "" and _single_error_line(err) and message in err


def test_a_sequence_id_names_the_point_of_its_string_form(tmp_path):
    by_string = run(tmp_path, "cover", {"space": COVER_01,
                                        "sequence": ["1", "0", 1]})
    assert by_string == run(tmp_path, "cover", {"space": COVER_01,
                                                "sequence": [1, 0, 1]})
    assert by_string[0] == 0 and by_string[1]["cauchy"]


# json.load alone keeps the last of repeated keys, so each document below
# would be read on its second value: the gauge would pass check-axioms on
# a|b = [4, 2, 1] alone, with exit 0
@pytest.mark.parametrize("command, doc, key, first", [
    ("check-axioms", ADDITIVE_DOC, "a|b", [9.0, 9.0, 9.0]),
    ("cover", {"space": ADDITIVE_DOC, "sequence": ["a", "b"]}, "sequence",
     ["b"]),
    ("graph", dict(HUGE_GRAPH, edges=[{"from": "u", "to": "v", "cost": 1.0}]),
     "cost", 9.0),
    ("orlicz", ORLICZ_DOC, "f", {"a": 0.0, "b": 0.0}),
    ("envelope", ENVELOPE_DOC, "x|a", 9.0),
], ids=["gauge-table", "cover-sequence", "graph-edge", "orlicz-function-ids",
        "envelope-distance"])
def test_repeated_object_keys_exit_2(tmp_path, capsys, command, doc, key,
                                     first):
    text = json.dumps(doc)
    head = json.dumps(key) + ": "
    assert text.count(head) == 1
    src = tmp_path / "in.json"
    src.write_text(text.replace(head, head + json.dumps(first) + ", " + head),
                   encoding="utf-8")
    assert main([command, "--input", str(src)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and _single_error_line(err)
    assert f"repeated JSON object key {key!r} in {src}" in err
    # the same document without the repeat is read as before
    assert main([command, "--input", write_doc(tmp_path, "ok.json", doc)]) \
        in (0, 1)


# ---------------------------------------------------------------------------
# fuzzing: valid seeded documents, then keys dropped, values swapped for
# hostile ones, and the file cut short


VALID_DOCUMENTS = valid_documents()
HOSTILE_VALUES = (None, [], {}, "x", math.nan, math.inf, 1e308, HUGE)


def _paths(doc, prefix=()):
    """Every node's path, children first and the root last."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))
    yield prefix


@st.composite
def mutated_documents(draw, command):
    """One to three mutations of a valid document, then maybe a cut through
    the serialized text.  A mutation's node is drawn either uniformly or at
    a uniformly drawn depth, so that the few top-level keys come up about as
    often as the many table entries."""
    doc = [copy.deepcopy(VALID_DOCUMENTS[command])]
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc[0]))
        if len(paths) > 1 and draw(st.booleans()):
            depth = draw(st.sampled_from(sorted({len(p) for p in paths} - {0})))
            paths = [p for p in paths if len(p) == depth]
        path = (0,) + draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(st.sampled_from(HOSTILE_VALUES))
    text = json.dumps(doc[0])
    if draw(st.integers(0, 5)) == 0:
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


# Examples per command.  On code without the exit-2 mapping these find each
# malformed-document crash pinned above (all but the 17-point topology one);
# the overflow needs a 1e308 exponent, and orlicz documents have few.
FUZZ_EXAMPLES = {"check-axioms": 100, "cover": 150, "envelope": 100,
                 "graph": 100, "luxemburg": 100, "orlicz": 250,
                 "topology": 100}


@pytest.mark.parametrize("command", sorted(VALID_DOCUMENTS))
def test_fuzzed_documents_never_end_in_a_traceback(tmp_path, command):
    src = tmp_path / "in.json"
    flags = ["--grid", "8,16"] if command == "graph" else []

    @settings(derandomize=True, deadline=None, database=None,
              max_examples=FUZZ_EXAMPLES[command],
              suppress_health_check=[HealthCheck.too_slow])
    @given(text=mutated_documents(command))
    def run(text):
        src.write_text(text, encoding="utf-8")
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = main([command, "--input", str(src), *flags])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code != 2:
            strict_json(out.getvalue())

    run()


# ---------------------------------------------------------------------------
# fuzzing the flags: hostile --grid, --tol and --conorm values on every
# command's seeded document.  A command refuses the flags it does not read;
# check-axioms and topology read a conorm-regime gauge, so their --conorm
# runs go through the override

HOSTILE_GRIDS = ("0", "-1", "nan", "inf", "1,1", "2,1", "", ",", "1e400",
                 "5e-324", "1e308,1.7e308")
# the last four are the spellings float() read and the number rule refuses
HOSTILE_TOLS = ("5e-324", "inf", "-0", "1e11", "1_0e-9", "+1e-9", ".5e-9",
                " 1e-9 ")
HOSTILE_FLAGS = ([["--grid", v] for v in HOSTILE_GRIDS]
                 + [["--tol", v] for v in HOSTILE_TOLS]
                 + [["--conorm", c] for c in ("max", "prob_sum",
                                              "bounded_sum")])
# two hostile values at once, from two different flags
HOSTILE_FLAG_PAIRS = [a + b for i, a in enumerate(HOSTILE_FLAGS)
                      for b in HOSTILE_FLAGS[i + 1:] if a[0] != b[0]]


def run_hostile_flags(tmp_path, command, flag_lists):
    src = write_doc(tmp_path, "in.json", VALID_DOCUMENTS[command])
    for flags in flag_lists:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--input", src, *flags])
        text = err.getvalue()
        errors = [line for line in text.splitlines()
                  if line.startswith("quasimod: error: ")]
        assert code in (0, 1, 2), (flags, code)
        assert "Traceback" not in text, flags
        assert len(errors) == (code == 2), (flags, text)


@pytest.mark.parametrize("command", sorted(VALID_DOCUMENTS))
def test_hostile_flags_exit_0_1_or_2_with_at_most_one_error_line(
        tmp_path, command):
    run_hostile_flags(tmp_path, command, HOSTILE_FLAGS)


@pytest.mark.parametrize("command", sorted(VALID_DOCUMENTS))
def test_hostile_flag_pairs_exit_0_1_or_2_with_at_most_one_error_line(
        tmp_path, command):
    assert len(HOSTILE_FLAG_PAIRS) == 11 * 8 + 11 * 3 + 8 * 3
    run_hostile_flags(tmp_path, command, HOSTILE_FLAG_PAIRS)

"""Command-line interface: exit codes, report shapes, determinism."""

import contextlib
import copy
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quasimod import (TConorm, conorm_from_name, gauge_from_json,
                      gauge_to_json, graph_to_json, quasi_uniformity_report)
from quasimod.cli import InputError, _point_resolver, main

from conftest import (points_named, random_conorm_gauge, random_measure_space,
                      random_min_cap_gauge, random_orlicz_family,
                      random_quasi_pseudometric,
                      random_strongly_connected_graph, random_total_function,
                      rng_for)

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


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run(tmp_path, command, doc, *extra):
    src = write_doc(tmp_path, "in.json", doc)
    out = tmp_path / "out.json"
    code = main([command, "--input", src, "--output", str(out), *extra])
    return code, read_report(out)


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
    doc = read_report(out)
    assert abs(doc["distances"]["a|b"] - 2.0) <= 1e-6
    assert doc["distances"]["a|a"] == 0.0
    assert abs(doc["symmetrized"]["a|b"] - 2.0) <= 1e-6
    csv_out = tmp_path / "lux.csv"
    assert main(["luxemburg", "--input", src, "--output", str(csv_out)]) == 0
    lines = csv_out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == ",a,b"
    assert lines[1].startswith("a,0.0,")


def test_luxemburg_rejects_nonmonotone_and_conorm_gauges(tmp_path):
    rising = {"regime": "additive", "points": ["a", "b"], "grid": [1.0, 2.0],
              "table": {"a|a": [0, 0], "b|b": [0, 0],
                        "a|b": [1.0, 2.0], "b|a": [1.0, 2.0]}}
    code, doc = run(tmp_path, "luxemburg", rising)
    assert code == 1
    assert "error" in doc
    src = write_doc(tmp_path, "c.json", PROBSUM_ONLY_DOC)
    assert main(["luxemburg", "--input", src]) == 2


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


def test_point_ids_resolve_like_the_per_id_scan():
    """The lookup built once per document resolves like the scan it
    replaced: the id itself on an exact match, else the point whose str is
    str(id), else "unknown point id"."""

    def scan(ids, points):
        by_str = {str(p): p for p in points}
        out = []
        for i in ids:
            key = i if i in points else by_str.get(str(i))
            if key is None:
                raise InputError(f"unknown point id {i!r}")
            out.append(key)
        return out

    points = [1, "1", 2.5, "b", "[3]", None, (1,)]
    ids = [1, "1", True, 1.0, "2.5", 2.5, "b", [3], "[3]", {"k": 1}, "x",
           [4], None, "None", 7, (1,), "(1,)", [1]]
    resolve = _point_resolver(points)
    for i in ids:
        try:
            want = ("ok", repr(scan([i], points)[0]))
        except InputError as exc:
            want = ("error", str(exc))
        try:
            got = ("ok", repr(resolve(i)))
        except InputError as exc:
            got = ("error", str(exc))
        assert got == want, i
    with pytest.raises(TypeError, match="unhashable"):
        _point_resolver(["a", [1]])


def test_usage_and_input_errors(tmp_path, capsys):
    src = write_doc(tmp_path, "g.json", ADDITIVE_DOC)
    assert main(["no-such-command", "--input", src]) == 2
    assert main(["check-axioms"]) == 2
    assert main(["check-axioms", "--input", src, "--tol", "0"]) == 2
    assert "--tol must be positive" in capsys.readouterr().err
    assert main(["check-axioms", "--input", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err
    mangled = tmp_path / "mangled.json"
    mangled.write_text('{"regime": ', encoding="utf-8")
    assert main(["check-axioms", "--input", str(mangled)]) == 2
    err = capsys.readouterr().err
    assert "malformed JSON" in err and "line 1" in err
    assert main(["--help"]) == 0


@pytest.mark.parametrize("flags, message", [
    (["--tol", "nan"], "--tol must be positive"),
    (["--tol", "1e13"], "--tol must be below"),
    (["--output", "{tmp}/missing/report.json"], "cannot write"),
])
def test_hostile_flags_exit_2_without_a_traceback(tmp_path, capsys, flags,
                                                  message):
    src = write_doc(tmp_path, "g.json", ADDITIVE_DOC)
    flags = [f.format(tmp=tmp_path) for f in flags]
    assert main(["luxemburg", "--input", src] + flags) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


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
    ("topology", {"regime": "additive", "points": SEVENTEEN_POINTS,
                  "grid": [1.0],
                  "table": {f"{x}|{y}": [0.0 if x == y else 1.0]
                            for x in SEVENTEEN_POINTS
                            for y in SEVENTEEN_POINTS}},
     "at most 16 points"),
], ids=["gauge-table-list", "envelope-distance-list",
        "envelope-unhashable-point", "cover-sequence-number",
        "orlicz-exponent-overflow", "cover-unsplittable-radius",
        "topology-17-points"])
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


# ---------------------------------------------------------------------------
# fuzzing: valid seeded documents, then keys dropped, values swapped for
# hostile ones, and the file cut short


def _valid_documents():
    rng = rng_for(900)
    conorm = gauge_to_json(random_conorm_gauge(rng, 3, TConorm.MAX))
    additive = gauge_to_json(random_min_cap_gauge(rng, 3))
    space = random_measure_space(rng, 3)
    functions = {f"f{i}": {str(p): v for p, v in
                           random_total_function(rng, space).items()}
                 for i in range(2)}
    points = points_named(3)
    rho = random_quasi_pseudometric(rng, points)
    return {
        "check-axioms": conorm,
        "topology": conorm,
        "cover": {"space": additive, "sequence": list(additive["points"]) * 2},
        "luxemburg": additive,
        "graph": graph_to_json(random_strongly_connected_graph(rng, 4)),
        "orlicz": {"space": space.to_json(), "functions": functions,
                   "phi": random_orlicz_family(rng, space).to_json(),
                   "psi1": random_orlicz_family(rng, space).to_json(),
                   "psi2": random_orlicz_family(rng, space).to_json()},
        "envelope": {"points": list(points),
                     "distance": {f"{x}|{y}": v for (x, y), v in rho.items()},
                     "domain": list(points[:2]),
                     "values": {points[0]: 0.0, points[1]: 0.5},
                     "lipschitz": 1.0},
    }


VALID_DOCUMENTS = _valid_documents()
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
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--input", str(src), *flags])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()

    run()

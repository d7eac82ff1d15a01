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
from contract import (ADDITIVE_DOC, COVER_01, ENVELOPE_DOC, HUGE,
                      NUMERIC_FIELDS, ONE_POINT, ORLICZ_DOC, PROBSUM_ONLY_DOC,
                      REPEATS, RISING_DOC, SQUARE, held_tests)


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


def test_a_fault_in_the_orlicz_computation_is_not_an_input_error(
        tmp_path, monkeypatch):
    # exit 2 is for usage and input errors; a program fault stays a fault
    def broken(*args):
        raise TypeError("planted fault")

    monkeypatch.setattr(cli, "unit_ball_check", broken)
    src = write_doc(tmp_path, "in.json", ORLICZ_DOC)
    with pytest.raises(TypeError, match="planted fault"):
        main(["orlicz", "--input", src])


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


def test_grid_scales_are_json_numbers(tmp_path, capsys):
    """Each --grid item is a JSON number, whitespace around it allowed;
    float() read "1_0" as 10 and "+1" as 1: the grid-* contract rows."""
    src = write_doc(tmp_path, "in.json", ADDITIVE_DOC)
    assert main(["check-axioms", "--input", src, "--grid", " 1 ,2\t"]) == 0
    spaced = capsys.readouterr().out
    assert main(["check-axioms", "--input", src, "--grid", "1,2"]) == 0
    assert capsys.readouterr().out == spaced


def test_envelope_writes_unreachable_bounds_as_strings(tmp_path):
    # x reaches a by no listed distance and a reaches x by none: the upper
    # bound at x is +inf, the lower -inf
    doc = dict(ENVELOPE_DOC, distance={"a|a": 0.0, "x|x": 0.0})
    code, report = run(tmp_path, "envelope", doc)
    assert code == 0
    assert report["upper"] == {"a": 1.0, "x": "inf"}
    assert report["lower"] == {"a": 1.0, "x": "-inf"}


def test_orlicz_norm_past_the_search_cutoff_exits_2(tmp_path):
    # past the cutoff: the orlicz-*-past-cutoff contract rows; just under
    # it the norm is read, and the unit ball holds
    doc = dict(ONE_POINT, functions={"f": {"a": 9e11}}, phi=SQUARE)
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


def test_usage_and_input_errors(capsys):
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


def _single_error_line(err):
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("quasimod: error: ")


@pytest.mark.parametrize("field", NUMERIC_FIELDS)
def test_number_table_documents_pass_as_written(tmp_path, field):
    command, doc = NUMERIC_FIELDS[field][:2]
    assert main([command, "--input", write_doc(tmp_path, "in.json", doc)]) \
        == 0


def test_schedule_keys_round_trip():
    times = (-2.5, 0.0, 1e-05, 0.1, 3.0, 1e+16, math.inf)
    s = DynamicCostSchedule(times, {(t, k): 1.0 + k for t in times
                                    for k in (0, 1, 12)})
    doc = json.loads(json.dumps(schedule_to_json(s)))
    assert {"1e-05|12", "1e+16|0", "inf|1", "-2.5|0"} <= set(doc["costs"])
    assert schedule_from_json(doc) == s


def test_a_sequence_id_names_the_point_of_its_string_form(tmp_path):
    by_string = run(tmp_path, "cover", {"space": COVER_01,
                                        "sequence": ["1", "0", 1]})
    assert by_string == run(tmp_path, "cover", {"space": COVER_01,
                                                "sequence": [1, 0, 1]})
    assert by_string[0] == 0 and by_string[1]["cauchy"]


# refusals held under the ids these tests had before tests/contract.py
globals().update(held_tests("test_cli"))


@pytest.mark.parametrize("name", REPEATS)
def test_repeated_object_keys_exit_2(tmp_path, name):
    # with the repeat: the repeated-* contract rows; without it the same
    # document is read as before
    command, doc = REPEATS[name][:2]
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

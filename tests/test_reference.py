"""Every CLI report against its definition.

`reference.report` builds each command's report dict and exit code from
the paper's definitions.  The command, run through `cli.main`, must exit
with that code and write exactly json.dumps(report, sort_keys=True,
indent=2) + "\\n": to a file with json's C encoder, and to stdout without
it.  `graph` and `luxemburg` must also write the .csv their distance maps
give.  The documents come from the conftest corpora, the fuzz tests' valid
documents, scaled metrics w = g(t) * d with +inf holes, and seeded graphs:
strongly connected, with unreachable pairs, zero costs, one vertex, int ids,
shared keys and two-way edges, on grids above, below and between their
distances, and benchmark-size ones.  Costs are dyadic, so every path sum
is exact.  A graph whose vertex names hold "|" must exit 2 instead: two of
its pairs could write one "x|y" key.  So must a `luxemburg` table whose row
rises, with the reference's error line and no report written: on every
additive gauge document, exactly where `check-axioms` lists a
scale-monotone violation.
"""

import contextlib
import csv
import io
import json
from itertools import chain

import pytest

from quasimod import (INF, ScaleGrid, check_axioms, gauge_to_json,
                      graph_from_json, graph_gauge, make_min_cap)
from quasimod import cli

from conftest import (BIG, GAUGES, random_digraph,
                      random_strongly_connected_graph, relabel, rng_for,
                      scaled_metric_gauges, to_doc, valid_documents)
from reference import WRITES_CSV, path_distances, report


# ---------------------------------------------------------------------------
# gauge documents


# hand-written documents, each with what its report must hold
SMALL = {"regime": "additive", "points": ["a", "b"], "grid": [1, 2],
         "table": {"a|a": [0, 0], "a|b": [2, 1], "b|a": [1, 0.5],
                   "b|b": [0, 0]}}
# w(a, b, 1) = 1 is a bounded violation, not a range error, and its balls
# still give one topology
PROBSUM = {"regime": "conorm", "conorm": "prob_sum", "points": ["a", "b"],
           "grid": [1, 2], "table": {"a|a": [0, 0], "a|b": [1, 0.5],
                                     "b|a": [0.5, 0.25], "b|b": [0, 0]}}
# violations laid out by columns, each witness a nested list: points of
# three types, -0.0 beside 0.0 and "inf"
VIOLATIONS = {"regime": "additive", "points": [0, "b", 2.5], "grid": [1, 2, 4],
              "table": {"0|0": [0.5, 0, 0], "0|b": [-0.0, 1, 0],
                        "b|0": [0, 0, 0], "0|2.5": [1, 1, 1],
                        "2.5|0": [1, 1, 1], "b|2.5": [0, 0, 0],
                        "2.5|b": [1, "inf", 1]}}
# rows that rise by less than a search's float slack, below the threshold 1
# and across it: a table is read exactly, so `luxemburg` refuses both, as
# `check-axioms` flags both
CREEP = {"regime": "additive", "points": ["a", "b"], "grid": [1, 2, 4],
         "table": {"a|b": [0.5, 0.5000000000001, 0.25], "b|a": [2, 1, 0.5]}}
CREEP_PAST_C = {"regime": "additive", "points": ["a", "b"], "grid": [1, 2, 4],
                "table": {"a|b": [0.5, 0.5, 0.25],
                          "b|a": [2.0, 1.0, 1.0000000001]}}


def gauges():
    """The dense and cover corpora, and scaled metrics with +inf holes."""
    for name in sorted(GAUGES):
        for k, g in enumerate(GAUGES[name]()):
            yield f"{name}{k}", g
    for seed in range(3):
        for k, g in enumerate(scaled_metric_gauges(seed, holes=0.5)):
            yield f"scaled{seed}_{k}", g


def gauge_cases():
    for name, g in gauges():
        doc = gauge_to_json(g)
        sequence = list(g.points[::-1]) + list(g.points)
        yield f"check-axioms-{name}", "check-axioms", doc, []
        yield f"topology-{name}", "topology", doc, []
        yield f"cover-{name}", "cover", {"space": doc, "sequence": sequence}, []
        if g.conorm is None:
            yield f"luxemburg-{name}", "luxemburg", doc, []
        else:
            yield f"conorm-{name}", "check-axioms", doc, ["--conorm", "max"]
    for command, doc in sorted(valid_documents().items()):
        if command != "orlicz":
            yield f"valid-{command}", command, doc, []
    yield "valid-graph-grid", "graph", valid_documents()["graph"], \
        ["--grid", "8,16"]
    yield "small-cover", "cover", {"space": SMALL,
                                   "sequence": ["a", "b", "a"]}, []
    yield "small-topology", "topology", SMALL, []
    yield "probsum-check-axioms", "check-axioms", PROBSUM, []
    yield "probsum-topology", "topology", PROBSUM, []
    yield "violations-check-axioms", "check-axioms", VIOLATIONS, []
    yield "luxemburg-creep", "luxemburg", CREEP, []
    yield "luxemburg-creep-past-c", "luxemburg", CREEP_PAST_C, []


def test_scaled_metrics_meet_infinite_distances():
    assert any(INF in g.table[(x, y)] for seed in range(3)
               for g in scaled_metric_gauges(seed, holes=0.5)
               for x in g.points for y in g.points)


# ---------------------------------------------------------------------------
# graph documents: dyadic costs


def strongly_connected(rng):
    return to_doc(random_strongly_connected_graph(rng, rng.randrange(2, 8)))


def two_way(rng):
    """Each edge also reversed at the same cost: symmetric distances."""
    doc = strongly_connected(rng)
    back = [dict(e, **{"from": e["to"], "to": e["from"]})
            for e in doc["edges"]]
    return dict(doc, edges=doc["edges"] + back)


def unreachable(rng):
    return to_doc(random_digraph(rng, rng.randrange(2, 8), p=0.25))


def zero_costs(rng):
    """Every third edge, on average, made free."""
    doc = to_doc(random_digraph(rng, rng.randrange(2, 8)))
    return dict(doc, edges=[dict(e, cost=0.0) if rng.random() < 1 / 3 else e
                            for e in doc["edges"]])


def single_vertex(rng):
    return {"vertices": [rng.choice(["a", 0, "v|w"])], "edges": []}


def int_ids(rng):
    doc = strongly_connected(rng)
    return relabel(doc, rng.sample(range(-50, 50), len(doc["vertices"])))


def shared_keys(rng):
    # ("a|b", "c") and ("a", "b|c") both would write the key "a|b|c"
    doc = to_doc(random_digraph(rng, 5, p=0.5))
    return relabel(doc, ["a|b", "c", "a", "b|c", "|"])


GRAPHS = {"strongly_connected": strongly_connected,
          "unreachable": unreachable, "zero_costs": zero_costs,
          "single_vertex": single_vertex, "int_ids": int_ids,
          "shared_keys": shared_keys, "two_way": two_way}


def finite_distances(doc):
    return [v for v in path_distances(graph_from_json(doc)).values()
            if 0.0 < v < INF]


def grid_flags(kind, doc):
    """--grid above every distance, below every one, or between them."""
    if kind == "none":
        return []
    d = sorted(set(finite_distances(doc))) or [1.0]
    grid = {"above": [2 * d[-1], 4 * d[-1], 8 * d[-1]],
            "below": [d[0] / 8, d[0] / 4, d[0] / 2],
            "between": sorted({d[0], d[len(d) // 2], 2 * d[-1]})}[kind]
    return ["--grid", ",".join(map(repr, grid))]


def graph_cases():
    for corpus in sorted(GRAPHS):
        for kind in ("above", "below", "between", "none"):
            for seed in range(4):
                doc = GRAPHS[corpus](rng_for(900 + seed))
                if any("|" in str(v) for v in doc["vertices"]):
                    flags = [] if kind == "none" else ["--grid", "1.0,2.0"]
                else:
                    flags = grid_flags(kind, doc)
                yield f"graph-{corpus}-{kind}-{seed}", "graph", doc, flags
    # an unreachable 90-vertex graph is not run with --grid: min(inf, t)
    # breaks the triangle so often that its report holds 147 MB of witnesses
    for corpus in sorted(BIG):
        for n in (12, 40, 90):
            doc = BIG[corpus](rng_for(960 + n), n)
            for kind in ("none", "above"):
                if (corpus, n, kind) != ("unreachable", 90, "above"):
                    yield f"big-{corpus}-{n}-{kind}", "graph", doc, \
                        grid_flags(kind, doc)


CASES = {case[0]: case[1:] for case in (*gauge_cases(), *graph_cases())}


def test_shared_keys_corpus_really_shares_a_key():
    doc = shared_keys(rng_for(900))
    keys = [f"{x}|{y}" for x in doc["vertices"] for y in doc["vertices"]]
    assert len(set(keys)) < len(keys)
    with pytest.raises(ValueError, match="avoid '[|]'"):
        graph_from_json(doc)


@pytest.mark.parametrize("seed", range(6))
def test_graph_gauge_matches_make_min_cap_on_the_path_distances(seed):
    rng = rng_for(950 + seed)
    doc = zero_costs(rng) if seed % 2 else strongly_connected(rng)
    g = graph_from_json(doc)
    grid = ScaleGrid(tuple(map(float, grid_flags("between", doc)[1]
                               .split(","))))
    new = graph_gauge(g, grid=grid)
    old = make_min_cap(path_distances(g), g.vertices, grid, name="graph_gauge")
    assert new.claims_symmetric == old.claims_symmetric
    for t in (*grid, grid[0] / 3, 2 * grid[-1]):
        assert new.matrix(t) == old.matrix(t)
    assert check_axioms(new) == check_axioms(old)


# ---------------------------------------------------------------------------
# the comparison


def run_main(argv, c_encoder=True):
    """(exit code, stdout, stderr) of `cli.main`, with or without json's C
    encoder."""
    out, err = io.StringIO(), io.StringIO()
    encoder = cli.c_make_encoder
    cli.c_make_encoder = encoder if c_encoder else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        cli.c_make_encoder = encoder
    return code, out.getvalue(), err.getvalue()


def distance_csv(points, cells):
    """The .csv of a distance map: a header of the points, then one row per
    point of its cells in point order."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([""] + [str(p) for p in points])
    for x in points:
        writer.writerow([str(x)] + [str(cells[f"{x}|{y}"]) for y in points])
    return buf.getvalue()


@pytest.mark.parametrize("case", list(CASES))
def test_reports_match_the_reference(tmp_path, case):
    command, doc, flags = CASES[case]
    src, dst = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(doc), encoding="utf-8")
    argv = [command, "--input", str(src), *flags]
    if command == "graph" and any("|" in str(v) for v in doc["vertices"]):
        assert run_main(argv + ["--output", str(dst)]) == (2, "", (
            "quasimod: error: bad graph document: vertex ids must "
            "stringify uniquely and avoid '|'\n"))
        assert not dst.exists()
        return
    want, code = report(command, doc, flags)
    if code == 2:  # a refusal: its one error line, and no report
        assert run_main(argv + ["--output", str(dst)]) == (2, "", want)
        assert not dst.exists()
        return
    text = json.dumps(want, sort_keys=True, indent=2) + "\n"
    assert run_main(argv + ["--output", str(dst)]) == (code, "", "")
    assert dst.read_text(encoding="utf-8") == text
    assert json.loads(text) == want
    assert run_main(argv, c_encoder=False) == (code, text, "")
    if command in ("graph", "luxemburg"):
        points = doc["vertices"] if command == "graph" else doc["points"]
        cells = want["forward" if command == "graph" else "distances"]
        assert run_main(argv + ["--output", str(tmp_path / "out.csv")]) == \
            (code, "", "")
        assert (tmp_path / "out.csv").read_bytes() == \
            distance_csv(points, cells).encode("utf-8")


def additive_gauge_documents():
    """Each additive gauge document of the gauge cases, once."""
    docs = {}
    for command, doc, _ in CASES.values():
        doc = doc["space"] if command == "cover" else doc
        if command != "graph" and doc.get("regime") == "additive":
            docs.setdefault(json.dumps(doc, sort_keys=True), doc)
    return list(docs.values())


@pytest.mark.parametrize("regrid", [False, True], ids=["own-grid", "--grid"])
def test_luxemburg_refuses_exactly_the_tables_check_axioms_finds_rising(
        tmp_path, regrid):
    """`luxemburg` exits 2 on a rise exactly where `check-axioms` lists a
    scale-monotone violation: on each document's own grid, and tabulated on
    every other of its scales and one past them."""
    src = tmp_path / "in.json"
    outcomes = set()
    for doc in additive_gauge_documents():
        scales = [float(t) for t in doc["grid"]]
        flags = ["--grid", ",".join(map(repr, scales[1::2] +
                                        [2 * scales[-1]]))] if regrid else []
        src.write_text(json.dumps(doc), encoding="utf-8")
        _, out, _ = run_main(["check-axioms", "--input", str(src), *flags])
        rises = any(v["axiom"] == "scale-monotone"
                    for v in json.loads(out)["axioms"]["violations"])
        code, out, err = run_main(["luxemburg", "--input", str(src), *flags])
        refused = code == 2 and out == "" and err.startswith(
            "quasimod: error: luxemburg distances need a gauge nonincreasing "
            "in the scale: value increases with the scale: ")
        assert refused == rises and (refused or code == 0), (doc, flags, err)
        outcomes.add(rises)
    assert outcomes == {False, True}


def test_hand_written_documents_hold_what_they_were_written_for(tmp_path):
    def text(command, doc):
        src = tmp_path / "in.json"
        src.write_text(json.dumps(doc), encoding="utf-8")
        return run_main([command, "--input", str(src)])

    code, out, _ = text("cover", {"space": SMALL, "sequence": ["a", "b", "a"]})
    cover = json.loads(out)
    assert code == 0 and cover["cauchy"] and cover["heine_borel"]["rows"]
    code, out, _ = text("topology", SMALL)
    topology = json.loads(out)
    assert code == 0 and topology["join_equals_sym"]
    assert topology["tau_sym"] == topology["join"]
    code, out, _ = text("check-axioms", PROBSUM)
    assert code == 1 and [v["axiom"] for v in
                          json.loads(out)["axioms"]["violations"]] == \
        ["bounded"]
    assert text("topology", PROBSUM)[0] == 0
    code, out, _ = text("check-axioms", VIOLATIONS)
    found = [(v["axiom"], v["lhs"], v["rhs"])
             for v in json.loads(out)["axioms"]["violations"]]
    assert code == 1 and len(found) == 10
    assert found[:3] == [("zero-self", 0.5, 0.0), ("scale-monotone", 1.0, -0.0),
                         ("scale-monotone", "inf", 1.0)]
    assert [a for a, _, _ in found[3:]] == ["triangle"] * 7
    assert '"rhs": -0.0' in out


# ---------------------------------------------------------------------------
# the flags each command reads


def flag_runs(command):
    """(document, flags) of each flag on the command's seeded document,
    --conorm on an additive-regime gauge, and a .csv --output where the
    command writes no CSV; --output names a file in the test's directory,
    out.json unless the flags name another."""
    docs = valid_documents()
    runs = [(docs[command], flags) for flags in (
        ["--tol", "1e-6"], ["--grid", "1,2"], ["--conorm", "max"])]
    if command in ("check-axioms", "topology"):
        runs.append((docs["luxemburg"], ["--conorm", "prob_sum"]))
    if command not in WRITES_CSV:
        runs.append((docs[command], ["--output", "out.csv"]))
    return runs


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_each_command_refuses_the_flags_it_does_not_read(tmp_path, command):
    """The exit code and `quasimod: error:` line of the reference; a refused
    run writes no report, and an accepted one the reference's report (an
    `orlicz` run, which the reference does not build, exits 0 or 1)."""
    src = tmp_path / "in.json"
    for doc, flags in flag_runs(command):
        opts = dict(zip(flags[::2], flags[1::2]))
        dst = tmp_path / opts.pop("--output", "out.json")
        src.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_main([command, "--input", str(src), "--output",
                                   str(dst), *chain.from_iterable(opts.items())])
        errors = [line + "\n" for line in err.splitlines()
                  if line.startswith("quasimod: error: ")]
        if command == "orlicz" and code != 2:
            assert (flags[0], code in (0, 1), out, err) == \
                ("--tol", True, "", "")
            dst.unlink()
            continue
        want, want_code = report(command, doc, flags)
        assert code == want_code, flags
        if code == 2:
            assert (out, errors, dst.exists()) == ("", [want], False), flags
        else:
            assert (out, err) == ("", ""), flags
            assert dst.read_text(encoding="utf-8") == \
                json.dumps(want, sort_keys=True, indent=2) + "\n"
            dst.unlink()

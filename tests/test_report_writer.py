"""Differential tests for the report writer.

The chunks of `quasimod.cli._json_chunks`, joined, must give exactly the
text of `json.dumps(obj, sort_keys=True, indent=2)`, a pair map written as
the dict that `row_maps` builds from the same distance rows. It is checked
on every report the CLI
writes for documents built from the conftest corpora, read as
`reference.report` gives it, on hand-built shapes, on dicts that hold one
value under several keys, on lists of rows some of which are empty, on
seeded random trees, on hand-built row tables read as their lists of dicts,
violation tables among them, whose witness column holds tuples, and on the
graph report's pair maps, laid out from the
distance rows, for hostile vertex ids, also without json's C encoder; ids
that would give two pairs one "x|y" key exit 2.  Every command writes the
same bytes to standard output as to `--output`, a pair map goes out one row
per chunk and a row table one block of rows per chunk, and a large pair-map
report is written without being held whole.

The module needs neither pytest nor hypothesis, so it also runs as a plain
script on any interpreter the package supports:

    PYTHONPATH=src python tests/test_report_writer.py
"""

import contextlib
import io
import json
import math
import os
import random
import tempfile
import tracemalloc

from quasimod import (TConorm, Violation, distance_matrix, gauge_to_json,
                      graph_from_json, graph_to_json, quasi_pseudometric_check)
from quasimod import cli
from quasimod.completeness import _HB_KEYS

from conftest import (ADDITIVE_BUILDERS, corrupt_one_entry, points_named,
                      random_conorm_gauge, random_digraph,
                      random_measure_space, random_orlicz_family,
                      random_quasi_pseudometric,
                      random_strongly_connected_graph, random_total_function,
                      rng_for)
from reference import pair_map, report as reference_report


def reference(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


def written(obj):
    """The writer's chunks of `obj`, joined: the text `cli._emit` writes."""
    return "".join(cli._json_chunks(obj))


def same_as_reference(obj):
    """Both texts, or both exceptions by type and message."""
    try:
        want = reference(obj)
    except (TypeError, ValueError) as exc:
        want = (type(exc), str(exc))
    try:
        got = written(obj)
    except (TypeError, ValueError) as exc:
        got = (type(exc), str(exc))
    return got == want


# ---------------------------------------------------------------------------
# every report the CLI writes for the conftest corpora


# a row that rises with the scale: luxemburg refuses the table with exit 2
RISING_DOC = {"regime": "additive", "points": ["a", "b"], "grid": [1.0, 2.0],
              "table": {"a|b": [1.0, 3.0], "b|a": [2.0, 2.0]}}


def corpus_documents():
    """(command, document, flags) for every command, from the conftest
    builders: clean and corrupted gauges of both regimes, graphs with
    unreachable pairs and with grids below their distances, orlicz spaces,
    and envelopes with and without triangle failures."""
    rng = rng_for(4100)
    for builder in ADDITIVE_BUILDERS:
        for n in (2, 4):
            g = builder(rng, n)
            doc = gauge_to_json(g)
            yield "check-axioms", doc, []
            yield "topology", doc, []
            yield "cover", {"space": doc,
                            "sequence": [rng.choice(doc["points"])
                                         for _ in range(5)]}, []
            yield "luxemburg", doc, []
            yield "luxemburg", doc, ["--grid", "0.5,1,2"]
            yield "check-axioms", gauge_to_json(corrupt_one_entry(g, rng)[0]), []
    for conorm in TConorm:
        g = random_conorm_gauge(rng, 4, conorm)
        doc = gauge_to_json(g)
        yield "check-axioms", doc, []
        yield "topology", doc, []
        yield "cover", doc, []
        yield "check-axioms", gauge_to_json(corrupt_one_entry(g, rng)[0]), []
    yield "luxemburg", RISING_DOC, []
    for graph in (random_strongly_connected_graph(rng, 6),
                  random_digraph(rng, 6)):
        doc = graph_to_json(graph)
        yield "graph", doc, []
        yield "graph", doc, ["--grid", "0.5,1,2"]
        yield "graph", doc, ["--grid", "64,128"]
    space = random_measure_space(rng, 4)
    functions = {f"f{i}": {str(p): v for p, v in
                           random_total_function(rng, space).items()}
                 for i in range(3)}
    yield "orlicz", {"space": space.to_json(), "functions": functions,
                     "phi": random_orlicz_family(rng, space).to_json(),
                     "psi1": random_orlicz_family(rng, space).to_json(),
                     "psi2": random_orlicz_family(rng, space).to_json()}, []
    for ids in (points_named(5), (3, 1, 4, 15, 9)):
        rho = random_quasi_pseudometric(rng, ids)
        rho[(ids[0], ids[2])] = 9.0
        assert quasi_pseudometric_check(rho, ids).violations
        yield "envelope", {"points": list(ids),
                           "distance": {f"{x}|{y}": v
                                        for (x, y), v in rho.items()},
                           "domain": list(ids[:2]),
                           "values": {str(ids[0]): 0.0, str(ids[1]): 0.5},
                           "lipschitz": 1.0}, []


def cli_reports(documents):
    """Run each (command, document, flags) through the CLI and return, per
    command, the report object and the matrix handed to the writer and
    the bytes written; a document the CLI refuses, as `reference.report`
    does, with exit 2 and its error line, writes nothing and gives Nones."""
    handed = []
    real = cli._emit

    def spy(report, output, matrix=None):
        handed.append((report, matrix))
        return real(report, output, matrix)

    cli._emit = spy
    out = []
    try:
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "in.json")
            for k, (command, doc, flags) in enumerate(documents):
                dst = os.path.join(tmp, f"out{k}.json")
                with open(src, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = cli.main([command, "--input", src, "--output", dst,
                                     *flags])
                if code == 2:
                    assert (err.getvalue(), 2) == \
                        reference_report(command, doc, flags)
                    assert not os.path.exists(dst)
                    out.append((command, None, None, None))
                    continue
                assert code in (0, 1), (command, doc, flags)
                with open(dst, encoding="utf-8") as fh:
                    out.append((command, *handed.pop(), fh.read()))
    finally:
        cli._emit = real
    return out


# where each command's report keeps its axiom report
AXIOM_DOCS = {"check-axioms": "axioms", "graph": "axioms",
              "envelope": "distance_check"}


def definition(command, doc, flags, report):
    """What a report must read as: `reference.report` on its document, or,
    for orlicz, whose norms are searched, not read, the plain dicts the
    command hands the writer."""
    return report if command == "orlicz" else \
        reference_report(command, doc, flags)[0]


def test_cli_reports_match_json_dumps():
    documents = list(corpus_documents())
    reports = cli_reports(documents)
    assert {command for command, _, _, _ in reports} == set(cli._COMMANDS)
    assert [d for d, (_, report, _, _) in zip(documents, reports)
            if report is None] == [("luxemburg", RISING_DOC, [])]
    for (command, doc, flags), (_, report, _, text) in zip(documents, reports):
        if report is not None:
            assert text == reference(definition(command, doc, flags, report)) \
                + "\n", command


def test_axiom_reports_hand_their_violations_over_as_row_tables():
    reports = [(command, report) for command, report, _, _
               in cli_reports(corpus_documents())
               if report and AXIOM_DOCS.get(command) in report]
    assert {command for command, _ in reports} == set(AXIOM_DOCS)
    found = 0
    for command, report in reports:
        table = report[AXIOM_DOCS[command]]["violations"]
        assert isinstance(table, cli._RowTable), command
        assert table.keys == Violation._fields, command
        # a column per field, lhs and rhs formatted: no tuple per violation
        assert len(table.columns) == 4, command
        assert all(isinstance(w, tuple) for w in table.columns[1]), command
        assert not {"inf", "-inf"} & set(map(repr, table.columns[2])), command
        found += len(table.columns[0])
    assert found > 0


def test_cover_reports_hand_their_record_lists_over_as_row_tables():
    reports = [r for r in cli_reports(corpus_documents()) if r[0] == "cover"]
    assert any("cauchy" in report for _, report, _, _ in reports)
    for _, report, _, _ in reports:
        tables = [report["heine_borel"]["rows"], report.get("cauchy")]
        assert all(isinstance(t, cli._RowTable) for t in tables if t), report
        assert tables[0].keys == _HB_KEYS
        # a column per key, in key order, all of one length
        for table in filter(None, tables):
            assert len(table.columns) == len(table.keys), report
            assert len(set(map(len, table.columns))) == 1, report
        assert all(isinstance(r, float) for r in tables[0].columns[0])


def test_stdout_and_output_carry_the_same_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        src, dst = os.path.join(tmp, "in.json"), os.path.join(tmp, "out.json")
        for command, doc, flags in corpus_documents():
            with open(src, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            runs = []
            for output in (["--output", dst], []):
                buf, err = io.BytesIO(), io.StringIO()
                out = io.TextIOWrapper(buf, encoding="utf-8")
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main([command, "--input", src, *output, *flags])
                printed = buf.getvalue()
                if output and os.path.exists(dst):
                    assert printed == b"", command
                    with open(dst, "rb") as fh:
                        printed = fh.read()
                    os.remove(dst)
                runs.append((code, err.getvalue(), printed))
            assert runs[0] == runs[1], (command, flags)


def test_pair_maps_and_row_tables_go_out_by_rows():
    rng = rng_for(4201)
    g = graph_from_json(graph_to_json(random_strongly_connected_graph(rng, 7)))
    table, = cli._value_texts(distance_matrix(g))
    forward, = cli._pair_maps(g.vertices, table)
    # one chunk per row, then the closing brace
    assert len(list(cli._json_chunks(forward))) == 7 + 1
    rows = [(i, (i, "w")) for i in range(2 * cli._ROWS + 1)]
    # the opening, one chunk per block of rows, then the closing
    assert len(list(cli._json_chunks(by_rows(("n", "w"), rows)))) == 1 + 3 + 1
    # a small report is one chunk per container: none of its dicts streams
    small = {"a": [1, 2], "b": {"c": [[1], []]}, "d": "x"}
    assert len(list(cli._json_chunks(small["b"]))) == 1 + 1 + 1


def test_a_large_pair_map_report_is_written_in_blocks():
    peaks, real = [], cli._emit

    def traced(report, output, matrix=None):
        tracemalloc.start()
        try:
            real(report, output, matrix)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    doc = graph_to_json(random_strongly_connected_graph(rng_for(4202), 90))
    cli._emit = traced
    try:
        with tempfile.TemporaryDirectory() as tmp:
            src, dst = os.path.join(tmp, "in.json"), \
                os.path.join(tmp, "out.json")
            with open(src, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            assert cli.main(["graph", "--input", src, "--output", dst]) == 0
            size = os.path.getsize(dst)
    finally:
        cli._emit = real
    # the report is never held whole: what the write allocates stays below
    # a quarter of what it writes
    assert size > 1 << 17 and peaks[0] < size / 4, (peaks, size)


# ---------------------------------------------------------------------------
# hand-built shapes


SHAPES = [
    {}, [], (), {"a": []}, {"a": {}}, [[]], [{}], [[], {}, ()],
    {"a": [[], [[]], {"b": {}}]},
    [1, 2.5, -0.0, math.inf, -math.inf, math.nan, True, False, None],
    {"inf": math.inf, "nan": math.nan, "neg": -math.inf},
    ["é", "snowman ☃", "emoji \U0001F600", "quote \" back \\ tab \t nl \n"],
    {"ключ": "значение", "b": ["ü", {"ß": 1}]},
    (1, (2, (3, [4, {"t": (5,)}]))),
    {"x": 10 ** 30, "y": -7, "z": [0, 1e-300, 1e300, 2.0 ** 53]},
    # non-str keys are converted as json converts them, after sorting by
    # the original keys
    {1: "a", 10: "b", 2: "c"},
    {2.5: [1], 1.0: {"n": None}},
    {True: [1], False: 2}, {None: [1]}, {None: 1},
    {"outer": {3: [1], 20: {"k": 1}}},
    {math.inf: 1, -math.inf: [2], math.nan: 3},
    # mixed key types cannot be sorted, by either writer
    {1: "a", "b": 2},
    {"nested": {1: [1], "b": [2]}},
    # keys json rejects
    {(1, 2): "tuple key"},
    {"deep": {(1,): [1]}},
    # values json cannot encode
    {"set": {1, 2}},
    [[object()]],
]


def test_hand_built_shapes_match_json_dumps():
    for obj in SHAPES:
        assert same_as_reference(obj), obj


# One value held under several keys of a dict is written once for that
# dict, and again for a dict one level deeper, at that dict's depth, as
# `JoinReport.to_json` hands equal topologies one list.
SHARED = [[1, 2.5], ["x"], {"k": None}]
FLAT = [1, "]", 2.5]
SHARED_DICTS = [
    {"a": SHARED, "b": SHARED, "c": {"d": SHARED, "e": [SHARED]}},
    {"a": {"d": SHARED}, "b": SHARED, "c": SHARED},
    {"a": FLAT, "b": FLAT, "c": {"d": FLAT, "e": {"f": FLAT, "g": FLAT}}},
    [{"a": FLAT, "b": FLAT}, {"c": [FLAT], "d": FLAT}],
]


def test_a_value_under_several_keys_matches_json_dumps():
    for obj in SHARED_DICTS:
        assert same_as_reference(obj), obj


# Lists of flat rows are written in one encoder call and split at the row
# boundaries, close + item separator + open.  Only a boundary reads that
# way: no encoded scalar begins or ends with a bracket, and no encoded
# string holds a raw newline.
BOUNDARY = '"},\n    {"'
ROWS = [
    [{"a": "}", "b": "]"}, {"a": "{", "b": "["}],
    [["}", "]"], ["{", "["], ["[", "]"]],
    [{"s": BOUNDARY}, {"s": BOUNDARY + "]"}],
    [[BOUNDARY, "},\n    {"], ["],\n    ["]],
    [{"}": 1, "{": 2}, {"]": 3, "[": 4}],
    {"rows": [{"a": BOUNDARY}, {"a": 1}], "more": [[BOUNDARY], [2]]},
    # non-str keys, converted after sorting by the original keys
    [{1: "a", 10: "b", 2: "c"}, {2.5: 1, -1.0: 2}, {True: 0, False: 1},
     {None: 3}, {math.inf: 4, -math.inf: 5, math.nan: 6}],
    # an empty dict first, in the middle or last
    [{}, {"a": 1}], [{"a": 1}, {}, {"b": 2}], [{"a": 1}, {}],
    [[], [1]], [[1], [], [2]], [[1], ()],
    # tuples, alone and beside lists
    [(1, 2), (3,)], ((1, 2), (3, 4)), [(1, 2), [3, 4], ("a",)],
    # dicts beside lists
    [{"a": 1}, [1, 2]], [[1], {"a": 1}], [{"a": 1}, [1], {"b": 2}],
    # rows of rows
    [[[{"a": 1}, {"b": 2}], [[1, 2], [3]]], [[{"c": 3}]]],
    {"x": [[[{"a": 1}]], [[[1], [2]]]]},
    # a row that holds a container is not flat
    [{"a": 1}, {"b": [2]}], [[1], [[2]]],
]
BAD_ROWS = [
    [{"a": 1}, {"b": {1, 2}}], [{"a": object()}], [[1], [object()]],
    [(1,), ({1},)],
    # keys json rejects, and keys that cannot be sorted
    [{"a": 1}, {(1, 2): 2}], [{1: "a"}, {None: 1, True: 2}],
]


def test_row_lists_match_json_dumps():
    for obj in ROWS:
        assert same_as_reference(obj), obj


def test_bad_rows_raise_what_json_dumps_raises():
    for obj in BAD_ROWS:
        try:
            reference(obj)
        except TypeError as exc:
            want = str(exc)
        else:
            raise AssertionError(f"json.dumps accepted {obj!r}")
        try:
            written(obj)
        except TypeError as exc:
            assert str(exc) == want, obj
        else:
            raise AssertionError(f"the writer accepted {obj!r}")


def test_only_homogeneous_flat_rows_take_the_one_call_path():
    assert cli._flat_rows([[1], ("x", None)])
    assert cli._flat_rows([[1], []])
    # dict rows go the general way: cover's record lists, the one report
    # part made of flat dicts, reach the writer as row tables
    for rows in ([{"a": 1}, {"b": "}"}], [{}, {"a": 1}], [{"a": 1}, [1]],
                 [[1], {"a": 1}], [{}, []], [[], {}], [{"a": [1]}], [[(1,)]],
                 [1, [2]], [0]):
        assert not cli._flat_rows(rows), rows


# An empty row is written inline, as json.dumps writes it, also when it
# comes first, last or alone, and beside rows that hold brackets.
EMPTY_ROWS = [
    [[]], [[], [1]], [[1], [], [2]], [{}, {"a": 1}], [[1], []],
    [[], []], [{}], [{}, {}], [(), [1], ()], [[], ["[]", "]"], []],
    [{"a": "{}"}, {}, {"b": "}\n{"}],
]


def test_empty_rows_are_written_inline_on_the_one_call_path():
    for rows in EMPTY_ROWS:
        assert cli._flat_rows(rows) == all(
            isinstance(row, (list, tuple)) for row in rows), rows
        # at depths 0, 1 and 2
        for obj in (rows, {"rows": rows, "more": [rows]}, [[rows], [1]]):
            assert same_as_reference(obj), obj


def test_the_fallback_without_the_c_encoder():
    # every case above and below: graph reports on hostile ids, +inf
    # entries included, every corpus report and its refusals, the shapes,
    # rows, trees, row tables and pair maps
    hostile = [("graph", doc, []) for doc in hostile_graphs()]
    documents = hostile + list(corpus_documents())
    real = cli.c_make_encoder
    cli.c_make_encoder = None
    calls = cli._flat_encoder.cache_info()
    try:
        for obj in SHAPES + ROWS:
            assert same_as_reference(obj), obj
        test_a_value_under_several_keys_matches_json_dumps()
        test_bad_rows_raise_what_json_dumps_raises()
        test_row_tables_match_json_dumps_of_their_dicts()
        test_violation_tables_match_json_dumps_of_their_dicts()
        test_pair_maps_match_json_dumps_of_the_row_updates()
        test_seeded_random_trees_match_json_dumps()
        reports = cli_reports(documents)
    finally:
        cli.c_make_encoder = real
    hits, misses = cli._flat_encoder.cache_info()[:2]
    assert (hits, misses) == (calls.hits, calls.misses)  # no C encoder call
    assert any('"inf"' in text for _, _, _, text in reports)
    for k, ((command, doc, flags), (_, report, matrix, text)) in enumerate(
            zip(documents, reports)):
        if report is None:
            continue
        # hostile costs (-0.0, 0.1, 1e300) are no sums to redo: the maps
        # are the row updates of the rows handed to the writer
        want = dict(report, **dict(zip(("forward", "backward"),
                                       row_maps(*matrix)))) \
            if k < len(hostile) else definition(command, doc, flags, report)
        assert text == reference(want) + "\n", command


# ---------------------------------------------------------------------------
# hand-built row tables


def by_rows(keys, rows):
    """A row table of hand-built rows, by columns as the CLI builds it."""
    return cli._RowTable(keys, list(zip(*rows)))


ROW_TABLES = [
    by_rows(("a", "b"), []),
    by_rows(("radius",), [(0.5,)]),
    by_rows(("z", "a", "m", "B"), [(1, 2, 3, 4), (5, 6, 7, 8)]),
    # values that compare equal but print apart share no text
    by_rows(("x", "y"), [(0.0, 1), (-0.0, 1), (0.0, -0.0), (-0.0, 0)]),
    by_rows(("v",), [(True,), (1,), (1.0,), (False,), (0,), (0.0,),
                           (-0.0,), (True,), (1,), (None,)]),
    # two number types in a column: bool and int, int and float
    by_rows(("b", "f"), [(True, 1), (1, 1.0), (False, 2.0), (0, 2),
                               (1, 1.0), (True, 2)]),
    by_rows(("n", "f"), [(None, math.inf), (None, -math.inf),
                               (1, math.nan), (None, math.nan),
                               (2 ** 70, float("nan"))]),
    by_rows(("s", "\"quoted\" key", "ключ"), [
        ('say "hi"', "100%", "a|b"), ("é", "☃ \U0001F600", "|"),
        ("back\\slash", "line\nbreak", ""), ('say "hi"', "100%", "a|b")]),
    by_rows(("a", "b"), [("}", "]"), ("{", "["), (BOUNDARY, ",\n  ")]),
    # witness-style columns, written in one encoder call when every value
    # is a flat list or tuple: lists beside tuples, every scalar kind, a
    # string that reads like a row boundary, and empty witnesses
    by_rows(("w", "k"), [
        ([1, 2.5], "a"), ((True, None, math.inf, -0.0), "b"),
        (("],\n      [", BOUNDARY, "é"), "c"), ((), "d"), ([], "e"),
        ((10 ** 30, math.nan, "x"), "f")]),
    by_rows(("w",), [((),), ([],), ((),)]),
    # a witness that holds a container is no flat row
    by_rows(("w", "k"), [((1, (2,)), 0), ((3,), 1), ([[]], 2)]),
    # more rows than one chunk holds: each block is laid out on its own
    by_rows(("w", "i", "f"), [((i, "x") if i % 3 else (), i, i % 2 * 0.5)
                              for i in range(2 * cli._ROWS + 3)]),
]


def row_table_dicts(table):
    return [dict(zip(table.keys, row)) for row in zip(*table.columns)]


def test_row_tables_match_json_dumps_of_their_dicts():
    for table in ROW_TABLES:
        dicts = row_table_dicts(table)
        # alone, in a dict and in a list beside other values
        for obj, old in ((table, dicts), ({"t": table, "ok": True},
                                          {"t": dicts, "ok": True}),
                         ([[table], {"b": table}], [[dicts], {"b": dicts}])):
            assert written(obj) == reference(old), table
    assert written(ROW_TABLES[0]) == "[]"


# The witness column holds tuples, each written as a nested list at the
# row's value depth; tuples that compare equal can print apart.
VIOLATION_TABLES = [
    # points of three types beside float scales
    by_rows(Violation._fields, [
        ("triangle", (0, "b", 2.5, 1.0, 2.0), 1.5, 1.0),
        ("zero-self", ("b", 0.5), 0.25, 0.0),
        ("scale-monotone", (2.5, 0, 1.0, 4.0), 1.0, 0.5),
        ("triangle", (0, "b", 2.5, 1.0, 2.0), 1.5, 1.0)]),
    # "inf" on the left, -0.0 and 0.0 in one rhs column
    by_rows(Violation._fields, [
        ("scale-monotone", ("a", "b", 1.0, 2.0), "inf", -0.0),
        ("scale-monotone", ("a", "c", 1.0, 2.0), 1.0, 0.0),
        ("triangle", ("a", "b", "c", 1.0, 1.0), "inf", 2.0),
        ("scale-monotone", ("b", "c", 1.0, 2.0), 0.5, -0.0)]),
    # witnesses equal as tuples that print apart
    by_rows(Violation._fields, [
        ("zero-self", (0.0,), 1.0, 0.0), ("zero-self", (-0.0,), 1.0, 0.0),
        ("zero-self", (1,), 1, 0.0), ("zero-self", (1.0,), 1.0, 0.0),
        ("zero-self", (True, 1), True, 0.0), ("zero-self", (1, True), 1, 0)]),
    # strings that hold brackets, separators and escapes
    by_rows(Violation._fields, [
        ("triangle", ("]", "[", BOUNDARY, "line\nbreak", "é"), 2.0, 1.0),
        ("triangle", ("},\n", '"', "\\", "☃", ""), "inf", 1.0)]),
    # empty witnesses, alone, first, last and between
    by_rows(Violation._fields, [("a", (), 1.0, 0.0)]),
    by_rows(Violation._fields, [
        ("a", (), 1.0, 0.0), ("b", ("x", 1.0), 2.0, 1.0), ("c", (), 0.5, 0.0),
        ("d", ("y",), 1.0, 0.5), ("e", (), "inf", 0.0)]),
    # an empty violation list
    by_rows(Violation._fields, []),
]


def test_violation_tables_match_json_dumps_of_their_dicts():
    for table in VIOLATION_TABLES:
        dicts = row_table_dicts(table)
        # alone, in an axiom report, and deeper in lists and dicts
        for obj, old in ((table, dicts),
                         ({"checked": ["triangle"], "violations": table},
                          {"checked": ["triangle"], "violations": dicts}),
                         ([[table], {"b": {"c": table}}],
                          [[dicts], {"b": {"c": dicts}}])):
            assert written(obj) == reference(old), table
    assert written(VIOLATION_TABLES[-1]) == "[]"


# ---------------------------------------------------------------------------
# the graph report's pair maps on hostile vertex ids


def row_maps(vertices, rows):
    """The forward and backward {"x|y": distance} maps of distance rows in
    vertex order, as `reference.pair_map` writes them."""
    pos = {v: i for i, v in enumerate(vertices)}
    return (pair_map(vertices, lambda x, y: rows[pos[x]][pos[y]]),
            pair_map(vertices, lambda x, y: rows[pos[y]][pos[x]]))


VERTEX_IDS = [
    # a name extended by a character below or above "|": "a{|a" sorts
    # before "a|a{" although "a" sorts before "a{"
    ["a", "a{", "a}", "a~", "a!", "ab", "a{{"],
    ["v1", "v10", "v2", "v9", "v11", "v100"],
    ["é", "ä", "☃", "\U0001F600", "quo\"te", "back\\slash", "nul\x00",
     "line\nbreak", "tab\t", "\x7f", "z"],
    ["", 0, 1.5, -2, 10, 1e100, "x"],
    ["solo"], [""], [7],
]
COSTS = (0.0, -0.0, 0.5, 1.0, 0.1, 0.2, 3.0, 1e300)
# ids that would give two pairs one key: ("a|b", "c") and ("a", "b|c"), and
# three pairs on "|||"; the graph reader refuses them
BARRED_IDS = [["a|b", "c", "a", "b|c", "|"], ["", "|", "||", "x"]]


def hostile_graphs(vertex_ids=VERTEX_IDS):
    rng = random.Random(1207)
    for ids in vertex_ids:
        for p in (0.0, 0.3, 0.7):
            edges = [{"from": u, "to": v, "cost": rng.choice(COSTS)}
                     for u in ids for v in ids if rng.random() < p]
            if p == 0.7:  # a cycle through every vertex: no +inf
                edges += [{"from": u, "to": v, "cost": rng.choice(COSTS)}
                          for u, v in zip(ids, ids[1:] + ids[:1])]
            yield {"vertices": ids, "edges": edges}


def test_pair_maps_match_json_dumps_of_the_row_updates():
    for doc in hostile_graphs():
        g = graph_from_json(doc)
        rows = distance_matrix(g)
        # no path sum is -0.0 (the sums start at +0.0), so one text per
        # distance value is the text of every entry that holds it
        assert all(math.copysign(1.0, v) == 1.0 for row in rows for v in row)
        table, = cli._value_texts(rows)
        forward, backward = cli._pair_maps(g.vertices, table,
                                           list(zip(*table)))
        want = row_maps(g.vertices, rows)
        for got, old in zip((forward, backward), want):
            text = written(got)
            assert text == reference(old), doc
            assert list(json.loads(text)) == sorted(old), doc
        report = {"forward": forward, "backward": backward}
        old = dict(zip(report, want))
        assert written(report) == reference(old)
        # a pair map is laid out at whatever depth it sits
        for nested, old_nested in ((forward, want[0]), ([report], [old]),
                                   ({"a": [{"b": backward}]},
                                    {"a": [{"b": want[1]}]})):
            assert written(nested) == reference(old_nested), doc


def test_vertex_ids_that_share_a_pair_key_exit_2():
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "in.json")
        for doc in hostile_graphs(BARRED_IDS):
            with open(src, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()) as out:
                code = cli.main(["graph", "--input", src])
            assert (code, out.getvalue()) == (2, ""), doc
            assert err.getvalue() == ("quasimod: error: bad graph document: "
                                      "vertex ids must stringify uniquely "
                                      "and avoid '|'\n"), doc


# ---------------------------------------------------------------------------
# seeded random trees


SCALARS = (0, 1, -3, 2 ** 70, 0.5, -0.0, 1e-7, math.inf, -math.inf, math.nan,
           True, False, None, "", "a", "ä", "☃", "line\nbreak", "}", "]", "{",
           "[", BOUNDARY)


def random_tree(rng, depth=0):
    r = rng.random()
    if depth >= 4 or r < 0.35:
        return rng.choice(SCALARS)
    n = rng.choice((0, 1, 2, 3, 5))
    if r < 0.6:
        items = [random_tree(rng, depth + 1) for _ in range(n)]
        return tuple(items) if rng.random() < 0.2 else items
    keys = rng.choice((("a", "b", "c", "Z", "é", "aa", "10", "9"),
                       (1, 2, 10, -1, 3),
                       (0.5, 1.5, -2.0),
                       (True, None)))
    return {k: random_tree(rng, depth + 1)
            for k in rng.sample(keys, min(n, len(keys)))}


def test_seeded_random_trees_match_json_dumps():
    rng = random.Random(2024)
    for _ in range(3000):
        obj = random_tree(rng)
        assert same_as_reference(obj), obj


if __name__ == "__main__":
    import sys

    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"PASS {name}")
    print(f"{len(tests)} writer checks passed on Python "
          f"{sys.version.split()[0]}")

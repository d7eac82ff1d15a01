"""The refusal contract: one row per refusal of the command line and of the
library's readers.

A command row is a name, a command line, the document it reads as
`in.json` (or none), an exit code and the exact `quasimod: error:` line.
A run keeps the row when it exits with that code, writes no standard
output and no file, and writes to standard error that line alone, or the
usage line and then that line where the command line itself is refused.
A reader row is a name, an entry point, the bad value it is called with
and the exact message of the ValueError it raises.  Tier-1 runs every row
in process, each under one test id (see HELD); `tests/test_readme.py`
requires every error line the README quotes to be some command row's.

    python tests/contract.py

runs the command rows named in CI against the `quasimod` on PATH, each in
an empty temporary directory, prints what each failing row got, and exits
1 if any row fails.
"""

import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from quasimod import (INF, DiscreteMeasureSpace, DirectedGraph, Edge,
                      GaugeSpec, MusielakOrlicz, PartialFunction, Profile,
                      Regime, ScaleGrid, TruncatedSequenceFamily,
                      lower_envelope, luxemburg_infimum,
                      make_classical_modular, make_min_cap,
                      make_one_sided_integral, make_ratio, make_scaled_metric,
                      make_sublinear, quasi_pseudometric_check,
                      schedule_from_json, transport_total_boundedness,
                      upper_envelope)
from quasimod import cli

# ---------------------------------------------------------------------------
# documents

ADDITIVE_DOC = {"regime": "additive", "points": ["a", "b"],
                "grid": [1.0, 2.0, 4.0],
                "table": {"a|a": [0, 0, 0], "a|b": [4.0, 2.0, 1.0],
                          "b|a": [3.0, 1.5, 0.75], "b|b": [0, 0, 0]}}
# constant in the scale, closed for prob_sum but not for max: the direct
# a -> c value 0.7 exceeds max(0.5, 0.5) yet stays under 0.5 + 0.5 - 0.25
PROBSUM_ONLY_DOC = {"regime": "conorm", "conorm": "prob_sum",
                    "points": ["a", "b", "c"], "grid": [0.5, 1.0],
                    "table": {"a|a": [0, 0], "b|b": [0, 0], "c|c": [0, 0],
                              "a|b": [0.5, 0.5], "b|a": [0.5, 0.5],
                              "b|c": [0.5, 0.5], "c|b": [0.5, 0.5],
                              "a|c": [0.7, 0.7], "c|a": [0.7, 0.7]}}
# a table whose rows rise with the scale
RISING_DOC = {"regime": "additive", "points": ["a", "b"], "grid": [1.0, 2.0],
              "table": {"a|a": [0, 0], "b|b": [0, 0],
                        "a|b": [1.0, 2.0], "b|a": [1.0, 2.0]}}
COVER_01 = {"regime": "additive", "points": [0, 1], "grid": [1.0, 2.0],
            "table": {"0|0": [0, 0], "0|1": [2.0, 1.0], "1|0": [1.0, 0.5],
                      "1|1": [0, 0]}}
GRAPH_DOC = {"vertices": ["u", "v"],
             "edges": [{"from": "u", "to": "v", "mu": 1.0, "cost": 1.0}],
             "measure": {"u": 1.0, "v": 2.0}}
SQUARES = {"kind": "variable_exponent", "p": {"a": 2.0, "b": 2.0}}
ORLICZ_DOC = {"space": {"points": ["a", "b"], "mu": {"a": 1.0, "b": 1.0}},
              "functions": {"f": {"a": 3.0, "b": 4.0},
                            "g": {"a": 0.0, "b": 0.0}},
              "phi": SQUARES, "psi1": SQUARES,
              "psi2": {"kind": "variable_exponent", "p": {"a": 1.0, "b": 1.0}}}
DOUBLE_PHASE = dict(ORLICZ_DOC, phi={"kind": "double_phase", "p": 2.0,
                                     "q": 3.0, "a": {"a": 1.0, "b": 0.5}})
WEIGHTED = dict(ORLICZ_DOC, phi={"kind": "weighted", "base": SQUARES,
                                 "w": {"a": 1.0, "b": 2.0}})
ONE_POINT = {"space": {"points": ["a"], "mu": {"a": 1.0}},
             "functions": {"f": {"a": 2.0}}}
SQUARE = {"kind": "variable_exponent", "p": {"a": 2.0}}
ENVELOPE_DOC = {"points": ["a", "x"],
                "distance": {"a|a": 0.0, "x|x": 0.0, "x|a": 2.0, "a|x": 0.5},
                "domain": ["a"], "values": {"a": 1.0}, "lipschitz": 3.0}
HUGE = 10 ** 400  # a JSON integer that no float holds
SEVENTEEN = [f"p{i}" for i in range(17)]


def edit(doc, *changes):
    """A copy of `doc` with each (path, value) of `changes` set."""
    doc = copy.deepcopy(doc)
    for (*parents, last), value in changes:
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value
    return doc


def orlicz_on(points):
    """An orlicz document that reads each point by its string form."""
    each = dict.fromkeys(map(str, points))
    return {"space": {"points": points, "mu": dict.fromkeys(each, 1.0)},
            "functions": {"f": dict.fromkeys(each, 1.0)},
            "phi": {"kind": "variable_exponent",
                    "p": dict.fromkeys(each, 2.0)}}


def repeated(doc, key, first):
    """`doc`'s text with its one `key` repeated, holding `first` before its
    own value: json.load alone would keep the second and read `doc`."""
    text, head = json.dumps(doc), json.dumps(key) + ": "
    assert text.count(head) == 1, key
    return text.replace(head, head + json.dumps(first) + ", " + head)


# ---------------------------------------------------------------------------
# command rows


class Row(NamedTuple):
    name: str
    argv: tuple
    doc: object  # in.json: json.dumps of it, a str or bytes as it is, or none
    code: int
    error: str  # the line after "quasimod: error: "
    usage: bool  # the usage line comes first: the command line is refused


# the rows the installed console script runs too: an unread flag, a flag
# value, the number rule of a document, and no argument at all, which only
# the console script reads from sys.argv
CI = ("no-argument", "unread-tol", "zero-tol", "grid-underscore",
      "gauge-table-true", "envelope-distance-true")


def rows(specs, usage=False):
    """Rows that exit 2 from (name, command line, document, error) specs.
    The line is split at spaces, and a line with a document but no --input
    reads in.json."""
    out = []
    for name, line, doc, error in specs:
        argv = tuple(line.split())
        if doc is not None and "--input" not in argv:
            argv = (argv[0], "--input", "in.json", *argv[1:])
        out.append(Row(name, argv, doc, 2, error, usage))
    return out


RISES = ("luxemburg distances need a gauge nonincreasing in the scale: "
         "value increases with the scale: ")
CUTOFF = "lies past the largest searched scale 1e+12"
UNIQUE = "ids must stringify uniquely and avoid '|'"
VALUE_EQUAL = "ids must be distinct as values: 1, 1.0 and true are one id"
# ids that end up in "x|y" keys must stringify uniquely and hold no "|":
# ("a|b", "c") and ("a", "b|c") would share the key "a|b|c"
BARRED = ["a|b", "c", "a", "b|c"]
NOT_UTF8 = ("'utf-8' codec can't decode byte 0xff in position 0: invalid "
            "start byte")
DEEP = ("maximum recursion depth exceeded while decoding a JSON array from "
        "a unicode string")

# each document with one key repeated: (command, document, the key, the
# value written before its own); without the repeat it reads as it is
REPEATS = {"gauge-table": ("check-axioms", ADDITIVE_DOC, "a|b", [9.0, 9.0, 9.0]),
           "cover-sequence": ("cover", {"space": ADDITIVE_DOC, "sequence": ["a", "b"]},
                              "sequence", ["b"]),
           "graph-edge": ("graph", GRAPH_DOC, "cost", 9.0),
           "orlicz-function-ids": ("orlicz", ORLICZ_DOC, "f", {"a": 0.0, "b": 0.0}),
           "envelope-distance": ("envelope", ENVELOPE_DOC, "x|a", 9.0)}

# the command line and its flags, refused before any input is read;
# --tol is a JSON number, where float() read "1_0e-9" as 1e-8 and "+1" as 1
COMMAND_ROWS = rows([
    ("no-argument", "", None, "the command and --input are required"),
    ("no-input", "check-axioms", None, "the command and --input are required"),
    ("unknown-command", "no-such-command", ADDITIVE_DOC, "invalid command 'no-such-command'"),
    ("unread-tol", "check-axioms --tol 0", ADDITIVE_DOC, "check-axioms takes no --tol"),
    ("zero-tol", "orlicz --tol 0", ORLICZ_DOC, "--tol must be positive"),
    ("nan-tol", "orlicz --tol NaN", ORLICZ_DOC, "--tol must be positive"),
    ("tol-past-cutoff", "orlicz --tol 1e13", ORLICZ_DOC,
     "--tol must be below the largest searched scale 1e+12"),
    *((f"tol-{raw}", f"orlicz --tol {raw}", ORLICZ_DOC,
       f"bad --tol value {raw!r}: {raw!r} is not a JSON number")
      for raw in ("1_0e-9", "+1e-9", ".5e-9", "1e-9,", "inf")),
    ("tol-string", 'orlicz --tol "x"', ORLICZ_DOC,
     "bad --tol value '\"x\"': --tol must be a number or \"inf\", got 'x'"),
], usage=True) + rows([
    # each --grid item is a JSON number too, read with the input
    *((f"grid-{name}", f"check-axioms --grid {raw}", ADDITIVE_DOC,
       f"bad --grid value {raw!r}: {item!r} is not a JSON number")
      for name, raw, item in (("underscore", "1_0,2_0", "1_0"),
                              ("plus", "+1", "+1"),
                              ("trailing-dot", "0.5,1.", "1."))),
    ("unwritable-output", "orlicz --output missing/report.json", ORLICZ_DOC,
     "cannot write missing/report.json: No such file or directory"),
    # reading the input
    ("missing-input", "check-axioms --input nope.json", None, "input file not found: nope.json"),
    ("malformed-json", "check-axioms", '{"regime": ',
     "malformed JSON in in.json: line 1 column 12: Expecting value"),
    # what the reader's C-scanner path hands to json.loads for its error
    *((f"malformed-{name}", "check-axioms", doc, f"malformed JSON in in.json: {error}")
      for name, doc, error in (
          ("extra-data", '{"regime": "additive"} x', "line 1 column 24: Extra data"),
          ("utf8-bom", b"\xef\xbb\xbf{}",
           "line 1 column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
          ("form-feed", "\f{}", "line 1 column 1: Expecting value"),
          ("unterminated-string", '{"regime',
           "line 1 column 2: Unterminated string starting at"))),
    *(row for command in ("check-axioms", "graph") for row in (
        (f"directory-{command}", f"{command} --input .", None, "cannot read .: Is a directory"),
        (f"utf16-bom-{command}", command, b"\xff\xfe{}", f"cannot parse in.json: {NOT_UTF8}"),
        (f"deep-nesting-{command}", command, "[" * 100000 + "]" * 100000,
         f"cannot parse in.json: {DEEP}"),
        *([(f"5000-digit-integer-{command}", command, "1" + "0" * 4999,
            "cannot parse in.json: integer literal too long (over 4300 digits)")]
          if hasattr(sys, "get_int_max_str_digits") else []))),
    *((f"repeated-{name}", command, repeated(doc, key, first),
       f"repeated JSON object key {key!r} in in.json")
      for name, (command, doc, key, first) in REPEATS.items()),
    # luxemburg reads a table whole, so a rise past the column its infimum
    # sits in, which no search probes, is refused too
    ("luxemburg-rising", "luxemburg --output out.json", RISING_DOC,
     RISES + "1.0 at 1.0 but 2.0 at 2.0"),
    ("luxemburg-rise-past-infimum", "luxemburg", edit(
        RISING_DOC, (("grid",), [1.0, 2.0, 4.0, 8.0]),
        (("table",), {"a|a": [0] * 4, "b|b": [0] * 4, "b|a": [1.0] * 4,
                      "a|b": [2.0, 0.5, 0.75, 0.25]})),
     RISES + "0.5 at 2.0 but 0.75 at 4.0"),
    ("luxemburg-rise-by-1e-13", "luxemburg",
     edit(RISING_DOC, (("table", "a|b"), [0.5, 0.5000000000001])),
     RISES + "0.5 at 1.0 but 0.5000000000001 at 2.0"),
    ("luxemburg-conorm", "luxemburg --output out.json", PROBSUM_ONLY_DOC,
     "luxemburg distances need an additive-regime gauge"),
    # orlicz reads its whole document before any norm: the malformed psi2
    # is found before the overflowing phi would stop the computation.  A
    # norm the search cannot bracket below its 1e12 cutoff is an input
    # limit: 1e13 / 1e12 = 10 leaves the modular at 100 > 1, and f and g
    # each stay under the cutoff but f - g = 1.8e12 does not
    ("orlicz-exponent-overflow", "orlicz", dict(ONE_POINT, phi=edit(SQUARE, (("p", "a"), 1e308))),
     "bad orlicz document: (34, 'Numerical result out of range')"),
    ("orlicz-read-whole", "orlicz",
     dict(ONE_POINT, phi=edit(SQUARE, (("p", "a"), 1e308)), psi1=SQUARE,
          psi2={"kind": "no-such-kind"}),
     "bad orlicz document: unknown Musielak-Orlicz kind 'no-such-kind'"),
    ("orlicz-unknown-exponent-point", "orlicz", edit(ORLICZ_DOC, (("phi", "p", "z"), 2.0)),
     "bad orlicz document: p for unknown point 'z'"),
    ("orlicz-phi-norm-past-cutoff", "orlicz",
     dict(ONE_POINT, phi=SQUARE, functions={"f": {"a": 1e13}, "g": {"a": 0.0}}),
     f"phi norm of function 'f' {CUTOFF}"),
    ("orlicz-one-sided-norm-past-cutoff", "orlicz",
     dict(ONE_POINT, psi1=SQUARE, psi2=SQUARE, functions={"f": {"a": 1e13}, "g": {"a": 0.0}}),
     f"one-sided norm of function 'f' {CUTOFF}"),
    ("orlicz-distance-past-cutoff", "orlicz",
     dict(ONE_POINT, psi1=SQUARE, psi2=SQUARE, functions={"f": {"a": 9e11}, "g": {"a": -9e11}}),
     f"one-sided distance from function 'f' to 'g' {CUTOFF}"),
    # "x|y" keys that name no two points, documents of the wrong shape, and
    # what no command can compute
    ("envelope-key-without-bar", "envelope", edit(ENVELOPE_DOC, (("distance",), {"ax": 1.0})),
     "bad envelope document: bad distance key 'ax'"),
    *((f"envelope-key-{key}", "envelope", edit(ENVELOPE_DOC, (("distance", key), 1.0)),
       f"bad envelope document: bad distance key {key!r}") for key in ("x|z", "x|a|x")),
    ("gauge-table-as-list", "check-axioms", edit(ADDITIVE_DOC, (("table",), [])),
     "bad gauge document: 'list' object has no attribute 'items'"),
    ("envelope-distance-as-list", "envelope", edit(ENVELOPE_DOC, (("distance",), [])),
     "bad envelope document: 'list' object has no attribute 'items'"),
    ("envelope-unhashable-point", "envelope", edit(ENVELOPE_DOC, (("points",), ["a", "x", [1]])),
     "bad envelope document: unhashable type: 'list'"),
    *((f"cover-sequence-{name}", "cover", {"space": ADDITIVE_DOC, "sequence": ids},
       f"bad cover sequence: expected a JSON list, not {type(ids).__name__}")
      for name, ids in (("number", 3), ("string", "abba"), ("object", {"a": 1}))),
    ("cover-unsplittable-radius", "cover",
     edit(ADDITIVE_DOC, (("grid",), [1.0, 2.0]), (("table",), {
         "a|a": [0, 0], "b|b": [0, 0], "a|b": [5e-324] * 2, "b|a": [1.0, 1.0]})),
     "cover cannot shrink its radii: radius 5e-324 has no split s > 0 with "
     "s (+) s < r (tried s = 0.0)"),
    ("cover-scale-halving-to-zero", "cover",
     edit(ADDITIVE_DOC, (("grid",), [5e-324, 1.0]), (("table",), {
         "a|a": [0, 0], "b|b": [0, 0], "a|b": [4.0, 1.0], "b|a": [3.0, 0.75]})),
     "cover cannot halve its scales: scale 5e-324 halves to 0.0"),
    ("topology-17-points", "topology",
     {"regime": "additive", "points": SEVENTEEN, "grid": [1.0],
      "table": {f"{x}|{y}": [float(x != y)] for x in SEVENTEEN for y in SEVENTEEN}},
     "topology handles at most 16 points, got 17"),
    # the one id rule; the JSON literals NaN, Infinity and -Infinity read
    # as float ids, and a sequence id names only the point of its string
    # form.  Measure-space points keep it though no pair key holds them
    ("gauge-infinite-point", "check-axioms",
     {"regime": "additive", "points": [INF, "b"], "grid": [1.0],
      "table": {"inf|b": [1.0], "b|inf": [1.0]}},
     "bad gauge document: point id inf is not a finite number"),
    ("graph-infinite-vertex", "graph",
     {"vertices": [-INF, "b"], "edges": [{"from": "b", "to": -INF, "cost": 1.0}]},
     "bad graph document: vertex id -inf is not a finite number"),
    ("envelope-nan-point", "envelope",
     {"points": [math.nan, 1], "distance": {"nan|1": 1, "1|nan": 3},
      "domain": [1], "values": {"1": 0.5}, "lipschitz": 1},
     "bad envelope document: point id nan is not a finite number"),
    ("graph-vertices", "graph",
     {"vertices": BARRED, "edges": [{"from": "a|b", "to": "c"}, {"from": "c", "to": "a"},
                                    {"from": "a", "to": "b|c"}]},
     f"bad graph document: vertex {UNIQUE}"),
    ("orlicz-function-ids", "orlicz",
     dict(ORLICZ_DOC, functions={f: {"a": float(i), "b": 1.0} for i, f in enumerate(BARRED)}),
     f"bad orlicz document: function {UNIQUE}"),
    ("envelope-str-collision", "envelope",
     dict(ENVELOPE_DOC, points=[1, "1", "b"], distance={"1|b": 1.0, "b|1": 1.0},
          domain=[1], values={"1": 0.0}),
     f"bad envelope document: point {UNIQUE}"),
    ("envelope-duplicate-points", "envelope", dict(ENVELOPE_DOC, points=["a", "a", "x"]),
     f"bad envelope document: point {UNIQUE}"),
    ("gauge-point", "check-axioms",
     {"regime": "additive", "points": ["a|b"], "grid": [1.0], "table": {}},
     f"bad gauge document: point {UNIQUE}"),
    ("envelope-int-float", "envelope",
     {"points": [1, 1.0, "x"], "distance": {"1|x": 1.0, "x|1": 2.0, "1.0|x": 5.0, "x|1.0": 1.0},
      "domain": [1], "values": {"1": 0.0}, "lipschitz": 1.0},
     f"bad envelope document: point {VALUE_EQUAL}"),
    ("envelope-bool-int", "envelope",
     {"points": [True, 1, "x"], "distance": {"True|x": 1.0, "x|True": 1.0, "1|x": 1.0, "x|1": 1.0},
      "domain": ["x"], "values": {"x": 0.0}, "lipschitz": 1.0},
     f"bad envelope document: point {VALUE_EQUAL}"),
    ("gauge-int-float", "check-axioms",
     dict(ADDITIVE_DOC, points=[1, 1.0], grid=[1.0],
          table={"1|1": [0], "1|1.0": [1], "1.0|1": [1], "1.0|1.0": [0]}),
     f"bad gauge document: point {VALUE_EQUAL}"),
    ("graph-int-bool", "graph", {"vertices": [1, True], "edges": []},
     f"bad graph document: vertex {VALUE_EQUAL}"),
    ("cover-bool-sequence", "cover", {"space": COVER_01, "sequence": [True, False]},
     "bad cover sequence: unknown point id True"),
    ("cover-float-sequence", "cover", {"space": dict(COVER_01, points=[1, 0]), "sequence": [1.0]},
     "bad cover sequence: unknown point id 1.0"),
    *((f"orlicz-{name}", "orlicz", orlicz_on(points), f"bad orlicz document: point {rule}")
      for name, points, rule in (("int-float", [1, 1.0], VALUE_EQUAL),
                                 ("bool-int", [True, 1], VALUE_EQUAL),
                                 ("str-collision", [1, "1"], UNIQUE),
                                 ("bar", ["a|b", "c"], UNIQUE))),
]) + [
    # a --grid item is read as json.loads reads it: "\f" is no whitespace,
    # and the command line is not split at spaces for it
    Row("grid-form-feed", ("check-axioms", "--input", "in.json", "--grid", "1,\f2"),
        ADDITIVE_DOC, 2, "bad --grid value '1,\\x0c2': '\\x0c2' is not a JSON number", False),
]

# one number rule for every numeric field of every document: a JSON number
# or "inf", where bare float() once took true as 1.0 and "2" as 2.0.  Each
# field is (command, document, path, the document's name in the error, the
# field's name)
NUMERIC_FIELDS = {
    "gauge-grid": ("check-axioms", ADDITIVE_DOC, ("grid", 1), "gauge", "grid"),
    "topology-grid": ("topology", ADDITIVE_DOC, ("grid", 2), "gauge", "grid"),
    "gauge-table": ("check-axioms", ADDITIVE_DOC, ("table", "a|b", 0), "gauge", "table[a|b]"),
    "cover-table": ("cover", ADDITIVE_DOC, ("table", "a|b", 1), "gauge", "table[a|b]"),
    "graph-mu": ("graph", GRAPH_DOC, ("edges", 0, "mu"), "graph", "edge mu"),
    "graph-cost": ("graph", GRAPH_DOC, ("edges", 0, "cost"), "graph", "edge cost"),
    "graph-measure": ("graph", GRAPH_DOC, ("measure", "u"), "graph", "measure at 'u'"),
    "orlicz-mu": ("orlicz", ORLICZ_DOC, ("space", "mu", "a"), "orlicz", "mu at 'a'"),
    "orlicz-exponent": ("orlicz", ORLICZ_DOC, ("phi", "p", "a"), "orlicz", "p at 'a'"),
    "orlicz-p": ("orlicz", DOUBLE_PHASE, ("phi", "p"), "orlicz", "p"),
    "orlicz-q": ("orlicz", DOUBLE_PHASE, ("phi", "q"), "orlicz", "q"),
    "orlicz-a": ("orlicz", DOUBLE_PHASE, ("phi", "a", "a"), "orlicz", "a at 'a'"),
    "orlicz-w": ("orlicz", WEIGHTED, ("phi", "w", "a"), "orlicz", "w at 'a'"),
    "orlicz-function": ("orlicz", ORLICZ_DOC, ("functions", "f", "a"), "orlicz",
                        "function value at 'a'"),
    "envelope-distance": ("envelope", ENVELOPE_DOC, ("distance", "x|a"), "envelope",
                          "distance[x|a]"),
    "envelope-value": ("envelope", ENVELOPE_DOC, ("values", "a"), "envelope", "value at 'a'"),
    "envelope-lipschitz": ("envelope", ENVELOPE_DOC, ("lipschitz",), "envelope", "lipschitz"),
}
NON_NUMBERS = {"true": True, "false": False, "string": "2", "null": None,
               "list": [1], "huge": HUGE}
RAY = "must be a nonnegative real or +inf, got"
# the values a field's own range refuses, with the error after "bad
# <document> document: "; json.dumps writes -1.0, NaN and -Infinity as the
# literals the wire reader takes as numbers
RANGES = [
    *((field, name, value, f"table value for ('a', 'b') {RAY} {value!r}")
      for field in ("gauge-table", "cover-table")
      for name, value in (("negative", -1.0), ("nan", math.nan), ("minus-infinity", -INF))),
    ("envelope-distance", "negative", -1.0, f"distance[x|a] {RAY} -1.0"),
    ("envelope-distance", "nan", math.nan, f"distance[x|a] {RAY} nan"),
    ("envelope-distance", "minus-inf-string", "-inf",
     "distance[x|a] must be a number or \"inf\", got '-inf'"),
    ("envelope-value", "nan", math.nan, "value at 'a' must be finite, got nan"),
    ("envelope-value", "inf", INF, "value at 'a' must be finite, got inf"),
    ("envelope-value", "inf-string", "inf", "value at 'a' must be finite, got inf"),
    ("graph-cost", "negative-int", -1, f"edge cost {RAY} -1.0"),
    ("graph-cost", "negative", -0.5, f"edge cost {RAY} -0.5"),
    ("graph-cost", "nan", math.nan, f"edge cost {RAY} nan"),
    ("graph-cost", "infinity", INF, "edge costs must be finite"),
    ("graph-cost", "inf-string", "inf", "edge costs must be finite"),
    ("graph-cost", "x", "x", "edge cost must be a number or \"inf\", got 'x'"),
    ("graph-cost", "nan-string", "nan", "edge cost must be a number or \"inf\", got 'nan'"),
    ("graph-cost", "empty-list", [], "edge cost must be a number or \"inf\", got []"),
    # coefficients the number rule admits as "inf" and the model refuses
    ("orlicz-q", "inf", "inf", "double phase needs 1 <= p < q < inf, got p=2.0, q=inf"),
    ("orlicz-a", "inf", "inf",
     "double-phase coefficient a at 'a' must be >= 0 and finite, got inf"),
    ("orlicz-w", "inf", "inf", "weights must be positive and finite: w at 'a' is inf"),
]


def number_message(name, value):
    """What the number rule says of `value` in the field `name`."""
    if value == HUGE:
        return f"{name} is too large for a float: an integer of 1329 bits"
    return f'{name} must be a number or "inf", got {value!r}'


COMMAND_ROWS += rows(
    (f"{field}-{name}", command, edit(doc, (path, value)), f"bad {what} document: {error}")
    for field, name, value, error in [
        *((field, key, value, number_message(NUMERIC_FIELDS[field][4], value))
          for field in NUMERIC_FIELDS for key, value in NON_NUMBERS.items()),
        *RANGES]
    for command, doc, path, what, _ in [NUMERIC_FIELDS[field]])


# ---------------------------------------------------------------------------
# reader rows


class ReaderRow(NamedTuple):
    name: str
    call: object  # the entry point, called with the value
    value: object
    error: str  # the ValueError's message


GRID = ScaleGrid((1.0, 2.0))
TABLE = {("a", "b"): (2.0, 1.0), ("b", "a"): (1.0, 0.5)}
PHI = MusielakOrlicz.variable_exponent({"x": 2.0})
DATUM = PartialFunction(("a",), {"a": 1.0}, 1.0)


def table_gauge(table=TABLE):
    return GaugeSpec(Regime.ADDITIVE, ("a", "b"), grid=GRID, table=table)


def integral(masses, values):
    return make_one_sided_integral(masses, lambda t: t, {"f": values, "g": {0: 0.0}})


def closed_form(v):
    return GaugeSpec(Regime.ADDITIVE, ("a", "b"), fn=lambda x, y, t: v if x != y else 0)


def near(x, y):
    return 0.0


# each reader of a number, by the number rule of the JSON readers: (build
# from the value, the name in number's message).  The constructors, then
# the readers of a distance table and of make_one_sided_integral's masses
# and values, then the readers of what a caller's function returns.
# float() read True as 1.0, "2", Fraction(1, 2) and Decimal("1") got
# through, were compared raw or ended in a TypeError, and 10 ** 400 in an
# OverflowError
NUMBER_READERS = {
    "grid": (lambda v: ScaleGrid((v, 2.0)), "grid"),
    "edge-mu": (lambda v: Edge("a", "b", v, 1.0), "edge mu"),
    "vertex-measure": (lambda v: DirectedGraph(("a",), (), {"a": v}), "measure at 'a'"),
    "mass": (lambda v: DiscreteMeasureSpace(("x",), {"x": v}), "mass at 'x'"),
    "exponent": (lambda v: MusielakOrlicz.variable_exponent({"x": v}), "exponent at 'x'"),
    "double-phase-p": (lambda v: MusielakOrlicz.double_phase(v, 3.0, {}), "p"),
    "double-phase-q": (lambda v: MusielakOrlicz.double_phase(1.0, v, {}), "q"),
    "double-phase-a": (lambda v: MusielakOrlicz.double_phase(1.0, 2.0, {"x": v}), "a at 'x'"),
    "weight": (lambda v: MusielakOrlicz.weighted(PHI, {"x": v}), "w at 'x'"),
    "lipschitz": (lambda v: PartialFunction(("a",), {"a": 1.0}, v), "lipschitz"),
    "member": (lambda v: TruncatedSequenceFamily(((v, 2),), 2), "member value"),
    "sequence-exponent": (lambda v: TruncatedSequenceFamily(((1.0,),), v), "exponent"),
    "profile-value": (lambda v: Profile(GRID, (v, 0.0)), "profile value"),
    "table-value": (lambda v: table_gauge({**TABLE, ("a", "b"): (v, 0.0)}),
                    "table value for ('a', 'b')"),
    "sublinear": (lambda v: make_sublinear(lambda d: v if d else 0.0, (0.0, 1.0)), "p(1.0)"),
    "schedule-time": (lambda v: schedule_from_json({"times": [0.0, v], "costs": {}}), "times"),
    "min-cap": (lambda v: make_min_cap({("a", "b"): v}).value("a", "b", 1e300), "rho row for 'a'"),
    "ratio": (lambda v: make_ratio({("a", "b"): v}).value("a", "b", 1.0), "p row for 'a'"),
    "scaled-metric": (lambda v: make_scaled_metric(
        {("a", "b"): v}, Profile(GRID, (1.0, 0.5))).table["a", "b"], "d row for 'a'"),
    # a left-out pair is +inf, so a -> c breaks the triangle unless a -> b
    # is +inf too
    "check": (lambda v: quasi_pseudometric_check(
        {("a", "b"): v, ("b", "c"): 1.0}, "abc").violations, "distance row for 'a'"),
    "upper": (lambda v: upper_envelope(DATUM, {("b", "a"): v}, iter("ab")),
              "distance row for 'b'"),
    "lower": (lambda v: lower_envelope(DATUM, {("a", "b"): v}, (p for p in "ab")),
              "distance row for 'a'"),
    "integral-mass": (lambda v: integral({0: v}, {0: 1.0}), "mass at 0"),
    "function-value": (lambda v: integral({0: 1.0}, {0: v}), "value of 'f' at 0"),
    "closed-form-matrix": (lambda v: closed_form(v).matrix(1.0), "gauge value"),
    "closed-form-value": (lambda v: closed_form(v).value("a", "b", 1.0), "gauge value"),
    "rho-zero": (lambda v: make_classical_modular(lambda d: v, (0.0, 1.0)), "rho(0)"),
    # rho(1) and rho(-1), which the symmetry claim compares, and rho(0.25),
    # on the convexity ray only
    "rho-symmetry": (lambda v: make_classical_modular(lambda d: v if d else 0, (0.0, 1.0)),
                     "rho value"),
    "rho-ray": (lambda v: make_classical_modular(
        lambda d: v if abs(d) == 0.25 else abs(d), (0.0, 1.0)), "rho value"),
    "p-zero": (lambda v: make_sublinear(lambda d: v, (0.0, 1.0)), "p(0)"),
    "phi-zero": (lambda v: make_one_sided_integral({0: 1.0}, lambda t: v, {"f": {0: 1.0}}),
                 "Phi(0)"),
    "phi-sum": (lambda v: make_one_sided_integral(
        {0: 1.0}, lambda t: v if t else 0, {"f": {0: 1.0}, "g": {0: 0.0}}), "Phi value"),
    "scale-map": (lambda v: luxemburg_infimum(lambda lam: v), "value_at value"),
    "image-metric": (lambda v: transport_total_boundedness(
        "ab", "ab", near, lambda x, y: v, 1.0, 1.0), "image_metric value"),
    "source-metric": (lambda v: transport_total_boundedness(
        "ab", "ab", lambda x, y: v, near, 1.0, 1.0), "source_metric value"),
}
# what "inf" builds in each distance-table reader, which reads it as +inf
INF_READS = {"min-cap": 1e300, "ratio": 1.0 - 2.0 ** -52, "scaled-metric": (INF, INF),
             "check": (), "upper": {"a": 1.0, "b": INF}, "lower": {"a": 1.0, "b": -INF}}
BAD_NUMBERS = {"bool": True, "false": False, "string": "2", "null": None,
               "list": [1], "fraction": Fraction(1, 2), "decimal": Decimal("1"),
               "huge": HUGE}
# float() and int() alone read each of these as a time and an edge
SCHEDULE_KEYS = ("1_0|0", " 1 |+0", "1|01", "1.|0", ".5|0", "1|-0", "1|0.0",
                 "nan|0", "Infinity|0", "\u0661|0", "1|\u0660", "1|0|0")

READER_ROWS = [ReaderRow(f"{reader}-{key}", build, value, number_message(name, value))
               for reader, (build, name) in NUMBER_READERS.items()
               for key, value in BAD_NUMBERS.items()] + [ReaderRow(*spec) for spec in (
    # an infinite mass or value, and a negative or NaN value of the ray
    ("integral-mass-inf", NUMBER_READERS["integral-mass"][0], "inf",
     "mass at 0 must be positive and finite, got inf"),
    ("function-value-inf", NUMBER_READERS["function-value"][0], "inf",
     "value of 'f' at 0 must be finite, got inf"),
    *((f"profile-value-{name}", lambda v: Profile(GRID, (1.0, v)), bad,
       f"profile value {RAY} {float(bad)!r}")
      for name, bad in (("negative", -1), ("nan", math.nan))),
    *((f"table-value-{name}", lambda v: table_gauge({**TABLE, ("a", "b"): (1, v)}), bad,
       f"table value for ('a', 'b') {RAY} {float(bad)!r}")
      for name, bad in (("negative", -1), ("nan", math.nan))),
    # the constructors' own range and shape checks
    ("edge-zero-mu", lambda v: Edge("a", "b", v, 1.0), 0.0,
     "edge measure must be positive, got 0.0"),
    ("grid-decreasing", ScaleGrid, (2.0, 1.0), "scales must be strictly increasing"),
    ("profile-short", lambda v: Profile(GRID, v), (1.0,),
     "profile needs exactly one value per grid scale"),
    ("gauge-neither", lambda v: GaugeSpec(Regime.ADDITIVE, v), ("a",),
     "gauge needs exactly one of fn or table"),
    # make_one_sided_integral's functions name exactly the sample ids, so
    # that no KeyError escapes and no value at an id with no mass is dropped
    ("sample-ids-missing", lambda v: integral({0: 1.0, 1: 1.0}, v), {0: 1.0},
     "function 'f' misses sample ids [1]"),
    ("sample-ids-unknown", lambda v: integral({0: 1.0}, v), {0: 1.0, 5: 3.0},
     "value of 'f' for unknown sample id 5"),
    *((f"schedule-key-{key}", lambda v: schedule_from_json(
        {"times": [1.0, 10.0], "costs": {v: 1.0}}), key,
       f"bad schedule key {key!r}; expected 'time|edge' with a JSON number and a non-negative "
       f"integer") for key in SCHEDULE_KEYS),
    ("schedule-key-huge-time", lambda v: schedule_from_json({"times": [1.0], "costs": {v: 1.0}}),
     f"{HUGE}|0", f"time of '{HUGE}|0' is too large for a float: an integer of 1329 bits"),
)]
ROW = {row.name: row for row in COMMAND_ROWS + READER_ROWS}


# ---------------------------------------------------------------------------
# running the rows


def write_input(row, directory) -> None:
    """Write `row`'s document, if it has one, as in.json in `directory`."""
    if row.doc is not None:
        text = row.doc if isinstance(row.doc, (str, bytes)) else \
            json.dumps(row.doc)
        Path(directory, "in.json").write_bytes(
            text if isinstance(text, bytes) else text.encode("utf-8"))


def mismatch(row, code, out, err, files):
    """None when a run of `row` kept it, else what the run got.  `files`
    lists the run's directory after it."""
    want = (cli._usage() if row.usage else "") + f"quasimod: error: {row.error}\n"
    if (code, out, err, files) == (row.code, "", want, ["in.json"] * (row.doc is not None)):
        return None
    return f"exit {code}, stdout {out!r}, stderr {err!r}, files {files}"


def check(row):
    """None when `row` holds, run in process (a command row through
    `cli.main` in an empty temporary directory), else what the run got."""
    if isinstance(row, ReaderRow):
        try:
            row.call(row.value)
        except ValueError as exc:
            return None if str(exc) == row.error else f"ValueError: {exc}"
        return "no ValueError"
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_input(row, tmp)
        os.chdir(tmp)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(row.argv))
        finally:
            os.chdir(cwd)
        return mismatch(row, code, out.getvalue(), err.getvalue(),
                        sorted(os.listdir(tmp)))


# Tests that ran some rows before this table keep their ids, and each of
# those rows runs under its older id alone: (module, test) -> the case ids
# the test had, each naming its row, or the rows of a test without cases.
# tests/test_contract.py runs every row no test here holds, and
# tests/test_records.py runs the TABLE_READERS rows.
def _same(names):
    return {name: name for name in names}


HELD = {
    ("test_cli", "test_luxemburg_rejects_nonmonotone_and_conorm_gauges"):
        ("luxemburg-rising", "luxemburg-conorm"),
    ("test_cli", "test_luxemburg_exits_2_on_a_row_that_rises_past_its_infimum"):
        ("luxemburg-rise-past-infimum",),
    ("test_cli", "test_orlicz_overflow_keeps_its_error_line"): ("orlicz-exponent-overflow",),
    ("test_cli", "test_an_orlicz_document_is_read_whole_before_any_norm"):
        ("orlicz-read-whole",),
    ("test_cli", "test_schedule_key_times_take_the_number_rule"): ("schedule-key-huge-time",),
    ("test_cli", "test_envelope_distances_outside_the_extended_ray_exit_2"):
        {k: f"envelope-distance-{k}" for k in ("negative", "nan", "minus-inf-string")},
    ("test_cli", "test_gauge_table_values_outside_the_extended_ray_exit_2"):
        {f"{command}-{k}": f"{field}-{k}"
         for command, field in (("check-axioms", "gauge-table"), ("cover", "cover-table"))
         for k in ("negative", "nan", "minus-infinity")},
    ("test_cli", "test_envelope_distance_keys_name_two_points"):
        {f"{k}-1.0": f"envelope-key-{k}" for k in ("x|z", "x|a|x")},
    ("test_cli", "test_envelope_values_must_be_finite"):
        {k: f"envelope-value-{k}" for k in ("nan", "inf", "inf-string")},
    ("test_cli", "test_hostile_flags_exit_2_without_a_traceback"):
        {"flags0---tol must be positive": "nan-tol",
         "flags1---tol must be below": "tol-past-cutoff",
         "flags2-cannot write": "unwritable-output"},
    ("test_cli", "test_malformed_documents_exit_2_without_a_traceback"): {
        "gauge-table-list": "gauge-table-as-list",
        "envelope-distance-list": "envelope-distance-as-list", **_same((
            "envelope-unhashable-point", "cover-sequence-number", "orlicz-exponent-overflow",
            "cover-unsplittable-radius", "cover-scale-halving-to-zero", "topology-17-points",
            "gauge-infinite-point", "graph-infinite-vertex", "envelope-nan-point"))},
    ("test_cli", "test_unreadable_input_exits_2_with_one_error_line"): _same(
        name for kind in ("directory", "utf16-bom", "5000-digit-integer", "deep-nesting")
        for name in (f"{kind}-check-axioms", f"{kind}-graph") if name in ROW),
    ("test_cli", "test_oversize_integers_exit_2_with_one_error_line"):
        {"gauge-value": "gauge-table-huge", "grid-scale": "topology-grid-huge",
         "graph-cost": "graph-cost-huge", "graph-mu": "graph-mu-huge",
         "envelope-distance": "envelope-distance-huge", "orlicz-mass": "orlicz-mu-huge"},
    ("test_cli", "test_every_bad_edge_cost_exits_2"):
        {"-1": "graph-cost-negative-int", "-0.5": "graph-cost-negative",
         "x": "graph-cost-x", "inf0": "graph-cost-inf-string",
         "nan0": "graph-cost-nan-string", "True": "graph-cost-true",
         "None": "graph-cost-null", "cost7": "graph-cost-empty-list",
         "nan1": "graph-cost-nan", "inf1": "graph-cost-infinity"},
    ("test_cli", "test_every_numeric_field_refuses_non_numbers"): _same(
        f"{field}-{key}" for field in NUMERIC_FIELDS
        for key in ("true", "false", "string", "null", "list")),
    ("test_cli", "test_every_numeric_field_names_itself_past_the_float_range"):
        {field: f"{field}-huge" for field in NUMERIC_FIELDS},
    ("test_cli", "test_infinite_orlicz_coefficients_exit_2_naming_the_coefficient"):
        {field: f"{field}-inf" for field in ("orlicz-q", "orlicz-a", "orlicz-w")},
    ("test_cli", "test_schedule_times_refuse_non_numbers"):
        {"true": "schedule-time-bool",
         **{k: f"schedule-time-{k}" for k in ("false", "string", "null", "list")}},
    ("test_cli", "test_schedule_keys_are_a_json_number_and_a_json_index"):
        {k: f"schedule-key-{k}" for k in SCHEDULE_KEYS},
    ("test_cli", "test_ambiguous_ids_and_non_list_sequences_exit_2"): _same((
        "graph-vertices", "orlicz-function-ids", "envelope-str-collision",
        "envelope-duplicate-points", "gauge-point", "cover-sequence-string",
        "cover-sequence-object", "envelope-int-float", "envelope-bool-int",
        "gauge-int-float", "graph-int-bool", "cover-bool-sequence",
        "cover-float-sequence", "orlicz-int-float", "orlicz-bool-int",
        "orlicz-str-collision", "orlicz-bar")),
    ("test_records", "test_constructor_errors_are_unchanged"):
        ("edge-zero-mu", "grid-decreasing", "profile-short", "gauge-neither"),
    ("test_records", "test_one_sided_integral_functions_name_exactly_the_sample_ids"):
        {case: f"sample-ids-{case}" for case in ("missing", "unknown")},
    ("test_records", "test_constructors_read_numbers_by_the_number_rule"): _same(
        f"{reader}-{value}" for reader in (
            "grid", "edge-mu", "vertex-measure", "mass", "exponent", "double-phase-p",
            "double-phase-q", "double-phase-a", "weight", "lipschitz", "member",
            "sequence-exponent", "profile-value", "table-value", "sublinear")
        for value in ("bool", "string", "huge")),
    ("test_records", "test_function_values_read_numbers_by_the_number_rule"): _same(
        f"{reader}-{value}" for reader in (
            "closed-form-matrix", "closed-form-value", "rho-zero", "rho-symmetry",
            "rho-ray", "p-zero", "phi-zero", "phi-sum", "scale-map", "image-metric",
            "source-metric")
        for value in ("bool", "string", "fraction", "decimal", "huge")),
}
# the readers of a distance table, then make_one_sided_integral's masses
# and function values, by the case ids test_records gives them, and the
# rows its test of them runs
TABLE_READERS = {**{r: r for r in INF_READS}, "mass": "integral-mass",
                 "function-value": "function-value"}
TABLE_VALUES = ("bool", "string", "fraction", "decimal", "huge", "inf")
TABLE_ROWS = {f"{name}-{value}" for name in TABLE_READERS.values() for value in TABLE_VALUES
              if not (value == "inf" and name in INF_READS)}
HELD_ROWS = TABLE_ROWS | {name for cases in HELD.values() for name in
                          (cases.values() if isinstance(cases, dict) else cases)}


def row_cases(cases):
    """A test with one case per (id, row name) of `cases`."""
    import pytest  # only the test modules need it

    @pytest.mark.parametrize("row", [ROW[name] for name in cases.values()], ids=list(cases))
    def test(row):
        assert check(row) is None, row.error
    return test


def held_tests(module):
    """The tests of HELD in `module`, by name."""
    def one_case(names):
        def test():
            for name in names:
                assert check(ROW[name]) is None, name
        return test
    return {test: row_cases(cases) if isinstance(cases, dict) else one_case(cases)
            for (where, test), cases in HELD.items() if where == module}


def main() -> int:
    """Run the `ci` rows against the `quasimod` on PATH."""
    env = {k: v for k, v in os.environ.items() if k != "QUASIMOD_LOG"}
    ci = [ROW[name] for name in CI]
    failed = 0
    for row in ci:
        with tempfile.TemporaryDirectory() as tmp:
            write_input(row, tmp)
            done = subprocess.run(["quasimod", *row.argv], cwd=tmp, env=env,
                                  capture_output=True, text=True)
            got = mismatch(row, done.returncode, done.stdout, done.stderr,
                           sorted(os.listdir(tmp)))
        if got:
            failed += 1
            print(f"{row.name}: quasimod {' '.join(row.argv)}: expected exit "
                  f"{row.code} with {row.error!r}; got {got}")
    print(f"{len(ci) - failed} of {len(ci)} ci rows kept")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

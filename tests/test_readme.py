"""The README's examples, run as written.

The library quick start is executed and each `print` must write the text
of the comments on its lines.  The command-line examples are run through
`quasimod.cli.main` on the documents the README shows (or describes), and
their reports and exit codes are compared with the README's.  Every
`quasimod: error:` line the README quotes is a row of `tests/contract.py`,
and the graph section names the lane sweep's pass cap.
"""

import ast
import contextlib
import io
import json
import re
import shlex
import tokenize
from pathlib import Path

from quasimod import graphs
from quasimod.cli import main

from contract import COMMAND_ROWS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def block(after, lang):
    """The first fenced `lang` block that follows the text `after`."""
    start = README.index(after)
    match = re.compile(rf"^```{lang}\n(.*?)^```$", re.M | re.S).search(
        README, start)
    assert match, (after, lang)
    return match.group(1)


def printed_comments(src):
    """One expected output line per top-level print call: the comments on
    the lines the call spans, joined by a space."""
    comments = {}
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type == tokenize.COMMENT:
            comments[tok.start[0]] = tok.string.lstrip("#").strip()
    return [" ".join(comments[n] for n in range(node.lineno, node.end_lineno + 1)
                     if n in comments)
            for node in ast.parse(src).body
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "print"]


def test_library_quick_start_prints_its_comments():
    src = block("## Library quick start", "python")
    want = printed_comments(src)
    assert len(want) == 4 and all(want)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(src, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == want


def run_console(tmp_path, capsys, console, inputs):
    """Run the console block's command with each named input file written
    from `inputs`; returns (exit code, parsed report, README's exit code or
    None, README's report)."""
    lines = console.splitlines()
    assert lines[0].startswith("$ quasimod ")
    argv = shlex.split(lines[0][2:])[1:]
    for name, text in inputs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        argv[argv.index(name)] = str(tmp_path / name)
    rest = lines[1:]
    want_code = None
    if "$ echo $?" in rest:
        at = rest.index("$ echo $?")
        want_code, rest = int(rest[at + 1]), rest[:at]
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, json.loads(captured.out), want_code, \
        json.loads("\n".join(rest))


def test_check_axioms_example(tmp_path, capsys):
    gauge = block("Gauge (`check-axioms`", "json")
    console = block("Gauge (`check-axioms`", "console")
    code, got, want_code, want = run_console(tmp_path, capsys, console,
                                             {"gauge.json": gauge})
    assert want_code == 0
    assert (code, got) == (want_code, want)


def test_orlicz_example(tmp_path, capsys):
    doc = block("Orlicz (`orlicz`):", "json")
    console = block("Orlicz (`orlicz`):", "console")
    code, got, want_code, want = run_console(tmp_path, capsys, console,
                                             {"orlicz.json": doc})
    assert want_code is None and want["phi"]["f"]["unit_ball"]["ok"]
    assert (code, got) == (0, want)


def test_topology_example(tmp_path, capsys):
    # "a two-point conorm gauge with w(x,y) = 0 everywhere and w(y,x) > 0"
    doc = {"regime": "conorm", "conorm": "max", "points": ["x", "y"],
           "grid": [1.0, 2.0],
           "table": {"x|x": [0, 0], "x|y": [0, 0], "y|x": [0.5, 0.25],
                     "y|y": [0, 0]}}
    src = tmp_path / "topology.json"
    src.write_text(json.dumps(doc), encoding="utf-8")
    want = json.loads(block("`topology` on a two-point conorm gauge", "json"))
    assert want["join_equals_sym"] is True
    assert main(["topology", "--input", str(src)]) == 0
    assert json.loads(capsys.readouterr().out) == want


def test_graph_grid_rounding_example(tmp_path, capsys):
    prose = " ".join(README[README.index("Dijkstra adds edge costs"):]
                     .split("\n\n")[0].split())
    costs = re.search(r"costs (\S+), (\S+) and (\S+), d\(x, z\)", prose)
    command = re.search(r"`graph --grid (\S+)` on that graph exits (\d)",
                        prose)
    witness = re.search(r"witness `(\[[^`]*\])` with lhs `(\S+)` and rhs "
                        r"`(\S+)`", prose)
    assert costs and command and witness
    doc = {"vertices": ["x", "y", "w", "z"],
           "edges": [{"from": a, "to": b, "cost": float(c)}
                     for (a, b), c in zip((("x", "y"), ("y", "w"),
                                           ("w", "z")), costs.groups())]}
    src = tmp_path / "graph.json"
    src.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["graph", "--input", str(src), "--grid", command.group(1)])
    report = json.loads(capsys.readouterr().out)
    assert code == int(command.group(2)) == 1
    assert {"axiom": "triangle", "witness": json.loads(witness.group(1)),
            "lhs": float(witness.group(2)), "rhs": float(witness.group(3))} \
        in report["axioms"]["violations"]


def test_the_graph_section_names_the_sweep_cap():
    assert f"Past {graphs._PASSES} sweeps" in " ".join(README.split())


def test_every_quoted_error_line_is_a_contract_row():
    quoted = [" ".join(span.split()) for span in
              re.findall(r"`(quasimod: error: [^`]+)`", README)]
    assert quoted
    rows = {f"quasimod: error: {row.error}" for row in COMMAND_ROWS}
    assert [line for line in quoted if line not in rows] == []

"""The command-line reader against the argparse parser it replaced.

`oracle` is that parser, as `cli._build_parser` built it, followed by the
checks `cli.main` then made on its namespace.  On generated command lines
the reader must give the namespace the oracle gives, refuse where it
refuses (exit 2, one `quasimod: error:` line) and print the help where it
does (exit 0).  The one deliberate difference is `--tol`, which argparse
read with float() and the reader reads as a JSON number: the oracle takes
`--tol` by that rule, and where float() would read it otherwise, some
token of the line must be a spelling only float() reads.

Left out of the tokens are the three spellings that argparse read
differently from one Python release to the next: a value "--" glued on
with "=" (`--input=--` gave an empty list up to 3.12 and "--" after), -h
with letters glued on (`-hx`: exit 2 up to 3.12 and the help after), and
negative numbers in exponent form (`-1e-9`).
"""

import argparse
import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quasimod import cli
from quasimod.cli import main
from quasimod.extreal import number
from quasimod.luxemburg import DEFAULT_LAMBDA_MAX, DEFAULT_TOL


def json_tol(raw):
    """--tol as the reader takes it: one JSON number by the number rule."""
    return number(json.loads(raw), "--tol")


def build_parser(tol_type) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasimod",
        description="Quasi-modular gauge analyses over finite data")
    parser.add_argument("command", choices=sorted(cli._COMMANDS))
    parser.add_argument("--input", required=True, help="input JSON file")
    parser.add_argument("--output", help="report file (.json, or .csv for "
                        "luxemburg and graph)")
    parser.add_argument("--tol", type=tol_type, help="orlicz: tolerance of "
                        "searched norms (default 1e-9)")
    parser.add_argument("--grid", help="check-axioms, topology, cover, "
                        "luxemburg, graph: comma-separated scales, e.g. 0.5,1,2")
    parser.add_argument("--conorm", choices=["max", "prob_sum", "bounded_sum"],
                        help="check-axioms, topology, cover: override the "
                             "conorm of a conorm-regime gauge")
    return parser


def oracle(argv, tol_type=json_tol):
    """The namespace's dict of the replaced parser and checks, or the exit
    code they ended in: 0 after the help, 2 after a refusal."""
    parser = build_parser(tol_type)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            args = parser.parse_args(argv)
            run, flags = cli._COMMANDS[args.command]
            for flag in ("tol", "grid", "conorm"):
                if vars(args)[flag] is not None and flag not in flags:
                    parser.error(f"{args.command} takes no --{flag}")
            if (args.output or "").endswith(".csv") and "csv" not in flags:
                parser.error(f"{args.command} takes no .csv --output")
            if args.tol is None:
                args.tol = DEFAULT_TOL
            elif not args.tol > 0:
                parser.error("--tol must be positive")
            elif args.tol >= DEFAULT_LAMBDA_MAX:
                parser.error(f"--tol must be below the largest searched scale "
                             f"{DEFAULT_LAMBDA_MAX:g}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return vars(args)


def reader(argv):
    """The reader's namespace dict, 0 for the help or 2 for a refusal."""
    try:
        args = cli._read_argv(argv)
    except cli.InputError:
        return 2
    return 0 if args is None else vars(args)


def float_only(token: str) -> bool:
    """True when float() reads the token, or its part after "=", and json
    reads no number there."""
    def reads(raw, parse):
        try:
            parse(raw)
        except ValueError:
            return False
        return True
    return any(reads(t, float) and not reads(t, json_tol)
               for t in {token, token.partition("=")[2]})


# each flag's values: the ones it takes, and ones it refuses
VALUES = {"--input": ("in.json", "-", "-1", " -x", ""),
          "--output": ("out.json", "out.csv", "-.5"),
          "--tol": ("1e-9", "1e-6", "-0", "0", "1e13", "+1e-9", "1_0e-9",
                    ".5e-9", " 1e-9 ", "nan", "NaN", "inf", "-1"),
          "--grid": ("1,2", "-1", "x", ""),
          "--conorm": ("max", "prob_sum", "bounded_sum", "bad"),
          "--help": ("", "x")}
STRAYS = ("bogus", "-h", "--help", "--", "--bogus", "--inputs", "-x", "-i",
          "--=x", "-1 x", " -1", "-0", *sorted(cli._COMMANDS))


@st.composite
def command_lines(draw):
    """Flags by any prefix of their name, each with its value apart or
    after "=", and stray tokens, alone or before a value, at any place in a
    line that half the time starts from a command and its --input; a flag
    the command reads comes up twice as often as any other."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    reads = [f"--{f}" for f in cli._COMMANDS[command][1] if f != "csv"]
    argv = [command, "--input", "in.json"] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 4))):
        flag = draw(st.sampled_from([*VALUES, "--output", *reads]))
        name = flag[:draw(st.integers(3, len(flag)))]
        value = draw(st.sampled_from(VALUES[flag]))
        stray = draw(st.sampled_from(STRAYS))
        items = ([name, value], [f"{name}={value}"], [stray],
                 [stray, value])[draw(st.integers(0, 5)) * 2 // 3]
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = items
    return argv


@settings(derandomize=True, deadline=None, database=None, max_examples=1000,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=command_lines())
def test_the_reader_reads_each_line_as_the_replaced_parser(argv):
    want = oracle(argv)
    assert reader(argv) == want, argv
    if want != oracle(argv, float):
        assert any(map(float_only, argv)), argv
    if want in (0, 2):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == want, argv
        errors = [line for line in err.getvalue().splitlines()
                  if line.startswith("quasimod: error: ")]
        assert len(errors) == (want == 2), (argv, err.getvalue())
        assert (out.getvalue() == cli._help()) == (want == 0), argv


@pytest.mark.parametrize("argv, want", [
    # flags before or after the command, by prefix, after "=", repeated
    pytest.param(["--in", "a.json", "orlicz", "--tol=-0.5e-3", "--tol",
                  "1e-6"], {"command": "orlicz", "input": "a.json",
                            "tol": 1e-6},
                 id="prefix-equals-repeat"),
    pytest.param(["--grid", "-1", "graph", "--input=-", "--out", "o.csv"],
                 {"command": "graph", "input": "-", "output": "o.csv",
                  "grid": "-1"}, id="negative-value"),
    # the command takes a "--" beside it; tokens after one are values
    pytest.param(["--input", "x", "--", "cover"],
                 {"command": "cover", "input": "x"}, id="dashes-command"),
    pytest.param(["cover", "--", "--input", "x"], 2, id="dashes-flag"),
    pytest.param(["cover", "--input", "x", "--"], 2, id="dashes-last"),
    pytest.param(["check-axioms", "--input"], 2, id="no-value"),
    pytest.param(["--input", "--grid", "1", "cover"], 2, id="flag-as-value"),
    # the help, unless a token before it was refused; an ambiguous prefix
    # is refused before any token is read
    pytest.param(["orlicz", "--input", "x", "--inputs", "y"], 2,
                 id="unknown-flag"),
    pytest.param(["--bogus", "--help"], 0, id="unknown-then-help"),
    pytest.param(["--tol", "+1", "--help"], 2, id="bad-tol-then-help"),
    pytest.param(["--help", "--tol", "+1"], 0, id="help-then-bad-tol"),
    pytest.param(["--help", "--=x"], 2, id="help-then-ambiguous"),
])
def test_pinned_lines(argv, want):
    if isinstance(want, dict):
        want = dict(dict.fromkeys(("output", "grid", "conorm")),
                    tol=DEFAULT_TOL) | want
    assert reader(argv) == want
    assert oracle(argv) == want


def test_tol_is_a_json_number(tmp_path, capsys):
    """--tol is read as one JSON number, as each --grid item is; float()
    read "1_0e-9" as 1e-8 and "+1e-9", ".5e-9" as numbers."""
    src = tmp_path / "o.json"
    src.write_text(json.dumps({"space": {"points": ["x"], "mu": {"x": 1}},
                               "functions": {"f": {"x": 1}},
                               "phi": {"kind": "variable_exponent",
                                       "p": {"x": 2}}}), encoding="utf-8")
    assert main(["orlicz", "--input", str(src), "--tol", " 1e-9 "]) == 0
    spaced = capsys.readouterr().out
    assert main(["orlicz", "--input", str(src), "--tol", "1e-9"]) == 0
    assert capsys.readouterr().out == spaced
    for raw in ("1_0e-9", "+1e-9", ".5e-9", "1e-9,", "inf"):
        assert main(["orlicz", "--input", str(src), "--tol", raw]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith(
            f"\nquasimod: error: bad --tol value {raw!r}: {raw!r} is not a "
            f"JSON number\n")
    assert main(["orlicz", "--input", str(src), "--tol", '"x"']) == 2
    assert capsys.readouterr().err.endswith(
        "\nquasimod: error: bad --tol value '\"x\"': --tol must be a number "
        "or \"inf\", got 'x'\n")

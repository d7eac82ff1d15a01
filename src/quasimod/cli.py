"""Command-line front end.

Every command reads JSON, writes a deterministic JSON (or CSV) report, and
exits 0 when all checks pass, 1 when violations were found, and 2 on usage
or input errors.  Verbosity is controlled by the QUASIMOD_LOG environment
variable (a logging level name such as DEBUG).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import os
import sys
from dataclasses import replace
from itertools import repeat
from json.encoder import c_make_encoder, encode_basestring_ascii

from .axioms import check_axioms, convexity_check
from .completeness import (SampledSequence, classify_cauchy_thresholds,
                           heine_borel_report)
from .conorms import conorm_from_name
from .extreal import INF, format_ext
from .gauges import Regime, _min_cap_rows, gauge_from_json
from .graphs import asymmetry_index, distance_matrix, graph_from_json
from .luxemburg import (DEFAULT_LAMBDA_MAX, NonmonotoneGaugeError,
                        luxemburg_distance)
from .orlicz import (DiscreteMeasureSpace, OneSidedPair, one_sided_gauges,
                     orlicz_from_json, parse_function,
                     quasi_metric_from_gauges, unit_ball_check)
from .envelopes import PartialFunction, lower_envelope, upper_envelope
from .luxemburg import quasi_pseudometric_check
from .profiles import ScaleGrid
from .topology import (MAX_TOPOLOGY_POINTS, critical_thresholds,
                       verify_join_equality)

log = logging.getLogger("quasimod.cli")


class InputError(Exception):
    """Bad input file or document; maps to exit code 2."""


# what reading a document of the wrong shape raises; OverflowError is an
# integer too large for a float
_DOC_ERRORS = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


def _load_json(path: str) -> object:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}") from None
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from None
    except (UnicodeDecodeError, RecursionError) as exc:
        # bytes that are not UTF-8, or too deep nesting
        raise InputError(f"cannot parse {path}: {exc}") from None
    except ValueError:  # what is left: an integer past Python's digit limit
        raise InputError(f"cannot parse {path}: integer literal too long "
                         f"(over {sys.get_int_max_str_digits()} digits)") from None


_CONTAINERS = (list, tuple, dict)


@functools.cache
def _flat_encoder(depth: int):
    """json's C encoder for a container at nesting depth `depth` whose items
    are all scalars: one call writes the items with the separators that
    indent=2 puts between them."""
    return c_make_encoder(None, json.JSONEncoder().default,
                          encode_basestring_ascii, None, ": ",
                          ",\n" + "  " * (depth + 1), True, False, True)


def _key_text(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring_ascii(_json_text(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _json_text(obj, depth: int = 0) -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2): containers
    that hold containers are laid out here, and every other value goes to
    json's C encoder in one call."""
    if c_make_encoder is None:
        return json.dumps(obj, sort_keys=True, indent=2)
    is_dict = isinstance(obj, dict)
    if not (is_dict or isinstance(obj, (list, tuple))):
        return "".join(_flat_encoder(0)(obj, 0))
    if not obj:
        return "{}" if is_dict else "[]"
    inner = "\n" + "  " * (depth + 1)
    outer = "\n" + "  " * depth
    values = obj.values() if is_dict else obj
    if not any(map(isinstance, values, repeat(_CONTAINERS))):
        text = "".join(_flat_encoder(depth)(obj, 0))
        return text[0] + inner + text[1:-1] + outer + text[-1]
    if is_dict:
        parts = [_key_text(k) + ": " + _json_text(v, depth + 1)
                 for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(parts) + outer + "}"
    parts = [_json_text(v, depth + 1) for v in obj]
    return "[" + inner + ("," + inner).join(parts) + outer + "]"


def _emit(report: dict, output: str | None, matrix=None) -> None:
    if output and output.endswith(".csv") and matrix is not None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        points, rows = matrix
        writer.writerow([""] + [str(p) for p in points])
        for p, row in zip(points, rows):
            writer.writerow([str(p)] + [format_ext(v) for v in row])
        text = buf.getvalue()
    else:
        text = _json_text(report) + "\n"
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _parse_grid(raw: str | None) -> ScaleGrid | None:
    if raw is None:
        return None
    try:
        return ScaleGrid(tuple(float(s) for s in raw.split(",")))
    except ValueError as exc:
        raise InputError(f"bad --grid value {raw!r}: {exc}") from None


def _gauge_from_doc(doc, args) -> object:
    if not isinstance(doc, dict):
        raise InputError("gauge document must be a JSON object")
    try:
        g = gauge_from_json(doc)
    except _DOC_ERRORS as exc:
        raise InputError(f"bad gauge document: {exc}") from None
    grid = _parse_grid(args.grid)
    if grid is not None:
        g = g.tabulated(grid)
    if getattr(args, "conorm", None) and g.regime is Regime.CONORM:
        g = replace(g, conorm=conorm_from_name(args.conorm))
    return g


def _point_resolver(points):
    """Map an id to its point: an exact match first, then a match on str(id).
    Unknown ids raise InputError; an unhashable point raises TypeError."""
    exact = set(points)
    by_str = {str(p): p for p in points}

    def resolve(i):
        try:
            hit = i in exact
        except TypeError:
            hit = False  # an unhashable id equals no point
        key = i if hit else by_str.get(str(i))
        if key is None:
            raise InputError(f"unknown point id {i!r}")
        return key

    return resolve


def cmd_check_axioms(args) -> int:
    g = _gauge_from_doc(_load_json(args.input), args)
    report = check_axioms(g)
    doc = {"command": "check-axioms", "axioms": report.to_json()}
    ok = report.ok
    if g.regime is Regime.ADDITIVE and g.claims_convex:
        conv = convexity_check(g)
        doc["convexity"] = conv.to_json()
        ok = ok and conv.ok
    _emit(doc, args.output)
    return 0 if ok else 1


def cmd_topology(args) -> int:
    g = _gauge_from_doc(_load_json(args.input), args)
    if len(g.points) > MAX_TOPOLOGY_POINTS:
        raise InputError(f"topology handles at most {MAX_TOPOLOGY_POINTS} "
                         f"points, got {len(g.points)}")
    report = verify_join_equality(g)
    doc = {"command": "topology"} | report.to_json()
    _emit(doc, args.output)
    return 0 if report.equal else 1


def cmd_cover(args) -> int:
    raw = _load_json(args.input)
    if isinstance(raw, dict) and "space" in raw:
        g = _gauge_from_doc(raw["space"], args)
        try:
            resolve = _point_resolver(g.points)
            sequence = [resolve(i) for i in raw.get("sequence", [])]
        except _DOC_ERRORS as exc:
            raise InputError(f"bad cover sequence: {exc}") from None
    else:
        g = _gauge_from_doc(raw, args)
        sequence = []
    thresholds = critical_thresholds(g)
    # a radius no positive float splits (values near 5e-324) leaves the
    # cover undefined: an input error, not a violation
    for r in thresholds.radii:
        try:
            g.split_radius(r)
        except ValueError as exc:
            raise InputError(f"cover cannot shrink its radii: {exc}") from None
    hb = heine_borel_report(g, thresholds=thresholds)
    doc = {"command": "cover", "heine_borel": hb.to_json()}
    if sequence:
        seq = SampledSequence(tuple(sequence))
        doc["cauchy"] = [{"radius": r, "scale": t, "kind": c.kind, "i0": c.i0,
                          "forward_i0": c.forward_i0,
                          "backward_i0": c.backward_i0}
                         for r, t, c in classify_cauchy_thresholds(seq, g,
                                                                   thresholds)]
    _emit(doc, args.output)
    return 0 if hb.all_composed_ok else 1


def cmd_luxemburg(args) -> int:
    g = _gauge_from_doc(_load_json(args.input), args)
    if g.regime is not Regime.ADDITIVE:
        raise InputError("luxemburg distances need an additive-regime gauge")
    try:
        rows = [[luxemburg_distance(g, x, y, tol=args.tol).value
                 for y in g.points] for x in g.points]
    except NonmonotoneGaugeError as exc:
        _emit({"command": "luxemburg", "error": str(exc)}, args.output)
        return 1
    values, sym = {}, {}
    for i, x in enumerate(g.points):
        for j, y in enumerate(g.points):
            values[f"{x}|{y}"] = format_ext(rows[i][j])
            sym[f"{x}|{y}"] = format_ext(max(rows[i][j], rows[j][i]))
    doc = {"command": "luxemburg", "tol": args.tol,
           "distances": values, "symmetrized": sym}
    _emit(doc, args.output, matrix=(g.points, rows))
    return 0


def _pair_map(keys, rows) -> dict:
    """{"x|y": value} from one key row and one value row per x; only a row
    that holds +inf goes through format_ext."""
    out = {}
    for key_row, row in zip(keys, rows):
        out.update(zip(key_row, map(format_ext, row) if INF in row else row))
    return out


def cmd_graph(args) -> int:
    try:
        g = graph_from_json(_load_json(args.input))
    except _DOC_ERRORS as exc:
        raise InputError(f"bad graph document: {exc}") from None
    rows = distance_matrix(g)
    names = [f"{y}" for y in g.vertices]
    keys = [list(map(f"{x}|".__add__, names)) for x in g.vertices]
    doc = {"command": "graph",
           "forward": _pair_map(keys, rows),
           "backward": _pair_map(keys, zip(*rows)),
           "asymmetry_index": asymmetry_index(rows)}
    ok = True
    grid = _parse_grid(args.grid)
    if grid is not None:
        # the gauge graph_gauge builds, from the rows already in hand; its
        # axiom sweep is the only triangle check
        report = check_axioms(_min_cap_rows(rows, g.vertices, grid,
                                            "graph_gauge"))
        doc["axioms"] = report.to_json()
        ok = report.ok
    _emit(doc, args.output, matrix=(g.vertices, rows))
    return 0 if ok else 1


def cmd_orlicz(args) -> int:
    raw = _load_json(args.input)
    try:
        space = DiscreteMeasureSpace.from_json(raw["space"])
        functions = {fid: parse_function(doc, space)
                     for fid, doc in raw.get("functions", {}).items()}
    except _DOC_ERRORS as exc:
        raise InputError(f"bad orlicz document: {exc}") from None
    doc = {"command": "orlicz", "tol": args.tol}
    ok = True
    try:
        if "phi" in raw:
            phi = orlicz_from_json(raw["phi"], space)
            out = {}
            for fid in sorted(functions, key=str):
                f = functions[fid]
                ub = unit_ball_check(space, phi, f, args.tol)
                out[str(fid)] = {"modular": ub.modular_value, "norm": ub.norm,
                                 "unit_ball": ub.to_json()}
                ok = ok and ub.ok
            doc["phi"] = out
        if "psi1" in raw and "psi2" in raw:
            pair = OneSidedPair(orlicz_from_json(raw["psi1"], space),
                                orlicz_from_json(raw["psi2"], space))
            sides, dists = {}, {}
            for fid in sorted(functions, key=str):
                np_, nm, ns = one_sided_gauges(space, pair, functions[fid],
                                               args.tol)
                sides[str(fid)] = {"plus": np_, "minus": nm, "sym": ns}
            for fa in sorted(functions, key=str):
                for fb in sorted(functions, key=str):
                    if fa == fb:
                        continue
                    dp, dm = quasi_metric_from_gauges(
                        space, pair, functions[fa], functions[fb], args.tol)
                    dists[f"{fa}|{fb}"] = {"plus": dp, "minus": dm}
            doc["one_sided"] = {"norms": sides, "distances": dists}
    except _DOC_ERRORS as exc:
        raise InputError(f"bad orlicz document: {exc}") from None
    _emit(doc, args.output)
    return 0 if ok else 1


def cmd_envelope(args) -> int:
    raw = _load_json(args.input)
    try:
        points = list(raw["points"])
        resolve = _point_resolver(points)
        d = {}
        for key, v in raw["distance"].items():
            sx, sep, sy = key.partition("|")
            if not sep:
                raise ValueError(f"bad distance key {key!r}")
            pair = resolve(sx), resolve(sy)
            d[pair] = float(v)
        domain = [resolve(a) for a in raw["domain"]]
        values = {a: float(raw["values"][str(a)]) for a in domain}
        f = PartialFunction(tuple(domain), values, float(raw["lipschitz"]))
    except _DOC_ERRORS as exc:
        raise InputError(f"bad envelope document: {exc}") from None
    metric_report = quasi_pseudometric_check(d, points)
    doc = {"command": "envelope",
           "distance_check": metric_report.to_json(),
           "upper": {str(x): v for x, v in upper_envelope(f, d, points).items()},
           "lower": {str(x): v for x, v in lower_envelope(f, d, points).items()}}
    _emit(doc, args.output)
    return 0 if metric_report.ok else 1


_COMMANDS = {
    "check-axioms": cmd_check_axioms,
    "topology": cmd_topology,
    "cover": cmd_cover,
    "luxemburg": cmd_luxemburg,
    "graph": cmd_graph,
    "orlicz": cmd_orlicz,
    "envelope": cmd_envelope,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasimod",
        description="Quasi-modular gauge analyses over finite data")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--input", required=True, help="input JSON file")
    parser.add_argument("--output", help="report file (.json or .csv)")
    parser.add_argument("--tol", type=float, default=1e-9,
                        help="bisection tolerance (default 1e-9)")
    parser.add_argument("--grid", help="comma-separated scales, e.g. 0.5,1,2")
    parser.add_argument("--conorm", choices=["max", "prob_sum", "bounded_sum"],
                        help="override the gauge's conorm")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("QUASIMOD_LOG")
    if level:
        logging.basicConfig(level=getattr(logging, level.upper(), logging.INFO))
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not args.tol > 0:
        parser.print_usage(sys.stderr)
        sys.stderr.write("quasimod: error: --tol must be positive\n")
        return 2
    if args.tol >= DEFAULT_LAMBDA_MAX:
        parser.print_usage(sys.stderr)
        sys.stderr.write(f"quasimod: error: --tol must be below the largest "
                         f"searched scale {DEFAULT_LAMBDA_MAX:g}\n")
        return 2
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        sys.stderr.write(f"quasimod: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

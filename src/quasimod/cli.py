"""Command-line front end.

Every command reads JSON, writes a deterministic JSON (or CSV) report, and
exits 0 when all checks pass, 1 when violations were found, and 2 on usage
or input errors.  Verbosity is controlled by the QUASIMOD_LOG environment
variable (a logging level name such as DEBUG).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from itertools import chain, permutations, repeat
from math import copysign, inf, nan
from operator import add, itemgetter
from types import SimpleNamespace

from .axioms import Violation, check_axioms
from .completeness import (_HB_KEYS, classify_cauchy_thresholds,
                           heine_borel_report)
from .conorms import conorm_from_name
from .extreal import INF, decode_ids, format_ext, number, point_resolver
from .gauges import Regime, _min_cap_rows, gauge_from_json
from .graphs import asymmetry_index, distance_matrix, graph_from_json
from .luxemburg import (DEFAULT_LAMBDA_MAX, DEFAULT_TOL, NonmonotoneGaugeError,
                        luxemburg_distance, quasi_pseudometric_check)
from .orlicz import (DiscreteMeasureSpace, OneSidedPair, one_sided_gauges,
                     orlicz_from_json, parse_function,
                     quasi_metric_from_gauges, unit_ball_check)
from .envelopes import envelope_from_json, lower_envelope, upper_envelope
from .profiles import ScaleGrid
from .records import NamedTuple
from .topology import (MAX_TOPOLOGY_POINTS, critical_thresholds,
                       verify_join_equality)

try:  # json's C scanner and encoder, without json and the re it imports
    from _json import (encode_basestring_ascii, make_encoder as c_make_encoder,
                       make_scanner)
except ImportError:  # as json.encoder does: json's Python writer and reader
    from json.encoder import c_make_encoder, encode_basestring_ascii
    make_scanner = None


class InputError(Exception):
    """Bad input file or document; maps to exit code 2."""


# what reading a document of the wrong shape raises; OverflowError is an
# integer too large for a float
_DOC_ERRORS = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


def _read(what: str, fn, *args):
    """fn(*args), with a document of the wrong shape reported as bad `what`."""
    try:
        return fn(*args)
    except _DOC_ERRORS as exc:
        raise InputError(f"bad {what}: {exc}") from None


# json's whitespace ("\f" is none) and its constants
_SPACE = " \t\n\r"
_CONSTANTS = {"NaN": nan, "Infinity": inf, "-Infinity": -inf}.__getitem__


def _loads(text: str, hook=None) -> object:
    """json.loads(text, object_pairs_hook=hook) by _json's C scanner; any
    failure but the hook's InputError decodes again by json.loads, for json's
    own error (3.10 and 3.11's scanner raises SystemError before json.decoder
    is loaded)."""
    try:
        start = next((i for i, c in enumerate(text) if c not in _SPACE), 0)
        obj, end = make_scanner(SimpleNamespace(
            strict=True, object_hook=None, object_pairs_hook=hook,
            parse_float=float, parse_int=int, parse_constant=_CONSTANTS))(text, start)
        if not text[end:].strip(_SPACE):
            return obj
    except Exception as exc:
        if isinstance(exc, InputError):
            raise
    import json
    return json.loads(text, object_pairs_hook=hook)


def _decode_error():
    """json.JSONDecodeError, or no class before `_loads` imports json."""
    json = sys.modules.get("json")
    return json.JSONDecodeError if json else ()


def _load_json(path: str) -> object:
    def unique_keys(pairs):  # json.load alone keeps the last of repeated keys
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [k for k, _ in pairs]
            key = next(k for i, k in enumerate(keys) if k in keys[:i])
            raise InputError(f"repeated JSON object key {key!r} in {path}")
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            return _loads(fh.read(), unique_keys)
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}") from None
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except _decode_error() as exc:
        raise InputError(f"malformed JSON in {path}: line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from None
    except (UnicodeDecodeError, RecursionError) as exc:
        # bytes that are not UTF-8, or too deep nesting
        raise InputError(f"cannot parse {path}: {exc}") from None
    except ValueError:  # what is left: an integer past Python's digit limit
        raise InputError(f"cannot parse {path}: integer literal too long "
                         f"(over {sys.get_int_max_str_digits()} digits)") from None


_CONTAINERS = (list, tuple, dict)
# rows of a row table per chunk: no report is held whole, and a small one
# is one chunk per container of scalars
_ROWS = 512


@functools.cache
def _flat_encoder(depth: int):
    """json's C encoder for a container at nesting depth `depth` whose items
    are all scalars: one call writes the items with the separators that
    indent=2 puts between them."""
    return c_make_encoder(None, _unwritable, encode_basestring_ascii, None,
                          ": ", ",\n" + "  " * (depth + 1), True, False, True)


def _unwritable(obj):  # json's refusal of a value it has no text for
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON "
                    f"serializable")


def _scalar_text(obj) -> str:
    """json.dumps(obj) of a scalar: one call of the C encoder, if any."""
    if c_make_encoder is None:
        import json
        return json.dumps(obj)
    return "".join(_flat_encoder(0)(obj, 0))


def _flat_rows(rows) -> bool:
    """True when `rows` holds only lists or tuples of scalars."""
    return all(map(isinstance, rows, repeat((list, tuple)))) and not any(
        map(isinstance, chain.from_iterable(rows), repeat(_CONTAINERS)))


class _PairMap(NamedTuple):
    """A report's {"x|y": distance} map, never empty, laid out by rows in
    sorted key order: entry (a, b) is the encoded key start pre[a] '"x|',
    the encoded key end post[b] 'y": ' and the value's text rows[a][b].
    A tuple, so the writer's container checks hold it without a fourth
    type to test each scalar against."""

    pre: list
    post: list
    rows: list


class _RowTable(NamedTuple):
    """A list of dicts as a key per field and a column of values per field."""

    keys: tuple
    columns: list


def _column_texts(column, head: str, depth: int) -> list[str]:
    """head + each value's text at `depth`: flat rows in one encoder call,
    split as `_json_chunks` splits them, other containers one by one, and
    each distinct scalar once (True, 1, 1.0 and -0.0, 0.0 apart)."""
    types = set(map(type, column))
    if any(issubclass(c, _CONTAINERS) for c in types):
        if c_make_encoder is None or not _flat_rows(column):
            return [head + "".join(_json_chunks(v, depth)) for v in column]
        inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
        rows = "".join(_flat_encoder(depth)(column, 0))[2:-2].split(
            "]," + inner + "[")
        return [head + "[" + inner + row + outer + "]" if row else head + "[]"
                for row in rows]
    numbers = [c for c in types if issubclass(c, (int, float))]
    keys, memo = column, dict(zip(column, column))
    if len(numbers) > 1 or float in numbers and 0.0 in memo:
        keys = [(c, v, copysign(1.0, v)) if c is float else (c, v)
                for c, v in zip(map(type, column), column)]
        memo = dict(zip(keys, column))
    # one encoder call, split at its item separator: no text holds a newline
    texts = map(_scalar_text, memo.values()) if c_make_encoder is None else \
        "".join(_flat_encoder(0)(list(memo.values()), 0))[1:-1].split(",\n  ")
    memo = dict(zip(memo, map(head.__add__, texts)))
    return list(map(memo.__getitem__, keys))


def _key_text(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):
        return encode_basestring_ascii(_scalar_text(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _json_chunks(obj, depth: int = 0):
    """The text of json.dumps(obj, sort_keys=True, indent=2), a pair map
    read as its dict and a row table as its list of dicts, in chunks: a pair
    map's rows one each, a row table's _ROWS at a time, a few per item of a
    container of containers, and one for any other value (a container of
    scalars from one call of json's C encoder, where there is one)."""
    c_encoder = c_make_encoder is not None
    is_dict = isinstance(obj, dict)
    values = obj.values() if is_dict else obj
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    if not (is_dict or isinstance(obj, (list, tuple))):
        yield _scalar_text(obj)
    elif not obj or isinstance(obj, _RowTable) and not any(obj.columns[:1]):
        yield "{}" if is_dict else "[]"
    elif isinstance(obj, _PairMap):
        sep, head = "," + inner, "{" + inner
        for pre, row in zip(obj.pre, obj.rows):
            yield head + pre + (sep + pre).join(map(add, obj.post, row))
            head = sep
        yield outer + "}"
    elif isinstance(obj, _RowTable):
        # each cell starts with its separator: one join per block
        row_inner = inner + "  "
        seps = [inner + "}," + inner + "{" + row_inner, "," + row_inner]
        heads = [(seps[n > 0] + _key_text(k) + ": ", c) for n, (k, c) in
                 enumerate(sorted(zip(obj.keys, obj.columns),
                                  key=itemgetter(0)))]
        yield "[" + inner + "{" + row_inner
        for a in range(0, len(obj.columns[0]), _ROWS):
            text = "".join(chain.from_iterable(zip(*[
                _column_texts(c[a:a + _ROWS], head, depth + 2)
                for head, c in heads])))
            yield text if a else text[len(seps[0]):]  # no row before the first
        yield inner + "}" + outer + "]"
    elif c_encoder and not any(map(isinstance, values, repeat(_CONTAINERS))):
        text = "".join(_flat_encoder(depth)(obj, 0))
        yield text[0] + inner + text[1:-1] + outer + text[-1]
    elif not is_dict and c_encoder and _flat_rows(obj):
        # one call writes every row, with each row's item separator between
        # the rows too; only a row boundary reads "]," + separator + "[",
        # since no encoded scalar begins or ends with a bracket and no
        # encoded string holds a raw newline
        row_inner = inner + "  "
        text = "".join(_flat_encoder(depth + 1)(obj, 0))[2:-2].replace(
            "]," + row_inner + "[", inner + "]," + inner + "[" + row_inner)
        text = "[" + inner + "[" + row_inner + text + inner + "]" + outer + "]"
        # that lays an empty row out as "[", two line breaks with only
        # spaces between them, "]": no other text reads so, since no
        # encoded scalar is empty or holds a raw newline
        yield text if all(obj) else text.replace(
            "[" + row_inner + inner + "]", "[]")
    else:
        # a value held twice is laid out once, by id: the container keeps
        # it alive and holds all its values at one depth; the rest stream
        seen = set()
        texts = dict.fromkeys(i for i in map(id, values)
                              if i in seen or seen.add(i))
        head = ("{" if is_dict else "[") + inner
        for k, v in sorted(obj.items()) if is_dict else zip(obj, obj):
            yield head + _key_text(k) + ": " if is_dict else head
            head = "," + inner
            if not isinstance(v, _CONTAINERS):  # a leaf: one call, no generator
                yield _scalar_text(v)
                continue
            if id(v) in texts:
                texts[id(v)] = texts[id(v)] or [*_json_chunks(v, depth + 1)]
            yield from texts.get(id(v)) or _json_chunks(v, depth + 1)
        yield outer + ("}" if is_dict else "]")


def _emit(report, output: str | None, matrix=None) -> None:
    """Write `report`'s chunks (the help text, a str, as it is) as they come,
    or a .csv matrix by csv.writer, to `output` or standard output, flushed:
    a failed open, write or flush exits 2 here, not at interpreter exit."""
    chunks = [report] if isinstance(report, str) else \
        chain(_json_chunks(report), "\n")
    try:
        fh = open(output, "w", encoding="utf-8") if output else sys.stdout
        try:
            if output and output.endswith(".csv"):
                import csv
                writer = csv.writer(fh)
                writer.writerow(["", *map(str, matrix[0])])
                writer.writerows([str(p), *map(format_ext, row)]
                                 for p, row in zip(*matrix))
            else:
                fh.writelines(chunks)
            fh.flush()
        finally:
            if output:
                fh.close()
    except OSError as exc:
        if not output:  # what stays buffered would fail again at exit (120)
            try:
                fd, null = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, fd)
                os.close(null)
            except (OSError, ValueError):  # a stream with no descriptor
                pass
        raise InputError(f"cannot write {output or 'standard output'}: "
                         f"{exc.strerror}") from None


def _flag_value(flag: str, raw: str, read):
    """read(raw), where read takes JSON numbers by the number rule: a
    refusal is one bad --flag value error."""
    try:
        return read(raw)
    except _decode_error() as exc:
        raise InputError(f"bad --{flag} value {raw!r}: {exc.doc!r} is not a "
                         f"JSON number") from None
    except ValueError as exc:
        raise InputError(f"bad --{flag} value {raw!r}: {exc}") from None


def _parse_grid(raw: str | None) -> ScaleGrid | None:
    return None if raw is None else _flag_value("grid", raw, lambda raw: (
        ScaleGrid(tuple(map(_loads, raw.split(","))))))


def _gauge_from_doc(doc, args) -> object:
    g = _read("gauge document", gauge_from_json, doc)
    if args.grid is not None:
        g = g.tabulated(args.grid)
    if args.conorm:
        if g.regime is not Regime.CONORM:
            raise InputError("--conorm needs a conorm-regime gauge")
        g = g._replace(conorm=conorm_from_name(args.conorm))
    return g


def _axioms_doc(report) -> dict:
    """An axiom report's document, its violations laid out by columns."""
    fields = [map(itemgetter(i), report.violations) for i in range(4)]
    columns = [*map(list, fields[:2])] + [[*map(format_ext, f)] for f in fields[2:]]
    return {"checked": list(report.checked), "notes": list(report.notes),
            "violations": _RowTable(Violation._fields, columns)}


class _PhaseClock:
    """One command's phase clock: `phase(name)` logs at DEBUG the seconds
    since the last phase ended and the count `phase("read", n)` gave.  It
    logs only once `logging` is imported, by `main` under QUASIMOD_LOG or by
    the host program: before that no handler exists to take the line."""

    def __init__(self, command: str):
        self.command, self.n, self.last = command, 0, time.perf_counter()

    def __call__(self, phase: str, n: int | None = None) -> None:
        now = time.perf_counter()
        self.n = self.n if n is None else n
        logging = sys.modules.get("logging")
        if logging is not None:
            logging.getLogger("quasimod.cli").debug(
                "%s %s: %.6f s, n=%d", self.command, phase, now - self.last,
                self.n)
        self.last = now


def cmd_check_axioms(args, phase):
    g = _gauge_from_doc(_load_json(args.input), args)
    phase("read", len(g.points))
    report = check_axioms(g)
    phase("axioms")
    doc = {"command": "check-axioms", "axioms": _axioms_doc(report)}
    return doc, report.ok


def cmd_topology(args, phase):
    g = _gauge_from_doc(_load_json(args.input), args)
    n = len(g.points)
    if n > MAX_TOPOLOGY_POINTS:
        raise InputError(f"topology handles at most {MAX_TOPOLOGY_POINTS} "
                         f"points, got {n}")
    phase("read", n)
    report = verify_join_equality(g)
    phase("topologies")
    doc = {"command": "topology"} | report.to_json()
    phase("listing")
    return doc, report.equal


def cmd_cover(args, phase):
    raw = _load_json(args.input)
    if isinstance(raw, dict) and "space" in raw:
        g = _gauge_from_doc(raw["space"], args)
        ids = raw.get("sequence", [])
        if not isinstance(ids, list):
            raise InputError(f"bad cover sequence: expected a JSON list, not "
                             f"{type(ids).__name__}")
        sequence = _read("cover sequence", list,
                         map(point_resolver(g.points), ids))
    else:
        g = _gauge_from_doc(raw, args)
        sequence = []
    phase("read", len(g.points))
    thresholds = critical_thresholds(g)
    # a radius no positive float splits or a least scale that halves to 0
    # (near 5e-324) leaves the cover undefined: an input error, not a violation
    try:
        splits = list(map(g.split_radius, thresholds.radii))
    except ValueError as exc:
        raise InputError(f"cover cannot shrink its radii: {exc}") from None
    if not thresholds.scales[0] / 2.0 > 0:
        raise InputError(f"cover cannot halve its scales: scale "
                         f"{thresholds.scales[0]!r} halves to 0.0")
    phase("thresholds")
    hb = heine_borel_report(g, thresholds=thresholds, splits=splits)
    doc = {"command": "cover",
           "heine_borel": {"rows": _RowTable(_HB_KEYS, list(zip(*hb.rows))),
                           "all_composed_ok": hb.all_composed_ok}}
    phase("heine-borel")
    if sequence:
        rows = classify_cauchy_thresholds(sequence, g, thresholds)
        doc["cauchy"] = _RowTable(  # radius, scale, each classification field
            ("radius", "scale", "kind", "i0", "forward_i0", "backward_i0"),
            [*zip(*rows)][:2] + [*zip(*map(itemgetter(2), rows))])
    phase("cauchy")
    return doc, hb.all_composed_ok


def cmd_luxemburg(args, phase):
    g = _gauge_from_doc(_load_json(args.input), args)
    if g.regime is not Regime.ADDITIVE:
        raise InputError("luxemburg distances need an additive-regime gauge")
    phase("read", len(g.points))
    try:
        rows = [[luxemburg_distance(g, x, y).value
                 for y in g.points] for x in g.points]
    except NonmonotoneGaugeError as exc:
        raise InputError(f"luxemburg distances need a gauge nonincreasing "
                         f"in the scale: {exc}") from None
    phase("distances")
    sym = [list(map(max, row, col)) for row, col in zip(rows, zip(*rows))]
    distances, symmetrized = _pair_maps(g.points, *_value_texts(rows, sym))
    doc = {"command": "luxemburg", "tol": DEFAULT_TOL,
           "distances": distances, "symmetrized": symmetrized}
    phase("layout")
    return doc, True, (g.points, rows)


class _Reprs(dict):
    """Each distance's repr, stored on its first read: one hash per entry."""
    def __missing__(self, v):
        return self.setdefault(v, repr(v))


def _value_texts(*tables) -> list[list[list[str]]]:
    """Each distance table, given as rows in vertex order, as rows of value
    texts: one text per distinct distance, its repr, or "inf" for +inf."""
    # no entry is -0.0 (path sums start at +0.0; Luxemburg infima are 0.0,
    # a positive scale, or inf), so equal entries have equal reprs
    text = _Reprs({INF: '"inf"'})
    return [[list(map(text.__getitem__, row)) for row in t] for t in tables]


def _pair_maps(vertices, *tables) -> list[_PairMap]:
    """The map {"x|y": t[x][y]} of each table t of value texts, given as
    rows in vertex order, laid out by rows.  The readers refuse a name
    holding "|", so "x|y" sorts as the pair (x + "|", y): rows sort by
    name + "|" and columns by name (BENCH_12.json).  json escapes one
    character at a time, so each key's text is its row's encoded start
    '"x|' and its column's encoded end 'y": ': 2n pieces, and no key is
    built whole."""
    names = [f"{v}" for v in vertices]
    heads = [name + "|" for name in names]
    xs = sorted(range(len(names)), key=heads.__getitem__)
    ys = sorted(range(len(names)), key=names.__getitem__)
    pre = [encode_basestring_ascii(heads[i])[:-1] for i in xs]
    post = [encode_basestring_ascii(names[j])[1:] + ": " for j in ys]
    return [_PairMap(pre, post, [list(map(t[i].__getitem__, ys)) for i in xs])
            for t in tables]


def cmd_graph(args, phase):
    g = _read("graph document", graph_from_json, _load_json(args.input))
    phase("read", len(g.vertices))
    rows = distance_matrix(g)
    phase("all-pairs")
    table, = _value_texts(rows)
    forward, backward = _pair_maps(g.vertices, table, list(zip(*table)))
    doc = {"command": "graph", "forward": forward, "backward": backward,
           "asymmetry_index": asymmetry_index(rows)}
    phase("layout")
    if args.grid is None:
        return doc, True, (g.vertices, rows)
    # the gauge graph_gauge builds, from the rows already in hand; its
    # axiom sweep is the only triangle check
    report = check_axioms(_min_cap_rows(rows, g.vertices, args.grid,
                                        "graph_gauge"))
    doc["axioms"] = _axioms_doc(report)
    phase("axioms")
    return doc, report.ok, (g.vertices, rows)


def _bracketed(norm: float, what: str) -> None:
    """Every norm on a finite space is finite, so +inf only says the search
    gave up at its cutoff: an input limit (exit 2), not a violation."""
    if norm == INF:
        raise InputError(f"{what} lies past the largest searched scale "
                         f"{DEFAULT_LAMBDA_MAX:g}")


def _orlicz_doc(raw) -> tuple:
    """(space, functions, phi or None, psi pair or None) of a document."""
    space = DiscreteMeasureSpace.from_json(raw["space"])
    functions = {fid: parse_function(values, space)
                 for fid, values in raw.get("functions", {}).items()}
    decode_ids(functions, "function")
    phi = orlicz_from_json(raw["phi"], space) if "phi" in raw else None
    pair = OneSidedPair(orlicz_from_json(raw["psi1"], space),
                        orlicz_from_json(raw["psi2"], space)) \
        if "psi1" in raw and "psi2" in raw else None
    return space, functions, phi, pair


def cmd_orlicz(args, phase):
    space, functions, phi, pair = _read("orlicz document", _orlicz_doc,
                                        _load_json(args.input))
    phase("read", len(space.points))
    doc = {"command": "orlicz", "tol": args.tol}
    ok = True
    # the families' own refusals are input errors too: a phi that overflows
    # and a point with no exponent
    try:
        if phi is not None:
            out = {}
            for fid in sorted(functions):
                ub = unit_ball_check(space, phi, functions[fid], args.tol)
                _bracketed(ub.norm, f"phi norm of function {fid!r}")
                out[fid] = {"modular": format_ext(ub.modular_value),
                            "norm": ub.norm,
                            "unit_ball": ub.to_json()}
                ok = ok and ub.ok
            doc["phi"] = out
            phase("phi")
        if pair is not None:
            sides, dists = {}, {}
            for fid in sorted(functions):
                np_, nm, ns = one_sided_gauges(space, pair, functions[fid],
                                               args.tol)
                _bracketed(ns, f"one-sided norm of function {fid!r}")
                sides[fid] = {"plus": np_, "minus": nm, "sym": ns}
            for fa, fb in permutations(sorted(functions), 2):
                dp, dm = quasi_metric_from_gauges(
                    space, pair, functions[fa], functions[fb], args.tol)
                _bracketed(max(dp, dm), f"one-sided distance from "
                           f"function {fa!r} to {fb!r}")
                dists[f"{fa}|{fb}"] = {"plus": dp, "minus": dm}
            doc["one_sided"] = {"norms": sides, "distances": dists}
            phase("one-sided")
    except (ArithmeticError, ValueError) as exc:
        raise InputError(f"bad orlicz document: {exc}") from None
    return doc, ok


def cmd_envelope(args, phase):
    points, d, f = _read("envelope document", envelope_from_json,
                         _load_json(args.input))
    phase("read", len(points))
    metric_report = quasi_pseudometric_check(d, points)
    phase("distance-check")
    doc = {"command": "envelope",
           "distance_check": _axioms_doc(metric_report),
           "upper": {str(x): format_ext(v)
                     for x, v in upper_envelope(f, d, points).items()},
           "lower": {str(x): format_ext(v)
                     for x, v in lower_envelope(f, d, points).items()}}
    phase("envelopes")
    return doc, metric_report.ok


# each command's function, the flags it reads and "csv" if it writes .csv
_COMMANDS = {
    "check-axioms": (cmd_check_axioms, ("grid", "conorm")),
    "topology": (cmd_topology, ("grid", "conorm")),
    "cover": (cmd_cover, ("grid", "conorm")),
    "luxemburg": (cmd_luxemburg, ("grid", "csv")),
    "graph": (cmd_graph, ("grid", "csv")),
    "orlicz": (cmd_orlicz, ("tol",)),
    "envelope": (cmd_envelope, ()),
}
_CONORMS = ("max", "prob_sum", "bounded_sum")
# each flag's metavar and help; --help names the commands that read it
_FLAGS = {"input": ("INPUT", "input JSON file"),
          "output": ("OUTPUT", "report file (.json, or .csv for luxemburg and "
                     "graph)"),
          "tol": ("TOL", "tolerance of searched norms (default 1e-9)"),
          "grid": ("GRID", "comma-separated scales, e.g. 0.5,1,2"),
          "conorm": ("{" + ",".join(_CONORMS) + "}",
                     "override the conorm of a conorm-regime gauge")}


def _usage() -> str:
    flags = " ".join(f"--{f} {m}" if f == "input" else f"[--{f} {m}]"
                     for f, (m, _) in _FLAGS.items())
    return f"usage: quasimod [-h] {{{','.join(_COMMANDS)}}} {flags}\n"


def _help() -> str:
    lines = [_usage(), "Quasi-modular gauge analyses over finite data\n"]
    for flag, (metavar, text) in _FLAGS.items():
        readers = [c for c, (_, reads) in _COMMANDS.items() if flag in reads]
        lines += [f"  --{flag} {metavar}",
                  f"      {', '.join(readers) or 'every command'}: {text}"]
    return "\n".join(lines) + "\n"


def _option(token: str):
    """How argparse read a token before the first "--": (option, the value
    glued to it or None) for an option, a long one by any unique prefix,
    ("", None) for an unknown one, or None for a value."""
    name, eq, value = token.partition("=")
    if token[:2] == "--":
        names = [o for o in (f"--{f}" for f in ("help", *_FLAGS))
                 if o.startswith(name)]
        if len(names) > 1:
            raise InputError(f"ambiguous option: {token}")
        if names:
            return names[0], value if eq else None
    elif token[:2] == "-h":  # -h with more h's glued on is -h again
        import re
        return "--help", None if re.fullmatch("-h(=?h+)?", token) else token
    # a negative number and a token with a space are values
    if token[:1] != "-" or token == "-" or " " in token:
        return None
    import re
    return None if re.match(r"-\d+$|-\d*\.\d+$", token) else ("", None)


def _read_argv(argv):
    """The command and flag values of a command line, or None for --help.
    Flags go before or after the command, the last of a repeated flag wins
    and every token after the first "--" is a value.  Each refusal raises
    InputError, in argparse's order: a token it could not read at once,
    then a missing flag or command, an unknown token and each command's
    own flag checks."""
    tokens = list(argv)
    cut = tokens.index("--") if "--" in tokens else len(tokens)
    options = [*map(_option, tokens[:cut]), *[None] * (len(tokens) - cut)]
    values, command, extras, i = dict.fromkeys(_FLAGS), None, [], 0
    while i < len(tokens):
        token, option = tokens[i], options[i]
        i += 1
        if option is None and command is None:
            if i - 1 == cut:  # argparse gave the command a "--" beside it
                continue
            if token not in _COMMANDS:
                raise InputError(f"invalid command {token!r}")
            command, i = token, i + (i == cut)
        elif option is None or not option[0]:
            extras.append(token)
        elif option[0] == "--help":
            if option[1] is None:
                return None
            raise InputError(f"--help takes no value: {option[1]!r}")
        else:
            name, value = option
            if value is None:
                if i in (len(tokens), cut) or options[i] is not None:
                    raise InputError(f"argument {name}: expected one argument")
                value, i = tokens[i], i + 1
            if name == "--tol":
                value = _flag_value("tol", value, lambda raw: number(
                    _loads(raw), "--tol"))
            elif name == "--conorm" and value not in _CONORMS:
                raise InputError(f"invalid --conorm {value!r}")
            values[name[2:]] = value
    if command is None or values["input"] is None:
        raise InputError("the command and --input are required")
    if extras:
        raise InputError(f"unrecognized arguments: {' '.join(extras)}")
    reads = _COMMANDS[command][1]
    for flag in ("tol", "grid", "conorm"):
        if values[flag] is not None and flag not in reads:
            raise InputError(f"{command} takes no --{flag}")
    if (values["output"] or "").endswith(".csv") and "csv" not in reads:
        raise InputError(f"{command} takes no .csv --output")
    if values["tol"] is None:
        values["tol"] = DEFAULT_TOL
    elif not values["tol"] > 0:
        raise InputError("--tol must be positive")
    elif values["tol"] >= DEFAULT_LAMBDA_MAX:
        raise InputError(f"--tol must be below the largest searched scale "
                         f"{DEFAULT_LAMBDA_MAX:g}")
    return SimpleNamespace(command=command, **values)


def main(argv=None) -> int:
    name = os.environ.get("QUASIMOD_LOG")
    if name:
        import logging
        # the level, INFO unless the value names one, goes on the package
        # logger, which a root logger with handlers leaves alone; the stderr
        # handler is added only where the root logger has none
        level = logging.getLevelName(name.upper())
        logging.basicConfig()
        logging.getLogger("quasimod").setLevel(
            level if isinstance(level, int) else logging.INFO)
    try:
        args = _read_argv(sys.argv[1:] if argv is None else argv)
    except InputError as exc:
        sys.stderr.write(f"{_usage()}quasimod: error: {exc}\n")
        return 2
    # a command returns its report, its verdict and, for a .csv output,
    # its matrix; only here are they written, logged and made an exit code
    try:
        if args is None:
            _emit(_help(), None)
            return 0
        phase = _PhaseClock(args.command)
        args.grid = _parse_grid(args.grid)
        report, ok, *matrix = _COMMANDS[args.command][0](args, phase)
        _emit(report, args.output, *matrix)
    except InputError as exc:
        sys.stderr.write(f"quasimod: error: {exc}\n")
        return 2
    phase("write")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

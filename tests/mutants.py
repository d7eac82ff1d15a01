"""Mutation harness: each listed mutant of `src/quasimod` must fail the
tests listed beside it.

    python tests/mutants.py

An entry names a module, an anchor that must occur exactly once in it, the
text that replaces the anchor, and the tests that must kill the result.
For every entry the script copies `src/` and `tests/` into a temporary
directory, patches the copy and runs the named tests there with pytest:
PYTHONPATH at the copy, a temporary working directory, and no bytecode or
cache written, so the checkout is left as it was.  The unpatched copy must
pass every named test first.  The outcome goes to stdout as JSON, one
record per mutant, and the exit code is 1 when an anchor is stale, the
unpatched copy fails, or a mutant survives.  It needs pytest and
hypothesis, which the tests import, and runs two copies at a time.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
WORKERS = 2


class Mutant(NamedTuple):
    name: str
    module: str  # a file of src/quasimod
    anchor: str
    replacement: str
    tests: tuple  # pytest node ids under tests/


REF = "test_reference.py::test_reports_match_the_reference"
AXIOM_LOOPS = "test_triangle_kernel.py::test_check_axioms_matches_the_replaced_loops"
LANE_GUARD = "test_triangle_kernel.py::test_the_guard_takes_exact_lattices_only"
LANE_EDGES = "test_triangle_kernel.py::test_edge_tables_match_the_float_loop"
LANE_MATRICES = ("test_triangle_kernel.py::"
                 "test_three_matrices_match_the_float_loop")
OPPOSITE_WITNESSES = ("test_metamorphic.py::"
                      "test_the_opposite_gauge_reverses_every_axiom_witness[0]")
SCALED_GRID = ("test_metamorphic.py::"
               "test_scaling_the_grid_scales_only_the_witness_scales[0]")
OPPOSITE_SIDES = ("test_metamorphic.py::"
                  "test_the_opposite_gauge_swaps_forward_and_backward[0]")
ENRICHED = ("test_dense.py::"
            "test_enriched_triangle_check_matches_the_per_pair_loops")
CONVOLVE_FALLBACK = ("test_profiles.py::test_convolve_falls_back_to_the_"
                     "finest_pair_and_keeps_signed_zeros")
BALL_ROWS = "test_cover_rows.py::test_ball_rows_match_brute_force"
ROW_BUILDS = "test_cover_rows.py::test_row_builds_stay_within_the_distinct_keys"
COVER_ROWS = "test_cover_rows.py::test_report_matches_the_reference"
CAUCHY_ROWS = "test_cover_rows.py::test_cauchy_scan_matches_the_reference"
ESCAPES = "test_dense.py::test_planted_cell_escapes_carry_the_oracle_witness"
JOIN = "test_topology.py::test_join_report_matches_the_closure_oracle_on_corpora"
PAIR_MAPS = ("test_report_writer.py::"
             "test_pair_maps_match_json_dumps_of_the_row_updates")
GUARD = ("test_bisection_guard.py::"
         "test_guard_matches_the_rescanning_guard_on_seeded_maps")
ROWS = "test_contract.py::test_command_rows"
READERS = "test_contract.py::test_reader_rows"
READ_AS_JSON = ("test_json_reader.py::"
                "test_the_reader_reads_each_text_as_json_loads")
VALUE_EQUAL = "test_cli.py::test_ambiguous_ids_and_non_list_sequences_exit_2"
FLAGS = "test_reference.py::test_each_command_refuses_the_flags_it_does_not_read"
NUMBER_TABLES = ("test_records.py::"
                 "test_distance_tables_read_numbers_by_the_number_rule")
NUMBER_FUNCTIONS = ("test_records.py::"
                    "test_function_values_read_numbers_by_the_number_rule")
ARGV = "test_argv.py::test_the_reader_reads_each_line_as_the_replaced_parser"
PINNED_ARGV = "test_argv.py::test_pinned_lines"
SAMPLE_IDS = ("test_records.py::"
              "test_one_sided_integral_functions_name_exactly_the_sample_ids")

MUTANTS = (
    # check_axioms: witness order, splits and the triangle law
    Mutant("triangle points reversed", "axioms.py",
           'Violation("triangle", (points[x], points[y], points[z],',
           'Violation("triangle", (points[z], points[y], points[x],',
           (AXIOM_LOOPS, OPPOSITE_WITNESSES)),
    Mutant("each witness tuple reversed", "axioms.py",
           "return AxiomReport(checked, tuple(violations), tuple(notes))",
           "return AxiomReport(checked, tuple(v._replace(witness=v.witness"
           "[::-1]) for v in violations), tuple(notes))",
           (AXIOM_LOOPS, OPPOSITE_WITNESSES)),
    Mutant("triangle hits reversed", "axioms.py",
           "for x, z, y, n, lhs, rhs in hits)",
           "for x, z, y, n, lhs, rhs in hits[::-1])",
           (AXIOM_LOOPS, OPPOSITE_WITNESSES)),
    Mutant("whole violation list reversed", "axioms.py",
           "return AxiomReport(checked, tuple(violations), tuple(notes))",
           "return AxiomReport(checked, tuple(violations[::-1]), tuple(notes))",
           (AXIOM_LOOPS, OPPOSITE_WITNESSES)),
    Mutant("triangle hits in x, y, z order", "axioms.py",
           "for x, z, y, n, lhs, rhs in hits)",
           "for x, z, y, n, lhs, rhs in sorted(\n"
           "                hits, key=lambda h: (h[0], h[2], h[1], h[3])))",
           (AXIOM_LOOPS,)),
    Mutant("no first-split restriction", "axioms.py",
           "splits = splits[:1]  # every split reads the same values",
           "splits = splits  # every split reads the same values",
           (AXIOM_LOOPS,)),
    Mutant("split scale floored at 1", "profiles.py",
           "grid.ceil_index(s + t)",
           "grid.ceil_index(max(s + t, 1.0))",
           (SCALED_GRID,)),
    Mutant("add at the check_axioms call", "axioms.py",
           "stack[u], stack[i], stack[j], g.oplus))",
           "stack[u], stack[i], stack[j]))",
           (AXIOM_LOOPS,)),
    Mutant("add as the conorm law", "gauges.py",
           "return add if self.regime is Regime.ADDITIVE else self.conorm.law",
           "return add",
           (AXIOM_LOOPS,)),
    Mutant(">= in triangle_violations", "gauges.py",
           "            if v > rhs:",
           "            if v >= rhs:",
           ("test_triangle_kernel.py::test_kernel_lists_index_triples_in_order",)),
    # the lane guard and lanes: a bound one past 2**53, an infinity no
    # finite sum stays below, lanes without headroom, a nan or negative let
    # through, and no table taken at all
    Mutant("lane bound read as >", "gauges.py",
           "return None if 2 * top >= 1 << 53 else code",
           "return None if 2 * top > 1 << 53 else code",
           (LANE_GUARD,)),
    Mutant("lane sentinel at the largest code", "gauges.py",
           "    code[INF] = 2 * top + 1",
           "    code[INF] = top",
           (LANE_EDGES,)),
    Mutant("lanes one byte short", "gauges.py",
           "width = (code[INF].bit_length() + 9) // 8",
           "width = (code[INF].bit_length() + 1) // 8",
           (LANE_MATRICES,)),
    Mutant("lane guard lets a nan or a negative through", "gauges.py",
           " or not all(map(_NONNEGATIVE, seen)):",
           ":",
           (LANE_EDGES,)),
    Mutant("lane guard refuses every table", "gauges.py",
           "return None if 2 * top >= 1 << 53 else code",
           "return None",
           (LANE_GUARD,)),
    Mutant("symmetry by list ==", "gauges.py",
           "    return all(map(eq, chain.from_iterable(rows),\n"
           "                   chain.from_iterable(zip(*rows))))",
           "    return [list(r) for r in rows] == [list(c) for c in zip(*rows)]",
           ("test_triangle_kernel.py::"
            "test_kernel_matches_the_triple_loop_on_seeded_tables",)),
    Mutant("matrix reads the column below", "gauges.py",
           "return self._columns[-1 if k is None else k]",
           "return self._columns[-1 if k is None else max(k - 1, 0)]",
           ("test_dense.py::test_matrix_matches_value_on_and_off_the_grid",)),
    Mutant("zero values kept as radii", "topology.py",
           "if 0 < v < cap})",
           "if 0 <= v < cap})",
           ("test_dense.py::"
            "test_critical_thresholds_on_a_subset_match_the_oracle",)),
    # records: copies go through the checks, gauges compare by identity,
    # schedules read by the number rule
    Mutant("_replace skips the checks", "records.py",
           "return type(self)(**dict(zip(self._fields, self._values()), "
           "**changes))",
           "copy = object.__new__(type(self))\n"
           "        copy._set(*dict(zip(self._fields, self._values()), "
           "**changes).values())\n"
           "        return copy",
           ("test_records.py::test_replace_goes_through_the_checks",)),
    Mutant("record docstrings dropped", "records.py",
           'if key not in fields and key != "__module__":',
           'if key not in fields and key not in ("__module__", "__doc__"):',
           ("test_records.py::test_a_named_record_keeps_the_shape_its_class_"
            "body_gives[luxemburg-LuxemburgResult]",)),
    Mutant("record defaults dropped", "records.py",
           "cls = namedtuple(name, fields, defaults=defaults,",
           "cls = namedtuple(name, fields, defaults=None,",
           ("test_records.py::test_a_named_record_keeps_the_shape_its_class_"
            "body_gives[axioms-AxiomReport]",)),
    Mutant("gauges compare by value", "gauges.py",
           "    __eq__, __hash__ = object.__eq__, object.__hash__\n",
           "",
           ("test_records.py::test_gauges_compare_by_identity",)),
    Mutant("schedule times read by float", "graphs.py",
           'times = numbers(times, "times")',
           "times = tuple(float(t) for t in times)",
           ("test_graphs.py::"
            "test_schedule_reads_times_and_costs_by_the_number_rule",)),
    Mutant("snapshot query time read by float", "graphs.py",
           't = number(t, "query time")',
           "t = float(t)",
           ("test_graphs.py::test_schedule_snapshot_clamps_and_floors",)),
    Mutant("nan schedule times let through", "graphs.py",
           "if any(t != t for t in times):",
           "if False:",
           ("test_graphs.py::test_schedule_refuses_a_nan_time",)),
    # the number rule's row reader, the table range pass, .csv outputs
    Mutant("numbers admitting bool in its fast path", "extreal.py",
           "if set(map(type, row)) <= {int, float}:",
           "if set(map(type, row)) <= {int, float, bool}:",
           ("test_extreal.py::"
            "test_numbers_reads_a_row_as_number_reads_each_value[bool]",
            "test_records.py::test_constructors_read_numbers_by_the_number_"
            "rule[grid-bool]")),
    Mutant("GaugeSpec without its range pass", "gauges.py",
           "if not all(map(_NONNEGATIVE, row)):  # name a negative or NaN",
           "if False:",
           (f"{READERS}[table-value-negative]",
            "test_cli.py::test_gauge_table_values_outside_the_extended_ray_"
            "exit_2[check-axioms-negative]")),
    # the one reader of a distance table, and the one-sided integral's masses
    Mutant("distance table read by float()", "gauges.py",
           "numbers([get((x, y), 0.0 if x == y else INF) for y in ys],\n"
           '                    f"{what} row for {x!r}")',
           "[float(get((x, y), 0.0 if x == y else INF)) for y in ys]",
           (f"{NUMBER_TABLES}[min-cap-bool]", f"{NUMBER_TABLES}[check-string]")),
    Mutant("envelopes read distances raw", "envelopes.py",
           '    rows = _table_rows(d, points, f.domain, "distance")',
           "    rows = [[d.get((x, a), 0.0 if x == a else float('inf'))\n"
           "             for a in f.domain] for x in points]",
           (f"{NUMBER_TABLES}[upper-bool]",)),
    Mutant("one-sided integral masses read raw", "gauges.py",
           'masses = {i: number(m, f"mass at {i!r}") '
           'for i, m in dict(masses).items()}',
           "masses = dict(masses)",
           (f"{NUMBER_TABLES}[mass-bool]",)),
    # what a caller's function returns, and the one-sided integral's ids
    Mutant("closed form read by float()", "gauges.py",
           'v if type(v) is float else number(v, "gauge value")',
           "float(v)",
           (f"{NUMBER_FUNCTIONS}[closed-form-value-bool]",
            f"{NUMBER_FUNCTIONS}[closed-form-matrix-string]")),
    Mutant("scale map read by float()", "luxemburg.py",
           'v = number(value_at(lam), "value_at value")',
           "v = float(value_at(lam))",
           (f"{NUMBER_FUNCTIONS}[scale-map-bool]",)),
    Mutant("transport metric read raw", "completeness.py",
           'd_image = number(image_metric(u, v), "image_metric value")',
           "d_image = image_metric(u, v)",
           (f"{NUMBER_FUNCTIONS}[image-metric-bool]",)),
    Mutant("one-sided integral skips the sample-id check", "gauges.py",
           "        missing = [i for i in masses if i not in f]\n"
           "        if missing:\n"
           '            raise ValueError(f"function {fid!r} misses sample '
           'ids {missing!r}")\n'
           "        for i, v in f.items():\n"
           "            if i not in masses:\n"
           '                raise ValueError(f"value of {fid!r} for unknown '
           'sample id {i!r}")\n',
           "        for i, v in f.items():\n",
           (f"{SAMPLE_IDS}[missing]", f"{SAMPLE_IDS}[unknown]")),
    Mutant("check-axioms accepting a .csv output", "cli.py",
           '"check-axioms": (cmd_check_axioms, ("grid", "conorm")),',
           '"check-axioms": (cmd_check_axioms, ("grid", "conorm", "csv")),',
           (f"{FLAGS}[check-axioms]",)),
    # ball rows, covers and Cauchy scans
    Mutant("entourage refusing conorm radii of 1 and more again",
           "topology.py",
           "    _check_radius(r)\n    _, fwd, bwd = _BallRows(g, points)",
           "    _check_radius(r)\n"
           "    if g.regime is Regime.CONORM and not r < 1:\n"
           '        raise ValueError(f"conorm-regime radius must lie in (0, 1)")\n'
           "    _, fwd, bwd = _BallRows(g, points)",
           ("test_topology.py::test_entourage_sides_are_transposes",
            "test_dense.py::test_greedy_net_takes_conorm_radii_above_one")),
    Mutant("bisect_right in _BallRows.rows", "topology.py",
           "cut = bisect_left(sweep.values, r)",
           'cut = __import__("bisect").bisect_right(sweep.values, r)',
           (BALL_ROWS,)),
    Mutant("backward _Sweep rows built from matrix rows", "topology.py",
           "bwd[j] |= 1 << i",
           "bwd[i] |= 1 << j",
           (BALL_ROWS, OPPOSITE_SIDES)),
    Mutant("entourage returns forward rows for backward", "topology.py",
           'return fwd if side == "forward" else bwd',
           "return fwd",
           (OPPOSITE_SIDES,)),
    Mutant("compose reads a for b", "topology.py",
           "compress(b, format(row, fmt)",
           "compress(a, format(row, fmt)",
           ("test_topology.py::test_compose_matches_set_oracle",
            "test_metamorphic.py::"
            "test_composition_reverses_under_transposition[0]")),
    Mutant("rows extended from a cut above", "topology.py",
           "below = self.cuts[k - 1]",
           "below = self.cuts[min(k, len(self.cuts) - 1)]",
           (BALL_ROWS,)),
    Mutant("a row source that rebuilds every call", "topology.py",
           "return self.built.get(cut) or self.build(cut)",
           "return self.build(cut)",
           (ROW_BUILDS,)),
    Mutant("Cauchy scan sorting a sweep again", "completeness.py",
           "    mat = g.matrix(t)\n",
           "    mat = _BallRows(g).sweep(t).mat\n",
           (ROW_BUILDS,)),
    Mutant("one sort per scale instead of per matrix", "topology.py",
           "sweep = self._sweeps.get(id(mat))",
           "sweep = None",
           (ROW_BUILDS,)),
    # the memo of a scale's (near cut, cut) outcomes keyed by its two
    # sweeps alone, so that every pair of a scale gets the first outcome
    Mutant("Heine-Borel memo key without the rank", "completeness.py",
           "                decided[near, cut] = _outcome(nets, directs, (half, near),\n"
           "                                              (whole, cut))",
           "                decided[near, cut] = decided.setdefault((), _outcome(\n"
           "                    nets, directs, (half, near), (whole, cut)))",
           (COVER_ROWS, f"{REF}[cover-conorm0]")),
    # the classification memo keyed by the scale alone, without the ranks
    Mutant("Cauchy memo key without the rank", "completeness.py",
           "    return list(map(kinds.__getitem__, ranks))",
           "    return [kinds[ranks[0]] for _ in ranks]",
           (CAUCHY_ROWS,)),
    Mutant("Cauchy tail with bisect_right", "completeness.py",
           "ranks = list(zip(*[map(bisect_left, repeat(",
           'ranks = list(zip(*[map(__import__("bisect").bisect_right, repeat(',
           (CAUCHY_ROWS, "test_cover_rows.py::"
            "test_a_last_point_outside_its_own_ball_starts_no_tail")),
    Mutant("escape witness read at t/2", "completeness.py",
           'texts[w] = str(_escape_error(balls, w, "", t))',
           'texts[w] = str(_escape_error(balls, w, "", t / 2.0))',
           (COVER_ROWS,)),
    Mutant("cover half scale floored at 1/4", "completeness.py",
           "half, whole = balls.sweep(t / 2.0), balls.sweep(t)",
           "half, whole = balls.sweep(max(t / 2.0, 0.25)), balls.sweep(t)",
           (SCALED_GRID,)),
    Mutant("last escaping point as the witness", "completeness.py",
           "return None, False, (i, j, z, _first(escaped))",
           "return None, False, (i, j, z, escaped.bit_length() - 1)",
           (ESCAPES,)),
    Mutant("escape values read the wrong way round", "completeness.py",
           "balls.value(iz, iu, t),\n"
           "                              balls.value(iu, iz, t), r)",
           "balls.value(iu, iz, t),\n"
           "                              balls.value(iz, iu, t), r)",
           (ESCAPES,)),
    # the three topologies
    Mutant("tau- built from mats in place of opps", "topology.py",
           "(chain.from_iterable(mats), chain.from_iterable(opps), syms))",
           "(chain.from_iterable(mats), chain.from_iterable(mats), syms))",
           (JOIN, f"{REF}[topology-raw0]")),
    Mutant("tau_sym from each row and the row again", "topology.py",
           "for m, opp in zip(mats, opps) for row, col in zip(m, opp)]",
           "for m, opp in zip(mats, opps) for row, col in zip(m, m)]",
           ("test_metamorphic.py::"
            "test_the_symmetrized_gauge_has_one_topology_the_symmetrized_one",)),
    Mutant("the join reads the gauge's own grid", "topology.py",
           "points, _, mats = g.sample(points, grid)",
           "points, _, mats = g.sample(points)",
           (JOIN,)),
    Mutant("the join ignores the point subset", "topology.py",
           "points, _, mats = g.sample(points, grid)",
           "points, _, mats = g.sample(None, grid)",
           (JOIN,)),
    Mutant("the join skips the transpose", "topology.py",
           "opps = [tuple(zip(*m)) for m in mats]",
           "opps = mats",
           (JOIN,)),
    Mutant("min for max in the symmetrization law", "gauges.py",
           "return max if self.regime is Regime.ADDITIVE else self.conorm.law",
           "return min if self.regime is Regime.ADDITIVE else self.conorm.law",
           (JOIN,)),
    Mutant("symmetrize reads one direction twice", "gauges.py",
           "tuple(map(law, g.table[(x, y)], g.table[(y, x)]))",
           "tuple(map(law, g.table[(x, y)], g.table[(x, y)]))",
           ("test_metamorphic.py::"
            "test_the_symmetrized_gauge_has_the_symmetrized_luxemburg_distance",)),
    # the graph report and the writer
    Mutant("_pair_maps builds the backward map from rows", "cli.py",
           "_pair_maps(g.vertices, table, list(zip(*table)))",
           "_pair_maps(g.vertices, table, table)",
           ("test_metamorphic.py::"
            "test_the_transposed_graph_swaps_forward_and_backward[0]",
            f"{REF}[graph-strongly_connected-none-0]")),
    Mutant("+inf written without format_ext", "cli.py",
           "    text = _Reprs({INF: '\"inf\"'})",
           "    text = _Reprs({INF: repr(INF)})",
           (f"{REF}[graph-unreachable-none-0]",)),
    Mutant("pair-map rows in reversed key order", "cli.py",
           "xs = sorted(range(len(names)), key=heads.__getitem__)",
           "xs = sorted(range(len(names)), key=heads.__getitem__, reverse=True)",
           (PAIR_MAPS,)),
    Mutant("pair-map keys sorted as (x, y) pairs", "cli.py",
           "xs = sorted(range(len(names)), key=heads.__getitem__)",
           "xs = sorted(range(len(names)), key=names.__getitem__)",
           (PAIR_MAPS,)),
    Mutant("pair-map columns in row order", "cli.py",
           "ys = sorted(range(len(names)), key=names.__getitem__)",
           "ys = xs",
           (PAIR_MAPS,)),
    Mutant("pair-map branch skipped", "cli.py",
           "    elif isinstance(obj, _PairMap):",
           "    elif False:",
           (f"{REF}[graph-strongly_connected-none-0]",)),
    Mutant("pair-map row start dropped", "cli.py",
           "yield head + pre + (sep + pre).join(",
           "yield head + (sep + pre).join(",
           (PAIR_MAPS,)),
    Mutant("raw unescaped pair-map row start", "cli.py",
           "pre = [encode_basestring_ascii(heads[i])[:-1] for i in xs]",
           "pre = ['\"' + heads[i] for i in xs]",
           (PAIR_MAPS,)),
    Mutant("a pair map laid out one level deep", "cli.py",
           '        sep, head = "," + inner, "{" + inner\n',
           '        inner, outer = inner + "  ", outer + "  "\n'
           '        sep, head = "," + inner, "{" + inner\n',
           (PAIR_MAPS,)),
    Mutant("the C-encoder path taken without the encoder", "cli.py",
           "c_encoder = c_make_encoder is not None",
           "c_encoder = True",
           ("test_report_writer.py::test_the_fallback_without_the_c_encoder",)),
    Mutant("report text without its final newline", "cli.py",
           'chain(_json_chunks(report), "\\n")',
           'chain(_json_chunks(report), "")',
           (f"{REF}[valid-check-axioms]",)),
    Mutant("symmetrized Luxemburg map from the distances", "cli.py",
           "_value_texts(rows, sym)",
           "_value_texts(rows, rows)",
           (f"{REF}[luxemburg-scaled1_0]",)),
    Mutant("the min-cap gauge claims no symmetry", "gauges.py",
           "claims_symmetric=_rows_symmetric(rows),\n"
           "        fn=lambda x, y, t: min(rows[at[x]][at[y]], t))",
           "claims_symmetric=False,\n"
           "        fn=lambda x, y, t: min(rows[at[x]][at[y]], t))",
           (f"{REF}[graph-two_way-above-0]",)),
    Mutant("asymmetry over n^2 pairs", "graphs.py",
           "/ (n * n - n)",
           "/ (n * n)",
           ("test_graphs.py::test_asymmetry_index_pinned",)),
    Mutant("Dijkstra starts from -0.0", "graphs.py",
           "    dist[src] = 0.0",
           "    dist[src] = -0.0",
           (PAIR_MAPS,)),
    Mutant("witness texts memoized by value", "cli.py",
           "        if c_make_encoder is None or not _flat_rows(column):\n"
           '            return [head + "".join(_json_chunks(v, depth)) for v in'
           ' column]',
           "        if True:\n"
           '            return list(map({v: head + "".join(_json_chunks(v, depth))'
           " for v in column}.__getitem__, column))",
           ("test_report_writer.py::"
            "test_violation_tables_match_json_dumps_of_their_dicts",)),
    Mutant("writer reuse keyed across dicts", "cli.py",
           "        texts = dict.fromkeys(i for i in map(id, values)\n"
           "                              if i in seen or seen.add(i))\n",
           '        texts = _json_chunks.__dict__.setdefault("texts", {})\n'
           "        texts.update((i, texts.get(i)) for i in map(id, values)\n"
           "                     if i in seen or seen.add(i))\n",
           ("test_report_writer.py::"
            "test_a_value_under_several_keys_matches_json_dumps",)),
    # the report goes out in chunks as they come, and a failed write to
    # standard output is an input error that leaves nothing to fail at exit
    Mutant("_emit joins the whole report before writing", "cli.py",
           "                fh.writelines(chunks)",
           '                fh.write("".join(chunks))',
           ("test_report_writer.py::"
            "test_a_large_pair_map_report_is_written_in_blocks",)),
    Mutant("every row-table block without its leading separator", "cli.py",
           "yield text if a else text[len(seps[0]):]",
           "yield text[len(seps[0]):]",
           ("test_report_writer.py::"
            "test_row_tables_match_json_dumps_of_their_dicts",)),
    Mutant("standard output errors left unmapped", "cli.py",
           "    except OSError as exc:\n"
           "        if not output:",
           "    except (OSError if output else ()) as exc:\n"
           "        if not output:",
           ("test_cli.py::"
            "test_a_full_standard_output_exits_2_with_one_error_line",)),
    Mutant("standard output left unflushed", "cli.py",
           "            fh.flush()\n",
           "",
           ("test_cli.py::test_a_full_standard_output_exits_2_with_one_error_"
            "line[help-flush]",)),
    Mutant("standard output kept after a failed write", "cli.py",
           "                os.dup2(null, fd)\n",
           "",
           ("test_cli.py::test_dev_full_as_standard_output_exits_2_with_one_"
            "error_line[buffered-envelope]",)),
    Mutant("cover splits its radii twice", "cli.py",
           "hb = heine_borel_report(g, thresholds=thresholds, splits=splits)",
           "hb = heine_borel_report(g, thresholds=thresholds)",
           ("test_cli.py::test_cover_splits_each_radius_once",)),
    Mutant("violation lhs and rhs written raw", "cli.py",
           "[[*map(format_ext, f)] for f in fields[2:]]",
           "[[*f] for f in fields[2:]]",
           ("test_cli.py::"
            "test_an_infinite_violation_side_is_written_as_the_string_inf",)),
    Mutant("nested dicts left unsorted", "cli.py",
           "for k, v in sorted(obj.items()) if is_dict else zip(obj, obj):",
           "for k, v in obj.items() if is_dict else zip(obj, obj):",
           ("test_report_writer.py::test_hand_built_shapes_match_json_dumps",)),
    Mutant("non-str keys through str()", "cli.py",
           "return encode_basestring_ascii(_scalar_text(key))",
           "return encode_basestring_ascii(str(key))",
           ("test_report_writer.py::test_hand_built_shapes_match_json_dumps",)),
    Mutant("empty rows laid out like the others", "cli.py",
           "yield text if all(obj) else text.replace(",
           "yield text if True else text.replace(",
           ("test_report_writer.py::"
            "test_empty_rows_are_written_inline_on_the_one_call_path",)),
    Mutant("a row boundary without the item separator", "cli.py",
           '"]," + row_inner + "[", inner',
           '"]," + inner + "[", inner',
           ("test_report_writer.py::test_row_lists_match_json_dumps",)),
    Mutant("column texts through the C encoder without it", "cli.py",
           "if c_make_encoder is None else",
           "if False else",
           ("test_report_writer.py::test_the_fallback_without_the_c_encoder",)),
    Mutant("mixed row kinds take the one-call path", "cli.py",
           "return all(map(isinstance, rows, repeat((list, tuple)))) and",
           "return any(map(isinstance, rows, repeat((list, tuple)))) and",
           ("test_report_writer.py::test_row_lists_match_json_dumps",)),
    Mutant("rows holding containers take the one-call path", "cli.py",
           "repeat((list, tuple)))) and not any(",
           "repeat((list, tuple)))) or not any(",
           ("test_report_writer.py::test_row_lists_match_json_dumps",)),
    Mutant("phase log removed", "cli.py",
           'logging.getLogger("quasimod.cli").debug(',
           "(lambda *args: None)(",
           ("test_cli.py::test_debug_logging_goes_to_stderr_only[cover]",)),
    Mutant("phase lines only under QUASIMOD_LOG", "cli.py",
           'logging = sys.modules.get("logging")',
           'logging = os.environ.get("QUASIMOD_LOG") and '
           'sys.modules.get("logging")',
           ("test_cli.py::"
            "test_a_host_root_logger_at_debug_gets_the_phase_lines",)),
    Mutant("import logging back at the top of graphs.py", "graphs.py",
           "import heapq\n",
           "import heapq\nimport logging\n",
           ("test_records.py::"
            "test_the_cli_imports_and_runs_without_typing_logging_or_csv",)),
    # json and re are imported only to report a malformed document, for a
    # rare argv token or for a schedule; the reader is json.loads exactly
    Mutant("import json back at the top of cli.py", "cli.py",
           "import functools\nimport os\n",
           "import functools\nimport json\nimport os\n",
           ("test_records.py::"
            "test_the_cli_imports_and_runs_without_typing_logging_or_csv",)),
    Mutant("import re back at the top of cli.py", "cli.py",
           "import os\nimport sys\n",
           "import os\nimport re\nimport sys\n",
           ("test_records.py::"
            "test_the_cli_imports_and_runs_without_typing_logging_or_csv",)),
    Mutant("the reader drops its trailing-data check", "cli.py",
           "        if not text[end:].strip(_SPACE):\n",
           "        if True:\n",
           (READ_AS_JSON, "test_contract.py::test_command_rows[malformed-extra-data]")),
    Mutant("the reader also skips a form feed", "cli.py",
           '_SPACE = " \\t\\n\\r"',
           '_SPACE = " \\t\\n\\r\\f"',
           (READ_AS_JSON, "test_contract.py::test_command_rows[malformed-form-feed]")),
    # main alone writes, logs the write phase and picks the exit code
    Mutant("every verdict exits 0", "cli.py",
           "    return 0 if ok else 1",
           "    return 0",
           (f"{REF}[check-axioms-corrupted0]",
            f"{REF}[graph-unreachable-above-0]")),
    Mutant("write phase not logged", "cli.py",
           '    phase("write")\n',
           "",
           ("test_cli.py::test_debug_logging_goes_to_stderr_only"
            "[check-axioms]",)),
    # a refusal is an input error: exit 2, one line, no report
    Mutant("cmd_luxemburg returning the error report", "cli.py",
           '        raise InputError(f"luxemburg distances need a gauge '
           'nonincreasing "\n'
           '                         f"in the scale: {exc}") from None',
           '        return {"command": "luxemburg", "error": str(exc)}, False',
           ("test_cli.py::test_luxemburg_rejects_nonmonotone_and_conorm_gauges",
            "test_cli.py::"
            "test_luxemburg_exits_2_on_a_row_that_rises_past_its_infimum",
            "test_cli.py::test_debug_logging_goes_to_stderr_only"
            "[luxemburg-error]", f"{REF}[luxemburg-corrupted0]")),
    # the orlicz computation maps only the families' refusals to exit 2
    Mutant("orlicz computation catches document errors", "cli.py",
           "    except (ArithmeticError, ValueError) as exc:\n"
           '        raise InputError(f"bad orlicz document: {exc}")',
           "    except _DOC_ERRORS as exc:\n"
           '        raise InputError(f"bad orlicz document: {exc}")',
           ("test_cli.py::"
            "test_a_fault_in_the_orlicz_computation_is_not_an_input_error",)),
    # each command takes only the flags it reads, and says so in its words
    Mutant("refusal line reworded", "cli.py",
           'raise InputError(f"{command} takes no --{flag}")',
           'raise InputError(f"{command} does not take --{flag}")',
           (f"{ROWS}[unread-tol]",)),
    Mutant("an unread flag accepted: --grid on every command", "cli.py",
           "if values[flag] is not None and flag not in reads:",
           'if values[flag] is not None and flag not in reads + ("grid",):',
           (f"{FLAGS}[envelope]", f"{FLAGS}[orlicz]")),
    # the command-line reader reads each line as argparse did
    Mutant("--input not required", "cli.py",
           '    if command is None or values["input"] is None:',
           "    if command is None:",
           (ARGV,)),
    Mutant("an unknown long prefix accepted", "cli.py",
           "if o.startswith(name)]",
           "if o.startswith(name[:3])]",
           (ARGV,)),
    Mutant("an unknown option read as a value", "cli.py",
           'token) else ("", None)',
           "token) else None",
           (ARGV,)),
    Mutant("an ambiguous prefix read as its first match", "cli.py",
           "        if len(names) > 1:",
           "        if len(names) > 6:",
           (ARGV, f"{PINNED_ARGV}[help-then-ambiguous]")),
    Mutant("the value after = dropped", "cli.py",
           "return names[0], value if eq else None",
           "return names[0], None",
           (ARGV,)),
    Mutant("--help exiting 2", "cli.py",
           "            _emit(_help(), None)\n            return 0",
           "            _emit(_help(), None)\n            return 2",
           (ARGV,)),
    Mutant("--conorm on an additive gauge ignored", "cli.py",
           "    if args.conorm:\n"
           "        if g.regime is not Regime.CONORM:\n"
           '            raise InputError("--conorm needs a conorm-regime '
           'gauge")\n',
           "    if args.conorm and g.regime is Regime.CONORM:\n",
           (f"{FLAGS}[cover]", f"{FLAGS}[check-axioms]")),
    # one id rule
    Mutant("decode_ids without the value check", "extreal.py",
           "    if len(set(ids)) != len(ids):",
           "    if len(set(ids)) != len(ids) and False:",
           (f"{VALUE_EQUAL}[envelope-int-float]",
            f"{VALUE_EQUAL}[envelope-bool-int]")),
    Mutant("keyed_numbers with its own id map", "extreal.py",
           "    by_str = decode_ids(ids, noun)\n    out = {}",
           "    by_str = {str(i): i for i in ids}\n"
           "    if len(by_str) != len(ids):\n"
           '        raise ValueError(f"{noun} ids must stringify uniquely")\n'
           "    out = {}",
           (f"{VALUE_EQUAL}[orlicz-int-float]", f"{VALUE_EQUAL}[orlicz-bool-int]",
            f"{VALUE_EQUAL}[orlicz-str-collision]", f"{VALUE_EQUAL}[orlicz-bar]")),
    Mutant("point_resolver matching by equality first", "extreal.py",
           "        if str(i) not in by_str:",
           "        if i in by_str.values():\n"
           "            return next(p for p in by_str.values() if p == i)\n"
           "        if str(i) not in by_str:",
           (f"{VALUE_EQUAL}[cover-bool-sequence]",
            f"{VALUE_EQUAL}[cover-float-sequence]",
            "test_cli.py::test_point_ids_resolve_like_the_per_id_scan")),
    Mutant("PartialFunction keeps its values unread", "envelopes.py",
           'values = {a: number(values[a], f"value at {a!r}") for a in domain}',
           "values = {a: values[a] for a in domain}",
           ("test_envelopes.py::"
            "test_partial_function_reads_its_values_by_the_number_rule[bool]",
            "test_cli.py::"
            "test_every_numeric_field_refuses_non_numbers[envelope-value-true]")),
    # conorms
    Mutant("no r/4 fallback in half_radius", "conorms.py",
           "return h if self.law(h, h) < r else r / 4.0",
           "return h",
           ("test_conorms.py::test_half_radius_table",)),
    Mutant("the step-by-step probabilistic sum", "conorms.py",
           "return fsum((a, b, -p, -err))",
           "return a + b - a * b",
           ("test_conorms.py::test_prob_sum_is_the_exact_value_rounded_once",)),
    Mutant("no rational fallback", "conorms.py",
           "if a and b and p < _SPLIT_MIN:",
           "if False:",
           ("test_conorms.py::test_prob_sum_is_the_exact_value_rounded_once",)),
    # the Luxemburg search's guard and the table rule
    Mutant("rescan without the left slack", "luxemburg.py",
           "if lam0 < lam and v > v0 + _slack(v0):",
           "if lam0 < lam and v > v0:",
           (GUARD,)),
    Mutant("rescan without its right-side clause", "luxemburg.py",
           "        if lam0 > lam and v0 > v + _slack(v):\n"
           "            raise _increase(v, lam, v0, lam0)\n",
           "",
           (GUARD,)),
    Mutant("rescan newest first", "luxemburg.py",
           "    for lam0, v0 in probes:",
           "    for lam0, v0 in reversed(probes):",
           (GUARD,)),
    Mutant("table rise decided with the slack again", "luxemburg.py",
           "if row[k] < row[k + 1]:",
           "if row[k + 1] > row[k] + _slack(row[k]):",
           ("test_luxemburg.py::test_table_rows_are_checked_whole",
            "test_reference.py::test_luxemburg_refuses_exactly_the_tables_"
            "check_axioms_finds_rising[own-grid]")),
    # the enriched triangle check and the convolution over the shared
    # split rule; on the corpora's grids each split lands on its scale, so
    # admitting a split one scale later reads t_i + t_j < u
    Mutant("admitted split read strictly (t_i + t_j < u)", "axioms.py",
           "for k in range(len(grid) if u is None else u, len(grid)):",
           "for k in range(len(grid) if u is None else u + 1, len(grid)):",
           (ENRICHED,)),
    Mutant("enriched right side from the first admitted split", "axioms.py",
           "stack[k][a][c], min(rights))",
           "stack[k][a][c], rights[0])",
           (ENRICHED,)),
    Mutant("convolution without the (t_1, t_1) pair", "profiles.py",
           "pairs = [(0, law(p[0], q[0]))] + [",
           "pairs = [",
           (CONVOLVE_FALLBACK,)),
    Mutant("stale memo entry", "gauges.py",
           "return self._memo[key]",
           "return next(iter(self._memo.values()))",
           ("test_dense.py::test_matrix_matches_value_on_and_off_the_grid",)),
    Mutant("ceil_index letting nan through", "profiles.py",
           "if not t > 0:",
           "if t <= 0:",
           ("test_profiles.py::test_ceil_index_and_projection",)),
    # one-sided Orlicz norms
    Mutant("negative part read as the positive part", "orlicz.py",
           "_modular(space, pair.psi2, f, part=_negative))",
           "_modular(space, pair.psi2, f, part=_positive))",
           ("test_orlicz.py::"
            "test_one_sided_modulars_are_the_modulars_of_the_parts",)),
    Mutant("psi1 for the minus norm", "orlicz.py",
           "norm_minus = _norm(space, pair.psi2, f, tol, part=_negative)",
           "norm_minus = _norm(space, pair.psi1, f, tol, part=_negative)",
           ("test_orlicz.py::test_one_sided_norms_are_the_norms_of_the_parts",)),
    Mutant("abs in the one-sided gauge", "orlicz.py",
           "return _modular(space, psi1, diff, t, _positive)",
           "return _modular(space, psi1, diff, t, abs)",
           ("test_orlicz.py::"
            "test_one_sided_gauge_is_the_modular_of_the_scaled_positive_part",)),
)


def source(mutant: Mutant) -> str:
    return (ROOT / "src" / "quasimod" / mutant.module).read_text(
        encoding="utf-8")


def run(tests, mutant=None):
    """(pytest's exit code, the tail of its output) on `tests` in a fresh
    copy of the tree, patched by `mutant` when one is given."""
    with tempfile.TemporaryDirectory(prefix="quasimod-mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        if mutant is not None:
            path = tree / "src" / "quasimod" / mutant.module
            path.write_text(source(mutant).replace(mutant.anchor,
                                                   mutant.replacement),
                            encoding="utf-8")
        work = tree / "work"
        work.mkdir()
        env = dict(os.environ, PYTHONPATH=str(tree / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        env.pop("QUASIMOD_LOG", None)
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "--rootdir", str(tree),
             *(str(tree / "tests" / t) for t in tests)],
            cwd=work, env=env, capture_output=True, text=True, timeout=600)
        return done.returncode, (done.stdout + done.stderr)[-1500:]


def outcome(mutant: Mutant) -> dict:
    start = time.perf_counter()
    code, tail = run(mutant.tests, mutant)
    # pytest exits 1 when a test fails; 0 means every test passed, and any
    # other code (a collection error, say) shows no test killing it
    status = {0: "survived", 1: "killed"}.get(code, "error")
    record = {"name": mutant.name, "module": mutant.module, "status": status,
              "tests": list(mutant.tests),
              "seconds": round(time.perf_counter() - start, 2)}
    if status == "error":
        record["output"] = tail
    return record


def main() -> int:
    stale = [m for m in MUTANTS if source(m).count(m.anchor) != 1]
    live = [m for m in MUTANTS if m not in stale]
    tests = list(dict.fromkeys(t for m in live for t in m.tests))
    start = time.perf_counter()
    code, tail = run(tests)
    baseline = {"status": "passed" if code == 0 else "failed",
                "tests": len(tests),
                "seconds": round(time.perf_counter() - start, 2)}
    records = [{"name": m.name, "module": m.module, "status": "stale",
                "anchor_count": source(m).count(m.anchor)} for m in stale]
    if code != 0:
        baseline["output"] = tail
    else:
        with ThreadPoolExecutor(WORKERS) as pool:
            records += pool.map(outcome, live)
    killed = sum(r["status"] == "killed" for r in records)
    print(json.dumps({"baseline": baseline, "killed": killed,
                      "total": len(MUTANTS), "mutants": records}, indent=2))
    return 0 if code == 0 and killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counters around the program's public functions.

The traced run installs these wrappers in a measuring interpreter after
`quasimod.cli` is imported.  Each call into a wrapped function records one
span (name, operation id, parent span, start, end); spans stay in memory and
are written out when the interpreter finishes.  `GaugeSpec.value` is called
millions of times, so it gets a counter and no span.

A layer's self time is the duration of its spans minus the part covered by
their direct child spans, so nested spans of one layer add up without
double counting.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (span name, module, attribute); a dotted attribute names a method
SPANS = (
    ("cli.load", "quasimod.gauges", "gauge_from_json"),
    ("cli.load", "quasimod.graphs", "graph_from_json"),
    ("cli.load", "quasimod.orlicz", "DiscreteMeasureSpace.from_json"),
    ("cli.load", "quasimod.orlicz", "orlicz_from_json"),
    ("cli.load", "quasimod.orlicz", "parse_function"),
    ("axioms.check_axioms", "quasimod.axioms", "check_axioms"),
    ("topology.critical_thresholds", "quasimod.topology", "critical_thresholds"),
    ("topology.ball", "quasimod.topology", "ball"),
    ("topology.generate", "quasimod.topology", "generate_topology"),
    ("topology.join", "quasimod.topology", "join_topologies"),
    ("topology.verify_join_equality", "quasimod.topology", "verify_join_equality"),
    ("topology.to_json", "quasimod.topology", "FiniteTopology.to_json"),
    ("completeness.heine_borel", "quasimod.completeness", "heine_borel_report"),
    ("completeness.greedy_net", "quasimod.completeness", "greedy_net"),
    ("completeness.two_sided_cover", "quasimod.completeness",
     "two_sided_cover_from_onesided"),
    ("completeness.classify_cauchy", "quasimod.completeness", "classify_cauchy"),
    ("luxemburg.distance", "quasimod.luxemburg", "luxemburg_distance"),
    ("luxemburg.symmetrized", "quasimod.luxemburg", "symmetrized_luxemburg"),
    ("luxemburg.infimum", "quasimod.luxemburg", "luxemburg_infimum"),
    ("luxemburg.quasi_pseudometric_check", "quasimod.luxemburg",
     "quasi_pseudometric_check"),
    ("graphs.distance_matrix", "quasimod.graphs", "distance_matrix"),
    ("graphs.asymmetry_index", "quasimod.graphs", "asymmetry_index"),
    ("graphs.graph_gauge", "quasimod.graphs", "graph_gauge"),
    ("orlicz.luxemburg_norm", "quasimod.orlicz", "luxemburg_norm"),
    ("orlicz.unit_ball_check", "quasimod.orlicz", "unit_ball_check"),
    ("orlicz.one_sided_gauges", "quasimod.orlicz", "one_sided_gauges"),
    ("orlicz.quasi_metric", "quasimod.orlicz", "quasi_metric_from_gauges"),
    # the modular sums run inside bisection callbacks; their spans put that
    # time in the orlicz layer rather than in luxemburg's self time
    ("orlicz.modular", "quasimod.orlicz", "modular"),
    ("orlicz.one_sided_modulars", "quasimod.orlicz", "one_sided_modulars"),
    ("envelopes.upper", "quasimod.envelopes", "upper_envelope"),
    ("envelopes.lower", "quasimod.envelopes", "lower_envelope"),
)

LAYERS = ("cli", "gauges", "axioms", "topology", "completeness", "luxemburg",
          "graphs", "orlicz", "envelopes")


def _after_check_axioms(counts, args, result):
    counts["axioms.violations"] += len(result.violations)


def _after_thresholds(counts, args, result):
    counts["topology.radii"] += len(result.radii)


def _after_generate(counts, args, result):
    counts["topology.open_sets"] += len(result.opens)


def _after_join(counts, args, result):
    counts["topology.join_pairs"] += len(args[0].opens) * len(args[1].opens)


def _after_infimum(counts, args, result):
    counts["luxemburg.probes"] += result.iterations


def _after_distance_matrix(counts, args, result):
    counts["graphs.dijkstra_runs"] += len(args[0].vertices)


AFTER = {"axioms.check_axioms": _after_check_axioms,
         "topology.critical_thresholds": _after_thresholds,
         "topology.generate": _after_generate,
         "topology.join": _after_join,
         "luxemburg.infimum": _after_infimum,
         "graphs.distance_matrix": _after_distance_matrix}


class Tracer:
    """Span recorder for one measuring interpreter."""

    def __init__(self):
        self.spans: list[list] = []  # [name, op, parent, start, end]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._value_calls = [0]

    def wrap(self, name, fn, raises=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        after = AFTER.get(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, tracer.op, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if raises is not None and isinstance(exc, raises[0]):
                    counts[raises[1]] += 1
                raise
            finally:
                rec[4] = clock()
                stack.pop()
            if after is not None:
                after(counts, args, result)
            return result

        return traced

    def install(self):
        """Replace every wrapped function wherever quasimod refers to it:
        modules import each other's functions by name, so the wrapper must
        land in each importing module's globals, not only in the owner."""
        from quasimod.completeness import CellInclusionError
        from quasimod.gauges import GaugeSpec

        modules = [m for k, m in sys.modules.items()
                   if k == "quasimod" or k.startswith("quasimod.")]
        for name, module, attr in SPANS:
            owner = sys.modules[module]
            raises = (CellInclusionError, "completeness.cell_escapes") \
                if name == "completeness.two_sided_cover" else None
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(
                        self.wrap(name, raw.__func__, raises)))
                else:
                    setattr(cls, meth, self.wrap(name, raw, raises))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original, raises)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, key, traced)

        value = GaugeSpec.value
        cell = self._value_calls

        def counted_value(self, x, y, t):
            cell[0] += 1
            return value(self, x, y, t)

        GaugeSpec.value = counted_value

    def summary(self) -> dict:
        """Per span name: calls and total seconds; per layer: self seconds;
        plus the counters."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[2] >= 0:
                child[rec[2]] += rec[4] - rec[3]
        calls, total = Counter(), Counter()
        self_s = Counter({layer: 0.0 for layer in LAYERS})
        for i, (name, _, _, start, end) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name.split(".")[0]] += end - start - child[i]
        counts = dict(self.counts)
        counts["gauges.value_calls"] = self._value_calls[0]
        return {"calls": dict(calls), "total_s": dict(total),
                "self_s": dict(self_s), "counts": counts,
                "spans": len(self.spans)}

    def spans_doc(self) -> dict:
        names = sorted({rec[0] for rec in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names, "fields": ["name", "op", "parent", "start",
                                           "end"],
                "spans": [[index[n], op, parent, start, end]
                          for n, op, parent, start, end in self.spans]}


def merge(summaries) -> dict:
    out = {"calls": Counter(), "total_s": Counter(), "self_s": Counter(),
           "counts": Counter(), "spans": 0}
    for s in summaries:
        for key in ("calls", "total_s", "self_s", "counts"):
            out[key].update(s[key])
        out["spans"] += s["spans"]
    return out


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(agg, inputs) -> dict:
    """Name every per-layer metric from the merged summaries.  `inputs`
    carries the counts the benchmark takes from its own inputs and reports:
    report bytes, luxemburg matrix entries, graph commands and functions
    under phi, and the traced wall time."""
    calls, total, self_s, counts = (agg["calls"], agg["total_s"],
                                    agg["self_s"], agg["counts"])
    m = {
        "cli.load_s": (total["cli.load"], "s"),
        "cli.report_bytes": (inputs["report_bytes"], "bytes"),
        "cli.self_s": (self_s["cli"], "s"),
        "gauges.value_calls": (counts["gauges.value_calls"], "count"),
        "axioms.check_axioms_calls": (calls["axioms.check_axioms"], "count"),
        "axioms.check_axioms_s": (total["axioms.check_axioms"], "s"),
        "axioms.violations": (counts["axioms.violations"], "count"),
        "axioms.self_s": (self_s["axioms"], "s"),
        "topology.critical_thresholds_s":
            (total["topology.critical_thresholds"], "s"),
        "topology.radii": (counts["topology.radii"], "count"),
        "topology.ball_calls": (calls["topology.ball"], "count"),
        "topology.ball_s": (total["topology.ball"], "s"),
        "topology.generate_calls": (calls["topology.generate"], "count"),
        "topology.generate_s": (total["topology.generate"], "s"),
        "topology.open_sets": (counts["topology.open_sets"], "count"),
        "topology.join_s": (total["topology.join"], "s"),
        "topology.join_pairs": (counts["topology.join_pairs"], "count"),
        "topology.join_pairs_per_open_set":
            (_ratio(counts["topology.join_pairs"],
                    counts["topology.open_sets"]), "ratio"),
        "topology.to_json_s": (total["topology.to_json"], "s"),
        "topology.self_s": (self_s["topology"], "s"),
        "completeness.heine_borel_s":
            (total["completeness.heine_borel"], "s"),
        "completeness.greedy_net_calls":
            (calls["completeness.greedy_net"], "count"),
        "completeness.greedy_net_s": (total["completeness.greedy_net"], "s"),
        "completeness.classify_cauchy_calls":
            (calls["completeness.classify_cauchy"], "count"),
        "completeness.classify_cauchy_s":
            (total["completeness.classify_cauchy"], "s"),
        "completeness.cell_escapes":
            (counts["completeness.cell_escapes"], "count"),
        "completeness.self_s": (self_s["completeness"], "s"),
        "luxemburg.matrix_entries": (inputs["matrix_entries"], "count"),
        "luxemburg.distance_calls": (calls["luxemburg.distance"], "count"),
        "luxemburg.distance_calls_per_entry":
            (_ratio(calls["luxemburg.distance"], inputs["matrix_entries"]),
             "ratio"),
        "luxemburg.infimum_calls": (calls["luxemburg.infimum"], "count"),
        "luxemburg.probes": (counts["luxemburg.probes"], "count"),
        "luxemburg.infimum_s": (total["luxemburg.infimum"], "s"),
        "luxemburg.quasi_pseudometric_check_s":
            (total["luxemburg.quasi_pseudometric_check"], "s"),
        "luxemburg.self_s": (self_s["luxemburg"], "s"),
        "graphs.graph_commands": (inputs["graph_commands"], "count"),
        "graphs.distance_matrix_calls":
            (calls["graphs.distance_matrix"], "count"),
        "graphs.distance_matrix_calls_per_graph":
            (_ratio(calls["graphs.distance_matrix"],
                    inputs["graph_commands"]), "ratio"),
        "graphs.dijkstra_runs": (counts["graphs.dijkstra_runs"], "count"),
        "graphs.distance_matrix_s": (total["graphs.distance_matrix"], "s"),
        "graphs.asymmetry_index_s": (total["graphs.asymmetry_index"], "s"),
        "graphs.graph_gauge_s": (total["graphs.graph_gauge"], "s"),
        "graphs.self_s": (self_s["graphs"], "s"),
        "orlicz.phi_functions": (inputs["phi_functions"], "count"),
        "orlicz.luxemburg_norm_calls":
            (calls["orlicz.luxemburg_norm"], "count"),
        "orlicz.luxemburg_norm_calls_per_function":
            (_ratio(calls["orlicz.luxemburg_norm"], inputs["phi_functions"]),
             "ratio"),
        "orlicz.one_sided_gauges_calls":
            (calls["orlicz.one_sided_gauges"], "count"),
        "orlicz.unit_ball_check_s": (total["orlicz.unit_ball_check"], "s"),
        "orlicz.norm_s": (total["orlicz.luxemburg_norm"], "s"),
        "orlicz.self_s": (self_s["orlicz"], "s"),
        "envelopes.envelope_s":
            (total["envelopes.upper"] + total["envelopes.lower"], "s"),
        "trace.spans": (agg["spans"], "count"),
        "trace.wall_s": (inputs["wall_s"], "s"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in m.items()}

"""Benchmark entry point.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, then takes every operation
through `quasimod.cli.main` in fresh measuring interpreters, one at a time.
It makes REPEATS passes over the corpus, each cut over CHUNKS interpreters,
so no interpreter sees an input twice.  Every timing is scaled by the
yardstick timed beside it (see worker.py) to what it would read at the
reference speed, where the yardstick takes YARD_REF_S, and an operation's
latency is the median of its scaled repeats.  Every report is then checked
by checks.py, and the last line of standard output is one JSON object with
the run's metrics.
With --trace 1 a single traced pass gives the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

REPEATS = 2
CHUNKS = 6
# the yardstick's time at the reference speed, about the fastest it runs on
# a 2-core x86-64 VM with Python 3.11: timings are reported as they would
# read on a machine that runs the yardstick in this time
YARD_REF_S = 0.002
# the whole run must end within 180 s; stop launching interpreters here
DEADLINE_S = 165.0
DISAGREE = "repeats gave different exit codes or reports"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()

    if not (SRC / "quasimod" / "cli.py").is_file():
        sys.stderr.write(f"bench: no program source at {SRC / 'quasimod'}; "
                         "run from a checkout of the repository\n")
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{', '.join(workloads.WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    work = BENCH / "out" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if args.trace:
        (work.parent / "spans").mkdir(exist_ok=True)
    ops = workloads.build(args.workload, args.seed, args.seconds, work)
    runner = Runner(work, began)
    runner.worker([], "warmup", trace=False)

    repeats = runner.run_rounds(ops, 1 if args.trace else REPEATS,
                                bool(args.trace))

    import checks
    failed = set()
    correct = True
    for op in ops:
        problems = _op_problems(op, [rep.get(op["id"]) for rep in repeats],
                                checks)
        if problems == [DISAGREE]:
            # a report that changes between repeats cannot be vouched for
            correct = False
        if problems:
            failed.add(op["id"])
            sys.stderr.write(f"bench: op {op['id']} ({op['kind']}, "
                             f"{op['size']}) failed: {problems[:3]}\n")

    if args.trace:
        metrics = _trace_metrics(ops, repeats[0], runner)
    else:
        metrics = _timed_metrics(ops, repeats, failed, runner)
        if metrics is None:
            sys.stderr.write("bench: every operation failed\n")
            return 1
    if not failed:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


class Runner:
    """Launches measuring interpreters one at a time and keeps what every
    interpreter reported about itself."""

    def __init__(self, work: Path, began: float):
        self.work = work
        self.began = began
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("PYTHON") and k != "QUASIMOD_LOG"}
        # bytecode may be written: installed users import compiled modules
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.setup_s: list[float] = []
        self.yard_s: list[float] = []
        self.peak_rss_kb: list[int] = []
        self.traces: list[dict] = []

    def run_rounds(self, ops, repeats, trace):
        """Take every operation through `repeats` passes over the corpus.

        The machine's speed swings in phases of a few seconds, so an
        operation's repeats are kept a whole pass apart: pass r starts r /
        repeats of the way into the corpus, and each pass is cut over
        CHUNKS interpreters."""
        records = [{} for _ in range(repeats)]
        n = len(ops)
        for r in range(repeats):
            shift = r * n // repeats
            order = ops[shift:] + ops[:shift]
            for k in range(CHUNKS):
                chunk = order[k * n // CHUNKS:(k + 1) * n // CHUNKS]
                records[r].update(self.worker(chunk, f"r{r}c{k}", trace))
        return records

    def worker(self, chunk, tag, trace):
        plan = {"trace": trace,
                "spans": str(self.work.parent / "spans"
                             / f"{self.work.name}-{tag}.json"),
                "ops": [{"id": op["id"],
                         "argvs": [[c["command"], "--input", c["input"],
                                    "--output", c["output"], *c["flags"]]
                                   for c in op["commands"]],
                         "outputs": [c["output"] for c in op["commands"]]}
                        for op in chunk]}
        plan_path = self.work / f"plan-{tag}.json"
        result_path = self.work / f"result-{tag}.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        left = DEADLINE_S - (time.monotonic() - self.began)
        try:
            if left <= 0:
                raise subprocess.TimeoutExpired("worker", 0)
            subprocess.run([sys.executable, "-S", str(BENCH / "worker.py"),
                            str(plan_path), str(result_path)],
                           env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                           timeout=left, check=True)
            result = json.loads(result_path.read_text(encoding="utf-8"))
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            sys.stderr.write(f"bench: interpreter {tag} failed: {exc}\n")
            return {}
        if chunk:
            self.setup_s.append(_scaled(result["setup_s"],
                                        result["setup_yard_s"]))
            self.yard_s.extend(result["setup_yard_s"])
            self.peak_rss_kb.append(result["peak_rss_kb"])
            if trace:
                self.traces.append(result["trace"])
        return {rec["id"]: rec for rec in result["ops"]}


def _op_problems(op, reps, checks):
    """Why an operation failed, or an empty list: it must have finished in
    every repeat with the same exit codes and byte-identical reports, and
    those reports must pass their checks."""
    if any(rec is None for rec in reps):
        return ["not measured"]
    for rec in reps:
        if rec["error"]:
            return [rec["error"]]
    first = reps[0]
    if len(first["exits"]) != len(op["commands"]):
        return ["commands missing"]
    if any(rec["exits"] != first["exits"] or rec["digests"] != first["digests"]
           for rec in reps):
        return [DISAGREE]
    problems = []
    for cmd, rc in zip(op["commands"], first["exits"]):
        try:
            report = json.loads(Path(cmd["output"]).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            problems.append(f"{cmd['command']}: unreadable report ({exc})")
            continue
        problems.extend(f"{cmd['command']}: {p}" for p in
                        checks.CHECKS[cmd["command"]](cmd["doc"], report, rc,
                                                      cmd["meta"]))
    return problems


def _scaled(seconds, yard_s):
    """A timing as it would read at the reference speed, judged by the mean
    of the yardstick's times just before and just after it."""
    return seconds * YARD_REF_S / statistics.fmean(yard_s)


def _latency(rec):
    return _scaled(rec["seconds"], rec["yard_s"])


def _timed_metrics(ops, repeats, failed, runner):
    # the median of an operation's scaled repeats, with two their mean: a
    # stall that the yardstick beside one repeat missed counts only half
    kept = [op["id"] for op in ops if op["id"] not in failed]
    latency = [statistics.median(_latency(rep[i]) for rep in repeats)
               for i in kept]
    if not latency:
        return None
    unscaled = sum(statistics.median(rep[i]["seconds"] for rep in repeats)
                   for i in kept)
    yard = sorted(runner.yard_s + [t for rep in repeats for i in kept
                                   for t in rep[i]["yard_s"]])
    sys.stderr.write(f"bench: unscaled wall_s {unscaled:.4f} s; yardstick "
                     f"min {1000 * yard[0]:.3f} ms, median "
                     f"{1000 * statistics.median(yard):.3f} ms against "
                     f"{1000 * YARD_REF_S:.3f} ms at the reference speed\n")
    p90 = statistics.quantiles(latency, n=10, method="inclusive")[8]
    values = {"wall_s": (sum(latency), "s"),
              "op_p50_ms": (1000 * statistics.median(latency), "ms"),
              "op_p90_ms": (1000 * p90, "ms"),
              "setup_s": (statistics.median(runner.setup_s), "s"),
              "peak_rss_mb": (max(runner.peak_rss_kb) / 1024, "MB")}
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _trace_metrics(ops, records, runner):
    import tracing
    commands = [c for op in ops for c in op["commands"]]
    inputs = {
        "report_bytes": sum(sum(rec["bytes"]) for rec in records.values()),
        "matrix_entries": sum(len(c["doc"]["points"]) ** 2 for c in commands
                              if c["command"] == "luxemburg"),
        "graph_commands": sum(c["command"] == "graph" for c in commands),
        "phi_functions": sum(len(c["doc"]["functions"]) for c in commands
                             if c["command"] == "orlicz" and "phi" in c["doc"]),
        "wall_s": sum(_latency(rec) for rec in records.values()),
    }
    return tracing.layer_metrics(tracing.merge(runner.traces), inputs)


if __name__ == "__main__":
    sys.exit(main())

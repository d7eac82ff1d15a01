"""One measuring interpreter.

Usage: python3 -S worker.py PLAN RESULT

Times `import quasimod.cli` first, before any other module of its own is
imported, then takes each operation of PLAN through `quasimod.cli.main`, one
command after another, and writes the timings, exit codes, report digests
and the interpreter's peak RSS to RESULT.  Before and after the import and
after every operation it times the yardstick, a fixed pure-Python loop, so
that each timing can be scaled by the machine's speed at that moment.  With
"trace" set in PLAN it runs the operations under the span wrappers of
tracing.py instead.
"""

import sys
import time


def yardstick():
    """Time a fixed pure-Python loop of 20,000 steps.  Shared hardware makes
    the machine's speed swing by tens of percent over seconds and minutes;
    this loop slows with it, as the program does."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(20000):
        total += i * i % 7
        table[i % 500] = total
    return time.perf_counter() - start


def main(plan_path, result_path):
    before = yardstick()
    start = time.perf_counter()
    import quasimod.cli
    setup_s = time.perf_counter() - start
    yard_s = yardstick()
    setup_yard_s = [before, yard_s]

    import gc
    import hashlib
    import json

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    run_cli = quasimod.cli.main
    tracer = None
    if plan["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        run_cli = tracer.wrap("cli.main", run_cli)

    results = []
    for op in plan["ops"]:
        if tracer is not None:
            tracer.op = op["id"]
        exits, error = [], None
        # a CLI user starts each command with a clean heap
        gc.collect()
        start = time.perf_counter()
        try:
            for argv in op["argvs"]:
                exits.append(run_cli(argv))
        except (Exception, SystemExit) as exc:
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        before, yard_s = yard_s, yardstick()
        digests, sizes = [], []
        for output in op["outputs"][:len(exits)]:
            with open(output, "rb") as fh:
                data = fh.read()
            digests.append(hashlib.sha1(data).hexdigest())
            sizes.append(len(data))
        results.append({"id": op["id"], "seconds": elapsed, "exits": exits,
                        "error": error, "digests": digests, "bytes": sizes,
                        "yard_s": [before, yard_s]})

    out = {"setup_s": setup_s, "setup_yard_s": setup_yard_s,
           "peak_rss_kb": _peak_rss_kb(), "ops": results}
    if tracer is not None:
        out["trace"] = tracer.summary()
        with open(plan["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans_doc(), fh, separators=(",", ":"))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


def _peak_rss_kb():
    """This interpreter's own peak RSS.  Not ru_maxrss: Linux carries the
    launching process's peak across fork and exec into that figure."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

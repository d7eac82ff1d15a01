"""The three workloads: which inputs each operation gets, and in what mix.

An operation is one generated input taken through every command its
workload runs on it.  The mix of families and sizes is fixed by the slot
index; the seed only decides the contents, so two seeds give corpora of the
same make-up and nearly the same cost.
"""

from __future__ import annotations

import json
import random

import generators as gen

# operations per second of --seconds; with the runner's two repeats a run
# of 20 s measures for about that long on a 2-core x86 machine.  The
# percentiles fall amid operations of one size whose costs differ up to
# fourfold from input to input: the quartile spread of op_p90_ms between
# gauge-corpus runs was 0.13 of its median at 101 operations, 0.05 at 300
OPS_PER_SECOND = 15
# at least ten operations must lie beyond the 90th percentile
MIN_OPS = 101

GAUGE_FAMILIES = tuple(gen.FAMILIES)
# one in seven gauge-corpus inputs carries a planted triangle violation;
# 7, 11 families and 20 size slots are coprime, so corruption meets every
# family and size and every family meets every size
CORRUPT_EVERY = 7
# a cycle of twenty slots; op_p50_ms falls amid the 5-point gauges and
# op_p90_ms amid the 6-point ones, not on a boundary between sizes
GAUGE_SIZES = (3,) * 3 + (4,) * 4 + (5,) * 8 + (6,) * 5
# topology cost grows about fourfold per point: op_p50_ms falls amid the
# 5-point gauges, op_p90_ms amid the 6-point ones, and the 7-point ones,
# one slot in twenty, are the tail
TOPOLOGY_SIZES = (4,) * 7 + (5,) * 6 + (6,) * 6 + (7,)

# paths-and-norms: a cycle of 20 slots, each (kind, sizes to cycle through)
PATH_SLOTS = (
    ("graph", (30, 60, 90)), ("luxemburg", (5, 6, 7)),
    ("graph_any", (30, 60, 90)), ("orlicz", (10, 15)),
    ("graph", (40, 70)), ("envelope", (30, 40)),
    ("graph_grid", (30, 40)), ("graph_any", (40, 70)),
    ("graph", (50, 80)), ("envelope", (35, 45)),
    ("graph_any", (50, 80)), ("luxemburg", (7, 5, 6)),
    ("graph", (35, 65)), ("orlicz", (15, 10)),
    ("graph_grid", (35, 30)), ("graph_any", (35, 65)),
    ("envelope", (40, 30)), ("graph", (45, 75)),
    ("graph_any", (45, 75)), ("graph", (55, 85)),
)


def op_count(seconds: int) -> int:
    return max(MIN_OPS, round(OPS_PER_SECOND * seconds))


def build(workload: str, seed: int, seconds: int, work) -> list[dict]:
    """Generate the inputs of one run into `work` and return its operations.

    Each command carries its input document, so the checks read the
    generated data, never the program's parse of it.
    """
    ops = []
    for i in range(op_count(seconds)):
        rng = random.Random(f"{workload}:{seed}:{i}")
        ops.append(_BUILDERS[workload](rng, i))
    for i, op in enumerate(ops):
        op["id"] = i
        for k, cmd in enumerate(op["commands"]):
            path = work / f"op{i:04d}-{k}.json"
            path.write_text(json.dumps(cmd["doc"]), encoding="utf-8")
            cmd["input"] = str(path)
            cmd["output"] = str(work / f"op{i:04d}-{k}.report.json")
    return ops


def _command(name, doc, flags=(), **meta):
    return {"command": name, "doc": doc, "flags": list(flags), "meta": meta}


def _gauge_op(rng, i):
    family = GAUGE_FAMILIES[i % len(GAUGE_FAMILIES)]
    n = GAUGE_SIZES[i % len(GAUGE_SIZES)]
    doc = gen.FAMILIES[family](rng, n)
    witness = None
    if i % CORRUPT_EVERY == CORRUPT_EVERY - 1:
        doc, witness = gen.corrupt(rng, doc)
        family += "_corrupt"
    sequence = [rng.choice(doc["points"]) for _ in range(n + 2)]
    return {"kind": family, "size": n, "commands": [
        _command("check-axioms", doc, planted=witness),
        _command("cover", {"space": doc, "sequence": sequence},
                 symmetric=family.endswith("_sym"))]}


def _topology_op(rng, i):
    family = GAUGE_FAMILIES[i % len(GAUGE_FAMILIES)]
    n = TOPOLOGY_SIZES[i % len(TOPOLOGY_SIZES)]
    return {"kind": family, "size": n,
            "commands": [_command("topology", gen.FAMILIES[family](rng, n))]}


def _paths_op(rng, i):
    kind, sizes = PATH_SLOTS[i % len(PATH_SLOTS)]
    n = sizes[(i // len(PATH_SLOTS)) % len(sizes)]
    if kind.startswith("graph"):
        doc = gen.graph_doc(rng, n, strongly_connected=kind != "graph_any")
        flags = ["--grid", gen.grid_above(doc)] if kind == "graph_grid" else []
        cmd = _command("graph", doc, flags, grid=bool(flags))
    elif kind == "luxemburg":
        cmd = _command("luxemburg", gen.luxemburg_doc(rng, n))
    elif kind == "orlicz":
        cmd = _command("orlicz", gen.orlicz_doc(rng, n, 3))
    else:
        cmd = _command("envelope", gen.envelope_doc(rng, n))
    return {"kind": kind, "size": n, "commands": [cmd]}


_BUILDERS = {"gauge-corpus": _gauge_op, "topology-growth": _topology_op,
             "paths-and-norms": _paths_op}
WORKLOADS = tuple(_BUILDERS)

"""Self-test of the report checks: each must pass the program's real report
and reject a report with one planted error.

Usage (from the repository root): python3 bench/selftest.py

Exits 0 when every check accepts every genuine report and rejects every
planted error, 1 otherwise, listing what went wrong.
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import sys
from pathlib import Path

import checks
import generators as gen

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def _first_key(d, pred=lambda k, v: True):
    return next(k for k, v in d.items() if pred(k, v))


def _axioms_cases(rng):
    clean = gen.conorm_gauge(rng, 5, "prob_sum")
    bad, witness = gen.corrupt(rng, gen.min_cap_gauge(rng, 5))

    def drop_witness(rep):
        vs = rep["axioms"]["violations"]
        vs[:] = [v for v in vs if v["witness"] != witness]

    def fake_violation(rep):
        rep["axioms"]["violations"].append(
            {"axiom": "triangle", "witness": ["p0", "p1", "p2", 0.5, 0.5, 1.0],
             "lhs": 0.5, "rhs": 0.25})

    return [("check-axioms", clean, [], {"planted": None},
             {"exit code flipped": (None, 1),
              "false violation added": (fake_violation, None)}),
            ("check-axioms", bad, [], {"planted": witness},
             {"planted witness removed": (drop_witness, None),
              "exit code 0": (None, 0)})]


def _cover_cases(rng):
    doc = gen.conorm_gauge(rng, 5, "max", symmetric=True)
    seq = [rng.choice(doc["points"]) for _ in range(10)]

    def net_off_by_one(rep):
        rep["heine_borel"]["rows"][3]["forward_size"] += 1

    def tail_start_moved(rep):
        row = rep["cauchy"][5]
        row["forward_i0"] = (row["forward_i0"] or 0) + 1

    def row_dropped(rep):
        rep["heine_borel"]["rows"].pop()

    return [("cover", {"space": doc, "sequence": seq}, [], {"symmetric": True},
             {"net size off by one": (net_off_by_one, None),
              "tail start moved": (tail_start_moved, None),
              "threshold row dropped": (row_dropped, None),
              "exit code flipped": (None, 1)})]


def _topology_cases(rng):
    doc = gen.one_sided_gauge(rng, 5)

    def drop_open(rep):
        rep["tau_plus"].pop(len(rep["tau_plus"]) // 2)

    def join_flag(rep):
        rep["join_equals_sym"] = False

    def swap_order(rep):
        rep["join"][1], rep["join"][2] = rep["join"][2], rep["join"][1]

    return [("topology", doc, [], {},
             {"open set dropped": (drop_open, None),
              "join flag cleared": (join_flag, None),
              "listing order broken": (swap_order, None)})]


def _luxemburg_cases(rng):
    doc = gen.luxemburg_doc(rng, 6)

    def nudge(rep):
        key = _first_key(rep["distances"], lambda k, v: v not in (0.0, "inf"))
        rep["distances"][key] += 1e-3

    def sym_min(rep):
        d = rep["distances"]
        key = _first_key(d, lambda k, v: v != d["|".join(k.split("|")[::-1])])
        x, y = key.split("|")
        rep["symmetrized"][key] = min(d[key], d[f"{y}|{x}"],
                                      key=checks._num)

    return [("luxemburg", doc, [], {},
             {"distance nudged": (nudge, None),
              "symmetrized is a min": (sym_min, None)})]


def _graph_cases(rng):
    doc = gen.graph_doc(rng, 30, strongly_connected=False)
    sc = gen.graph_doc(rng, 30, strongly_connected=True)

    def nudge(rep):
        key = _first_key(rep["forward"], lambda k, v: v not in (0.0, "inf"))
        rep["forward"][key] -= 1 / 16

    def nudge_up(rep):
        key = _first_key(rep["forward"], lambda k, v: v not in (0.0, "inf"))
        rep["forward"][key] += 1 / 16

    def not_transposed(rep):
        key = _first_key(rep["backward"],
                         lambda k, v: v != rep["forward"][k])
        rep["backward"][key] = rep["forward"][key]

    def asymmetry(rep):
        rep["asymmetry_index"] += 1 / 900

    def unreachable(rep):
        key = _first_key(rep["forward"], lambda k, v: v == "inf")
        rep["forward"][key] = 99.0

    def violation(rep):
        rep["axioms"]["violations"].append({"axiom": "triangle"})

    return [("graph", doc, [], {"grid": False},
             {"distance too small": (nudge, None),
              "distance too large": (nudge_up, None),
              "backward not the transpose": (not_transposed, None),
              "asymmetry index off": (asymmetry, None),
              "unreachable pair finite": (unreachable, None)}),
            ("graph", sc, ["--grid", gen.grid_above(sc)], {"grid": True},
             {"violation listed": (violation, None),
              "exit code flipped": (None, 1)})]


def _orlicz_cases(rng):
    doc = gen.orlicz_doc(rng, 12, 3)

    def modular(rep):
        rep["phi"]["f0"]["modular"] *= 1 + 1e-9

    def norm_high(rep):
        rep["phi"]["f1"]["norm"] += 1e-6

    def norm_low(rep):
        rep["phi"]["f1"]["norm"] -= 1e-6

    def flag(rep):
        rep["phi"]["f2"]["unit_ball"]["lower_ok"] ^= True

    def one_sided(rep):
        key = _first_key(rep["one_sided"]["distances"],
                         lambda k, v: v["plus"] > 0)
        rep["one_sided"]["distances"][key]["plus"] -= 1e-6

    return [("orlicz", doc, [], {},
             {"modular off": (modular, None), "norm too high": (norm_high, None),
              "norm too low": (norm_low, None),
              "unit-ball flag flipped": (flag, None),
              "one-sided distance too low": (one_sided, None)})]


def _envelope_cases(rng):
    doc = gen.envelope_doc(rng, 20)
    a = doc["domain"][0]
    off = next(p for p in doc["points"] if p not in doc["domain"])

    def upper(rep):
        rep["upper"][off] += 1 / 8

    def lower(rep):
        rep["lower"][a] -= 1 / 8

    return [("envelope", doc, [], {},
             {"upper envelope off": (upper, None),
              "lower envelope misses the data": (lower, None)})]


def main() -> int:
    from quasimod.cli import main as cli

    work = BENCH / "out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rng = random.Random("selftest")
    cases = []
    for build in (_axioms_cases, _cover_cases, _topology_cases,
                  _luxemburg_cases, _graph_cases, _orlicz_cases,
                  _envelope_cases):
        cases.extend(build(rng))
    failures = []
    planted = 0
    for i, (command, doc, flags, meta, mutations) in enumerate(cases):
        inp, out = work / f"in{i}.json", work / f"out{i}.json"
        inp.write_text(json.dumps(doc), encoding="utf-8")
        rc = cli([command, "--input", str(inp), "--output", str(out), *flags])
        report = json.loads(out.read_text(encoding="utf-8"))
        check = checks.CHECKS[command]
        problems = check(doc, report, rc, meta)
        if problems:
            failures.append(f"{command} #{i}: genuine report rejected: "
                            f"{problems[:2]}")
        for name, (mutate, new_rc) in mutations.items():
            bad = copy.deepcopy(report)
            if mutate is not None:
                mutate(bad)
            planted += 1
            if not check(doc, bad, rc if new_rc is None else new_rc, meta):
                failures.append(f"{command} #{i}: planted error accepted: "
                                f"{name}")
    shutil.rmtree(work, ignore_errors=True)
    for f in failures:
        print(f"FAIL {f}")
    print(f"{len(cases)} genuine reports, {planted} planted errors, "
          f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

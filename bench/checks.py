"""Report checks, computed apart from the program.

Each check takes the generated input document, the parsed report, the exit
code and the command's metadata, and returns a list of problems; an empty
list means the report is correct.  Everything is recomputed from the input
tables with this file's own code: axioms from their definitions, topologies
from minimal neighbourhoods, nets and tail starts by direct scans, Luxemburg
infima from the grid, graph distances through the Bellman conditions, and
modulars by the benchmark's own sums.  Values on the dyadic lattice compare
exactly; only Orlicz modulars, whose powers are not dyadic, use a relative
slack of 1e-12.
"""

from __future__ import annotations

import bisect
import math

from generators import INF, conorm_apply

MODULAR_RTOL = 1e-12


def _num(v):
    return INF if v == "inf" else v


class Table:
    """A gauge document read back as rows of floats, one per ordered pair."""

    def __init__(self, doc):
        self.points = list(doc["points"])
        self.grid = list(doc["grid"])
        self.conorm = doc.get("conorm", "max") if doc["regime"] == "conorm" \
            else None
        self.rows = {(x, y): [_num(v) for v in doc["table"][f"{x}|{y}"]]
                     for x in self.points for y in self.points}

    def at(self, x, y, t):
        """Value at any scale t > 0 by the ceil convention."""
        k = bisect.bisect_left(self.grid, t)
        row = self.rows[(x, y)]
        return row[k] if k < len(row) else row[-1]

    def combine(self, a, b):
        return a + b if self.conorm is None else conorm_apply(self.conorm, a, b)

    def symmetrized(self):
        sym = object.__new__(Table)
        sym.points, sym.grid, sym.conorm = self.points, self.grid, self.conorm
        pick = max if self.conorm is None else \
            (lambda a, b: conorm_apply(self.conorm, a, b))
        sym.rows = {(x, y): [pick(a, b) for a, b in
                             zip(self.rows[(x, y)], self.rows[(y, x)])]
                    for x, y in self.rows}
        return sym


def _expect(problems, cond, message):
    if not cond:
        problems.append(message)


# ---------------------------------------------------------------------------
# check-axioms


def check_axioms(doc, report, rc, meta):
    tab = Table(doc)
    problems = []
    axioms = report.get("axioms", {})
    violations = axioms.get("violations", [])
    checked = ["zero-self", "separation", "bounded", "triangle",
               "scale-monotone"] if tab.conorm else \
        ["zero-self", "triangle", "scale-monotone"]
    _expect(problems, axioms.get("checked") == checked,
            f"checked axioms {axioms.get('checked')} != {checked}")
    _expect(problems, "convexity" not in report, "unexpected convexity block")
    for v in violations:
        why = _false_violation(tab, v)
        if why:
            problems.append(f"{v['axiom']} at {v['witness']}: {why}")
    planted = meta.get("planted")
    if planted is None:
        _expect(problems, rc == 0 and not violations,
                f"clean gauge: exit {rc}, {len(violations)} violations")
    else:
        _expect(problems, rc == 1, f"corrupted gauge exited {rc}")
        _expect(problems, any(v["axiom"] == "triangle"
                              and v["witness"] == planted
                              for v in violations),
                f"planted witness {planted} not listed")
    sym = all(tab.rows[(x, y)] == tab.rows[(y, x)] for x, y in tab.rows)
    _expect(problems, f"claims_symmetric={sym} confirmed"
            in axioms.get("notes", []), "symmetry note missing or wrong")
    return problems


def _false_violation(tab, v):
    """Why a listed violation does not hold on the table, or None."""
    w, grid = v["witness"], tab.grid
    lhs, rhs = _num(v["lhs"]), _num(v["rhs"])
    try:
        if v["axiom"] == "zero-self":
            x, t = w
            real = tab.rows[(x, x)][grid.index(t)]
            return None if real != 0.0 and (lhs, rhs) == (real, 0.0) \
                else "diagonal entry is zero"
        if v["axiom"] == "triangle":
            x, y, z, ti, tj, u = w
            k = bisect.bisect_left(grid, ti + tj)
            if k == len(grid) or grid[k] != u:
                return f"{u} is not the projection of {ti} + {tj}"
            real_lhs = tab.rows[(x, z)][k]
            real_rhs = tab.combine(tab.rows[(x, y)][grid.index(ti)],
                                   tab.rows[(y, z)][grid.index(tj)])
            return None if real_lhs > real_rhs \
                and (lhs, rhs) == (real_lhs, real_rhs) else "triangle holds"
        if v["axiom"] == "scale-monotone":
            x, y, t0, t1 = w
            k = grid.index(t0)
            row = tab.rows[(x, y)]
            return None if grid[k + 1] == t1 and row[k] < row[k + 1] \
                and (lhs, rhs) == (row[k + 1], row[k]) else "row is monotone"
        if v["axiom"] == "separation":
            x, y, t = w
            return None if x != y and tab.rows[(x, y)][grid.index(t)] == 0.0 \
                else "pair is separated"
        if v["axiom"] == "bounded":
            x, y, t = w
            return None if tab.rows[(x, y)][grid.index(t)] >= 1.0 \
                else "value is below 1"
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        return f"malformed witness ({exc!r})"
    return "unknown axiom"


# ---------------------------------------------------------------------------
# cover


def thresholds(tab):
    """The README's critical radii: every distinct value inside the
    regime's open range, the midpoints between neighbours, and one radius
    above the top."""
    cap = 1.0 if tab.conorm else INF
    values = sorted({v for row in tab.rows.values() for v in row
                     if 0 < v < cap})
    if not values:
        return [0.5 if tab.conorm else 1.0]
    radii = set(values)
    radii.update((a + b) / 2.0 for a, b in zip(values, values[1:]))
    top = values[-1]
    radii.add((top + 1.0) / 2.0 if tab.conorm else top + 1.0)
    return sorted(radii)


def _split(tab, r):
    if tab.conorm is None:
        return r / 4.0
    return r / 4.0 if tab.conorm == "bounded_sum" else r / 2.0


def _inside(tab, c, q, r, t, side):
    fwd = tab.at(c, q, t) < r
    bwd = tab.at(q, c, t) < r
    return fwd if side == "forward" else bwd if side == "backward" \
        else fwd and bwd


def greedy(tab, r, t, side):
    """First-uncovered greedy net over the points in input order."""
    centers = []
    covered = set()
    for p in tab.points:
        if p in covered:
            continue
        centers.append(p)
        covered.update(q for q in tab.points if _inside(tab, p, q, r, t, side))
    return centers


def _cover_row(tab, r, t):
    s = _split(tab, r)
    fwd = greedy(tab, s, t / 2.0, "forward")
    bwd = greedy(tab, s, t / 2.0, "backward")
    row = {"radius": r, "scale": t, "split": s, "forward_size": len(fwd),
           "backward_size": len(bwd),
           "direct_size": len(greedy(tab, r, t, "two_sided")),
           "composed_size": None, "composed_ok": True, "witness": None}
    centers = []
    for a in fwd:
        for b in bwd:
            cell = [u for u in tab.points if tab.at(a, u, t / 2.0) < s
                    and tab.at(u, b, t / 2.0) < s]
            if not cell:
                continue
            z = cell[0]
            for u in cell:
                out, back = tab.at(z, u, t), tab.at(u, z, t)
                if not (out < r and back < r):
                    row["composed_ok"] = False
                    row["witness"] = (
                        f"cell {(a, b)} point {u!r} escapes the ball at "
                        f"{z!r}: w(z,u)={out}, w(u,z)={back}, r={r}")
                    return row
            if z not in centers:
                centers.append(z)
    row["composed_size"] = len(centers)
    row["composed_ok"] = all(any(_inside(tab, c, u, r, t, "two_sided")
                                 for c in centers) for u in tab.points)
    return row


def _tail_start(seq, good):
    """Least 1-based i0 with good(i, j) for all i0 <= i <= j, or None."""
    n = len(seq)
    worst = 0
    for i in range(1, n + 1):
        if any(not good(i, j) for j in range(i, n + 1)):
            worst = i
    return None if worst == n else worst + 1


def _cauchy_row(tab, seq, r, t):
    f = _tail_start(seq, lambda i, j: tab.at(seq[i - 1], seq[j - 1], t) < r)
    b = _tail_start(seq, lambda i, j: tab.at(seq[j - 1], seq[i - 1], t) < r)
    if f and b:
        kind, i0 = "bi", max(f, b)
    elif f or b:
        kind, i0 = ("forward", f) if f else ("backward", b)
    else:
        kind, i0 = "neither", None
    return {"radius": r, "scale": t, "kind": kind, "i0": i0,
            "forward_i0": f, "backward_i0": b}


def check_cover(doc, report, rc, meta):
    tab = Table(doc["space"])
    seq = doc["sequence"]
    pairs = [(r, t) for r in thresholds(tab) for t in tab.grid]
    problems = []
    hb = report.get("heine_borel", {})
    rows = hb.get("rows", [])
    _expect(problems, len(rows) == len(pairs),
            f"{len(rows)} cover rows for {len(pairs)} thresholds")
    wants = [_cover_row(tab, r, t) for r, t in pairs]
    for got, want in zip(rows, wants):
        if got != want:
            diff = sorted(k for k in want if got.get(k) != want[k])
            problems.append(f"cover row at r={want['radius']}, "
                            f"t={want['scale']}: {diff} differ")
    all_ok = all(want["composed_ok"] for want in wants)
    _expect(problems, hb.get("all_composed_ok") == all_ok,
            "all_composed_ok disagrees with the rows")
    _expect(problems, rc == (0 if all_ok else 1),
            f"exit {rc} with all_composed_ok={all_ok}")
    if meta.get("symmetric"):
        _expect(problems, all_ok, "symmetric gauge failed to compose")
    cauchy = report.get("cauchy", [])
    _expect(problems, len(cauchy) == len(pairs),
            f"{len(cauchy)} Cauchy rows for {len(pairs)} thresholds")
    for got, (r, t) in zip(cauchy, pairs):
        if got != _cauchy_row(tab, seq, r, t):
            problems.append(f"Cauchy row at r={r}, t={t} differs")
    return problems


# ---------------------------------------------------------------------------
# topology


def _opens_from_subbase(n, subbase):
    """Every open set of the topology a subbase generates on n points.

    In a finite space the smallest open set around point i is the
    intersection of the subbase sets that contain i; a set is open exactly
    when it contains the smallest open set of each of its points.
    """
    full = (1 << n) - 1
    least = [full] * n
    for s in subbase:
        for i in range(n):
            if s >> i & 1:
                least[i] &= s
    return _opens_from_least(n, least), least


def _opens_from_least(n, least):
    return {m for m in range(1 << n)
            if all(least[i] & ~m == 0 for i in range(n) if m >> i & 1)}


def _balls(tab, side):
    """Every strict ball {y : w < r} over every admissible radius: for a
    row with values v, the ball at any r in (v, next value] is {y : w <= v},
    and radii must stay finite (additive) or below 1 (conorm)."""
    cap = 1.0 if tab.conorm else INF
    pts = tab.points
    out = set()
    for k in range(len(tab.grid)):
        for x in pts:
            row = [tab.rows[(x, y) if side == "forward" else (y, x)][k]
                   for y in pts]
            for v in set(row):
                if v < cap:
                    out.add(sum(1 << j for j, w in enumerate(row) if w <= v))
    return out


def _family(tab, listing):
    index = {str(p): i for i, p in enumerate(tab.points)}
    return [sum(1 << index[str(p)] for p in s) for s in listing]


def _listing_order_ok(tab, listing):
    pos = {str(p): i for i, p in enumerate(tab.points)}
    keys = [(len(s), [pos[str(p)] for p in s]) for s in listing]
    return all(sorted(k[1]) == k[1] for k in keys) and keys == sorted(keys)


def check_topology(doc, report, rc, meta):
    tab = Table(doc)
    n = len(tab.points)
    plus, least_plus = _opens_from_subbase(n, _balls(tab, "forward"))
    minus, least_minus = _opens_from_subbase(n, _balls(tab, "backward"))
    join = _opens_from_least(n, [a & b for a, b in
                                 zip(least_plus, least_minus)])
    # the symmetrized table is symmetric, so its two-sided balls are its
    # forward balls
    sym, _ = _opens_from_subbase(n, _balls(tab.symmetrized(), "forward"))
    problems = []
    for key, want in (("tau_plus", plus), ("tau_minus", minus),
                      ("join", join), ("tau_sym", sym)):
        listing = report.get(key, [])
        try:
            got = _family(tab, listing)
            ordered = _listing_order_ok(tab, listing)
        except KeyError as exc:
            problems.append(f"{key} names unknown point {exc}")
            continue
        if len(got) != len(set(got)) or set(got) != want:
            problems.append(f"{key}: {len(set(got))} open sets reported, "
                            f"{len(want)} expected, "
                            f"{len(want ^ set(got))} differ")
        _expect(problems, ordered, f"{key} is not listed in canonical order")
    _expect(problems, report.get("join_equals_sym") is True and rc == 0,
            f"join_equals_sym={report.get('join_equals_sym')}, exit {rc}")
    _expect(problems, join == sym, "join differs from tau_sym")
    return problems


# ---------------------------------------------------------------------------
# luxemburg


def exact_luxemburg(row, grid):
    """inf{t > 0 : w(t) <= 1} for a nonincreasing ceil-convention row."""
    for k, v in enumerate(row):
        if v <= 1.0:
            return 0.0 if k == 0 else grid[k - 1]
    return INF


def check_luxemburg(doc, report, rc, meta):
    tab = Table(doc)
    tol = report.get("tol")
    problems = []
    _expect(problems, rc == 0 and tol == 1e-9, f"exit {rc}, tol {tol}")
    dist = report.get("distances", {})
    sym = report.get("symmetrized", {})
    _expect(problems, len(dist) == len(sym) == len(tab.rows),
            "distance maps do not cover every ordered pair")
    if problems:
        return problems
    for (x, y), row in tab.rows.items():
        exact = exact_luxemburg(row, tab.grid)
        v = _num(dist.get(f"{x}|{y}"))
        ok = v == INF if exact == INF else \
            isinstance(v, float) and exact <= v and v - exact <= tol
        _expect(problems, ok, f"{x}|{y}: {v} outside [{exact}, {exact} + tol]")
    for x, y in tab.rows:
        want = max(_num(dist[f"{x}|{y}"]), _num(dist[f"{y}|{x}"]))
        _expect(problems, _num(sym.get(f"{x}|{y}")) == want,
                f"symmetrized {x}|{y} is not the max of both directions")
    return problems


# ---------------------------------------------------------------------------
# graph


def check_graph(doc, report, rc, meta):
    vertices = doc["vertices"]
    edges = [(e["from"], e["to"], e["cost"]) for e in doc["edges"]]
    into = {v: [] for v in vertices}
    for u, v, c in edges:
        into[v].append((u, c))
    fwd = report.get("forward", {})
    bwd = report.get("backward", {})
    n = len(vertices)
    problems = []
    _expect(problems, len(fwd) == len(bwd) == n * n,
            "distance maps do not cover every ordered pair")
    if problems:
        return problems
    d = {(x, y): _num(fwd[f"{x}|{y}"]) for x in vertices for y in vertices}
    for x in vertices:
        if d[(x, x)] != 0.0:
            problems.append(f"d({x}, {x}) = {d[(x, x)]}")
        for u, v, c in edges:
            if not d[(x, v)] <= d[(x, u)] + c:
                problems.append(f"edge {u}->{v} not relaxed from {x}")
        for y in vertices:
            dxy = d[(x, y)]
            if y != x and dxy != INF and \
                    not any(d[(x, u)] + c == dxy for u, c in into[y]):
                problems.append(f"d({x}, {y}) = {dxy} is attained by no "
                                "in-edge")
            if _num(bwd[f"{y}|{x}"]) != dxy:
                problems.append(f"backward {y}|{x} is not forward {x}|{y}")
    pairs = [(x, y) for x in vertices for y in vertices if x != y]
    index = sum(1 for x, y in pairs if d[(x, y)] != d[(y, x)]) / len(pairs) \
        if pairs else 0.0
    _expect(problems, report.get("asymmetry_index") == index,
            f"asymmetry index {report.get('asymmetry_index')} != {index}")
    if meta.get("grid"):
        axioms = report.get("axioms", {})
        _expect(problems, rc == 0 and axioms.get("violations") == [],
                f"graph gauge above every distance: exit {rc}, "
                f"{len(axioms.get('violations', ['?']))} violations")
    else:
        _expect(problems, rc == 0 and "axioms" not in report,
                f"graph without --grid: exit {rc}")
    return problems[:20]


# ---------------------------------------------------------------------------
# orlicz


def phi_value(phi, point, t):
    kind = phi["kind"]
    if kind == "variable_exponent":
        return t ** phi["p"][point]
    if kind == "double_phase":
        return t ** phi["p"] + phi["a"][point] * t ** phi["q"]
    return phi["w"][point] * phi_value(phi["base"], point, t)


def orlicz_modular(space, phi, f, lam=1.0, part=abs):
    return sum(phi_value(phi, p, part(f[p] / lam)) * space["mu"][p]
               for p in space["points"])


def _positive(v):
    return max(v, 0.0)


def _negative(v):
    return max(-v, 0.0)


def _norm_problem(space, phi, f, norm, tol, part=abs):
    """Why `norm` is not the Luxemburg infimum of f, or None: it must sit
    where modular(f / N) <= 1 while modular(f / (N - 2 tol)) > 1."""
    if not isinstance(norm, float) or not math.isfinite(norm):
        return f"norm {norm!r} is not a finite number"
    if norm == 0.0:
        return None if orlicz_modular(space, phi, f, tol, part) <= 1.0 \
            else "norm 0 but modular(f / tol) > 1"
    if orlicz_modular(space, phi, f, norm, part) > 1.0 + MODULAR_RTOL:
        return f"modular(f / {norm}) > 1"
    if norm > 2 * tol and \
            not orlicz_modular(space, phi, f, norm - 2 * tol, part) > 1.0:
        return f"modular(f / ({norm} - 2 tol)) <= 1: norm too large"
    return None


def _close(a, b):
    return isinstance(a, float) and abs(a - b) <= MODULAR_RTOL * max(1.0, abs(b))


def check_orlicz(doc, report, rc, meta):
    space = doc["space"]
    funcs = doc["functions"]
    tol = report.get("tol")
    problems = []
    _expect(problems, tol == 1e-9, f"tol {tol}")
    all_ok = True
    phi_out = report.get("phi", {})
    _expect(problems, set(phi_out) == set(funcs), "phi block misses functions")
    for fid, got in phi_out.items():
        f = funcs[fid]
        rho = orlicz_modular(space, doc["phi"], f)
        _expect(problems, _close(got.get("modular"), rho),
                f"{fid}: modular {got.get('modular')} != {rho}")
        why = _norm_problem(space, doc["phi"], f, got.get("norm"), tol)
        _expect(problems, why is None, f"{fid}: {why}")
        ub = got.get("unit_ball", {})
        norm = got.get("norm")
        _expect(problems, ub.get("norm") == norm and ub.get("modular")
                == got.get("modular"), f"{fid}: unit ball repeats other numbers")
        if problems:
            continue
        rho = got["modular"]
        near_one = abs(norm - 1.0) <= tol or abs(rho - 1.0) <= tol
        flags = {"equivalence_ok": (norm <= 1.0) == (rho <= 1.0) or near_one,
                 "lower_ok": norm < 1.0 or rho >= norm - tol,
                 "upper_ok": norm > 1.0 or rho <= norm + tol}
        flags["ok"] = all(flags.values())
        all_ok = all_ok and flags["ok"]
        for key, want in flags.items():
            _expect(problems, ub.get(key) == want, f"{fid}: {key} != {want}")
    one = report.get("one_sided", {})
    norms, dists = one.get("norms", {}), one.get("distances", {})
    _expect(problems, set(norms) == set(funcs), "one-sided norms miss functions")
    for fid, got in norms.items():
        problems.extend(_one_sided_problems(space, doc, funcs[fid], got, tol,
                                            fid))
        _expect(problems, got.get("sym") == max(got.get("plus", 0.0),
                                                got.get("minus", 0.0)),
                f"{fid}: sym is not the max of plus and minus")
    pairs = [(a, b) for a in funcs for b in funcs if a != b]
    _expect(problems, len(dists) == len(pairs), "distances miss pairs")
    for a, b in pairs:
        diff = {p: funcs[a][p] - funcs[b][p] for p in space["points"]}
        problems.extend(_one_sided_problems(space, doc, diff,
                                            dists.get(f"{a}|{b}", {}), tol,
                                            f"d({a}, {b})"))
    _expect(problems, rc == (0 if all_ok else 1), f"exit {rc}")
    return problems


def _one_sided_problems(space, doc, f, got, tol, what):
    out = []
    for key, psi, part in (("plus", doc["psi1"], _positive),
                           ("minus", doc["psi2"], _negative)):
        why = _norm_problem(space, psi, f, got.get(key), tol, part)
        if why:
            out.append(f"{what} {key}: {why}")
    return out


# ---------------------------------------------------------------------------
# envelope


def check_envelope(doc, report, rc, meta):
    points = doc["points"]
    d = {(x, y): 0.0 if x == y else doc["distance"][f"{x}|{y}"]
         for x in points for y in points}
    lip, values, domain = doc["lipschitz"], doc["values"], doc["domain"]
    problems = []
    dc = report.get("distance_check", {})
    _expect(problems, rc == 0 and dc.get("violations") == [],
            f"quasi-metric input: exit {rc}, distance check "
            f"{dc.get('violations', '?')!r:.80}")
    _expect(problems, dc.get("checked") == ["zero-self", "triangle"],
            "distance check lists the wrong axioms")
    upper, lower = report.get("upper", {}), report.get("lower", {})
    _expect(problems, set(upper) == set(lower) == set(map(str, points)),
            "envelopes do not cover every point")
    if problems:
        return problems
    for x in points:
        up = min(values[a] + lip * d[(x, a)] for a in domain)
        lo = max(values[a] - lip * d[(a, x)] for a in domain)
        _expect(problems, upper[str(x)] == up, f"upper({x}) != {up}")
        _expect(problems, lower[str(x)] == lo, f"lower({x}) != {lo}")
    for a in domain:
        _expect(problems, upper[str(a)] == values[a] == lower[str(a)],
                f"envelopes do not reproduce the data at {a}")
    return problems


CHECKS = {"check-axioms": check_axioms, "cover": check_cover,
          "topology": check_topology, "luxemburg": check_luxemburg,
          "graph": check_graph, "orlicz": check_orlicz,
          "envelope": check_envelope}

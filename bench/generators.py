"""Seeded input generators for the benchmark workloads.

Every value lives on a dyadic lattice (small integers over 4, 8, 16 or 64),
so sums, products and conorm combinations are exact in double precision and
each construction below carries its axioms bit for bit: the checks can
compare with plain `<=`.  Nothing here imports the program; the program sees
only the JSON documents these functions return.
"""

from __future__ import annotations

import heapq

INF = float("inf")

CONORMS = ("max", "prob_sum", "bounded_sum")
CONORM_GRID = (0.5, 1.0, 2.0)


def names(n, prefix="p"):
    return [f"{prefix}{i}" for i in range(n)]


def conorm_apply(name, a, b):
    """The three t-conorms, written with the same float operations as the
    program so that a closure computed here is closed there too."""
    if name == "max":
        return max(a, b)
    if name == "prob_sum":
        return max(a, b, min(1.0, a + b - a * b))
    return min(1.0, a + b)


def fmt(v):
    return "inf" if v == INF else v


# ---------------------------------------------------------------------------
# additive distance tables: min-plus closure makes every triangle exact


def min_plus_closure(points, d):
    d = dict(d)
    changed = True
    while changed:
        changed = False
        for y in points:
            for x in points:
                dxy = d[(x, y)]
                if dxy == INF:
                    continue
                for z in points:
                    cand = dxy + d[(y, z)]
                    if cand < d[(x, z)]:
                        d[(x, z)] = cand
                        changed = True
    return d


def quasi_metric(rng, points, symmetric=False, holes=0.0):
    """Distances on a 1/16 lattice in [0.5, 3], min-plus closed.

    With holes > 0 that share of the raw off-diagonal entries starts at
    +inf; the closure may keep some of them infinite.
    """
    d = {}
    for x in points:
        for y in points:
            if x == y:
                d[(x, y)] = 0.0
            elif symmetric and (y, x) in d:
                d[(x, y)] = d[(y, x)]
            elif holes and rng.random() < holes:
                d[(x, y)] = INF
            else:
                d[(x, y)] = rng.randrange(8, 49) / 16
    return min_plus_closure(points, d)


def scale_constant_gauge(points, rho):
    """Table of w(x, y, t) = min(rho(x, y), t) on a grid whose smallest
    scale dominates every finite value, so the cap never binds."""
    finite = [v for v in rho.values() if 0 < v < INF]
    top = max(finite) if finite else 1.0
    grid = [top, 2 * top, 3 * top, 4 * top]
    return {"regime": "additive", "points": list(points), "grid": grid,
            "table": {f"{x}|{y}": [fmt(rho[(x, y)])] * len(grid)
                      for x in points for y in points}}


def min_cap_gauge(rng, n, symmetric=False):
    points = names(n)
    return scale_constant_gauge(points, quasi_metric(rng, points, symmetric))


def sublinear_gauge(rng, n):
    """rho(x, y) = p(y - x) for p(v) = alpha*v+ + beta*v-, on reals k/8;
    p is exactly subadditive on the lattice, asymmetric when alpha != beta."""
    alpha = rng.randrange(1, 17) / 4
    beta = rng.randrange(1, 17) / 4
    points = sorted(rng.sample([k / 8 for k in range(-24, 25)], n))
    rho = {}
    for x in points:
        for y in points:
            v = y - x
            rho[(x, y)] = alpha * v if v >= 0 else -beta * v
    return scale_constant_gauge(points, rho)


def strongly_connected_edges(rng, vertices, extra):
    """A shuffled Hamiltonian cycle plus `extra` random edges, costs on a
    1/16 lattice and measures on a 1/4 lattice."""
    order = list(vertices)
    rng.shuffle(order)
    n = len(order)
    seen = set()
    edges = []
    for i in range(n):
        u, v = order[i], order[(i + 1) % n]
        seen.add((u, v))
        edges.append((u, v, rng.randrange(1, 9) / 4, rng.randrange(8, 49) / 16))
    for _ in range(extra):
        u, v = rng.sample(vertices, 2)
        if (u, v) not in seen:
            seen.add((u, v))
            edges.append((u, v, rng.randrange(1, 9) / 4,
                          rng.randrange(8, 49) / 16))
    return edges


def random_edges(rng, vertices, degree):
    """Each ordered pair is an edge with probability degree / (n - 1), so
    some vertices may be unreachable from others."""
    n = len(vertices)
    p = min(1.0, degree / max(1, n - 1))
    edges = []
    for u in vertices:
        for v in vertices:
            if u != v and rng.random() < p:
                edges.append((u, v, rng.randrange(1, 9) / 4,
                              rng.randrange(8, 49) / 16))
    return edges


def path_distances(vertices, edges):
    """All-pairs path costs by Dijkstra from every source."""
    adj = {v: [] for v in vertices}
    for u, v, _, c in edges:
        adj[u].append((v, c))
    out = {}
    for s in vertices:
        dist = {v: INF for v in vertices}
        dist[s] = 0.0
        heap = [(0.0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, c in adj[u]:
                if d + c < dist[v]:
                    dist[v] = d + c
                    heapq.heappush(heap, (d + c, v))
        for v in vertices:
            out[(s, v)] = dist[v]
    return out


def graph_path_gauge(rng, n):
    vertices = names(n, "v")
    edges = strongly_connected_edges(rng, vertices, rng.randrange(0, n * 2))
    return scale_constant_gauge(vertices, path_distances(vertices, edges))


def one_sided_gauge(rng, n):
    """rho(f, g) = c * sum_i mu_i * (f_i - g_i)+ over dyadic functions; the
    linear integrand keeps rho exactly subadditive."""
    width = rng.randrange(2, 5)
    mu = [rng.randrange(1, 9) / 4 for _ in range(width)]
    c = rng.randrange(1, 9) / 4
    funcs = {f"f{i}": [rng.randrange(-16, 17) / 8 for _ in range(width)]
             for i in range(n)}
    ids = list(funcs)
    rho = {(a, b): c * sum(m * max(fa - fb, 0.0) for m, fa, fb
                           in zip(mu, funcs[a], funcs[b]))
           for a in ids for b in ids}
    return scale_constant_gauge(ids, rho)


# ---------------------------------------------------------------------------
# conorm tables: per-scale closure, then clamped below the previous scale


def conorm_gauge(rng, n, conorm, symmetric=False):
    """Raw entries in [4/64, 57/64], closed per scale under (min, conorm)
    after clamping each scale below the one before.  Same-scale closure
    plus the clamp gives the cross-scale split triangle exactly, and
    57/64 < 1 keeps every value bounded."""
    points = names(n)
    columns = []
    prev = None
    for _ in CONORM_GRID:
        raw = {}
        for x in points:
            for y in points:
                if x == y:
                    raw[(x, y)] = 0.0
                elif symmetric and (y, x) in raw:
                    raw[(x, y)] = raw[(y, x)]
                else:
                    raw[(x, y)] = rng.randrange(4, 58) / 64
        if prev is not None:
            raw = {pair: min(v, prev[pair]) for pair, v in raw.items()}
        mat = _conorm_closure(points, raw, conorm)
        columns.append(mat)
        prev = mat
    return {"regime": "conorm", "conorm": conorm, "points": points,
            "grid": list(CONORM_GRID),
            "table": {f"{x}|{y}": [col[(x, y)] for col in columns]
                      for x in points for y in points}}


def _conorm_closure(points, mat, conorm):
    mat = dict(mat)
    changed = True
    while changed:
        changed = False
        for y in points:
            for x in points:
                if x == y:
                    continue
                for z in points:
                    if z == y or z == x:
                        continue
                    cand = conorm_apply(conorm, mat[(x, y)], mat[(y, z)])
                    if cand < mat[(x, z)]:
                        mat[(x, z)] = cand
                        changed = True
    return mat


def corrupt(rng, doc):
    """Raise one entry w(x, z, u) above w(x, y, t1) (+) w(y, z, t1), where u
    is the grid scale t1 + t1 projects to.  Returns the broken document and
    the triangle witness [x, y, z, t1, t1, u] the checker must report."""
    grid = doc["grid"]
    t1 = grid[0]
    k = next(i for i, t in enumerate(grid) if t >= t1 + t1)
    pts = doc["points"]
    table = {key: list(row) for key, row in doc["table"].items()}
    while True:
        x, z = rng.sample(pts, 2)
        y = rng.choice(pts)
        a, b = table[f"{x}|{y}"][0], table[f"{y}|{z}"][0]
        if doc["regime"] == "conorm":
            rhs = conorm_apply(doc["conorm"], a, b)
            value = (1.0 + rhs) / 2
            if rhs < value < 1.0:
                break
        elif a != "inf" and b != "inf":
            value = a + b + 0.75
            break
    table[f"{x}|{z}"][k] = value
    return dict(doc, table=table), [x, y, z, t1, t1, grid[k]]


ADDITIVE_FAMILIES = {
    "min_cap": min_cap_gauge,
    "min_cap_sym": lambda rng, n: min_cap_gauge(rng, n, symmetric=True),
    "sublinear": sublinear_gauge,
    "graph_path": graph_path_gauge,
    "one_sided": one_sided_gauge,
}

CONORM_FAMILIES = {
    f"{c}{'_sym' if sym else ''}":
        (lambda rng, n, c=c, sym=sym: conorm_gauge(rng, n, c, sym))
    for c in CONORMS for sym in (False, True)
}

FAMILIES = ADDITIVE_FAMILIES | CONORM_FAMILIES


# ---------------------------------------------------------------------------
# paths-and-norms inputs


def graph_doc(rng, n, strongly_connected):
    vertices = names(n, "v")
    if strongly_connected:
        edges = strongly_connected_edges(rng, vertices, 3 * n)
    else:
        edges = random_edges(rng, vertices, rng.choice((1.5, 2.5, 4.0)))
    return {"vertices": vertices,
            "edges": [{"from": u, "to": v, "mu": mu, "cost": c}
                      for u, v, mu, c in edges],
            "measure": {v: rng.randrange(1, 9) / 4 for v in vertices}}


def grid_above(doc):
    """A --grid value whose every scale exceeds the largest path distance."""
    vertices = doc["vertices"]
    edges = [(e["from"], e["to"], e["mu"], e["cost"]) for e in doc["edges"]]
    d = path_distances(vertices, edges)
    top = max(v for v in d.values() if v < INF)
    base = 1.0
    while base <= top:
        base *= 2
    return ",".join(str(base * f) for f in (1, 2, 4))


LUX_GRID = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def luxemburg_doc(rng, n):
    """w(x, y, t) = d(x, y) * g(t) for a quasi-metric d and a nonincreasing
    dyadic profile g, tabulated on LUX_GRID; a few pairs may be +inf."""
    points = names(n)
    d = quasi_metric(rng, points, holes=rng.choice((0.0, 0.0, 0.15)))
    g = []
    v = float(rng.choice((4, 8, 16)))
    for _ in LUX_GRID:
        g.append(v)
        v /= rng.choice((1, 2, 2, 4))
    table = {}
    for x in points:
        for y in points:
            dxy = d[(x, y)]
            table[f"{x}|{y}"] = [fmt(INF if dxy == INF else dxy * gk)
                                 for gk in g]
    return {"regime": "additive", "points": points, "grid": list(LUX_GRID),
            "table": table}


def phi_doc(rng, points, depth=0):
    kind = rng.choice(("variable_exponent", "double_phase", "weighted")
                      if depth == 0 else ("variable_exponent", "double_phase"))
    if kind == "variable_exponent":
        return {"kind": kind,
                "p": {q: 1.0 + rng.randrange(0, 13) / 4 for q in points}}
    if kind == "double_phase":
        p = 1.0 + rng.randrange(0, 5) / 4
        return {"kind": kind, "p": p, "q": p + rng.randrange(1, 9) / 4,
                "a": {q: rng.randrange(0, 9) / 4 for q in points}}
    return {"kind": kind, "base": phi_doc(rng, points, depth + 1),
            "w": {q: rng.randrange(1, 9) / 4 for q in points}}


def orlicz_doc(rng, n, n_functions):
    points = names(n)
    doc = {"space": {"points": points,
                     "mu": {q: rng.randrange(1, 9) / 4 for q in points}},
           "functions": {}}
    for i in range(n_functions):
        f = {q: rng.randrange(-16, 17) / 8 for q in points}
        if all(v == 0.0 for v in f.values()):
            f[points[0]] = 1.0
        doc["functions"][f"f{i}"] = f
    doc["phi"] = phi_doc(rng, points)
    doc["psi1"] = phi_doc(rng, points)
    doc["psi2"] = phi_doc(rng, points)
    return doc


def envelope_doc(rng, n):
    """A quasi-metric, a domain, and data that are L-Lipschitz one-sided
    (f(a) - f(b) <= L d(a, b)), built as a min of anchored cones
    c_k - L d(o_k, x), so both envelopes reproduce the data."""
    points = names(n)
    d = quasi_metric(rng, points)
    lip = rng.choice((0.5, 1.0, 2.0))
    anchors = [(rng.choice(points), rng.randrange(0, 33) / 8)
               for _ in range(3)]
    domain = sorted(rng.sample(points, max(2, n // 4)),
                    key=points.index)
    values = {a: min(c - lip * d[(o, a)] for o, c in anchors) for a in domain}
    return {"points": points,
            "distance": {f"{x}|{y}": d[(x, y)]
                         for x in points for y in points if x != y},
            "domain": domain, "values": values, "lipschitz": lip}

"""Directed graphs: path quasi-distances, capped gauges, and edge energies.

Shortest paths use a heap-based label-setting method over nonnegative costs.
Backward distances are forward distances on the transpose: d(y, x) read
from the forward matrix.  An edge energy is the Musielak-Orlicz modular,
and its Luxemburg norm the norm, of the gradient f(head) - f(tail) on the
edge measure space: edge k at position k with mass mu(e), under any
`MusielakOrlicz` indexed by edge position (per-edge exponents, double phase,
weighted growth).  Both difference operators on an edge u -> v have the
same magnitude, so one energy serves both directions; direction dependence
enters through per-edge functions, measures, or cost schedules.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from itertools import chain
from operator import ne

from .extreal import (INF, decode_ids, format_ext, keyed_numbers, number,
                      numbers, parse_ext)
from .gauges import GaugeSpec, _min_cap_rows
from .luxemburg import DEFAULT_TOL
from .orlicz import DiscreteMeasureSpace, MusielakOrlicz, _modular, _norm
from .profiles import ScaleGrid
from .records import Frozen


class Edge(Frozen):
    __slots__ = _fields = ("u", "v", "mu", "cost")

    def __init__(self, u, v, mu: float, cost: float):
        mu = number(mu, "edge mu")
        if not mu > 0:
            raise ValueError(f"edge measure must be positive, got {mu!r}")
        # the one check of a cost, whether read from JSON or passed in; the
        # float it returns is stored, so an integer cost prints as a float
        cost = parse_ext(cost, "edge cost")
        if cost == INF:
            raise ValueError("edge costs must be finite")
        # stored one by one, not by `_set`: a graph document builds its
        # edges by the hundred, and this makes each about 40 % cheaper
        put = object.__setattr__
        put(self, "u", u)
        put(self, "v", v)
        put(self, "mu", mu)
        put(self, "cost", cost)


class DirectedGraph(Frozen):
    _fields = ("vertices", "edges", "measure")
    __slots__ = _fields + ("_index", "_fwd")

    def __init__(self, vertices: tuple, edges: tuple[Edge, ...],
                 measure: Mapping | None = None):
        vertices = tuple(vertices)
        if not vertices:
            raise ValueError("graph needs at least one vertex")
        if len(set(vertices)) != len(vertices):
            raise ValueError("vertices must be distinct")
        edges = tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges)
        index = {v: i for i, v in enumerate(vertices)}
        for e in edges:
            if e.u not in index or e.v not in index:
                raise ValueError(f"edge {e.u!r} -> {e.v!r} uses unknown vertices")
        masses = {v: 1.0 for v in vertices}
        for v, m in (measure or {}).items():
            if v not in index:
                raise ValueError(f"measure for unknown vertex {v!r}")
            m = number(m, f"measure at {v!r}")
            if not m > 0:
                raise ValueError(f"vertex measure must be positive, got {m!r}")
            masses[v] = m
        fwd = [[] for _ in vertices]
        for k, e in enumerate(edges):
            fwd[index[e.u]].append((index[e.v], k))
        self._set(vertices, edges, masses, index, tuple(map(tuple, fwd)))

    def index_of(self, v) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise ValueError(f"unknown vertex {v!r}") from None

    def transpose(self) -> "DirectedGraph":
        return DirectedGraph(self.vertices,
                             tuple(Edge(e.v, e.u, e.mu, e.cost)
                                   for e in self.edges),
                             dict(self.measure))


def _edge_costs(g: DirectedGraph, costs) -> tuple[float, ...]:
    if costs is None:
        return tuple(e.cost for e in g.edges)
    costs = tuple(costs)
    if len(costs) != len(g.edges):
        raise ValueError(f"need one cost per edge ({len(g.edges)}), "
                         f"got {len(costs)}")
    # an Edge holds the one check of a cost
    return tuple(Edge(e.u, e.v, e.mu, c).cost for e, c in zip(g.edges, costs))


def _adjacency(g: DirectedGraph, costs) -> list[list[tuple[int, float]]]:
    """Out-edges of each vertex as (head index, cost) pairs, in edge order."""
    costs = _edge_costs(g, costs)
    return [[(v, costs[k]) for v, k in out] for out in g._fwd]


def _dijkstra(adj, src: int) -> list[float]:
    dist = [INF] * len(adj)
    dist[src] = 0.0
    heap = [(0.0, src)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, u = pop(heap)
        if d > dist[u]:
            continue
        for v, c in adj[u]:
            nd = d + c
            if nd < dist[v]:
                dist[v] = nd
                push(heap, (nd, v))
    return dist


def forward_distance(g: DirectedGraph, x, y, costs=None) -> float:
    """Least total cost over directed paths x to y; +inf when unreachable."""
    adj = _adjacency(g, costs)
    return _dijkstra(adj, g.index_of(x))[g.index_of(y)]


def distance_matrix(g: DirectedGraph, costs=None) -> list[list[float]]:
    """All-pairs path distances as row lists in vertex order: entry [i][j]
    is d(vertices[i], vertices[j]), +inf when unreachable.  Backward
    distances are the columns."""
    adj = _adjacency(g, costs)
    return [_dijkstra(adj, i) for i in range(len(adj))]


def graph_gauge(g: DirectedGraph, costs=None, grid: ScaleGrid | None = None,
                name: str = "graph_gauge") -> GaugeSpec:
    """Additive gauge w(x, y, t) = min(path distance, t) over the vertices.

    The distances are not re-validated: a path sum that rounds above the
    sum of its legs breaks the triangle by an ulp, and `check_axioms`
    reports it with the witness."""
    return _min_cap_rows(distance_matrix(g, costs), g.vertices, grid, name)


def _edge_gradient(g: DirectedGraph, f: Mapping) -> tuple:
    """The edge measure space (edge k at position k, mass mu(e)) and the
    gradient k -> f(head) - f(tail) on it, once f is checked to be total;
    (None, {}) for an edgeless graph, whose energy and norm are 0.0."""
    missing = [v for v in g.vertices if v not in f]
    if missing:
        raise ValueError(f"function misses vertices {missing!r}")
    if not g.edges:
        return None, {}
    space = DiscreteMeasureSpace(range(len(g.edges)),
                                 {k: e.mu for k, e in enumerate(g.edges)})
    return space, {k: f[e.v] - f[e.u] for k, e in enumerate(g.edges)}


def forward_energy(g: DirectedGraph, f: Mapping, phi: MusielakOrlicz) -> float:
    """Sum over edges k of phi(k, |f(head) - f(tail)|) * mu(e): the modular
    of the gradient, with phi indexed by edge position."""
    space, grad = _edge_gradient(g, f)
    return _modular(space, phi, grad) if grad else 0.0


def energy_luxemburg(g: DirectedGraph, f: Mapping, phi: MusielakOrlicz,
                     tol: float = DEFAULT_TOL) -> float:
    """inf{lambda > 0 : energy(f / lambda) <= 1}: the Luxemburg norm of the
    gradient, with phi indexed by edge position."""
    space, grad = _edge_gradient(g, f)
    return _norm(space, phi, grad, tol) if grad else 0.0


class DynamicCostSchedule(Frozen):
    """Piecewise-constant edge costs: cost of edge k at time t is the value
    listed for the greatest schedule time <= t, with t clamped into the
    schedule range.  `costs` maps (time, edge index) to a positive cost;
    times, costs and query times are read by the wire's number rule."""

    __slots__ = _fields = ("times", "costs")

    def __init__(self, times: tuple[float, ...], costs: Mapping):
        times = numbers(times, "times")
        if not times:
            raise ValueError("schedule needs at least one time")
        # nan compares False both ways, so the order check alone passes it
        if any(t != t for t in times):
            raise ValueError("schedule times must not be nan")
        if any(a >= b for a, b in zip(times, times[1:])):
            raise ValueError("schedule times must be strictly increasing")
        read = {}
        for (t, k), c in dict(costs).items():
            # 0.7 or True read as an int names the wrong edge, and no
            # snapshot reads a negative index
            if isinstance(k, bool) or not isinstance(k, int) or k < 0:
                raise ValueError(f"schedule cost key ({t!r}, {k!r}) needs a "
                                 f"non-negative integer edge index")
            read[(number(t, "schedule cost time"), k)] = number(c, "schedule cost")
        for (t, k), c in read.items():
            if t not in times:
                raise ValueError(f"cost listed at unscheduled time {t!r}")
            if not c > 0:
                raise ValueError(f"schedule costs must be positive, got {c!r}")
        self._set(times, read)

    def snapshot(self, g: DirectedGraph, t: float) -> tuple[float, tuple[float, ...]]:
        """Effective time and the frozen cost vector at that time."""
        t = number(t, "query time")
        if t != t:
            raise ValueError("query time must not be nan")
        t_eff = max((s for s in self.times if s <= t), default=self.times[0])
        if t_eff != t:
            import logging
            logging.getLogger("quasimod.graphs").debug(
                "query time %s clamped to schedule time %s", t, t_eff)
        missing = [k for k in range(len(g.edges))
                   if (t_eff, k) not in self.costs]
        if missing:
            raise ValueError(f"schedule misses edges {missing!r} at "
                             f"time {t_eff}")
        return t_eff, tuple(self.costs[(t_eff, k)]
                            for k in range(len(g.edges)))


def dynamic_distance(g: DirectedGraph, schedule: DynamicCostSchedule,
                     t: float, x, y) -> float:
    """Forward path distance with all edge costs frozen at time t."""
    _, costs = schedule.snapshot(g, t)
    return forward_distance(g, x, y, costs)


def asymmetry_index(rows) -> float:
    """Fraction of ordered pairs x != y with d(x, y) != d(y, x), for a
    square distance matrix given as row lists."""
    n = len(rows)
    if n < 2:
        return 0.0
    # a diagonal entry compares with itself, so only x != y can count
    return sum(map(ne, chain.from_iterable(rows),
                   chain.from_iterable(zip(*rows)))) / (n * n - n)


def graph_to_json(g: DirectedGraph) -> dict:
    decode_ids(g.vertices, "vertex")
    return {"vertices": list(g.vertices),
            "edges": [{"from": e.u, "to": e.v, "mu": e.mu, "cost": e.cost}
                      for e in g.edges],
            "measure": {str(v): g.measure[v] for v in g.vertices}}


def graph_from_json(doc: Mapping) -> DirectedGraph:
    vertices = tuple(doc["vertices"])
    decode_ids(vertices, "vertex")
    edges = tuple(Edge(e["from"], e["to"], e.get("mu", 1.0), e.get("cost", 1.0))
                  for e in doc["edges"])
    measure = None
    if "measure" in doc:
        measure = keyed_numbers(doc["measure"], vertices, "measure", "vertex")
    return DirectedGraph(vertices, edges, measure)


def schedule_to_json(s: DynamicCostSchedule) -> dict:
    return {"times": list(s.times),
            "costs": {f"{t}|{k}": format_ext(c)
                      for (t, k), c in sorted(s.costs.items())}}


# a cost key "time|edge": the time spelled as a JSON number or "inf", the
# spellings `number` reads, and the edge as a JSON non-negative integer;
# `re` compiles it on first use, not at import
_SCHEDULE_KEY = (r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
                 r"|inf)\|(0|[1-9][0-9]*)")


def schedule_from_json(doc: Mapping) -> DynamicCostSchedule:
    import json
    import re  # only a schedule needs them, and no command reads one
    costs = {}
    for key, c in doc["costs"].items():
        match = re.fullmatch(_SCHEDULE_KEY, key)
        if not match:
            raise ValueError(f"bad schedule key {key!r}; expected 'time|edge' "
                             f"with a JSON number and a non-negative integer")
        st, sk = match.groups()
        t = number(st if st == "inf" else json.loads(st), f"time of {key!r}")
        costs[(t, int(sk))] = parse_ext(c, f"costs[{key}]")
    return DynamicCostSchedule(doc["times"], costs)

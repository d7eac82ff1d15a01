"""Directed graphs: path quasi-distances, edge energies, cost schedules."""

import json
import math
import re

import pytest

from quasimod import graphs
from quasimod import (INF, DirectedGraph, DynamicCostSchedule, Edge,
                      MusielakOrlicz, ScaleGrid, asymmetry_index,
                      check_axioms, distance_matrix, dynamic_distance,
                      energy_luxemburg, forward_distance, forward_energy,
                      graph_from_json, graph_gauge, graph_to_json,
                      luxemburg_infimum, schedule_from_json,
                      schedule_to_json)

from conftest import (STRUCTURED_DIGRAPHS, brute_force_distance,
                      cycle_digraph, edge_power, path_digraph, random_digraph,
                      random_graph_gauge, rng_for)


def test_edge_validation():
    with pytest.raises(ValueError, match="measure must be positive"):
        Edge("a", "b", 0.0, 1.0)
    with pytest.raises(ValueError, match="must be finite"):
        Edge("a", "b", 1.0, INF)
    with pytest.raises(ValueError, match="edge cost"):
        Edge("a", "b", 1.0, math.nan)


def test_each_edge_cost_is_checked_once_and_stored_as_a_float(monkeypatch):
    checked = []
    real = graphs.parse_ext

    def counting(value, what="value"):
        checked.append(value)
        return real(value, what)

    monkeypatch.setattr(graphs, "parse_ext", counting)
    doc = {"vertices": ["a", "b", "c"],
           "edges": [{"from": "a", "to": "b", "cost": 3},
                     {"from": "b", "to": "c", "cost": 0.5},
                     {"from": "c", "to": "a"}]}
    g = graph_from_json(doc)
    assert [(type(v), v) for v in checked] == \
        [(int, 3), (float, 0.5), (float, 1.0)]
    assert [type(e.cost) for e in g.edges] == [float] * 3
    assert json.dumps(graph_to_json(g)["edges"][0]["cost"]) == "3.0"
    assert type(Edge("a", "b", 1.0, 2).cost) is float


def test_graph_validation_and_measure_defaults():
    with pytest.raises(ValueError, match="at least one vertex"):
        DirectedGraph((), ())
    with pytest.raises(ValueError, match="distinct"):
        DirectedGraph(("a", "a"), ())
    with pytest.raises(ValueError, match="unknown vertices"):
        DirectedGraph(("a", "b"), (Edge("a", "z", 1.0, 1.0),))
    with pytest.raises(ValueError, match="measure for unknown vertex"):
        DirectedGraph(("a",), (), {"z": 1.0})
    with pytest.raises(ValueError, match="vertex measure must be positive"):
        DirectedGraph(("a",), (), {"a": 0.0})
    # edges coerce from plain tuples, measures default to 1.0 then update
    g = DirectedGraph(("a", "b"), (("a", "b", 2.0, 1.5),), {"b": 3.0})
    assert g.edges == (Edge("a", "b", 2.0, 1.5),)
    assert g.measure == {"a": 1.0, "b": 3.0}
    assert g.index_of("b") == 1
    with pytest.raises(ValueError, match="unknown vertex"):
        g.index_of("z")


def test_transpose_reverses_edges_and_keeps_measure():
    g = DirectedGraph(("a", "b"), (Edge("a", "b", 2.0, 1.5),), {"a": 4.0})
    gt = g.transpose()
    assert gt.edges == (Edge("b", "a", 2.0, 1.5),)
    assert gt.measure == g.measure
    assert gt.transpose() == g


def test_three_cycle_distances_pinned():
    g = DirectedGraph(("a", "b", "c"),
                      (Edge("a", "b", 1.0, 1.5), Edge("b", "c", 1.0, 2.25),
                       Edge("c", "a", 1.0, 4.0)))
    d = distance_matrix(g)
    assert d[0][1] == 1.5
    assert d[0][2] == 3.75
    assert d[1][0] == 6.25
    assert d[2][1] == 5.5
    assert all(d[i][i] == 0.0 for i in range(len(g.vertices)))
    # the one-edge graph leaves the other direction unreachable
    h = DirectedGraph(("a", "b"), (Edge("a", "b", 1.0, 2.0),))
    assert forward_distance(h, "a", "b") == 2.0
    assert forward_distance(h, "b", "a") == INF
    # backward distances are forward distances on the transpose
    assert forward_distance(h.transpose(), "b", "a") == 2.0


def test_cost_override_validation():
    g = DirectedGraph(("a", "b"), (Edge("a", "b", 1.0, 2.0),))
    with pytest.raises(ValueError, match="one cost per edge"):
        forward_distance(g, "a", "b", costs=(1.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        forward_distance(g, "a", "b", costs=(INF,))
    assert forward_distance(g, "a", "b", costs=(0.25,)) == 0.25


@pytest.mark.parametrize("seed", range(12))
def test_backward_is_forward_on_the_transpose(seed):
    # the graph command reads its backward map as fwd[j][i]; this is the
    # identity that makes that one all-pairs pass enough
    rng = rng_for(400 + seed)
    g = random_digraph(rng, rng.randrange(2, 7))
    fwd = distance_matrix(g)
    back = distance_matrix(g.transpose())
    for i, x in enumerate(g.vertices):
        for j, y in enumerate(g.vertices):
            assert back[i][j] == fwd[j][i]
            assert back[i][j] == forward_distance(g, y, x)


@pytest.mark.parametrize("seed", range(15))
def test_dijkstra_matches_exhaustive_path_search(seed):
    # dyadic costs keep every path sum exact, so equality is bitwise
    rng = rng_for(430 + seed)
    g = random_digraph(rng, rng.randrange(2, 7))
    d = distance_matrix(g)
    for i, x in enumerate(g.vertices):
        for j, y in enumerate(g.vertices):
            assert d[i][j] == brute_force_distance(g, x, y)


# ---------------------------------------------------------------------------
# the lane sweep against per-source Dijkstra


def adjacency(g):
    return graphs._adjacency(g, None)


def dijkstra_rows(g):
    adj = adjacency(g)
    return [graphs._dijkstra(adj, s) for s in range(len(adj))]


def off_lattice(g, rng):
    """g with two edges' costs set to 0.3.  Its odd 53-bit numerator makes
    its code at least 2**52 on every lattice, so the two codes sum past
    the guard's 2**53."""
    two = rng.sample(range(len(g.edges)), 2)
    return DirectedGraph(g.vertices, tuple(
        Edge(e.u, e.v, e.mu, 0.3 if i in two else e.cost)
        for i, e in enumerate(g.edges)))


def seeded_digraphs():
    """conftest digraphs of 1 to 11 vertices, and each structured shape at
    2 to 40 vertices with its transpose."""
    for seed in range(60):
        rng = rng_for(52000 + seed)
        yield random_digraph(rng, rng.randrange(1, 12),
                             p=rng.choice((0.15, 0.3, 0.6)))
    for make in STRUCTURED_DIGRAPHS.values():
        for n in (2, 3, 5, 9, 17, 40):
            g = make(rng_for(n), n)
            yield g
            yield g.transpose()


def path_graph(*costs):
    """a -> b -> c ... with the given costs."""
    names = "abcdefgh"[:len(costs) + 1]
    return DirectedGraph(tuple(names), tuple(
        Edge(u, v, 1.0, c) for u, v, c in zip(names, names[1:], costs)))


# each graph, and whether the lane sweep takes it
EDGE_GRAPHS = {
    "one vertex": (DirectedGraph(("a",), ()), True),
    "no edges": (DirectedGraph(("a", "b", "c"), ()), True),
    "zeros": (DirectedGraph(("a", "b", "c"), (
        Edge("a", "b", 1.0, 0.0), Edge("b", "c", 1.0, -0.0),
        Edge("c", "a", 1.0, 0.5), Edge("b", "a", 1.0, -0.0))), True),
    "unreachable": (DirectedGraph(("a", "b", "c", "d"), (
        Edge("a", "b", 1.0, 1.0), Edge("d", "c", 1.0, 0.25))), True),
    "loops and parallel edges": (DirectedGraph(("a", "b"), (
        Edge("a", "a", 1.0, 1.0), Edge("a", "b", 1.0, 3.0),
        Edge("a", "b", 1.0, 1.0), Edge("b", "b", 1.0, 0.0))), True),
    "5e-324": (path_graph(5e-324, 5e-324, 1e-323), True),
    "1e-300 beside 1e300": (path_graph(5e-324, 1e-300, 1e300), False),
    # the sum of the codes is 2**53 - 1, and every path sum is exact
    "2**52 and 2**52 - 1": (path_graph(2.0 ** 52, 2.0 ** 52 - 1), True),
    # exact sums would give 2**53 + 2, where Dijkstra's floats read 2**53
    "2**53, 1 and 1": (path_graph(2.0 ** 53, 1.0, 1.0), False),
    # the README's graph: (0.1 + 0.2) + 0.3 rounds to 0.6000000000000001
    "0.1, 0.2 and 0.3": (path_graph(0.1, 0.2, 0.3), False),
}


def test_lane_rows_match_dijkstra_on_seeded_graphs():
    taken = 0
    for g in seeded_digraphs():
        cases = [g] if len(g.edges) < 2 else \
            [g, off_lattice(g, rng_for(len(g.edges)))]
        # every lattice graph takes the sweep, and no off-lattice copy
        for h, lanes in zip(cases, (True, False)):
            assert (graphs._lane_rows(adjacency(h)) is not None) == lanes, h
            # repr keeps the sign of a zero
            assert repr(distance_matrix(h)) == repr(dijkstra_rows(h)), h
            taken += lanes
    assert taken == 132


def test_edge_graphs_match_dijkstra():
    for name, (g, lanes) in EDGE_GRAPHS.items():
        assert (graphs._lane_rows(adjacency(g)) is not None) == lanes, name
        assert repr(distance_matrix(g)) == repr(dijkstra_rows(g)), name
    d = distance_matrix(EDGE_GRAPHS["2**53, 1 and 1"][0])
    assert d[0][3] == 2.0 ** 53
    d = distance_matrix(EDGE_GRAPHS["2**52 and 2**52 - 1"][0])
    assert d[0][2] == 2.0 ** 53 - 1
    assert repr(distance_matrix(EDGE_GRAPHS["0.1, 0.2 and 0.3"][0])[0][3]) \
        == "0.6000000000000001"
    assert repr(distance_matrix(EDGE_GRAPHS["zeros"][0])) == \
        "[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.5, 0.5, 0.0]]"
    assert distance_matrix(EDGE_GRAPHS["unreachable"][0]) == [
        [0.0, 1.0, INF, INF], [INF, 0.0, INF, INF], [INF, INF, 0.0, INF],
        [INF, INF, 0.25, 0.0]]


def test_past_the_pass_cap_a_graph_goes_to_dijkstra(monkeypatch):
    cycle = cycle_digraph(rng_for(3), 12)
    # postorder sweeps a one-way path's rows after their successors'
    one_way = path_graph(0.5, 0.25, 1.0, 0.75)
    assert graphs._lane_rows(adjacency(cycle)) is not None
    monkeypatch.setattr(graphs, "_PASSES", 1)
    assert graphs._lane_rows(adjacency(cycle)) is None
    assert repr(distance_matrix(cycle)) == repr(dijkstra_rows(cycle))
    assert graphs._lane_rows(adjacency(one_way)) == dijkstra_rows(one_way)
    assert graphs._lane_rows(adjacency(path_digraph(rng_for(4), 5))) is None


def test_graph_gauge_caps_the_path_distance():
    g = DirectedGraph(("a", "b"), (Edge("a", "b", 1.0, 5.0),
                                   Edge("b", "a", 1.0, 3.0)))
    w = graph_gauge(g, grid=ScaleGrid((1.0, 4.0, 8.0)))
    # function-backed gauges evaluate at the raw scale, not a grid cell
    assert w.value("a", "b", 0.5) == 0.5
    assert w.value("a", "b", 4.0) == 4.0
    assert w.value("a", "b", 8.0) == 5.0
    assert w.value("b", "a", 8.0) == 3.0
    assert w.value("a", "a", 8.0) == 0.0


def test_graph_gauge_satisfies_the_additive_axioms():
    g = random_graph_gauge(rng_for(77), 5)
    assert check_axioms(g).ok


def test_graph_gauge_leaves_a_rounded_path_sum_to_the_axiom_sweep():
    # d(x, z) = (0.1 + 0.2) + 0.3 rounds one ulp above 0.1 + (0.2 + 0.3)
    g = DirectedGraph(("x", "y", "w", "z"),
                      (Edge("x", "y", 1.0, 0.1), Edge("y", "w", 1.0, 0.2),
                       Edge("w", "z", 1.0, 0.3)))
    report = check_axioms(graph_gauge(g, grid=ScaleGrid((1.0, 2.0, 4.0))))
    assert [v.witness for v in report.by_axiom("triangle")
            if v.witness[:3] == ("x", "y", "z")] == \
        [("x", "y", "z", 1.0, 1.0, 2.0), ("x", "y", "z", 1.0, 2.0, 4.0),
         ("x", "y", "z", 2.0, 1.0, 4.0), ("x", "y", "z", 2.0, 2.0, 4.0)]


def test_energies_pinned_and_direction_free():
    g = DirectedGraph(("a", "b", "c"),
                      (Edge("a", "b", 2.0, 1.0), Edge("b", "c", 0.5, 1.0)))
    f = {"a": 0.0, "b": 1.5, "c": -0.5}
    phi = edge_power(g, 2.0)
    # 2.0 * 1.5^2 + 0.5 * 2.0^2
    assert forward_energy(g, f, phi) == 6.5
    assert forward_energy(g.transpose(), f, phi) == 6.5
    with pytest.raises(ValueError, match="misses vertices"):
        forward_energy(g, {"a": 0.0, "b": 1.0}, phi)


@pytest.mark.parametrize("seed", range(10))
def test_forward_and_backward_energy_agree(seed):
    rng = rng_for(470 + seed)
    g = random_digraph(rng, rng.randrange(2, 7))
    f = {v: rng.randrange(-16, 17) / 8 for v in g.vertices}
    phi = edge_power(g, rng.choice((1.0, 1.5, 2.0, 3.0)))
    assert forward_energy(g, f, phi) == forward_energy(g.transpose(), f, phi)


@pytest.mark.parametrize("seed", range(10))
def test_energy_luxemburg_matches_the_power_closed_form(seed):
    # energy(f / lam) = E / lam^p, so the infimum with c = 1 is E^(1/p)
    rng = rng_for(500 + seed)
    g = random_digraph(rng, rng.randrange(2, 7))
    f = {v: rng.randrange(-16, 17) / 8 for v in g.vertices}
    p = rng.choice((1.0, 1.5, 2.0, 3.0))
    phi = edge_power(g, p)
    energy = forward_energy(g, f, phi)
    lam = energy_luxemburg(g, f, phi)
    if energy == 0.0:
        assert lam == 0.0
    else:
        assert abs(lam - energy ** (1.0 / p)) <= 1e-8


def test_energy_luxemburg_double_phase_pinned():
    # energy(f / lam) = 2/lam + 4/lam^2 = 1 at lam = 1 + sqrt(5)
    g = DirectedGraph(("a", "b"), (Edge("a", "b", 1.0, 1.0),))
    f = {"a": 0.0, "b": 2.0}
    phi = MusielakOrlicz.double_phase(1.0, 2.0, {0: 1.0})
    lam = energy_luxemburg(g, f, phi)
    assert abs(lam - (1.0 + math.sqrt(5.0))) <= 1e-8
    scaled = {v: f[v] / lam for v in f}
    assert forward_energy(g, scaled, phi) <= 1.0
    tighter = {v: f[v] / (0.999 * lam) for v in f}
    assert forward_energy(g, tighter, phi) > 1.0


def test_energy_luxemburg_rejects_a_function_missing_a_vertex():
    g = DirectedGraph(("a", "b"), (Edge("a", "b", 1.0, 1.0),))
    phi = edge_power(g, 2.0)
    with pytest.raises(ValueError, match=r"misses vertices \['b'\]"):
        energy_luxemburg(g, {"a": 1.0}, phi)


def test_energy_luxemburg_of_a_constant_function_is_zero():
    g = DirectedGraph(("a", "b"), (Edge("a", "b", 1.0, 1.0),))
    phi = edge_power(g, 2.0)
    assert energy_luxemburg(g, {"a": 3.0, "b": 3.0}, phi) == 0.0


def oracle_energy_at(g, f, p, q=None, a=None):
    """The map lam -> energy(f / lam) as graphs.py summed it over its own
    edge family: t^p per edge, plus a[k] t^q on edge k in double phase."""
    def phi(k, t):
        return t ** p if q is None else t ** p + a[k] * t ** q
    return lambda lam: sum(e.mu * phi(k, abs(f[e.v] / lam - f[e.u] / lam))
                           for k, e in enumerate(g.edges))


def test_energies_match_the_edge_family_oracle_on_seeded_digraphs():
    # the energy is the oracle's sum bit for bit: the same per-edge products
    # in the same order; the norm searches a gradient divided once instead
    # of each endpoint, so it may move within tol
    tol = 1e-9
    edgeless = 0
    for seed in range(1000):
        rng = rng_for(31000 + seed)
        g = random_digraph(rng, rng.randrange(1, 7), p=rng.choice((0.2, 0.5)))
        edgeless += not g.edges
        f = {v: rng.uniform(-4.0, 4.0) for v in g.vertices}
        p = rng.choice((1.0, 1.5, 2.0, 3.0))
        q = p + rng.randrange(1, 9) / 4
        a = [rng.randrange(0, 9) / 4 for _ in g.edges]
        double = MusielakOrlicz.double_phase(p, q, dict(enumerate(a)))
        for phi, oracle in ((edge_power(g, p), oracle_energy_at(g, f, p)),
                            (double, oracle_energy_at(g, f, p, q, a))):
            assert forward_energy(g, f, phi) == oracle(1.0), seed
            want = luxemburg_infimum(oracle, 1.0, tol).value
            assert abs(energy_luxemburg(g, f, phi, tol) - want) <= tol, seed
    assert edgeless >= 50


def test_energies_refuse_an_infinite_edge_mass():
    # the edge measure space takes finite masses only
    g = DirectedGraph(("a", "b"), (Edge("a", "b", INF, 1.0),))
    f = {"a": 0.0, "b": 1.0}
    for energy in (forward_energy, energy_luxemburg):
        with pytest.raises(ValueError, match="positive and finite, got inf"):
            energy(g, f, edge_power(g, 2.0))


def test_schedule_validation():
    with pytest.raises(ValueError, match="at least one time"):
        DynamicCostSchedule((), {})
    with pytest.raises(ValueError, match="strictly increasing"):
        DynamicCostSchedule((1.0, 1.0), {(1.0, 0): 1.0})
    with pytest.raises(ValueError, match="unscheduled time"):
        DynamicCostSchedule((0.0,), {(0.5, 0): 1.0})
    with pytest.raises(ValueError, match="costs must be positive"):
        DynamicCostSchedule((0.0,), {(0.0, 0): 0.0})
    # read as ints, 0.7 would overwrite the listed (0.0, 0) and True name 1
    for k in (0.7, True, -1, 1.0, "0"):
        with pytest.raises(ValueError, match=re.escape(
                f"schedule cost key (0.0, {k!r}) needs a non-negative "
                f"integer edge index")):
            DynamicCostSchedule((0.0,), {(0.0, 0): 3.0, (0.0, k): 5.0})


def test_schedule_refuses_a_nan_time():
    # a nan time passes a >= b and would make snapshot read time 0.0 at 5.0
    for times in ((0.0, math.nan), (math.nan,), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="schedule times must not be nan"):
            DynamicCostSchedule(times, {(0.0, 0): 1.0} if 0.0 in times else {})
    # a JSON NaN reaches it through the wire reader
    doc = json.loads('{"times": [0.0, NaN], "costs": {"0.0|0": 1.0}}')
    with pytest.raises(ValueError, match="schedule times must not be nan"):
        schedule_from_json(doc)


def test_schedule_reads_times_and_costs_by_the_number_rule():
    # float() would read True and "1" as the time 1.0
    with pytest.raises(ValueError, match=re.escape(
            'times must be a number or "inf", got True')):
        DynamicCostSchedule((True, 2.0), {("1", 0): 3.0, (2.0, 0): 4.0})
    with pytest.raises(ValueError, match=re.escape(
            'schedule cost time must be a number or "inf", got \'1\'')):
        DynamicCostSchedule((1.0, 2.0), {("1", 0): 3.0, (2.0, 0): 4.0})
    with pytest.raises(ValueError, match=re.escape(
            'schedule cost must be a number or "inf", got True')):
        DynamicCostSchedule((1.0,), {(1.0, 0): True})
    s = DynamicCostSchedule((1, 2.0), {(1, 0): 3, (2.0, 0): "inf"})
    assert s.times == (1.0, 2.0) and s.costs == {(1.0, 0): 3.0, (2.0, 0): INF}
    # the wire reader names the field as before
    doc = {"times": [True, 2.0], "costs": {"2.0|0": 4.0}}
    with pytest.raises(ValueError, match=re.escape(
            'times must be a number or "inf", got True')):
        schedule_from_json(doc)
    doc = {"times": [1.0, 2.0], "costs": {"true|0": 3.0}}
    with pytest.raises(ValueError, match="bad schedule key 'true|0'"):
        schedule_from_json(doc)


def test_schedule_snapshot_clamps_and_floors():
    g = DirectedGraph(("a", "b"), (Edge("a", "b", 1.0, 1.0),))
    s = DynamicCostSchedule((0.0, 1.0, 2.0),
                            {(0.0, 0): 4.0, (1.0, 0): 2.0, (2.0, 0): 8.0})
    assert s.snapshot(g, -5.0) == (0.0, (4.0,))
    assert s.snapshot(g, 0.5) == (0.0, (4.0,))
    assert s.snapshot(g, 1.0) == (1.0, (2.0,))
    assert s.snapshot(g, 1.75) == (1.0, (2.0,))
    assert s.snapshot(g, 99.0) == (2.0, (8.0,))
    # the query time is read by the number rule, and nan is its own refusal
    with pytest.raises(ValueError, match="query time must be a number or "
                                         "\"inf\", got True"):
        s.snapshot(g, True)
    with pytest.raises(ValueError, match="got '0.5'"):
        s.snapshot(g, "0.5")
    with pytest.raises(ValueError, match="query time must not be nan"):
        s.snapshot(g, math.nan)
    two_edges = DirectedGraph(("a", "b"), (Edge("a", "b", 1.0, 1.0),
                                           Edge("b", "a", 1.0, 1.0)))
    with pytest.raises(ValueError, match=r"misses edges \[1\]"):
        s.snapshot(two_edges, 0.0)


def test_dynamic_distance_tracks_the_active_snapshot():
    g = DirectedGraph(("a", "b"), (Edge("a", "b", 1.0, 1.0),))
    s = DynamicCostSchedule((0.0, 1.0, 2.0),
                            {(0.0, 0): 4.0, (1.0, 0): 2.0, (2.0, 0): 8.0})
    assert dynamic_distance(g, s, -1.0, "a", "b") == 4.0
    assert dynamic_distance(g, s, 1.5, "a", "b") == 2.0
    assert dynamic_distance(g, s, 3.0, "a", "b") == 8.0
    assert dynamic_distance(g, s, 1.5, "b", "a") == INF


def index_of(g, costs=None):
    return asymmetry_index(distance_matrix(g, costs))


def test_asymmetry_index_pinned():
    lone = DirectedGraph(("a",), ())
    assert index_of(lone) == 0.0
    one_way = DirectedGraph(("a", "b"), (Edge("a", "b", 1.0, 2.0),))
    assert index_of(one_way) == 1.0
    two_way = DirectedGraph(("a", "b"), (Edge("a", "b", 1.0, 2.0),
                                         Edge("b", "a", 1.0, 2.0)))
    assert index_of(two_way) == 0.0
    # a and b see each other symmetrically; c is reachable but cannot
    # return, so 4 of the 6 ordered pairs disagree
    tree = DirectedGraph(("a", "b", "c"),
                         (Edge("a", "b", 1.0, 1.0), Edge("b", "a", 1.0, 1.0),
                          Edge("a", "c", 1.0, 1.0)))
    assert index_of(tree) == 4 / 6
    skew = DirectedGraph(("a", "b"), (Edge("a", "b", 1.0, 4.0),
                                      Edge("b", "a", 1.0, 1.0)))
    assert index_of(skew) == 1.0
    assert index_of(skew, costs=(2.0, 2.0)) == 0.0


def test_graph_json_round_trip():
    g = DirectedGraph((1, 2), (Edge(1, 2, 2.0, 1.5),), {1: 4.0})
    doc = json.loads(json.dumps(graph_to_json(g)))
    back = graph_from_json(doc)
    assert back == g
    assert distance_matrix(back) == distance_matrix(g)


def test_graph_json_defaults_and_errors():
    doc = {"vertices": ["a", "b"], "edges": [{"from": "a", "to": "b"}]}
    g = graph_from_json(doc)
    assert g.edges == (Edge("a", "b", 1.0, 1.0),)
    assert g.measure == {"a": 1.0, "b": 1.0}
    with pytest.raises(ValueError, match="stringify uniquely"):
        graph_to_json(DirectedGraph((1, "1"), ()))
    with pytest.raises(ValueError, match="stringify uniquely"):
        graph_from_json({"vertices": [1, "1"], "edges": []})
    with pytest.raises(ValueError, match="measure for unknown vertex"):
        graph_from_json({"vertices": ["a"], "edges": [],
                         "measure": {"z": 1.0}})


def test_schedule_json_round_trip():
    s = DynamicCostSchedule((0.0, 1.5), {(0.0, 0): 4.0, (1.5, 0): 2.0})
    doc = json.loads(json.dumps(schedule_to_json(s)))
    assert doc["costs"] == {"0.0|0": 4.0, "1.5|0": 2.0}
    assert schedule_from_json(doc) == s
    with pytest.raises(ValueError, match=r"expected 'time\|edge'"):
        schedule_from_json({"times": [0.0], "costs": {"0.0": 1.0}})

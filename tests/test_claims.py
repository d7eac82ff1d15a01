"""Each command's claim, checked from its definition on asymmetric inputs.

A claim test takes a command's report and checks what the report asserts
against the input alone, by the definition, without rebuilding the
program's construction.

`graph`: its forward map is the path quasi-metric.  The shortest-path
certificate checks that from the input's edges: every finite d(x, y) is
the sum of a path from x to y, no edge (u, v) has d(x, u) + c < d(x, v),
and d(x, y) is +inf exactly when no path leads from x to y.  On costs of
one dyadic lattice every sum is exact, so the certificate is decided in
`fractions.Fraction`; on the README's 0.1 / 0.2 / 0.3 graph it is decided
in floats, where a path's sum is its left fold.
"""

from fractions import Fraction

from quasimod import INF, DirectedGraph, Edge

from conftest import (STRUCTURED_DIGRAPHS, random_digraph,
                      random_strongly_connected_graph, rng_for, run, to_doc)


def graph_corpus():
    """Asymmetric graphs on the 1/16 lattice: conftest digraphs, strongly
    connected or not, the structured shapes, and the transpose of each."""
    for seed in range(30):
        rng = rng_for(53000 + seed)
        n = rng.randrange(1, 10)
        yield random_digraph(rng, n, p=rng.choice((0.2, 0.45)))
        yield random_strongly_connected_graph(rng, n)
    for make in STRUCTURED_DIGRAPHS.values():
        for n in (2, 7, 24):
            yield make(rng_for(53100 + n), n)


def certificate_failures(g, rows, number):
    """(x, y, reason) for each entry of rows the certificate refuses, with
    each cost and finite distance read by `number`."""
    at = {v: i for i, v in enumerate(g.vertices)}
    edges = [(at[e.u], at[e.v], number(e.cost)) for e in g.edges]
    bad = []
    for x, row in enumerate(rows):
        d = [v if v == INF else number(v) for v in row]
        # the tight edges from x, those with d(x, u) + c == d(x, v), reach
        # y only along a path whose sum is d(x, y); the empty path sums to 0
        summed, reach = ({x} if d[x] == 0 else set()), {x}
        grew = True
        while grew:
            grew = False
            for u, v, c in edges:
                if u in reach and v not in reach:
                    reach.add(v)
                    grew = True
                if u in summed and v not in summed and d[u] + c == d[v]:
                    summed.add(v)
                    grew = True
        bad += [(x, v, "relaxed") for u, v, c in edges if d[u] + c < d[v]]
        for y, v in enumerate(d):
            if (v == INF) != (y not in reach):
                bad.append((x, y, "+inf but reachable, or finite but not"))
            elif v != INF and y not in summed:
                bad.append((x, y, "no path sums to it"))
    return bad


def forward_rows(g, tmp_path):
    code, report = run(tmp_path, "graph", to_doc(g))
    assert code == 0
    vertices = g.vertices
    rows = [[report["forward"][f"{x}|{y}"] for y in vertices]
            for x in vertices]
    return [[INF if v == "inf" else v for v in row] for row in rows], \
        report["asymmetry_index"]


def test_graph_distances_carry_a_shortest_path_certificate(tmp_path):
    asymmetric = 0
    for g in graph_corpus():
        for h in (g, g.transpose()):
            rows, index = forward_rows(h, tmp_path)
            assert certificate_failures(h, rows, Fraction) == [], h
            asymmetric += index > 0
    assert asymmetric >= 120
    # the README's graph, whose path sums round
    readme = DirectedGraph(("x", "y", "w", "z"), (
        Edge("x", "y", 1.0, 0.1), Edge("y", "w", 1.0, 0.2),
        Edge("w", "z", 1.0, 0.3)))
    rows, _ = forward_rows(readme, tmp_path)
    assert repr(rows[0][3]) == "0.6000000000000001"
    assert certificate_failures(readme, rows, float) == []

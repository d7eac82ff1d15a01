"""Differential test: the graph command against the pipeline it replaced.

The oracle builds the report the way the command did when the all-pairs
distances were a dict with one tuple key per ordered pair: two per-pair
comprehensions for the forward and backward maps, a per-pair asymmetry
scan, and, with --grid, `make_min_cap` (which re-validates the triangle)
before `check_axioms`.  Its text is json.dumps(..., sort_keys=True,
indent=2), the README's contract, not the command's own writer.  Costs are
dyadic, so every path sum is exact and `make_min_cap` never raises.  A
document whose vertex names hold "|" must exit 2 instead: two of its pairs
could write one "x|y" key.
"""

import csv
import heapq
import io
import json

import pytest

from quasimod import (INF, ScaleGrid, check_axioms,
                      format_ext, graph_from_json, graph_gauge, make_min_cap)
from quasimod.cli import main

from conftest import (random_digraph, random_strongly_connected_graph,
                      rng_for)

# ---------------------------------------------------------------------------
# the oracle: the replaced pipeline, verbatim


def _oracle_dijkstra(g, src, costs):
    dist = [INF] * len(g.vertices)
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, k in g._fwd[u]:
            nd = d + costs[k]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def oracle_distance_matrix(g):
    costs = tuple(e.cost for e in g.edges)
    out = {}
    for i, x in enumerate(g.vertices):
        row = _oracle_dijkstra(g, i, costs)
        for j, y in enumerate(g.vertices):
            out[(x, y)] = row[j]
    return out


def oracle_asymmetry_index(d, points):
    pairs = [(x, y) for x in points for y in points if x != y]
    if not pairs:
        return 0.0
    return sum(1 for x, y in pairs if d[(x, y)] != d[(y, x)]) / len(pairs)


def axiom_report_dict(report):
    """An axiom report's dict, each violation written out field by field."""
    return {"checked": list(report.checked),
            "violations": [{"axiom": v.axiom, "witness": list(v.witness),
                            "lhs": format_ext(v.lhs), "rhs": format_ext(v.rhs)}
                           for v in report.violations],
            "notes": list(report.notes)}


def oracle_graph(doc, grid, csv_out):
    """(report bytes, exit code) of `quasimod graph` before the row lists."""
    g = graph_from_json(doc)
    fwd = oracle_distance_matrix(g)
    report = {"command": "graph",
              "forward": {f"{x}|{y}": format_ext(fwd[(x, y)])
                          for x in g.vertices for y in g.vertices},
              "backward": {f"{x}|{y}": format_ext(fwd[(y, x)])
                           for x in g.vertices for y in g.vertices},
              "asymmetry_index": oracle_asymmetry_index(fwd, g.vertices)}
    ok = True
    if grid is not None:
        axioms = check_axioms(make_min_cap(
            fwd, g.vertices, ScaleGrid(tuple(grid)), name="graph_gauge"))
        report["axioms"] = axiom_report_dict(axioms)
        ok = axioms.ok
    if csv_out:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([""] + [str(p) for p in g.vertices])
        for x in g.vertices:
            writer.writerow([str(x)] + [format_ext(fwd[(x, y)])
                                        for y in g.vertices])
        text = buf.getvalue()
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return text.encode("utf-8"), 0 if ok else 1


# ---------------------------------------------------------------------------
# corpora: graph documents with dyadic costs


def to_doc(g):
    return {"vertices": list(g.vertices),
            "edges": [{"from": e.u, "to": e.v, "mu": e.mu, "cost": e.cost}
                      for e in g.edges]}


def relabel(doc, names):
    """The same graph with vertex i renamed names[i]."""
    new = dict(zip(doc["vertices"], names))
    return {"vertices": list(names),
            "edges": [dict(e, **{"from": new[e["from"]], "to": new[e["to"]]})
                      for e in doc["edges"]]}


def with_zero_costs(rng, doc):
    """Every third edge, on average, made free."""
    return dict(doc, edges=[dict(e, cost=0.0) if rng.random() < 1 / 3 else e
                            for e in doc["edges"]])


def strongly_connected(rng):
    return to_doc(random_strongly_connected_graph(rng, rng.randrange(2, 8)))


def two_way(rng):
    """Each edge also reversed at the same cost: symmetric distances."""
    doc = strongly_connected(rng)
    back = [dict(e, **{"from": e["to"], "to": e["from"]})
            for e in doc["edges"]]
    return dict(doc, edges=doc["edges"] + back)


def unreachable(rng):
    return to_doc(random_digraph(rng, rng.randrange(2, 8), p=0.25))


def zero_costs(rng):
    return with_zero_costs(rng, to_doc(random_digraph(rng,
                                                      rng.randrange(2, 8))))


def single_vertex(rng):
    return {"vertices": [rng.choice(["a", 0, "v|w"])], "edges": []}


def int_ids(rng):
    doc = strongly_connected(rng)
    ids = rng.sample(range(-50, 50), len(doc["vertices"]))
    return relabel(doc, ids)


def shared_keys(rng):
    # ("a|b", "c") and ("a", "b|c") both would write the key "a|b|c"
    doc = to_doc(random_digraph(rng, 5, p=0.5))
    return relabel(doc, ["a|b", "c", "a", "b|c", "|"])


CORPORA = {"strongly_connected": strongly_connected,
           "unreachable": unreachable, "zero_costs": zero_costs,
           "single_vertex": single_vertex, "int_ids": int_ids,
           "shared_keys": shared_keys, "two_way": two_way}


def finite_distances(doc):
    d = oracle_distance_matrix(graph_from_json(doc))
    return [v for v in d.values() if 0.0 < v < INF]


def grid_above(doc):
    top = max(finite_distances(doc), default=1.0)
    return [2 * top, 4 * top, 8 * top]


def grid_below(doc):
    low = min(finite_distances(doc), default=1.0)
    return [low / 8, low / 4, low / 2]


def grid_between(doc):
    d = sorted(set(finite_distances(doc))) or [1.0]
    return sorted({d[0], d[len(d) // 2], 2 * d[-1]})


GRIDS = {"none": None, "above": grid_above, "below": grid_below,
         "between": grid_between}


def run_command(tmp_path, doc, grid, suffix):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / f"out{suffix}"
    argv = ["graph", "--input", str(src), "--output", str(out)]
    if grid is not None:
        argv += ["--grid", ",".join(map(repr, grid))]
    code = main(argv)
    return (out.read_bytes() if out.exists() else None), code


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("grid_kind", sorted(GRIDS))
@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_graph_report_matches_the_dict_pipeline(tmp_path, capsys, corpus,
                                                grid_kind, seed):
    rng = rng_for(900 + seed)
    doc = CORPORA[corpus](rng)
    # shared_keys, and single_vertex's "v|w": a name holding "|", which the
    # "x|y" keys reserve, is refused rather than a pair's distance lost
    if any("|" in str(v) for v in doc["vertices"]):
        grid = None if grid_kind == "none" else [1.0, 2.0]
        for suffix in (".json", ".csv"):
            assert run_command(tmp_path, doc, grid, suffix) == (None, 2)
        assert capsys.readouterr().err == 2 * (
            "quasimod: error: bad graph document: vertex ids must "
            "stringify uniquely and avoid '|'\n")
        return
    grid = GRIDS[grid_kind] and GRIDS[grid_kind](doc)
    for suffix in (".json", ".csv"):
        expected = oracle_graph(doc, grid, suffix == ".csv")
        assert run_command(tmp_path, doc, grid, suffix) == expected


# Benchmark-size graphs: names such as v1, v10 and v2 stop sorting in
# vertex order, and every map has up to 8,100 keys.  An unreachable
# 90-vertex graph is not run with --grid: min(inf, t) breaks the triangle
# so often that its report holds over 100 MB of witnesses.
BIG = {"strongly_connected": lambda rng, n: to_doc(
           random_strongly_connected_graph(rng, n)),
       "unreachable": lambda rng, n: to_doc(
           random_digraph(rng, n, p=2.5 / n))}
BIG_CASES = [(corpus, n, grid_kind) for corpus in sorted(BIG)
             for n in (12, 40, 90) for grid_kind in ("none", "above")
             if (corpus, n, grid_kind) != ("unreachable", 90, "above")]


@pytest.mark.parametrize("corpus, n, grid_kind", BIG_CASES)
def test_benchmark_size_graph_reports_match_the_dict_pipeline(
        tmp_path, corpus, n, grid_kind):
    doc = BIG[corpus](rng_for(960 + n), n)
    grid = GRIDS[grid_kind] and GRIDS[grid_kind](doc)
    for suffix in (".json", ".csv"):
        expected = oracle_graph(doc, grid, suffix == ".csv")
        assert run_command(tmp_path, doc, grid, suffix) == expected


def test_shared_keys_corpus_really_shares_a_key():
    doc = shared_keys(rng_for(900))
    keys = [f"{x}|{y}" for x in doc["vertices"] for y in doc["vertices"]]
    assert len(set(keys)) < len(keys)
    with pytest.raises(ValueError, match="avoid '[|]'"):
        graph_from_json(doc)


@pytest.mark.parametrize("seed", range(6))
def test_graph_gauge_matches_make_min_cap_on_the_dict(seed):
    rng = rng_for(950 + seed)
    doc = zero_costs(rng) if seed % 2 else strongly_connected(rng)
    g = graph_from_json(doc)
    grid = ScaleGrid(tuple(grid_between(doc)))
    new = graph_gauge(g, grid=grid)
    old = make_min_cap(oracle_distance_matrix(g), g.vertices, grid,
                       name="graph_gauge")
    assert new.claims_symmetric == old.claims_symmetric
    for t in (*grid, grid[0] / 3, 2 * grid[-1]):
        assert new.matrix(t) == old.matrix(t)
    assert check_axioms(new) == check_axioms(old)


def test_stdout_report_matches_the_dict_pipeline(tmp_path, capsys):
    doc = unreachable(rng_for(990))
    src = tmp_path / "in.json"
    src.write_text(json.dumps(doc), encoding="utf-8")
    grid = grid_below(doc)
    code = main(["graph", "--input", str(src),
                 "--grid", ",".join(map(repr, grid))])
    captured = capsys.readouterr()
    assert (captured.out.encode("utf-8"), code) == \
        oracle_graph(doc, grid, False)
    assert captured.err == ""

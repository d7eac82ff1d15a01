"""Metamorphic identities of the quasi-uniformity.

Each test compares the code with itself under a transformation whose
effect the paper fixes, so no copy of an older implementation is needed:

- swapping the gauge's arguments (`opposite`) turns every forward
  entourage, ball, net and convergence test into the backward one, keeps
  the two-sided entourage and swaps the sides of the small-composite
  witnesses;
- composition reverses under transposition: (R o S)^T = S^T o R^T;
- the opposite gauge's axiom witnesses are the gauge's, each pair swapped
  and each triangle (x, y, z) at split (t, s) read as (z, y, x) at (s, t);
- the opposite gauge's Luxemburg distance d(x, y) is the gauge's d(y, x);
- a table read on its grid scaled by 2^k, exactly in floats, keeps every
  axiom violation, Heine-Borel row and smallest open set, with each
  witness and row scale multiplied by 2^k;
- `graph` on the transposed graph swaps the forward and backward maps and
  keeps the asymmetry index;
- renaming every point in an order-preserving way, here by a common
  prefix, renames the keys of every `graph` and `luxemburg` report and
  changes nothing else, key order included; renaming every id so renames
  the `check-axioms`, `topology`, `cover`, `orlicz` and `envelope` reports
  and changes nothing else, byte for byte;
- symmetrizing the gauge first leaves the symmetrized topology alone: the
  forward, backward, join and symmetrized topologies of `symmetrize(g)` are
  all the symmetrized topology of g;
- the Luxemburg distance of `symmetrize(g)` and `symmetrized_luxemburg(g)`,
  the larger of the two one-sided distances, both equal the infimum read
  from the gauge's dyadic profile exactly: a scaled metric is a table, and
  so is its symmetrization.
"""

import json
from collections import Counter

import pytest

from quasimod import (NonmonotoneGaugeError, Regime, ScaleGrid, ball,
                      check_axioms, compose, converges_to,
                      critical_thresholds, distance_matrix, entourage,
                      format_ext, gauge_to_json, graph_from_json,
                      graph_to_json, greedy_net, heine_borel_report,
                      luxemburg_distance, opposite, small_composite_check,
                      symmetrize, symmetrized_luxemburg, verify_join_equality)
from conftest import (ADDITIVE_BUILDERS, BIG, CONORMS, GAUGES,
                      corrupt_one_entry, main, points_named,
                      random_conorm_gauge, random_digraph,
                      random_measure_space, random_orlicz_family,
                      random_quasi_pseudometric, random_raw_table,
                      random_strongly_connected_graph, random_total_function,
                      relabel, rng_for, run, scaled_metric_gauges, transpose)
from reference import luxemburg_infimum as exact_infimum


def gauges(seed):
    """One gauge of every additive builder and every conorm, with a
    corrupted copy of each conorm gauge whose composite can break."""
    rng = rng_for(1400 + seed)
    for build in ADDITIVE_BUILDERS:
        yield build(rng, rng.randrange(2, 6))
    for conorm in CONORMS:
        g = random_conorm_gauge(rng, rng.randrange(2, 6), conorm)
        yield g
        try:
            yield corrupt_one_entry(g, rng)[0]
        except ValueError:  # a composite too close to 1 to corrupt
            pass


@pytest.mark.parametrize("seed", range(8))
def test_the_opposite_gauge_swaps_forward_and_backward(seed):
    for g in gauges(seed):
        opp, points = opposite(g), g.points
        seq = points[::-1]
        for r, t in critical_thresholds(g).pairs():
            assert entourage(opp, r, t, "forward") == \
                entourage(g, r, t, "backward"), (g.name, r, t)
            assert entourage(opp, r, t, "backward") == \
                entourage(g, r, t, "forward"), (g.name, r, t)
            assert entourage(opp, r, t, "two_sided") == \
                entourage(g, r, t, "two_sided"), (g.name, r, t)
            for x in points:
                assert ball(opp, x, r, t, "forward") == \
                    ball(g, x, r, t, "backward"), (g.name, x, r, t)
                assert converges_to(seq, opp, x, r, t, "forward") == \
                    converges_to(seq, g, x, r, t, "backward"), \
                    (g.name, x, r, t)
            net = greedy_net(points, opp, r, t, "forward")
            want = greedy_net(points, g, r, t, "backward")
            assert (net.centers, net.verified) == \
                (want.centers, want.verified), (g.name, r, t)


def test_the_opposite_gauge_swaps_the_small_composite_witnesses():
    swap = {"forward": "backward", "backward": "forward"}
    found = 0
    for seed in range(8):
        for g in gauges(seed):
            if g.regime is not Regime.CONORM:
                continue
            mine = small_composite_check(g)
            theirs = small_composite_check(opposite(g))
            assert theirs.notes == mine.notes
            for side in swap:
                assert [v for v in theirs.violations if v.witness[0] == side] \
                    == [v._replace(witness=(side, *v.witness[1:]))
                        for v in mine.violations
                        if v.witness[0] == swap[side]], g.name
            found += len(mine.violations)
    assert found > 0


def opposite_witness(axiom, witness):
    """The witness an axiom violation of g has as one of opposite(g)."""
    if axiom == "zero-self":
        return witness
    if axiom == "triangle":
        x, y, z, t, s, u = witness
        return (z, y, x, s, t, u)
    return (witness[1], witness[0], *witness[2:])


def axiom_gauges(seed):
    """`gauges`, corrupted copies of the additive ones, and tables under no
    axiom in both regimes, whose triangles break at unequal splits."""
    yield from gauges(seed)
    rng = rng_for(1600 + seed)
    for build in ADDITIVE_BUILDERS:
        yield corrupt_one_entry(build(rng, rng.randrange(2, 6)), rng,
                                bump=8.0)[0]
    for conorm in (None, *CONORMS):
        yield random_raw_table(rng, rng.randrange(2, 6), conorm)


@pytest.mark.parametrize("seed", range(8))
def test_the_opposite_gauge_reverses_every_axiom_witness(seed):
    found = Counter()
    for g in axiom_gauges(seed):
        mine, theirs = check_axioms(g), check_axioms(opposite(g))
        assert (theirs.checked, theirs.notes) == (mine.checked, mine.notes)
        assert Counter((v.axiom, v.witness, v.lhs, v.rhs)
                       for v in theirs.violations) == \
            Counter((v.axiom, opposite_witness(v.axiom, v.witness), v.lhs,
                     v.rhs) for v in mine.violations), g.name
        # and each report lists its triangles in x, z, y, split order
        pos = {**{p: k for k, p in enumerate(g.points)},
               **{t: k for k, t in enumerate(g.grid)}}
        for report in (mine, theirs):
            keys = [tuple(pos[w[k]] for k in (0, 2, 1, 3, 4))
                    for w in (v.witness for v in report.by_axiom("triangle"))]
            assert keys == sorted(keys), g.name
        found.update(v.axiom for v in mine.violations)
    assert set(found) == {"zero-self", "separation", "bounded", "triangle",
                          "scale-monotone"}
    assert found["triangle"] > 1


# how many points each axiom's witness names before its scales
WITNESS_POINTS = {"zero-self": 1, "separation": 2, "bounded": 2,
                  "scale-monotone": 2, "triangle": 3}


def with_scaled_witness(v, f):
    """Violation v with each scale of its witness multiplied by f."""
    n = WITNESS_POINTS[v.axiom]
    return v._replace(witness=(*v.witness[:n], *(f * t for t in v.witness[n:])))


def on_scaled_grid(g, k):
    """g's table on its grid with every scale multiplied by 2^k."""
    tab = g.tabulated()
    return tab._replace(grid=ScaleGrid(tuple(t * 2.0 ** k for t in tab.grid)))


def topology_hoods(g):
    """The smallest open sets of the forward, backward and symmetrized ball
    topologies."""
    report = verify_join_equality(g)
    return report.tau_plus.hoods, report.tau_minus.hoods, report.tau_sym.hoods


@pytest.mark.parametrize("seed", range(8))
def test_scaling_the_grid_scales_only_the_witness_scales(seed):
    found = Counter()
    for g in (*axiom_gauges(seed), *scaled_metric_gauges(seed)):
        mine, rows = check_axioms(g), heine_borel_report(g).rows
        hoods = topology_hoods(g)
        for k in (-3, -1, 2, 5):
            f, scaled = 2.0 ** k, on_scaled_grid(g, k)
            theirs = check_axioms(scaled)
            assert (theirs.checked, theirs.notes) == (mine.checked, mine.notes)
            assert theirs.violations == tuple(
                with_scaled_witness(v, f) for v in mine.violations), (g.name, k)
            assert heine_borel_report(scaled).rows == tuple(
                row._replace(scale_t=f * row.scale_t) for row in rows), \
                (g.name, k)
            assert topology_hoods(scaled) == hoods, (g.name, k)
        found.update(v.axiom for v in mine.violations)
        found["heine-borel rows"] += len(rows)
    assert set(found) == {*WITNESS_POINTS, "heine-borel rows"}, found


@pytest.mark.parametrize("seed", range(8))
def test_composition_reverses_under_transposition(seed):
    for g in gauges(seed):
        pairs = critical_thresholds(g).pairs()
        rows = [entourage(g, r, t, side) for r, t in pairs[::3]
                for side in ("forward", "backward")]
        for a, b in zip(rows, rows[1:] + rows[:1]):
            assert transpose(compose(a, b)) == \
                compose(transpose(b), transpose(a)), g.name


def luxemburg_outcome(g, x, y):
    try:
        return luxemburg_distance(g, x, y)
    except NonmonotoneGaugeError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(4))
def test_the_opposite_gauge_reverses_luxemburg_distances(seed):
    rng = rng_for(1500 + seed)
    for build in ADDITIVE_BUILDERS:
        g = build(rng, rng.randrange(2, 6)).tabulated()
        opp = opposite(g)
        for x in g.points:
            for y in g.points:
                # the same probes on the same values: equal bit for bit
                assert luxemburg_outcome(opp, x, y) == \
                    luxemburg_outcome(g, y, x), (g.name, x, y)


@pytest.mark.parametrize("seed", range(6))
def test_the_transposed_graph_swaps_forward_and_backward(tmp_path, seed):
    rng = rng_for(1600 + seed)
    n = rng.randrange(2, 9)
    g = random_digraph(rng, n) if seed % 2 else \
        random_strongly_connected_graph(rng, n)
    doc = graph_to_json(g)
    flipped = dict(doc, edges=[dict(e, **{"from": e["to"], "to": e["from"]})
                               for e in doc["edges"]])
    code, mine = run(tmp_path, "graph", doc)
    code_t, theirs = run(tmp_path, "graph", flipped)
    assert code == code_t == 0
    assert mine["forward"] != mine["backward"]  # the identity has teeth
    assert theirs["forward"] == mine["backward"]
    assert theirs["backward"] == mine["forward"]
    assert theirs["asymmetry_index"] == mine["asymmetry_index"]


def path_gauge_doc(graph_doc):
    """w(x, y, t) = d(x, y) / t for the graph's path distances d, tabulated
    on dyadic scales: +inf where y is unreachable from x."""
    g = graph_from_json(graph_doc)
    grid = [1.0, 2.0, 4.0, 8.0]
    return {"regime": "additive", "points": list(g.vertices), "grid": grid,
            "table": {f"{x}|{y}": [format_ext(d / t) for t in grid]
                      for x, row in zip(g.vertices, distance_matrix(g))
                      for y, d in zip(g.vertices, row)}}


# the seeded benchmark-size graphs of conftest, whose names v1,
# v10, v2 sort differently as rows ("v10|" < "v1|") and as columns
@pytest.mark.parametrize("corpus, n", [(corpus, n) for corpus in sorted(BIG)
                                       for n in (12, 40, 90)])
def test_renaming_points_in_order_renames_graph_and_luxemburg_keys(
        tmp_path, corpus, n):
    doc = BIG[corpus](rng_for(960 + n), n)
    renamed = relabel(doc, [f"p{v}" for v in doc["vertices"]])
    for command, maps, build in (
            ("graph", ("forward", "backward"), dict),
            ("luxemburg", ("distances", "symmetrized"), path_gauge_doc)):
        code, mine = run(tmp_path, command, build(doc))
        code_r, theirs = run(tmp_path, command, build(renamed))
        assert code == code_r == 0
        # unreachable pairs, where the corpus has them
        assert ("inf" in mine[maps[0]].values()) == (corpus == "unreachable")
        for key in maps:
            assert list(theirs[key].items()) == \
                [("p" + k.replace("|", "|p"), v) for k, v in mine[key].items()]
            del mine[key], theirs[key]
        assert theirs == mine, command


def renamed(text: str, new: dict) -> str:
    """JSON text with each id of `new` renamed wherever it stands: as a
    string, either side of an "x|y" key, or as its repr inside a string,
    where a cover's escape witness names its points."""
    for old, name in new.items():
        for form in ('"{}"', '"{}|', '|{}"', "'{}'"):
            text = text.replace(form.format(old), form.format(name))
    return text


def renaming_documents(command):
    """(document, its ids) on the dyadic corpora: every gauge of conftest's
    `GAUGES` whose points are strings, and seeded `orlicz` and `envelope`
    documents with +inf distances."""
    if command in ("check-axioms", "topology", "cover"):
        for name in sorted(GAUGES):
            for g in GAUGES[name]():
                if all(isinstance(p, str) for p in g.points):
                    doc = gauge_to_json(g)
                    yield ({"space": doc, "sequence": list(g.points[::-1])
                            + list(g.points)} if command == "cover" else doc,
                           g.points)
        return
    for seed in range(6):
        rng = rng_for(2000 + seed)
        if command == "orlicz":
            space = random_measure_space(rng, rng.randrange(1, 5))
            functions = {f"f{i}": random_total_function(rng, space)
                         for i in range(rng.randrange(1, 4))}
            yield ({"space": space.to_json(), "functions": functions,
                    "phi": random_orlicz_family(rng, space).to_json(),
                    "psi1": random_orlicz_family(rng, space).to_json(),
                    "psi2": random_orlicz_family(rng, space).to_json()},
                   space.points + tuple(functions))
        else:
            points = points_named(rng.randrange(1, 6))
            d = random_quasi_pseudometric(rng, points, holes=0.3)
            if seed % 2:  # a zero-self violation: the check's exit 1
                d[points[0], points[0]] = 0.5
            yield ({"points": list(points),
                    "distance": {f"{x}|{y}": format_ext(v)
                                 for (x, y), v in d.items()},
                    "domain": list(points[::2]),
                    "values": {x: rng.randrange(-16, 17) / 8
                               for x in points[::2]},
                    "lipschitz": rng.randrange(0, 9) / 4}, points)


@pytest.mark.parametrize("command", ["check-axioms", "topology", "cover",
                                     "orlicz", "envelope"])
def test_renaming_points_in_order_renames_every_other_report(tmp_path,
                                                             command):
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    texts = []
    for doc, ids in renaming_documents(command):
        new = {i: f"r{i}" for i in ids}
        for text in (json.dumps(doc), renamed(json.dumps(doc), new)):
            src.write_text(text, encoding="utf-8")
            code = main([command, "--input", str(src), "--output", str(out)])
            texts.append((code, out.read_text(encoding="utf-8")))
        (code, mine), (code_r, theirs) = texts[-2:]
        assert code == code_r
        assert theirs == renamed(mine, new)
    assert len(texts) >= 12
    # both verdicts are reached, but for orlicz, whose unit-ball checks
    # hold on these documents
    assert {code for code, _ in texts} == ({0} if command == "orlicz"
                                           else {0, 1})


def test_the_symmetrized_gauge_has_one_topology_the_symmetrized_one():
    cases = asymmetric = 0
    for seed in range(40):
        rng = rng_for(1700 + seed)
        corpus = [build(rng, rng.randrange(2, 7))
                  for build in ADDITIVE_BUILDERS]
        corpus += [random_conorm_gauge(rng, rng.randrange(2, 7), conorm)
                   for conorm in CONORMS]
        for g in corpus:
            mine = verify_join_equality(g)
            theirs = verify_join_equality(symmetrize(g))
            for tau in (theirs.tau_plus, theirs.tau_minus, theirs.join,
                        theirs.tau_sym):
                assert tau.hoods == mine.tau_sym.hoods, (seed, g.name)
            cases += 1
            asymmetric += mine.tau_plus.hoods != mine.tau_minus.hoods
    assert cases == 280
    assert asymmetric > 20  # the identity has teeth


def test_the_symmetrized_gauge_has_the_symmetrized_luxemburg_distance():
    pairs = asymmetric = 0
    for seed in range(20):
        for g in scaled_metric_gauges(seed):
            sym, table = symmetrize(g), g.tabulated()
            for x in g.points:
                for y in g.points:
                    one, other = exact_infimum(g, x, y), exact_infimum(g, y, x)
                    exact = max(one, other)
                    got = (luxemburg_distance(sym, x, y).value,
                           symmetrized_luxemburg(g, x, y),
                           luxemburg_distance(symmetrize(table), x, y).value)
                    case = (seed, g.name, x, y, exact, got)
                    # step data is a table, so every row is read exactly
                    assert got == (exact,) * 3, case
                    assert luxemburg_distance(sym, x, y).iterations == 0, case
                    assert luxemburg_distance(table, x, y).value == one, case
                    assert symmetrized_luxemburg(table, x, y) == exact, case
                    pairs += 1
                    asymmetric += one != other
    assert pairs > 400 and asymmetric > 100  # the identity has teeth

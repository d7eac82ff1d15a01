"""End-to-end acceptance gate.

Each test audits one advertised guarantee of the package over a randomized
corpus, prints a single PASS/FAIL line, and fails with the first recorded
counterexample.  Tolerances are stated inline; checks without a tolerance
are exact float comparisons, which the dyadic-valued corpora make sound.
"""

import math
import time

from quasimod import (
    INF,
    DiscreteMeasureSpace,
    GaugeSpec,
    MusielakOrlicz,
    OneSidedPair,
    PartialFunction,
    Profile,
    Regime,
    ScaleGrid,
    TConorm,
    TruncatedSequenceFamily,
    CellInclusionError,
    check_axioms,
    energy_luxemburg,
    enriched_triangle_check,
    forward_distance,
    forward_energy,
    greedy_net,
    lower_envelope,
    lp_family_net,
    lp_tail_criterion,
    luxemburg_distance,
    luxemburg_norm,
    make_ratio,
    modular,
    profile_convolve,
    quasi_metric_from_gauges,
    small_composite_check,
    two_sided_cover_from_onesided,
    unit_ball_check,
    upper_envelope,
    verify_join_equality,
)

from conftest import (
    ADDITIVE_BUILDERS,
    brute_force_distance,
    convolve_oracle,
    corrupt_one_entry,
    edge_power,
    points_named,
    random_conorm_gauge,
    random_digraph,
    random_measure_space,
    random_metric_table,
    random_orlicz_family,
    random_quasi_pseudometric,
    random_total_function,
    rng_for,
)

CONORMS = (TConorm.MAX, TConorm.PROBABILISTIC_SUM, TConorm.BOUNDED_SUM)

_CORPUS = None


def conorm_corpus():
    """300 conorm-regime gauges, 100 per conorm, 3 to 6 points each."""
    global _CORPUS
    if _CORPUS is None:
        out = []
        for ci, conorm in enumerate(CONORMS):
            for seed in range(100):
                rng = rng_for(7000 + 1000 * ci + seed)
                out.append(random_conorm_gauge(rng, rng.randrange(3, 7),
                                               conorm))
        _CORPUS = tuple(out)
    return _CORPUS


def _report(capsys, num, name, failures, extra=""):
    ok = not failures
    detail = failures[0] if failures else extra
    with capsys.disabled():
        line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        print(line)
    assert ok, f"{name}: {len(failures)} failures, first: {failures[0]}"


def test_01_constructor_axiom_audit_and_corruption_witnesses(capsys):
    """Every example constructor passes the axiom checker on 120 seeded
    instances, and a single corrupted table entry is reported with the
    exact planted triangle witness in 50 of 50 trials, all under 10 s."""
    t0 = time.perf_counter()
    failures = []
    clean = 0
    for b, builder in enumerate(ADDITIVE_BUILDERS):
        for seed in range(30):
            rng = rng_for(1000 * (b + 1) + seed)
            g = builder(rng, rng.randrange(3, 9))
            rep = check_axioms(g)
            if rep.ok:
                clean += 1
            else:
                v = rep.violations[0]
                failures.append(f"{g.name} seed {seed}: {v.axiom} at "
                                f"{v.witness}")
    caught = 0
    for k in range(50):
        rng = rng_for(5000 + k)
        g = ADDITIVE_BUILDERS[k % 4](rng, rng.randrange(3, 6))
        bad, witness = corrupt_one_entry(g, rng)
        rep = check_axioms(bad)
        if witness in [v.witness for v in rep.by_axiom("triangle")]:
            caught += 1
        else:
            failures.append(f"trial {k}: planted witness {witness} missing")
    elapsed = time.perf_counter() - t0
    if not elapsed < 10.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds the 10s budget")
    _report(capsys, 1, "constructor-axioms-and-corruption", failures,
            f"{clean}/120 clean, {caught}/50 corruptions pinned, "
            f"{elapsed:.2f}s")


def test_02_forward_backward_join_matches_symmetrized_topology(capsys):
    """On all 300 corpus gauges the join of the forward and backward ball
    topologies equals the topology of the symmetrized gauge, as exact set
    equality, under 30 s including corpus generation."""
    t0 = time.perf_counter()
    failures = []
    for g in conorm_corpus():
        rep = verify_join_equality(g)
        if not rep.equal:
            failures.append(f"{g.name} on {len(g.points)} points: join has "
                            f"{len(rep.join.opens)} opens, symmetrized has "
                            f"{len(rep.tau_sym.opens)}")
    elapsed = time.perf_counter() - t0
    if not elapsed < 30.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds the 30s budget")
    _report(capsys, 2, "join-topology-equality", failures,
            f"300 gauges, {elapsed:.2f}s")


def test_03_shrunk_entourages_compose_inside(capsys):
    """At every critical threshold of every corpus gauge, the half-radius
    entourage composed with itself stays inside the full one, exactly."""
    failures = []
    for g in conorm_corpus():
        rep = small_composite_check(g)
        if not rep.ok:
            v = rep.violations[0]
            failures.append(f"{g.name}: pair escapes at {v.witness}")
    _report(capsys, 3, "small-composite-inclusion", failures, "300 gauges")


def test_04_two_sided_covers_from_one_sided_nets(capsys):
    """Verified forward and backward nets at (s, t/2) with s (+) s < r always
    intersect into a verified two-sided (r, t) cover: every nonempty cell
    lands inside its representative's two-sided ball, exactly."""
    failures = []
    r, t = 0.5, 2.0
    plan = [(TConorm.MAX, 34), (TConorm.PROBABILISTIC_SUM, 33),
            (TConorm.BOUNDED_SUM, 33)]
    idx = 0
    for conorm, count in plan:
        for _ in range(count):
            rng = rng_for(8000 + idx)
            idx += 1
            g = random_conorm_gauge(rng, rng.randrange(2, 7), conorm,
                                    symmetric=True)
            s = g.conorm.half_radius(r)
            fwd = greedy_net(g.points, g, s, t / 2, "forward")
            bwd = greedy_net(g.points, g, s, t / 2, "backward")
            if not (fwd.verified and bwd.verified):
                failures.append(f"{g.name} #{idx}: one-sided net unverified")
                continue
            try:
                cover = two_sided_cover_from_onesided(g, fwd, bwd, r, t)
            except CellInclusionError as err:
                failures.append(f"{g.name} #{idx}: {err}")
                continue
            if not cover.verified:
                failures.append(f"{g.name} #{idx}: two-sided cover unverified")
    _report(capsys, 4, "two-sided-cover-construction", failures,
            "100 gauges, zero cell escapes")


def _mixed_exponent_reference():
    # root of u + u^2 = 1 on [0, 1] by bisection; the norm is 1 / sqrt(u)
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if mid + mid * mid < 1.0:
            lo = mid
        else:
            hi = mid
    return 1.0 / math.sqrt((lo + hi) / 2)


def test_05_luxemburg_recovers_distances_and_the_reference_norm(capsys):
    """luxemburg of w = d/t returns d itself within 1e-9 on 1000 random d,
    and the two-point norm with exponents (2, 4) on unit masses matches
    1.27201965 within 1e-6 against an independently root-found reference."""
    failures = []
    for i in range(1000):
        rng = rng_for(9000 + i)
        d = rng.randrange(8, 2049) / 128
        g = GaugeSpec(regime=Regime.ADDITIVE, points=("x", "y"),
                      fn=lambda x, y, lam, d=d: (d if x != y else 0.0) / lam)
        got = luxemburg_distance(g, "x", "y", tol=1e-12).value
        if not abs(got - d) <= 1e-9:
            failures.append(f"pair {i}: |{got} - {d}| > 1e-9")
    space = DiscreteMeasureSpace(("a", "b"), {"a": 1.0, "b": 1.0})
    phi = MusielakOrlicz.variable_exponent({"a": 2.0, "b": 4.0})
    norm = luxemburg_norm(space, phi, {"a": 1.0, "b": 1.0})
    ref = _mixed_exponent_reference()
    if not abs(norm - 1.27201965) <= 1e-6:
        failures.append(f"norm {norm} misses 1.27201965 by more than 1e-6")
    if not abs(norm - ref) <= 1e-8:
        failures.append(f"norm {norm} disagrees with the root-find {ref}")
    _report(capsys, 5, "luxemburg-consistency", failures,
            f"1000 recoveries, norm {norm:.10f} vs root-find {ref:.10f}")


def test_06_rescaling_by_the_norm_lands_on_the_unit_sphere(capsys):
    """On 200 random Musielak-Orlicz instances, the modular of f divided by
    its norm falls in [1 - 1e-6, 1 + 1e-6], and the one-sided norm/modular
    inequalities hold within 1e-6 for the unscaled f."""
    failures = []
    for seed in range(200):
        rng = rng_for(10000 + seed)
        space = random_measure_space(rng, rng.randrange(1, 6))
        phi = random_orlicz_family(rng, space)
        f = random_total_function(rng, space)
        norm = luxemburg_norm(space, phi, f, tol=1e-12)
        if not norm > 0:
            failures.append(f"seed {seed}: nonzero f got norm {norm}")
            continue
        rho = modular(space, phi, {p: f[p] / norm for p in space.points})
        if not (1.0 - 1e-6 <= rho <= 1.0 + 1e-6):
            failures.append(f"seed {seed}: rescaled modular {rho}")
        ub = unit_ball_check(space, phi, f, tol=1e-6)
        if not (ub.lower_ok and ub.upper_ok and ub.ok):
            failures.append(f"seed {seed}: norm {ub.norm} vs modular "
                            f"{ub.modular_value} breaks a one-sided clause")
    _report(capsys, 6, "unit-ball-property", failures, "200 + 200 instances")


def test_07_one_sided_quasi_metrics_reflexive_triangular_asymmetric(capsys):
    """d_plus, d_minus, and their max vanish exactly on equal arguments and
    satisfy the triangle inequality within 2e-9 over all ordered triples of
    200 random three-function draws; a skew two-point configuration yields
    d_plus(f, g) != d_plus(g, f)."""
    failures = []
    tol2 = 2e-9
    for seed in range(200):
        rng = rng_for(11000 + seed)
        space = random_measure_space(rng, rng.randrange(1, 5))
        pair = OneSidedPair(random_orlicz_family(rng, space),
                            random_orlicz_family(rng, space))
        fs = [random_total_function(rng, space) for _ in range(3)]
        for f in fs:
            if quasi_metric_from_gauges(space, pair, f, f) != (0.0, 0.0):
                failures.append(f"seed {seed}: d(f, f) != (0, 0)")
        d = {(i, j): quasi_metric_from_gauges(space, pair, fs[i], fs[j])
             for i in range(3) for j in range(3) if i != j}
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    if len({i, j, k}) < 3:
                        continue
                    for c in (0, 1):
                        if d[(i, k)][c] > d[(i, j)][c] + d[(j, k)][c] + tol2:
                            failures.append(
                                f"seed {seed}: component {c} triangle "
                                f"fails on ({i}, {j}, {k})")
                    dw_ik = max(d[(i, k)])
                    dw_sum = max(d[(i, j)]) + max(d[(j, k)])
                    if dw_ik > dw_sum + tol2:
                        failures.append(f"seed {seed}: symmetrized triangle "
                                        f"fails on ({i}, {j}, {k})")
    skew_space = DiscreteMeasureSpace(("a", "b"), {"a": 4.0, "b": 4.0})
    skew = OneSidedPair(MusielakOrlicz.variable_exponent({"a": 2.0, "b": 2.0}),
                        MusielakOrlicz.variable_exponent({"a": 1.0, "b": 1.0}))
    f, g = {"a": 2.0, "b": 0.0}, {"a": 0.0, "b": 1.0}
    fwd = quasi_metric_from_gauges(skew_space, skew, f, g)
    bwd = quasi_metric_from_gauges(skew_space, skew, g, f)
    for got, want, label in ((fwd[0], 4.0, "d_plus(f,g)"),
                             (fwd[1], 4.0, "d_minus(f,g)"),
                             (bwd[0], 2.0, "d_plus(g,f)"),
                             (bwd[1], 8.0, "d_minus(g,f)")):
        if not abs(got - want) <= 1e-8:
            failures.append(f"skew witness: {label} = {got}, wanted {want}")
    if not fwd[0] > bwd[0]:
        failures.append("skew witness is not asymmetric")
    _report(capsys, 7, "one-sided-quasi-metrics", failures,
            f"200 triples, witness d_plus {fwd[0]:.6f} vs {bwd[0]:.6f}")


def test_08_graph_distances_match_exhaustive_search_and_power_energies(capsys):
    """Dijkstra path costs equal exhaustive simple-path minima bit for bit on
    100 random digraphs (two weight assignments each, up to 8 vertices), and
    the energy gauge of a pure power family equals E(f)^(1/p) within 1e-9."""
    failures = []
    pairs = 0
    for seed in range(100):
        rng = rng_for(12000 + seed)
        g = random_digraph(rng, rng.randrange(2, 9))
        cost_sets = [None]
        if g.edges:
            cost_sets.append(tuple(rng.randrange(8, 49) / 16
                                   for _ in g.edges))
        for costs in cost_sets:
            for x in g.vertices:
                for y in g.vertices:
                    pairs += 1
                    got = forward_distance(g, x, y, costs)
                    want = brute_force_distance(g, x, y, costs)
                    if got != want:
                        failures.append(f"seed {seed} ({x}, {y}): dijkstra "
                                        f"{got} vs exhaustive {want}")
    for seed in range(100):
        rng = rng_for(12500 + seed)
        g = random_digraph(rng, rng.randrange(2, 7))
        p = rng.choice((1.0, 1.5, 2.0, 3.0))
        fam = edge_power(g, p)
        f = {v: rng.randrange(-8, 9) / 4 for v in g.vertices}
        energy = forward_energy(g, f, fam)
        lam = energy_luxemburg(g, f, fam, tol=1e-12)
        expected = energy ** (1.0 / p) if energy > 0 else 0.0
        if not abs(lam - expected) <= 1e-9:
            failures.append(f"seed {seed}: energy gauge {lam} vs closed "
                            f"form {expected} at p = {p}")
    _report(capsys, 8, "graph-oracle-equivalence", failures,
            f"{pairs} distance pairs, 100 energy instances")


def test_09_envelopes_are_one_sided_lipschitz_and_reproduce_traces(capsys):
    """On 100 random quasi-metric instances with up to 10 points: both
    envelopes of arbitrary data satisfy the one-sided Lipschitz bound on
    every ordered pair, and for trace-compatible data the envelopes agree
    with the data on its domain and bracket each other pointwise."""
    failures = []
    for seed in range(100):
        rng = rng_for(13000 + seed)
        pts = points_named(rng.randrange(2, 11))
        d = random_quasi_pseudometric(rng, pts)
        k = rng.randrange(1, len(pts) + 1)
        domain = pts[:k]
        L = rng.randrange(0, 13) / 4
        raw = PartialFunction(domain,
                              {a: rng.randrange(-32, 33) / 16 for a in domain},
                              L)
        upper = upper_envelope(raw, d, pts)
        lower = lower_envelope(raw, d, pts)
        for x in pts:
            for y in pts:
                if upper[x] - upper[y] > L * d[(x, y)]:
                    failures.append(f"seed {seed}: upper breaks Lipschitz "
                                    f"on ({x}, {y})")
                if lower[x] - lower[y] > L * d[(x, y)]:
                    failures.append(f"seed {seed}: lower breaks Lipschitz "
                                    f"on ({x}, {y})")
        anchors = PartialFunction(
            pts[:2], {a: rng.randrange(-32, 33) / 16 for a in pts[:2]}, L)
        trace = upper_envelope(anchors, d, pts)
        fit = PartialFunction(domain, {a: trace[a] for a in domain}, L)
        up2 = upper_envelope(fit, d, pts)
        lo2 = lower_envelope(fit, d, pts)
        for a in domain:
            if up2[a] != fit.values[a] or lo2[a] != fit.values[a]:
                failures.append(f"seed {seed}: compatible data not "
                                f"reproduced at {a}")
        for x in pts:
            if not lo2[x] <= up2[x]:
                failures.append(f"seed {seed}: envelopes cross at {x}")
    _report(capsys, 9, "lipschitz-envelopes", failures, "100 instances")


def test_10_profile_convolution_matches_the_double_loop_oracle(capsys):
    """profile_convolve agrees exactly with the brute-force split scan on
    100 random profile pairs over grids of up to 32 scales, and the
    profile-level triangle audit passes on 20 saturating-ratio gauges."""
    failures = []
    pool = [k / 8 for k in range(1, 65)]
    for seed in range(100):
        rng = rng_for(14000 + seed)
        m = rng.randrange(1, 33)
        grid = ScaleGrid(tuple(sorted(rng.sample(pool, m))))
        phi = Profile(grid, tuple(rng.randrange(0, 65) / 64
                                  for _ in range(m)))
        psi = Profile(grid, tuple(rng.randrange(0, 65) / 64
                                  for _ in range(m)))
        conorm = rng.choice(list(TConorm))
        conv = profile_convolve(phi, psi, conorm)
        if conv.values != convolve_oracle(phi, psi, conorm):
            failures.append(f"seed {seed}: convolution differs from the "
                            f"oracle under {conorm.wire_name}")
    for seed in range(20):
        rng = rng_for(14500 + seed)
        pts = points_named(rng.randrange(2, 6))
        g = make_ratio(random_metric_table(rng, pts), pts)
        rep = enriched_triangle_check(g, grid=ScaleGrid((0.5, 1.0, 2.0, 4.0)))
        if not rep.ok:
            failures.append(f"ratio seed {seed}: "
                            f"{rep.violations[0].witness}")
    _report(capsys, 10, "convolution-oracle", failures,
            "100 pairs, 20 ratio gauges")


def test_11_truncated_families_yield_nets_or_tail_witnesses(capsys):
    """For 50 random truncated coordinate families: with the full truncation
    budget the tail criterion accepts and a verified 2-eps net is built; with
    a clipped budget and a planted slow spike it rejects and reports a tail
    witness that recomputes exactly and clears eps^p."""
    failures = []
    for seed in range(50):
        rng = rng_for(15000 + seed)
        p = rng.choice((1.0, 2.0, 3.0))
        eps = rng.choice((0.5, 1.0, 2.0))
        length = rng.randrange(3, 9)
        members = tuple(tuple(rng.randrange(-8, 9) / 4 for _ in range(length))
                        for _ in range(rng.randrange(2, 7)))
        fam = TruncatedSequenceFamily(members, p)
        crit = lp_tail_criterion(fam, eps)
        if not crit.verdict:
            failures.append(f"seed {seed}: full budget still rejected")
        else:
            net = lp_family_net(fam, eps, crit.tail_index)
            if not (net.verified and net.radius == 2.0 * eps
                    and net.worst_distance < 2.0 * eps):
                failures.append(f"seed {seed}: net radius {net.radius}, "
                                f"worst {net.worst_distance}")
        j = rng.randrange(0, length)
        spike = (0.0,) * j + (2.0 * eps,)
        fam2 = TruncatedSequenceFamily(members + (spike,), p)
        rep = lp_tail_criterion(fam2, eps, n_max=j)
        if rep.verdict:
            failures.append(f"seed {seed}: spike at {j} went undetected")
            continue
        wi, wn, wtail = rep.witness
        recomputed = sum(abs(v) ** p for v in fam2.members[wi][wn:])
        if wn != j or wtail != recomputed or not wtail >= eps ** p:
            failures.append(f"seed {seed}: witness ({wi}, {wn}, {wtail}) "
                            f"does not recompute, expected {recomputed}")
    _report(capsys, 11, "truncated-family-criterion", failures, "50 families")

"""Work budget of the Luxemburg infima that the CLI computes.

Orlicz norms are searched by the safeguarded secant of `luxemburg_infimum`:
over seeded `orlicz` documents the median search takes at most 12 probes,
where doubling plus bisection took about 67.  Distances on a tabulated gauge
are read from its rows, so the `luxemburg` command calls the kernel not at
all.
"""

import statistics

from quasimod import (Profile, ScaleGrid, gauge_to_json, luxemburg,
                      make_scaled_metric, orlicz)

from conftest import (points_named, random_measure_space,
                      random_orlicz_family, random_quasi_pseudometric,
                      random_total_function, rng_for, run)


def counting(monkeypatch, module):
    """Probe counts of every kernel call made through `module`."""
    probes = []
    kernel = luxemburg.luxemburg_infimum

    def counted(*args, **kwargs):
        res = kernel(*args, **kwargs)
        probes.append(res.iterations)
        return res

    monkeypatch.setattr(module, "luxemburg_infimum", counted)
    return probes


def orlicz_doc(seed):
    rng = rng_for(2100 + seed)
    space = random_measure_space(rng, rng.choice((10, 15)))
    return {"space": space.to_json(),
            "functions": {f"f{i}": random_total_function(rng, space)
                          for i in range(3)},
            "phi": random_orlicz_family(rng, space).to_json(),
            "psi1": random_orlicz_family(rng, space).to_json(),
            "psi2": random_orlicz_family(rng, space).to_json()}


def test_orlicz_norms_take_a_median_of_at_most_12_probes(tmp_path,
                                                         monkeypatch):
    probes = counting(monkeypatch, orlicz)
    for seed in range(40):
        assert run(tmp_path, "orlicz", orlicz_doc(seed))[0] in (0, 1)
    # per document: 3 norms, 6 one-sided norms and 12 one-sided distances
    assert len(probes) == 40 * 21
    assert statistics.median(probes) <= 12, sorted(probes)


def test_table_distances_take_no_probes(tmp_path, monkeypatch):
    probes = counting(monkeypatch, luxemburg)
    for seed in range(20):
        rng = rng_for(2200 + seed)
        points = points_named(rng.randrange(3, 8))
        grid = ScaleGrid((0.25, 0.5, 1.0, 2.0, 4.0, 8.0))
        values, v = [], float(rng.choice((4, 8, 16)))
        for _ in grid:
            values.append(v)
            v /= rng.choice((1, 2, 2, 4))
        g = make_scaled_metric(random_quasi_pseudometric(rng, points),
                               Profile(grid, tuple(values)), points)
        assert run(tmp_path, "luxemburg", gauge_to_json(g))[0] == 0
    assert probes == []

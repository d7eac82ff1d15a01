"""Scale grids, right-continuous profiles, and scale convolution."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quasimod import (
    INF,
    Profile,
    ScaleGrid,
    TConorm,
    profile_convolve,
    right_regularize,
)
from quasimod.profiles import _splits

from conftest import convolve_oracle, rng_for


def grids(max_size=6):
    return st.lists(st.integers(1, 40), min_size=1, max_size=max_size,
                    unique=True).map(
        lambda ks: ScaleGrid(tuple(sorted(k / 8 for k in ks))))


def unit_profiles(grid):
    return st.lists(st.integers(0, 64), min_size=len(grid), max_size=len(grid)).map(
        lambda ks: Profile(grid, tuple(k / 64 for k in ks)))


def test_grid_validation():
    with pytest.raises(ValueError):
        ScaleGrid(())
    with pytest.raises(ValueError):
        ScaleGrid((0.0, 1.0))
    with pytest.raises(ValueError):
        ScaleGrid((1.0, INF))
    with pytest.raises(ValueError):
        ScaleGrid((1.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        ScaleGrid((2.0, 1.0))


def test_ceil_index_and_projection():
    grid = ScaleGrid((0.5, 1.0, 2.0))
    assert grid.ceil_index(0.1) == 0
    assert grid.ceil_index(0.5) == 0
    assert grid.ceil_index(0.7) == 1
    assert grid.ceil_index(2.0) == 2
    assert grid.ceil_index(2.1) is None
    with pytest.raises(ValueError):
        grid.ceil_index(0.0)
    # one positive-scale rule: nan is no scale, as GaugeSpec.matrix says
    for t in (-1.0, math.nan):
        with pytest.raises(ValueError, match=f"^scale must be positive, "
                                             f"got {t}$"):
            grid.ceil_index(t)
    # the grid scale a sum of two scales projects to
    assert grid[grid.ceil_index(0.5 + 0.5)] == 1.0
    assert grid[grid.ceil_index(0.5 + 1.0)] == 2.0
    assert grid[grid.ceil_index(0.3 + 0.1)] == 0.5
    assert grid.ceil_index(1.0 + 2.0) is None


def test_profile_validation_and_lookup():
    grid = ScaleGrid((1.0, 2.0, 4.0))
    with pytest.raises(ValueError):
        Profile(grid, (1.0, 2.0))
    with pytest.raises(ValueError):
        Profile(grid, (1.0, -0.5, 0.0))
    p = Profile(grid, (3.0, 1.0, 0.5))
    assert p.value_at(0.2) == 3.0
    assert p.value_at(1.0) == 3.0
    assert p.value_at(1.5) == 1.0
    assert p.value_at(4.0) == 0.5
    assert p.value_at(100.0) == 0.5  # past the grid: last entry
    with pytest.raises(ValueError, match="scale must be positive"):
        p.value_at(math.nan)


def test_nonincreasing_violations_pinpoint_the_step():
    grid = ScaleGrid((1.0, 2.0, 3.0))
    p = Profile(grid, (0.5, 0.8, 0.2))
    assert p.nonincreasing_violations()
    assert p.nonincreasing_violations() == [(1.0, 2.0, 0.5, 0.8)]


@given(grids().flatmap(lambda g: unit_profiles(g)))
def test_right_regularize_is_the_largest_nonincreasing_minorant(p):
    q = right_regularize(p)
    assert not q.nonincreasing_violations()
    assert all(a <= b for a, b in zip(q.values, p.values))
    # the largest nonincreasing minorant is a fixed point
    assert right_regularize(q).values == q.values
    if not p.nonincreasing_violations():
        assert q.values == p.values


@given(st.sampled_from(list(TConorm)),
       grids().flatmap(lambda g: st.tuples(unit_profiles(g), unit_profiles(g))))
def test_convolve_matches_oracle(conorm, pair):
    phi, psi = pair
    conv = profile_convolve(phi, psi, conorm)
    assert conv.values == convolve_oracle(phi, psi, conorm)
    assert not conv.nonincreasing_violations()
    assert conv.values == profile_convolve(psi, phi, conorm).values


def test_convolve_with_zero_shifts_the_argument():
    # against the unit profile, the entry at u is the argument's value at
    # the largest grid scale that still fits below u - t1
    grid = ScaleGrid((1.0, 2.0, 3.0, 4.0))
    phi = Profile(grid, (0.9, 0.5, 0.3, 0.2))
    zero = Profile(grid, (0.0,) * 4)
    for conorm in TConorm:
        conv = profile_convolve(phi, zero, conorm)
        assert conv.values == (0.9, 0.9, 0.5, 0.3)


def test_convolve_input_validation():
    g1 = ScaleGrid((1.0, 2.0))
    g2 = ScaleGrid((1.0, 3.0))
    p1 = Profile(g1, (0.5, 0.25))
    with pytest.raises(ValueError, match="share a grid"):
        profile_convolve(p1, Profile(g2, (0.5, 0.25)), TConorm.MAX)
    with pytest.raises(ValueError, match="values in"):
        profile_convolve(p1, Profile(g1, (2.0, 0.1)), TConorm.MAX)


def test_convolve_falls_back_to_the_finest_pair_and_keeps_signed_zeros():
    # on (1, 1.5, 2, 4) no split reaches 1 or 1.5, and on (1, 1.5) none
    # reaches any scale: those entries are conorm(phi(t_1), psi(t_1)); the
    # levels hold both zeros, so ties decide the sign, compared by repr
    levels = (0.0, -0.0, 0.25, 0.5, 1.0)
    for k in range(60):
        rng = rng_for(1000 + k)
        grid = ScaleGrid(((1.0, 1.5, 2.0, 4.0), (1.0, 1.5))[k % 2])
        phi, psi = (Profile(grid, tuple(rng.choice(levels) for _ in grid))
                    for _ in "ab")
        for conorm in TConorm:
            conv = profile_convolve(phi, psi, conorm).values
            assert repr(conv) == repr(convolve_oracle(phi, psi, conorm))
            assert repr(conv[:2]) == repr(
                (conorm.law(phi.values[0], psi.values[0]),) * 2)


def former_check_axioms_splits(grid):
    """check_axioms' split list before the shared split rule."""
    m = len(grid)
    return [(i, j, u) for i in range(m) for j in range(m)
            for u in [grid.ceil_index(grid[i] + grid[j])] if u is not None]


def test_splits_are_check_axioms_former_split_list():
    # decimal scales make float sums like 0.1 + 0.2 = 0.30000000000000004,
    # which lands on 0.4 rather than on 0.3
    grid = ScaleGrid((0.1, 0.2, 0.3, 0.4))
    assert (0, 1, 3) in _splits(grid) and (1, 0, 3) in _splits(grid)
    for k in range(200):
        rng = rng_for(1100 + k)
        denominator = rng.choice((4, 8, 10, 100))
        grid = ScaleGrid(tuple(sorted(
            n / denominator for n in rng.sample(range(1, 60),
                                                rng.randrange(1, 7)))))
        splits = _splits(grid)
        assert [(i, j) for i, j, _ in splits] == [
            (i, j) for i in range(len(grid)) for j in range(len(grid))]
        assert [s for s in splits if s[2] is not None] == \
            former_check_axioms_splits(grid)

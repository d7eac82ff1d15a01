"""Scale grids and piecewise-constant scale profiles.

A ScaleGrid is a strictly increasing list of positive scales t_1 < ... < t_m.
A Profile assigns one value per grid scale and is read right-continuously:
the value at an arbitrary t is the entry at the smallest grid scale >= t,
and the last entry once t runs past the grid.
"""

from __future__ import annotations

import bisect

from .conorms import TConorm
from .extreal import INF, numbers, parse_ext
from .records import Frozen


class ScaleGrid(Frozen):
    __slots__ = _fields = ("scales",)

    def __init__(self, scales: tuple[float, ...]):
        scales = numbers(scales, "grid")
        if not scales:
            raise ValueError("scale grid must be nonempty")
        for t in scales:
            if not (t > 0.0 and t != INF):
                raise ValueError(f"scales must be positive finite reals, got {t!r}")
        if any(a >= b for a, b in zip(scales, scales[1:])):
            raise ValueError("scales must be strictly increasing")
        self._set(scales)

    def __len__(self) -> int:
        return len(self.scales)

    def __iter__(self):
        return iter(self.scales)

    def __getitem__(self, i: int) -> float:
        return self.scales[i]

    def ceil_index(self, t: float) -> int | None:
        """Index of the smallest grid scale >= t, or None past the grid."""
        if not t > 0:
            raise ValueError(f"scale must be positive, got {t!r}")
        i = bisect.bisect_left(self.scales, t)
        return i if i < len(self.scales) else None


class Profile(Frozen):
    __slots__ = _fields = ("grid", "values")

    def __init__(self, grid: ScaleGrid, values: tuple[float, ...]):
        values = tuple(parse_ext(v, "profile value") for v in values)
        if len(values) != len(grid):
            raise ValueError("profile needs exactly one value per grid scale")
        self._set(grid, values)

    def value_at(self, t: float) -> float:
        i = self.grid.ceil_index(t)
        return self.values[-1] if i is None else self.values[i]

    def nonincreasing_violations(self) -> list[tuple[float, float, float, float]]:
        """Adjacent grid scales (t, t') with value(t) < value(t')."""
        out = []
        for i in range(len(self.values) - 1):
            if self.values[i] < self.values[i + 1]:
                out.append((self.grid[i], self.grid[i + 1],
                            self.values[i], self.values[i + 1]))
        return out


def right_regularize(p: Profile) -> Profile:
    """Running minimum of the values: the largest nonincreasing minorant,
    which agrees with p wherever p already is nonincreasing."""
    out = list(p.values)
    for i in range(1, len(out)):
        out[i] = min(out[i], out[i - 1])
    return Profile(p.grid, tuple(out))


def _splits(grid: ScaleGrid) -> list[tuple[int, int, int | None]]:
    """(i, j, u) for every grid split, i-major, with grid[u] the least grid
    scale >= the float sum grid[i] + grid[j], None past the top: the one
    split rule of the triangle checks and of the convolution."""
    return [(i, j, grid.ceil_index(s + t))
            for i, s in enumerate(grid) for j, t in enumerate(grid)]


def profile_convolve(phi: Profile, psi: Profile, conorm: TConorm) -> Profile:
    """Scale convolution of two [0,1]-valued profiles on a shared grid.

    The entry at grid scale u is the minimum of conorm(phi(t_i), psi(t_j))
    over grid pairs with t_i + t_j <= u.  The pair (t_1, t_1) is always
    admitted so that scales below every representable split still get the
    finest available one; the candidate set only grows with u, so the
    output is nonincreasing.
    """
    if phi.grid != psi.grid:
        raise ValueError("profiles must share a grid")
    for v in phi.values + psi.values:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"convolution needs values in [0, 1], got {v!r}")
    law, p, q = conorm.law, phi.values, psi.values
    # (u, value) for (t_1, t_1) as if it landed on t_1, then each split
    pairs = [(0, law(p[0], q[0]))] + [(u, law(p[i], q[j])) for i, j, u
                                      in _splits(phi.grid) if u is not None]
    return Profile(phi.grid, tuple(min(c for u, c in pairs if u <= k)
                                   for k in range(len(p))))

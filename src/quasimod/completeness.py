"""Cauchy classification, greedy nets, two-sided covers, and tail criteria.

Everything here works on finite samples, so each statement is the finite
shadow of its limit-space counterpart: Cauchy conditions are checked for
indices up to the sample's length, covers are verified by exhaustive
membership, and sequence families are truncations.

Heine-Borel rows run by scale: along the sorted radii, the cut of r in the
sorted matrix at t and of its split radius at t/2 only grow, so one scale on
n points has at most 2n^2 + 1 distinct (near cut, cut) pairs, each decided
once.  A Cauchy tail from i0 holds at (r, t) iff S_i0 < r, S_i the largest
w(x_k, x_j, t) over i <= k <= j (backward: w(x_j, x_k, t)); S never rises
with i, so the worst i is #{i : S_i >= r}.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from itertools import accumulate, chain, compress, repeat
from operator import add, and_, or_

from .extreal import number, numbers
from .gauges import GaugeSpec
from .profiles import ScaleGrid
from .records import Frozen, NamedTuple
from .topology import (ThresholdSet, _BallRows, _check_radius,
                       _normalize_side, critical_thresholds, entourage)


class CauchyClassification(NamedTuple):
    kind: str  # bi | neither
    i0: int | None
    forward_i0: int | None
    backward_i0: int | None


def _sequence(points) -> tuple:
    """The sampled points as a tuple, refused when empty."""
    seq = tuple(points)
    if not seq:
        raise ValueError("a sampled sequence needs at least one point")
    return seq


def classify_cauchy(points, g: GaugeSpec, r: float,
                    t: float) -> CauchyClassification:
    """Forward: w(x_i, x_j, t) < r for all i0 <= i <= j over the sampled
    points; backward swaps the pair to w(x_j, x_i, t).  Reports the minimal
    i0 for each direction that holds.  On a finite sample the one-point
    tail always qualifies when either does, so the kind is "bi" or
    "neither"; asymmetry shows in `forward_i0` and `backward_i0`."""
    seq = _sequence(points)
    _check_radius(r)
    return _tails(g, list(map(g.index, seq)), t, (r,))[0]


def classify_cauchy_thresholds(points, g: GaugeSpec,
                               thresholds: ThresholdSet) -> list[tuple]:
    """(r, t, classify_cauchy(points, g, r, t)) for every threshold pair,
    read scale by scale from the suffix maxima."""
    idx, radii = list(map(g.index, _sequence(points))), thresholds.radii
    for r in radii[:1]:  # as row by row: the first radius before any matrix
        _check_radius(r)
    columns = [_tails(g, idx, t, radii) for t in thresholds.scales if radii]
    for r in radii:
        _check_radius(r)
    return list(map(add, thresholds.pairs(),  # (r, t) + (c,) per pair
                    zip(chain.from_iterable(zip(*columns)))))


def _tails(g: GaugeSpec, idx: list[int], t: float, radii) -> list:
    """The classification at each radius by the suffix maxima S, last first,
    read from g.matrix(t) at the sequence's indices: no sorted sweep."""
    mat = g.matrix(t)
    fwd = [list(map(mat[a].__getitem__, idx)) for a in idx]
    ranks = list(zip(*[map(bisect_left, repeat(list(accumulate(
        [max(side[i][i:]) for i in reversed(range(len(idx)))], max))), radii)
        for side in (fwd, list(zip(*fwd)))]))
    starts, kinds = [None, *range(len(idx), 0, -1)], {}
    for f_rank, b_rank in dict.fromkeys(ranks):
        f_i0, b_i0 = starts[f_rank], starts[b_rank]
        kinds[f_rank, b_rank] = CauchyClassification(*(
            ("bi", max(f_i0, b_i0), f_i0, b_i0) if f_i0 and b_i0
            else ("neither", None, None, None)))
    return list(map(kinds.__getitem__, ranks))


def converges_to(points, g: GaugeSpec, x, r: float, t: float,
                 side: str = "forward") -> bool:
    """True when some tail of the sequence stays inside B^side(x; r, t).
    The one-point tail is a candidate, so this is membership of the last
    point."""
    last = _sequence(points)[-1]
    return bool(entourage(g, r, t, side, (x, last))[0] & 2)


class CoverResult(NamedTuple):
    centers: tuple
    radius_r: float
    scale_t: float
    side: str
    sample: tuple
    verified: bool


def greedy_net(points, g: GaugeSpec, r: float, t: float,
               side: str = "forward") -> CoverResult:
    """First-uncovered greedy cover: scan the sample in input order, promote
    each uncovered point to a center, and re-verify membership at the end."""
    side = _normalize_side(side)
    sample = tuple(points)
    centers, verified = _greedy(entourage(g, r, t, side, sample))
    return CoverResult(tuple(sample[i] for i in centers), r, t, side, sample,
                       verified)


def _greedy(balls) -> tuple[list[int], bool]:
    """Greedy centre indices over ball rows, and whether they cover."""
    centers, covered = [], 0
    for i, ball in enumerate(balls):
        if not covered >> i & 1:
            centers.append(i)
            covered |= ball
    return centers, covered == (1 << len(balls)) - 1


def _first(mask: int) -> int:
    """Position of the lowest set bit."""
    return (mask & -mask).bit_length() - 1


class CellInclusionError(Exception):
    """A cell of the two-sided cover construction escapes its target ball:
    u lies within s of both cell centres at scale t/2, yet w(z, u, t) or
    w(u, z, t) is not below r for the cell's representative z.  Two
    different centres bound neither of those values, so an axiom-valid
    asymmetric gauge can escape too."""

    def __init__(self, cell, z, u, lhs_out: float, lhs_back: float, r: float):
        self.cell = cell
        self.z = z
        self.u = u
        self.lhs_out = lhs_out
        self.lhs_back = lhs_back
        self.r = r
        super().__init__(
            f"cell {cell} point {u!r} escapes the ball at {z!r}: "
            f"w(z,u)={lhs_out}, w(u,z)={lhs_back}, r={r}")


def two_sided_cover_from_onesided(g: GaugeSpec, forward: CoverResult,
                                  backward: CoverResult, r: float,
                                  t: float) -> CoverResult:
    """Intersect forward balls at (s, t/2) with backward balls at (s, t/2),
    pick one representative per nonempty cell, and certify that each cell
    sits inside the representative's two-sided (r, t) ball."""
    if forward.side != "forward" or backward.side != "backward":
        raise ValueError("need a forward cover and a backward cover")
    if not (forward.verified and backward.verified):
        raise ValueError("both one-sided covers must be verified")
    if set(forward.sample) != set(backward.sample):
        raise ValueError("the one-sided covers must cover the same sample")
    s = forward.radius_r
    if backward.radius_r != s:
        raise ValueError("the one-sided covers must share one radius")
    t_half = t / 2.0
    if forward.scale_t != t_half or backward.scale_t != t_half:
        raise ValueError(f"one-sided covers must live at scale t/2 = {t_half}")
    bound = g.oplus(s, s)
    if not bound < r:
        raise ValueError(f"split radius fails: {s} split with itself is "
                         f"{bound}, not below {r}")
    sample = forward.sample
    balls = _BallRows(g, sample)
    _, near, far = balls.rows(s, t_half)
    two = tuple(map(and_, *balls.rows(r, t)[1:]))
    centers, verified, escape = _compose(*_cells(
        near, far, [sample.index(x) for x in forward.centers],
        [sample.index(y) for y in backward.centers]), two)
    if escape:
        raise _escape_error(balls, escape, r, t)
    return CoverResult(tuple(sample[z] for z in centers), r, t, "two_sided",
                       sample, verified)


def _cells(near, far, fwd_centers, bwd_centers) -> tuple[list, list]:
    """Each nonempty cell near[i] & far[j] of a centre pair as (i, j, cell,
    z), z its first point, and the distinct z in order."""
    cells = [(i, j, cell, _first(cell)) for i in fwd_centers
             for j in bwd_centers for cell in (near[i] & far[j],) if cell]
    return cells, list(dict.fromkeys(z for *_, z in cells))


def _compose(cells, centers, two):
    """The representatives and whether their two-sided balls cover, or the
    first escape (i, j, z, u): u in the cell, outside z's two-sided ball."""
    for i, j, cell, z in cells:
        escaped = cell & ~two[z]
        if escaped:
            return None, False, (i, j, z, _first(escaped))
    union = reduce(or_, map(two.__getitem__, centers), 0)
    return centers, union == (1 << len(two)) - 1, None


def _escape_error(balls: _BallRows, escape, r, t) -> CellInclusionError:
    x_i, y_j, z, u = (balls.points[k] for k in escape)
    _, _, iz, iu = escape
    return CellInclusionError((x_i, y_j), z, u, balls.value(iz, iu, t),
                              balls.value(iu, iz, t), r)


class TransportResult(NamedTuple):
    verified: bool
    source_centers: tuple
    image_centers: tuple


def transport_total_boundedness(source_points, image_points, source_metric,
                                image_metric, eps: float,
                                delta: float) -> TransportResult:
    """Pull a delta-net of the image sample back to an eps-net of the source.

    The modulus condition d_image < delta => d_source < eps is verified on
    every ordered sample pair first; a violating pair is an error, since the
    pull-back argument is unsound without it.
    """
    source, image = tuple(source_points), tuple(image_points)
    if len(source) != len(image):
        raise ValueError("source and image samples must be paired lists")
    if not (eps > 0 and delta > 0):
        raise ValueError("eps and delta must be positive")
    balls = []  # bit k of row i: image[k] lies within delta of image[i]
    for i, (x, u) in enumerate(zip(source, image)):
        row = 0
        for k, (y, v) in enumerate(zip(source, image)):
            d_image = number(image_metric(u, v), "image_metric value")
            if d_image < delta:
                d_source = number(source_metric(x, y), "source_metric value")
                if i != k and not d_source < eps:
                    raise ValueError(
                        f"modulus condition fails on pair ({x!r}, {y!r}): "
                        f"image distance {d_image} < {delta} but source "
                        f"distance {d_source} >= {eps}")
                row |= 1 << k
        balls.append(row)
    centers = _greedy(balls)[0]
    src_centers = tuple(source[i] for i in centers)
    img_centers = tuple(image[i] for i in centers)
    verified = all(any(number(source_metric(c, x), "source_metric value") < eps
                       for c in src_centers) for x in source)
    return TransportResult(verified, src_centers, img_centers)


class TruncatedSequenceFamily(Frozen):
    """Finite real sequences padded to a common length, with an exponent."""

    __slots__ = _fields = ("members", "p")

    def __init__(self, members: tuple[tuple[float, ...], ...], p: float):
        if not members:
            raise ValueError("family must be nonempty")
        p = number(p, "exponent")
        if not p >= 1:
            raise ValueError(f"exponent must be >= 1, got {p!r}")
        length = max(len(m) for m in members)
        if length < 1:
            raise ValueError("members must have at least one coordinate")
        padded = tuple(numbers(m, "member value") + (0.0,) * (length - len(m))
                       for m in members)
        self._set(padded, p)

    @property
    def length(self) -> int:
        return len(self.members[0])


def lp_distance(a, b, p: float) -> float:
    return sum(abs(x - y) ** p for x, y in zip(a, b)) ** (1.0 / p)


class LpTailReport(NamedTuple):
    pointwise_bounded: bool
    sup_vector: tuple[float, ...]
    tail_index: int | None
    verdict: bool
    witness: tuple | None  # (member index, n, tail sum) when verdict is false


def lp_tail_criterion(fam: TruncatedSequenceFamily, eps: float,
                      n_max: int | None = None) -> LpTailReport:
    """Least n <= n_max with sum_{k>n} |x_k|^p < eps^p uniformly over the
    family.  Truncated members always satisfy it at n = L, so a budget
    n_max < L is what makes a negative verdict possible."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    length = fam.length
    if n_max is None:
        n_max = length
    if not 0 <= n_max <= length:
        raise ValueError(f"n_max must lie in [0, {length}], got {n_max!r}")
    sup_vector = tuple(max(abs(m[k]) for m in fam.members)
                       for k in range(length))
    target = eps ** fam.p
    tails = []
    for m in fam.members:
        suffix = [0.0] * (length + 1)
        for k in range(length - 1, -1, -1):
            suffix[k] = suffix[k + 1] + abs(m[k]) ** fam.p
        tails.append(suffix)
    for n in range(n_max + 1):
        if all(suffix[n] < target for suffix in tails):
            return LpTailReport(True, sup_vector, n, True, None)
    worst = max(range(len(fam.members)), key=lambda i: tails[i][n_max])
    return LpTailReport(True, sup_vector, None, False,
                        (worst, n_max, tails[worst][n_max]))


class LpNet(NamedTuple):
    centers: tuple[tuple[float, ...], ...]
    radius: float
    worst_distance: float
    verified: bool


def lp_family_net(fam: TruncatedSequenceFamily, eps: float,
                  n: int) -> LpNet:
    """A 2*eps-net of the family: snap each member's first n coordinates to
    a grid of spacing eps / n^(1/p) and zero the tail.  Head snapping costs
    at most eps/2 in the p-norm and the tail under eps, so every member
    lands strictly within 2*eps of its center."""
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    length = fam.length
    if not 0 <= n <= length:
        raise ValueError(f"n must lie in [0, {length}], got {n!r}")
    target = eps ** fam.p
    for idx, m in enumerate(fam.members):
        tail = sum(abs(v) ** fam.p for v in m[n:])
        if not tail < target:
            raise ValueError(f"member {idx} has tail sum {tail} at n={n}, "
                             f"not below eps^p = {target}")
    spacing = eps / (n ** (1.0 / fam.p)) if n else 0.0
    centers: list[tuple[float, ...]] = []
    worst = 0.0
    for m in fam.members:
        head = tuple(round(v / spacing) * spacing for v in m[:n]) if n else ()
        c = head + (0.0,) * (length - n)
        if c not in centers:
            centers.append(c)
        worst = max(worst, lp_distance(m, c, fam.p))
    return LpNet(tuple(centers), 2.0 * eps, worst, worst < 2.0 * eps)


# the report key of each HeineBorelRow field, in field order: `cover` writes
# the rows under these keys
_HB_KEYS = ("radius", "scale", "split", "forward_size", "backward_size",
            "direct_size", "composed_size", "composed_ok", "witness")


class HeineBorelRow(NamedTuple):
    radius_r: float
    scale_t: float
    split_s: float
    forward_size: int
    backward_size: int
    direct_size: int
    composed_size: int | None
    composed_ok: bool
    witness: str | None


class HeineBorelReport(NamedTuple):
    rows: tuple[HeineBorelRow, ...]

    @property
    def all_composed_ok(self) -> bool:
        return all(row.composed_ok for row in self.rows)


def heine_borel_report(g: GaugeSpec, points=None,
                       grid: ScaleGrid | None = None,
                       thresholds: ThresholdSet | None = None, *,
                       splits: list | None = None) -> HeineBorelReport:
    """For each critical (r, t): build one-sided nets at (s, t/2) with
    s = `g.split_radius(r)`, compose them into a two-sided cover, and build
    a direct two-sided net for comparison.  Composition failures are reported per row
    rather than raised, since they diagnose the gauge, not the caller;
    `thresholds` defaults to the critical ones; `splits`, for a caller that
    has them, must be [g.split_radius(r) for r in thresholds.radii]."""
    balls, nets, directs, outcomes = _BallRows(g, points), {}, {}, {}
    thresholds = thresholds or critical_thresholds(g, balls.points, grid)
    radii, columns = thresholds.radii, []
    splits = list(map(g.split_radius, radii)) if splits is None else splits
    for t in thresholds.scales if radii else ():
        half, whole = balls.sweep(t / 2.0), balls.sweep(t)
        pairs = list(zip(map(bisect_left, repeat(half.values), splits),
                         map(bisect_left, repeat(whole.values), radii)))
        decided = outcomes.setdefault((half, whole), {})
        for near, cut in dict.fromkeys(pairs):
            if (near, cut) not in decided:
                decided[near, cut] = _outcome(nets, directs, (half, near),
                                              (whole, cut))
        *fields, witnesses = map(list, zip(*map(decided.__getitem__, pairs)))
        texts = {}  # per escape, its message with the radius left empty
        for k, w in compress(enumerate(witnesses), witnesses):
            if w not in texts:
                texts[w] = str(_escape_error(balls, w, "", t))
            witnesses[k] = texts[w] + f"{radii[k]}"
        columns.append(list(map(HeineBorelRow, radii, repeat(t), splits,
                                *fields, witnesses)))
    return HeineBorelReport(tuple(chain.from_iterable(zip(*columns))))


def _outcome(nets, directs, near_key, key) -> tuple:
    """Net sizes (forward, backward, direct), the composed size, verdict and
    escape at a (sweep, near cut) and a (sweep, cut): one-sided nets once per
    near cut, the direct net once per cut, composed if both nets cover."""
    if near_key not in nets:
        near, far = near_key[0].rows(near_key[1])
        (fwd, fwd_ok), (bwd, bwd_ok) = _greedy(near), _greedy(far)
        nets[near_key] = (len(fwd), len(bwd), _cells(near, far, fwd, bwd)
                          if fwd_ok and bwd_ok else None)
    if key not in directs:
        two = tuple(map(and_, *key[0].rows(key[1])))
        directs[key] = two, len(_greedy(two)[0])
    (fwd_size, bwd_size, cells), (two, direct_size) = nets[near_key], directs[key]
    centers, ok, escape = _compose(*cells, two) if cells else (None, False, None)
    return (fwd_size, bwd_size, direct_size,
            None if centers is None else len(centers), ok, escape)

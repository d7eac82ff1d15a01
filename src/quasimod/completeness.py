"""Cauchy classification, greedy nets, two-sided covers, and tail criteria.

Everything here works on finite samples, so each statement is the finite
shadow of its limit-space counterpart: Cauchy conditions are checked for
indices up to the horizon, covers are verified by exhaustive membership, and
sequence families are truncations.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import and_

from .gauges import GaugeSpec
from .profiles import ScaleGrid
from .topology import (ThresholdSet, _BallRows, _normalize_side, _relation,
                       critical_thresholds)


@dataclass(frozen=True)
class SampledSequence:
    points: tuple

    def __post_init__(self):
        if len(self.points) < 1:
            raise ValueError("a sampled sequence needs at least one point")
        object.__setattr__(self, "points", tuple(self.points))

    @property
    def horizon(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class CauchyClassification:
    kind: str  # forward | backward | bi | neither
    i0: int | None
    forward_i0: int | None
    backward_i0: int | None


def _minimal_tail_start(rows) -> int | None:
    """Least 1-based i0 such that row i holds every j >= i, for all
    i >= i0.  A missing pair (i, j) blocks every i0 <= i, so the answer is
    one past the largest such i."""
    full = (1 << len(rows)) - 1  # full >> i << i: positions i and up
    worst = max((i + 1 for i, row in enumerate(rows) if full >> i << i & ~row),
                default=0)
    return None if worst == len(rows) else worst + 1


def _check_positive(r: float) -> None:
    if not r > 0:
        raise ValueError(f"radius must be positive, got {r!r}")


def classify_cauchy(seq: SampledSequence, g: GaugeSpec, r: float,
                    t: float) -> CauchyClassification:
    """Forward: w(x_i, x_j, t) < r for all i0 <= i <= j up to the horizon;
    backward swaps the pair to w(x_j, x_i, t).  Reports the minimal i0 for
    each direction that holds."""
    _check_positive(r)
    _, fwd, bwd = _BallRows(g, seq.points).rows(r, t)
    return _classify(fwd, bwd)


def classify_cauchy_thresholds(seq: SampledSequence, g: GaugeSpec,
                               thresholds: ThresholdSet) -> list[tuple]:
    """(r, t, classify_cauchy(seq, g, r, t)) for every threshold pair, each
    distinct ball relation on the sequence classified once."""
    balls, memo, out = _BallRows(g, seq.points), {}, []
    for r, t in thresholds.pairs():
        _check_positive(r)
        key, fwd, bwd = balls.rows(r, t)
        if key not in memo:
            memo[key] = _classify(fwd, bwd)
        out.append((r, t, memo[key]))
    return out


def _classify(fwd, bwd) -> CauchyClassification:
    f_i0, b_i0 = _minimal_tail_start(fwd), _minimal_tail_start(bwd)
    if f_i0 and b_i0:
        return CauchyClassification("bi", max(f_i0, b_i0), f_i0, b_i0)
    if f_i0:
        return CauchyClassification("forward", f_i0, f_i0, None)
    if b_i0:
        return CauchyClassification("backward", b_i0, None, b_i0)
    return CauchyClassification("neither", None, None, None)


def converges_to(seq: SampledSequence, g: GaugeSpec, x, r: float, t: float,
                 side: str = "forward") -> bool:
    """True when some tail of the sequence stays inside B^side(x; r, t).
    The one-point tail is a candidate, so this is membership of the last
    point."""
    side = _normalize_side(side)
    _check_positive(r)
    return bool(_relation(g, r, t, side, (x, seq.points[-1])).rows[0] & 2)


@dataclass(frozen=True)
class CoverResult:
    centers: tuple
    radius_r: float
    scale_t: float
    side: str
    sample: tuple
    verified: bool

    def to_json(self) -> dict:
        return {"centers": list(self.centers), "radius": self.radius_r,
                "scale": self.scale_t, "side": self.side,
                "verified": self.verified}


def greedy_net(points, g: GaugeSpec, r: float, t: float,
               side: str = "forward") -> CoverResult:
    """First-uncovered greedy cover: scan the sample in input order, promote
    each uncovered point to a center, and re-verify membership at the end."""
    side = _normalize_side(side)
    _check_positive(r)
    sample = tuple(points)
    centers, verified = _greedy(_relation(g, r, t, side, sample).rows)
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
    centers, verified, escape = _compose(
        near, far, two, [sample.index(x) for x in forward.centers],
        [sample.index(y) for y in backward.centers])
    if escape:
        raise _escape_error(g, sample, escape, r, t)
    return CoverResult(tuple(sample[z] for z in centers), r, t, "two_sided",
                       sample, verified)


def _compose(near, far, two, fwd_centers, bwd_centers):
    """One cell near[i] & far[j] per centre pair, represented by its first
    point z.  Returns the representatives and whether their two-sided balls
    cover, or the first escape (i, j, z, u): u in the cell, outside z's
    two-sided ball."""
    centers, union = [], 0
    for i in fwd_centers:
        for j in bwd_centers:
            cell = near[i] & far[j]
            if not cell:
                continue
            z = _first(cell)
            escaped = cell & ~two[z]
            if escaped:
                return None, False, (i, j, z, _first(escaped))
            if z not in centers:
                centers.append(z)
                union |= two[z]
    return centers, union == (1 << len(two)) - 1, None


def _escape_error(g: GaugeSpec, sample, escape, r: float,
                  t: float) -> CellInclusionError:
    x_i, y_j, z, u = (sample[k] for k in escape)
    return CellInclusionError((x_i, y_j), z, u, g.value(z, u, t),
                              g.value(u, z, t), r)


@dataclass(frozen=True)
class TransportResult:
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
    source = tuple(source_points)
    image = tuple(image_points)
    if len(source) != len(image):
        raise ValueError("source and image samples must be paired lists")
    if not (eps > 0 and delta > 0):
        raise ValueError("eps and delta must be positive")
    n = len(source)
    for i in range(n):
        for k in range(n):
            if i != k and image_metric(image[i], image[k]) < delta \
                    and not source_metric(source[i], source[k]) < eps:
                raise ValueError(
                    f"modulus condition fails on pair ({source[i]!r}, "
                    f"{source[k]!r}): image distance "
                    f"{image_metric(image[i], image[k])} < {delta} but "
                    f"source distance {source_metric(source[i], source[k])} "
                    f">= {eps}")
    centers_idx: list[int] = []
    covered = [False] * n
    for i in range(n):
        if covered[i]:
            continue
        centers_idx.append(i)
        for j in range(n):
            if not covered[j] and image_metric(image[i], image[j]) < delta:
                covered[j] = True
    src_centers = tuple(source[i] for i in centers_idx)
    img_centers = tuple(image[i] for i in centers_idx)
    verified = all(any(source_metric(c, x) < eps for c in src_centers)
                   for x in source)
    return TransportResult(verified, src_centers, img_centers)


@dataclass(frozen=True)
class TruncatedSequenceFamily:
    """Finite real sequences padded to a common length, with an exponent."""

    members: tuple[tuple[float, ...], ...]
    p: float

    def __post_init__(self):
        if not self.members:
            raise ValueError("family must be nonempty")
        if not self.p >= 1:
            raise ValueError(f"exponent must be >= 1, got {self.p!r}")
        length = max(len(m) for m in self.members)
        if length < 1:
            raise ValueError("members must have at least one coordinate")
        padded = tuple(tuple(float(v) for v in m) + (0.0,) * (length - len(m))
                       for m in self.members)
        object.__setattr__(self, "members", padded)

    @property
    def length(self) -> int:
        return len(self.members[0])


def lp_distance(a, b, p: float) -> float:
    return sum(abs(x - y) ** p for x, y in zip(a, b)) ** (1.0 / p)


@dataclass(frozen=True)
class LpTailReport:
    pointwise_bounded: bool
    sup_vector: tuple[float, ...]
    tail_index: int | None
    verdict: bool
    witness: tuple | None  # (member index, n, tail sum) when verdict is false

    def to_json(self) -> dict:
        return {"pointwise_bounded": self.pointwise_bounded,
                "sup_vector": list(self.sup_vector),
                "tail_index": self.tail_index, "verdict": self.verdict,
                "witness": list(self.witness) if self.witness else None}


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


@dataclass(frozen=True)
class LpNet:
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


@dataclass(frozen=True)
class HeineBorelRow:
    radius_r: float
    scale_t: float
    split_s: float
    forward_size: int
    backward_size: int
    direct_size: int
    composed_size: int | None
    composed_ok: bool
    witness: str | None

    def to_json(self) -> dict:
        return {"radius": self.radius_r, "scale": self.scale_t,
                "split": self.split_s, "forward_size": self.forward_size,
                "backward_size": self.backward_size,
                "direct_size": self.direct_size,
                "composed_size": self.composed_size,
                "composed_ok": self.composed_ok, "witness": self.witness}


@dataclass(frozen=True)
class HeineBorelReport:
    rows: tuple[HeineBorelRow, ...]

    @property
    def all_composed_ok(self) -> bool:
        return all(row.composed_ok for row in self.rows)

    def to_json(self) -> dict:
        return {"rows": [row.to_json() for row in self.rows],
                "all_composed_ok": self.all_composed_ok}


def heine_borel_report(g: GaugeSpec, points=None,
                       grid: ScaleGrid | None = None,
                       thresholds: ThresholdSet | None = None) -> HeineBorelReport:
    """For each critical (r, t): build one-sided nets at (s, t/2) with
    s = `g.split_radius(r)`, compose them into a two-sided cover, and build
    a direct two-sided net for comparison.  Composition failures are reported per row
    rather than raised, since they diagnose the gauge, not the caller;
    `thresholds` defaults to the critical ones."""
    balls, outcomes, rows = _BallRows(g, points), {}, []
    thresholds = thresholds or critical_thresholds(g, balls.points, grid)
    for r, t in thresholds.pairs():
        s = g.split_radius(r)
        near_key, near, far = balls.rows(s, t / 2.0)
        key, fwd, bwd = balls.rows(r, t)
        out = outcomes.get((near_key, key))
        if out is None:
            out = outcomes[near_key, key] = _heine_borel_outcome(
                near, far, tuple(map(and_, fwd, bwd)))
        sizes, composed_size, ok, escape = out
        witness = escape and str(_escape_error(g, balls.points, escape, r, t))
        rows.append(HeineBorelRow(r, t, s, *sizes, composed_size, ok, witness))
    return HeineBorelReport(tuple(rows))


def _heine_borel_outcome(near, far, two) -> tuple:
    """Net sizes (forward, backward, direct) and the composed cover's size,
    verdict and escape; no composition unless both one-sided nets cover."""
    (fwd, fwd_ok), (bwd, bwd_ok) = _greedy(near), _greedy(far)
    sizes = (len(fwd), len(bwd), len(_greedy(two)[0]))
    if not (fwd_ok and bwd_ok):
        return sizes, None, False, None
    centers, verified, escape = _compose(near, far, two, fwd, bwd)
    if escape:
        return sizes, None, False, escape
    return sizes, len(centers), verified, None

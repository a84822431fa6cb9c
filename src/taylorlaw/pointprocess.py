"""Spatial point patterns on the unit torus and their count statistics.

Three generators cover the classical spectrum of spatial arrangement:
a homogeneous Poisson process (random), a Gaussian-displacement cluster
process (aggregated; Poisson parents, Poisson-many offspring each), and a
hardcore thinning (regular; uniform marks, a point survives only if no
neighbour within the hardcore radius carries a smaller mark).

Working on the torus [0,1)^2 removes every edge-correction question: the
annulus probability for the pair correlation ring estimator is exactly
2*pi*r*w while r + w/2 <= 1/2, and the hardcore condition is checked with
the wraparound metric min(|dx|, 1-|dx|) per axis.

``taylor_experiment`` bridges patterns to abundance statistics: it sweeps
one generator parameter across levels, pools quadrat counts over
replicates, and emits one mean-variance pair per level, ready for
power-law fitting.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ._choices import EXPERIMENT_KINDS, PCF_FORMS, _check_seed
from ._records import _Checked, _Frozen
from .errors import (
    DegenerateDesignError,
    DomainError,
    InsufficientDataError,
    UsageError,
)

if TYPE_CHECKING:
    from .extraction import MVSeries

# Most points, quadrats, rings, pooled counts or candidate pairs (of one
# offset of the close-pair search) one call may ask for.
_SIZE_LIMIT = 10**7


def _wrap_unit(coords: np.ndarray) -> np.ndarray:
    # x % 1.0 rounds up to exactly 1.0 for tiny negative x, which would
    # break the [0, 1) invariant, so fold that edge back to 0.
    wrapped = np.mod(coords, 1.0)
    return np.where(wrapped >= 1.0, 0.0, wrapped)


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


class PointPattern(_Frozen):
    """Points in [0,1)^2 with the generator descriptor and seed that made them."""

    __slots__ = ("points", "generator", "seed")

    def __init__(self, points, generator: str, seed: int):
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, 2)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("coordinates must be finite")
        if pts.size and (pts.min() < 0.0 or pts.max() >= 1.0):
            raise ValueError("coordinates must lie in [0, 1)")
        self.points = _readonly(pts)
        self.generator = generator
        self.seed = seed
        _check_seed(seed)

    @property
    def n(self) -> int:
        return self.points.shape[0]


class PcfEstimate(_Frozen):
    """Binned pair correlation estimate g(r) at ring centers ``radii``."""

    __slots__ = ("radii", "g", "bin_width", "n_points")

    def __init__(self, radii, g, bin_width: float, n_points: int):
        radii = np.asarray(radii, dtype=float)
        g = np.asarray(g, dtype=float)
        if radii.ndim != 1 or radii.shape != g.shape:
            raise ValueError("radii and g must be 1-d arrays of equal length")
        if not bin_width > 0:
            raise ValueError("bin_width must be positive")
        if radii.size:
            if radii[0] <= 0 or np.any(np.diff(radii) <= 0):
                raise ValueError("radii must be positive and increasing")
            if radii[-1] + bin_width / 2.0 > 0.5 + 1e-12:
                raise ValueError("rings must fit inside the half-width of the torus")
        if g.size and g.min() < 0:
            raise ValueError("g estimates must be non-negative")
        self.radii = _readonly(radii)
        self.g = _readonly(g)
        self.bin_width = bin_width
        self.n_points = n_points


class _PcfFitFields(NamedTuple):
    r0: float
    s: float
    form: str
    r_squared: float
    n_used: int


class PcfFit(_Checked, _PcfFitFields):
    """Power-law scale r0 and exponent s fitted to a correlation estimate."""

    __slots__ = ()

    def _check(self) -> None:
        if not self.r0 > 0:
            raise ValueError("r0 must be positive")
        if self.form not in PCF_FORMS:
            raise ValueError(f"unknown form {self.form!r}")
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError("r_squared must lie in [0, 1]")
        if self.n_used < 3:
            raise ValueError("a correlation fit needs at least 3 bins")


def _within_limit(what: str, size: float) -> float:
    if size > _SIZE_LIMIT:
        raise UsageError(f"{what} ({size:g}) exceed the limit of {_SIZE_LIMIT:g}")
    return size


# Most candidate pairs one block of the close-pair search lists, unless one
# point alone has more, and most (offset, point) rows it sets up at once.
# Between 2**13 and 2**15 the search times alike from 100 to 4000 points;
# larger blocks leave the cache, and smaller ones pay numpy's per-call cost.
_BLOCK = 2**14


def _half_neighbourhood(reach: int) -> np.ndarray:
    """The cell offsets (ox, oy) > (0, 0) within ``reach`` cells per axis,
    after (0, 0): the other half lists the same pairs from the far cell."""
    return np.array(
        [(0, oy) for oy in range(reach + 1)]
        + [(ox, oy) for ox in range(1, reach + 1) for oy in range(-reach, reach + 1)]
    )


_HALF_NEIGHBOURHOODS = {reach: _half_neighbourhood(reach) for reach in (1, 3)}


def _torus_gap(u: np.ndarray, run: slice, size: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Wraparound gap along one axis between each u[a] of the run, repeated
    ``size`` times, and u[b]."""
    gap = np.abs(np.repeat(u[run], size) - u[b])
    return np.minimum(gap, 1.0 - gap, out=gap)


def _close_pairs(pts: np.ndarray, r: float) -> Iterator[tuple[np.ndarray, ...]]:
    """Yield, one block at a time, the pairs i < j about ``r`` or less apart,
    with their exact torus distance.

    Linked cells (Allen & Tildesley, *Computer Simulation of Liquids*, 1987):
    the points are sorted into m-by-m periodic cells of side at least r/k,
    so a close pair lies in one cell or in two cells at most k apart per
    axis. Cells of side r hold about n r^2 points; from 16 on, cells of side
    r/3 (k = 3) list far fewer candidates that are not close pairs, which
    outweighs their 25 offsets against 5. The offsets of the half
    neighbourhood are set up a few at a time, and their points are listed
    in runs of at most ``_BLOCK`` candidates, or one point's, so memory
    grows with n and one block, not with the pairs. With fewer than 2k + 1
    cells per axis the offsets would alias, so one cell holds every point
    and every pair is a candidate.
    """
    # The widening keeps rounding from losing a pair at the edge.
    r = r * (1 + 1e-9)
    n = len(pts)
    reach = 1 if n * r * r < 16 else 3
    # The cells are sized for a slightly larger radius still, which covers
    # the rounding of x * m, and there are at most about 4n of them.
    m = int(min(reach / (r * (1 + 1e-9)), math.isqrt(4 * n)))
    m = m if m >= 2 * reach + 1 else 1
    # x < 1 keeps x * m below m.
    cx = (pts[:, 0] * m).astype(np.int64)
    cy = (pts[:, 1] * m).astype(np.int64)
    cell = cx * m + cy
    order = np.argsort(cell, kind="stable")
    counts = np.bincount(cell, minlength=m * m)
    x, y, cx, cy = pts[order, 0], pts[order, 1], cx[order], cy[order]
    starts = np.cumsum(counts) - counts
    here = np.arange(n)
    # Squared distances prefilter the candidates; the floor keeps a radius
    # whose square is subnormal from losing a pair to rounding.
    r2 = max(r * r * (1 + 1e-9), 2.0**-1000)
    offsets = _HALF_NEIGHBOURHOODS[reach] if m > 1 else _HALF_NEIGHBOURHOODS[reach][:1]
    per_chunk = max(1, _BLOCK // max(n, 1))
    for c in range(0, len(offsets), per_chunk):
        # One row per offset: each point's neighbour cell, where its
        # candidates start in the sorted order, and how many there are.
        ox, oy = offsets[c : c + per_chunk, :, None].transpose(1, 0, 2)
        nb = (cx + ox) % m * m + (cy + oy) % m
        first, size = starts[nb], counts[nb]
        if c == 0:  # the later points of the same cell
            size[0] += first[0] - here - 1
            first[0] = here + 1
        # Count before listing: a dense pattern's candidates can outgrow memory.
        _within_limit("candidate close pairs", size.sum(axis=1).max())
        per_point = size.sum(axis=0)
        ends = np.cumsum(per_point)
        lo = 0
        while lo < n:
            done = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, done + _BLOCK, side="right")))
            run, per_run = slice(lo, hi), per_point[lo:hi]
            # A run's candidates go point by point, each point's offsets in turn.
            block = size[:, run].ravel(order="F")
            skip = first[:, run].ravel(order="F") - (np.cumsum(block) - block)
            b = np.arange(ends[hi - 1] - done) + np.repeat(skip, block)
            dx, dy = _torus_gap(x, run, per_run, b), _torus_gap(y, run, per_run, b)
            near = np.flatnonzero(dx * dx + dy * dy <= r2)
            d = np.hypot(dx[near], dy[near])
            keep = d <= r
            close = near[keep]
            a, b = order[np.repeat(here[run], per_run)[close]], order[b[close]]
            yield np.minimum(a, b), np.maximum(a, b), d[keep]
            lo = hi


def simulate_poisson(intensity: float, seed: int) -> PointPattern:
    """Homogeneous Poisson pattern: Poisson(intensity) points, uniform."""
    if not intensity > 0:
        raise DomainError("intensity must be positive")
    rng = np.random.default_rng(_check_seed(seed))
    count = rng.poisson(_within_limit("expected points", intensity))
    points = rng.random((count, 2))
    return PointPattern(points, f"poisson(intensity={intensity:g})", seed)


def simulate_thomas(
    parent_intensity: float, mean_offspring: float, sigma: float, seed: int
) -> PointPattern:
    """Cluster pattern: Gaussian-scattered offspring around Poisson parents.

    Only offspring are returned; parents are latent cluster centers.
    """
    if not (parent_intensity > 0 and mean_offspring > 0 and 0 < sigma <= 1e300):
        raise DomainError("cluster parameters must be positive, sigma at most 1e300")
    _within_limit("expected points", max(parent_intensity, 1) * max(mean_offspring, 1))
    rng = np.random.default_rng(_check_seed(seed))
    n_parents = rng.poisson(parent_intensity)
    parents = rng.random((n_parents, 2))
    brood = rng.poisson(mean_offspring, size=n_parents)
    centers = np.repeat(parents, brood, axis=0)
    offsets = rng.normal(0.0, sigma, size=centers.shape)
    points = _wrap_unit(centers + offsets)
    descriptor = (
        f"thomas(parent_intensity={parent_intensity:g}, "
        f"mean_offspring={mean_offspring:g}, sigma={sigma:g})"
    )
    return PointPattern(points, descriptor, seed)


def simulate_hardcore(
    proposal_intensity: float, hardcore_radius: float, seed: int
) -> PointPattern:
    """Regular pattern by mark-based thinning of a Poisson proposal set.

    Every proposal gets an independent uniform mark; a proposal survives
    iff no other proposal within ``hardcore_radius`` (torus metric) has a
    smaller mark. Survivors are pairwise at least ``hardcore_radius``
    apart.
    """
    if not proposal_intensity > 0:
        raise DomainError("proposal intensity must be positive")
    if not 0.0 < hardcore_radius < 0.5:
        raise DomainError("hardcore radius must lie in (0, 0.5)")
    rng = np.random.default_rng(_check_seed(seed))
    count = rng.poisson(_within_limit("expected proposals", proposal_intensity))
    proposals = rng.random((count, 2))
    marks = rng.random(count)
    descriptor = (
        f"hardcore(proposal_intensity={proposal_intensity:g}, "
        f"radius={hardcore_radius:g})"
    )
    keep = np.ones(count, dtype=bool)
    for i, j, d in _close_pairs(proposals, hardcore_radius):
        i, j = i[d < hardcore_radius], j[d < hardcore_radius]
        keep[j[marks[i] < marks[j]]] = False
        keep[i[marks[j] < marks[i]]] = False
    return PointPattern(proposals[keep], descriptor, seed)


def quadrat_counts(pattern: PointPattern, q: int) -> np.ndarray:
    """Count points per cell of the q-by-q grid: a read-only (q, q) int64
    array whose cell (i, j) holds the points with floor(x*q) = i and
    floor(y*q) = j."""
    if not (isinstance(q, (int, np.integer)) and q >= 1):
        raise UsageError("q must be an integer >= 1")
    q = int(q)
    pts = pattern.points
    ix = np.floor(pts[:, 0] * q).astype(np.int64)
    iy = np.floor(pts[:, 1] * q).astype(np.int64)
    flat = np.bincount(ix * q + iy, minlength=_within_limit("quadrats", q * q))
    flat.setflags(write=False)
    return flat.reshape(q, q)


def derive_seed(seed: int, kind: str, level_index: int, rep_index: int) -> int:
    """Deterministic sub-seed for one (level, replicate) simulation cell.

    Mixes (seed, kind code, level index, rep index) through numpy's
    SeedSequence so cells are independent and the whole experiment is
    reproducible from the top-level seed alone.
    """
    if kind not in EXPERIMENT_KINDS:
        raise UsageError(f"unknown experiment kind {kind!r}")
    entropy = [_check_seed(seed), EXPERIMENT_KINDS.index(kind), level_index, rep_index]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def taylor_experiment(
    kind: str,
    levels: list[float],
    reps: int,
    q: int,
    seed: int,
    parent_intensity: float = 20.0,
    sigma: float = 0.02,
    hardcore_radius: float = 0.02,
) -> MVSeries:
    """Sweep one generator parameter and pool quadrat counts per level.

    ``levels`` drives the Poisson intensity (poisson_sweep), the mean
    offspring per parent (thomas_cluster_sweep), or the proposal intensity
    (hardcore_sweep); the remaining generator parameters stay fixed at the
    keyword defaults. Each level pools reps * q * q counts into a single
    mean-variance pair labeled by the level value.
    """
    if not levels:
        raise UsageError("levels must be non-empty")
    lv = [float(x) for x in levels]
    if any(not (x > 0 and math.isfinite(x)) for x in lv):
        raise UsageError("levels must be positive and finite")
    if any(b <= a for a, b in zip(lv, lv[1:])):
        raise UsageError("levels must be strictly increasing")
    if not (isinstance(reps, (int, np.integer)) and reps >= 1):
        raise UsageError("reps must be an integer >= 1")
    if not (isinstance(q, (int, np.integer)) and q >= 1):
        raise UsageError("q must be an integer >= 1")
    _within_limit("pooled counts per level", int(reps) * int(q) ** 2)

    from .extraction import MVPair, MVSeries, sample_variance

    pairs = []
    for li, level in enumerate(lv):
        pooled = []
        for ri in range(int(reps)):
            sub = derive_seed(seed, kind, li, ri)
            if kind == "poisson_sweep":
                pattern = simulate_poisson(level, sub)
            elif kind == "thomas_cluster_sweep":
                pattern = simulate_thomas(parent_intensity, level, sigma, sub)
            else:
                pattern = simulate_hardcore(level, hardcore_radius, sub)
            pooled.append(quadrat_counts(pattern, int(q)).ravel())
        counts = np.concatenate(pooled).astype(float)
        pairs.append(
            MVPair(f"{level:g}", float(counts.mean()), sample_variance(counts))
        )
    return MVSeries(scheme=None, pairs=tuple(pairs))


def estimate_pcf(
    pattern: PointPattern, bin_width: float, r_max: float
) -> PcfEstimate:
    """Ring estimator of the pair correlation function on the torus.

    For the ring centered at r with width w, g(r) is the observed pair
    fraction divided by the exact null annulus probability 2*pi*r*w. Rings
    are laid on edges 0, w, 2w, ... and kept while they fit both under
    ``r_max`` and inside the torus half-width.
    """
    if not 0.0 < r_max < 0.5:
        raise DomainError("r_max must lie in (0, 0.5)")
    if not 0.0 < bin_width < r_max:
        raise DomainError("bin_width must lie in (0, r_max)")
    n = pattern.n
    if n < 2:
        raise InsufficientDataError(
            "insufficient data: a correlation estimate needs at least 2 points"
        )
    n_bins = int(math.floor(_within_limit("rings", r_max / bin_width) + 1e-12))
    centers = (np.arange(n_bins) + 0.5) * bin_width
    raw = np.zeros(n_bins, dtype=np.int64)
    for _, _, d in _close_pairs(pattern.points, n_bins * bin_width):
        # Half-open rings [k*w, (k+1)*w) by integer bin index.
        idx = np.floor(d / bin_width).astype(np.int64)
        raw += np.bincount(idx[idx < n_bins], minlength=n_bins)
    n_pairs = n * (n - 1) / 2.0
    expected = n_pairs * 2.0 * math.pi * centers * bin_width
    return PcfEstimate(centers, raw / expected, float(bin_width), n)


def fit_pcf(est: PcfEstimate, form: str) -> PcfFit:
    """Log-log fit of the correlation estimate to (r0/r)^s.

    paper_form regresses ln(1+g) on ln r; xi_form regresses ln(g-1) on
    ln r using only bins with g > 1. The slope is -s and the intercept is
    s*ln r0.
    """
    if form not in PCF_FORMS:
        raise UsageError(f"unknown correlation fit form {form!r}")
    radii = est.radii
    g = est.g
    if form == "paper_form":
        mask = 1.0 + g > 0
        y_all = np.log1p(g[mask])
    else:
        mask = g > 1.0
        y_all = np.log(g[mask] - 1.0)
    x_all = np.log(radii[mask])
    if x_all.size < 3:
        raise InsufficientDataError(
            f"insufficient signal: {x_all.size} usable bins for {form}, need 3"
        )
    from .fitting import _ols_lines

    line = _ols_lines(x_all[None], y_all[None])[0]
    s = -line.slope
    if s == 0.0:
        raise DegenerateDesignError(
            "flat correlation profile: the scale r0 is undefined at s = 0"
        )
    try:
        r0 = math.exp(line.intercept / s)
    except OverflowError:
        r0 = math.inf
    if not 0.0 < r0 < math.inf:
        raise DegenerateDesignError(
            f"flat correlation profile: the scale r0 = exp({line.intercept:.6g} / "
            f"{s:.6g}) is outside the float range"
        )
    return PcfFit(
        r0=r0,
        s=s,
        form=form,
        r_squared=line.r_squared,
        n_used=int(x_all.size),
    )

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
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDesignError,
    DomainError,
    InsufficientDataError,
    UsageError,
)
from .extraction import MVPair, MVSeries, sample_variance
from .fitting import _ols_line

EXPERIMENT_KINDS = ("poisson_sweep", "thomas_cluster_sweep", "hardcore_sweep")
PCF_FORMS = ("paper_form", "xi_form")

_SEED_LIMIT = 2**64


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise UsageError("seed must be an integer")
    if not 0 <= seed < _SEED_LIMIT:
        raise UsageError("seed must fit in an unsigned 64-bit integer")
    return int(seed)


def _wrap_unit(coords: np.ndarray) -> np.ndarray:
    # x % 1.0 rounds up to exactly 1.0 for tiny negative x, which would
    # break the [0, 1) invariant, so fold that edge back to 0.
    wrapped = np.mod(coords, 1.0)
    return np.where(wrapped >= 1.0, 0.0, wrapped)


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class PointPattern:
    """Points in [0,1)^2 with the generator descriptor and seed that made them."""

    points: np.ndarray
    generator: str
    seed: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, 2)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("coordinates must be finite")
        if pts.size and (pts.min() < 0.0 or pts.max() >= 1.0):
            raise ValueError("coordinates must lie in [0, 1)")
        object.__setattr__(self, "points", _readonly(pts))
        _check_seed(self.seed)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointPattern):
            return NotImplemented
        return (
            self.generator == other.generator
            and self.seed == other.seed
            and np.array_equal(self.points, other.points)
        )


@dataclass(frozen=True, eq=False)
class QuadratCounts:
    """Counts of points per cell of a q-by-q partition of the unit square."""

    q: int
    counts: np.ndarray

    def __post_init__(self):
        if not (isinstance(self.q, (int, np.integer)) and self.q >= 1):
            raise ValueError("q must be an integer >= 1")
        counts = np.asarray(self.counts)
        if counts.shape != (self.q, self.q):
            raise ValueError(f"counts must have shape ({self.q}, {self.q})")
        if not np.issubdtype(counts.dtype, np.integer):
            raise ValueError("counts must be integers")
        if counts.size and counts.min() < 0:
            raise ValueError("counts must be non-negative")
        frozen = np.array(counts, copy=True)
        frozen.setflags(write=False)
        object.__setattr__(self, "counts", frozen)
        object.__setattr__(self, "q", int(self.q))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadratCounts):
            return NotImplemented
        return self.q == other.q and np.array_equal(self.counts, other.counts)


@dataclass(frozen=True, eq=False)
class PcfEstimate:
    """Binned pair correlation estimate g(r) at ring centers ``radii``."""

    radii: np.ndarray
    g: np.ndarray
    bin_width: float
    n_points: int

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if radii.ndim != 1 or radii.shape != g.shape:
            raise ValueError("radii and g must be 1-d arrays of equal length")
        if not self.bin_width > 0:
            raise ValueError("bin_width must be positive")
        if radii.size:
            if radii[0] <= 0 or np.any(np.diff(radii) <= 0):
                raise ValueError("radii must be positive and increasing")
            if radii[-1] + self.bin_width / 2.0 > 0.5 + 1e-12:
                raise ValueError("rings must fit inside the half-width of the torus")
        if g.size and g.min() < 0:
            raise ValueError("g estimates must be non-negative")
        object.__setattr__(self, "radii", _readonly(radii))
        object.__setattr__(self, "g", _readonly(g))

    def __len__(self) -> int:
        return self.radii.shape[0]


@dataclass(frozen=True)
class PcfFit:
    """Power-law scale r0 and exponent s fitted to a correlation estimate."""

    r0: float
    s: float
    form: str
    r_squared: float
    n_used: int

    def __post_init__(self):
        if not self.r0 > 0:
            raise ValueError("r0 must be positive")
        if self.form not in PCF_FORMS:
            raise ValueError(f"unknown form {self.form!r}")
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError("r_squared must lie in [0, 1]")
        if self.n_used < 3:
            raise ValueError("a correlation fit needs at least 3 bins")


def pairwise_torus_distances(points: np.ndarray) -> np.ndarray:
    """Condensed vector of all unordered pairwise torus distances."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    if n < 2:
        return np.empty(0)
    i, j = np.triu_indices(n, k=1)
    d = np.abs(pts[i] - pts[j])
    d = np.minimum(d, 1.0 - d)
    return np.hypot(d[:, 0], d[:, 1])


def _torus_distance_matrix(pts: np.ndarray) -> np.ndarray:
    d = np.abs(pts[:, None, :] - pts[None, :, :])
    d = np.minimum(d, 1.0 - d)
    return np.hypot(d[..., 0], d[..., 1])


def simulate_poisson(intensity: float, seed: int) -> PointPattern:
    """Homogeneous Poisson pattern: Poisson(intensity) points, uniform."""
    if not intensity > 0:
        raise DomainError("intensity must be positive")
    rng = np.random.default_rng(_check_seed(seed))
    count = rng.poisson(intensity)
    points = rng.random((count, 2))
    return PointPattern(points, f"poisson(intensity={intensity:g})", seed)


def simulate_thomas(
    parent_intensity: float, mean_offspring: float, sigma: float, seed: int
) -> PointPattern:
    """Cluster pattern: Gaussian-scattered offspring around Poisson parents.

    Only offspring are returned; parents are latent cluster centers.
    """
    if not (parent_intensity > 0 and mean_offspring > 0 and sigma > 0):
        raise DomainError("all cluster parameters must be positive")
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
    count = rng.poisson(proposal_intensity)
    proposals = rng.random((count, 2))
    marks = rng.random(count)
    descriptor = (
        f"hardcore(proposal_intensity={proposal_intensity:g}, "
        f"radius={hardcore_radius:g})"
    )
    if count == 0:
        return PointPattern(proposals, descriptor, seed)
    dist = _torus_distance_matrix(proposals)
    close = dist < hardcore_radius
    np.fill_diagonal(close, False)
    beaten = close & (marks[None, :] < marks[:, None])
    keep = ~beaten.any(axis=1)
    return PointPattern(proposals[keep], descriptor, seed)


def quadrat_counts(pattern: PointPattern, q: int) -> QuadratCounts:
    """Count points per cell of the q-by-q grid; cell (i, j) holds the
    points with floor(x*q) = i and floor(y*q) = j."""
    if not (isinstance(q, (int, np.integer)) and q >= 1):
        raise UsageError("q must be an integer >= 1")
    q = int(q)
    pts = pattern.points
    ix = np.floor(pts[:, 0] * q).astype(np.int64)
    iy = np.floor(pts[:, 1] * q).astype(np.int64)
    flat = np.bincount(ix * q + iy, minlength=q * q)
    return QuadratCounts(q, flat.reshape(q, q))


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
    if kind not in EXPERIMENT_KINDS:
        raise UsageError(f"unknown experiment kind {kind!r}")
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
    _check_seed(seed)

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
            pooled.append(quadrat_counts(pattern, int(q)).counts.ravel())
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
    n_bins = int(math.floor(r_max / bin_width + 1e-12))
    edges_ok = int(math.floor((0.5 + 1e-12) / bin_width))
    n_bins = min(n_bins, edges_ok)
    centers = (np.arange(n_bins) + 0.5) * bin_width
    d = pairwise_torus_distances(pattern.points)
    # Half-open rings [k*w, (k+1)*w) by integer bin index.
    idx = np.floor(d / bin_width).astype(np.int64)
    idx = idx[idx < n_bins]
    raw = np.bincount(idx, minlength=n_bins)[:n_bins]
    n_pairs = n * (n - 1) / 2.0
    expected = n_pairs * 2.0 * math.pi * centers * bin_width
    g = raw / expected
    return PcfEstimate(centers, g, float(bin_width), n)


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
    line = _ols_line(x_all, y_all)
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

"""Point-pattern simulators, torus geometry, quadrat counts, correlation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import squareform

from taylorlaw import (
    DegenerateDesignError,
    DomainError,
    EXPERIMENT_KINDS,
    InsufficientDataError,
    PcfEstimate,
    PcfFit,
    PointPattern,
    UsageError,
    derive_seed,
    estimate_pcf,
    fit_pcf,
    quadrat_counts,
    simulate_hardcore,
    simulate_poisson,
    simulate_thomas,
    taylor_experiment,
)
from taylorlaw import pointprocess
from taylorlaw.pointprocess import _close_pairs
from conftest import pairwise_torus_distances, same_fields, torus_distance

_unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
_point = st.tuples(_unit, _unit)


class TestTorusMetric:
    def test_wraparound_shortcut(self):
        assert torus_distance((0.01, 0.0), (0.99, 0.0)) == pytest.approx(
            0.02, rel=1e-12
        )

    def test_plain_euclidean_inside(self):
        assert torus_distance((0.1, 0.1), (0.4, 0.5)) == pytest.approx(0.5, rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(p=_point, q=_point, r=_point)
    def test_metric_axioms(self, p, q, r):
        assert torus_distance(p, p) == 0.0
        d = torus_distance(p, q)
        assert d == torus_distance(q, p)
        assert 0.0 <= d <= math.sqrt(0.5) + 1e-12
        assert d <= torus_distance(p, r) + torus_distance(r, q) + 1e-12

    def test_condensed_distances_match_scalar_rule(self):
        # np.hypot and math.hypot may disagree in the final ulp, so the
        # comparison is near-exact rather than bitwise.
        pts = np.random.default_rng(0).random((25, 2))
        cond = pairwise_torus_distances(pts)
        k = 0
        for i in range(25):
            for j in range(i + 1, 25):
                assert cond[k] == pytest.approx(
                    torus_distance(tuple(pts[i]), tuple(pts[j])), rel=1e-14
                )
                k += 1
        assert k == len(cond) == 25 * 24 // 2

    def test_fewer_than_two_points(self):
        assert pairwise_torus_distances(np.empty((0, 2))).size == 0
        assert pairwise_torus_distances(np.array([[0.5, 0.5]])).size == 0


def assert_close_pairs_match_oracle(points, r):
    """The blocks of the close-pair search list, between them, exactly the
    pairs i < j that the all-pairs oracle puts at most r (1 + 1e-9) apart,
    with the same distance bits. Returns the number of pairs."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    none = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
    i, j, d = (np.concatenate(part) for part in zip(none, *_close_pairs(points, r)))
    order = np.lexsort((j, i))
    want_d = pairwise_torus_distances(points)
    want_i, want_j = np.triu_indices(len(points), k=1)
    near = want_d <= r * (1 + 1e-9)
    np.testing.assert_array_equal(i[order], want_i[near])
    np.testing.assert_array_equal(j[order], want_j[near])
    bits = np.int64
    np.testing.assert_array_equal(d[order].view(bits), want_d[near].view(bits))
    return int(near.sum())


class TestClosePairs:
    @pytest.mark.parametrize("k", [10, 16, 25])
    def test_lattice_pairs_exactly_at_the_radius(self, k):
        # Every radius is a lattice distance, so whole shells of pairs sit on it.
        for steps in [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]:
            r = math.hypot(*steps) / k
            assert assert_close_pairs_match_oracle(lattice(k), r) >= k * k

    @pytest.mark.parametrize(
        "dx,dy,r",
        [
            (0.24475606623645962, 0.0008215500510444284, 0.24475744479835573),
            (0.2188966339289832, 0.052696686180767706, 0.22515034305656348),
            (
                7.296554464299441e-162,
                1.7565562060255903e-162,
                7.505011435218785e-162,
            ),
        ],
    )
    def test_pair_on_the_widened_radius(self, dx, dy, r):
        # hypot(dx, dy) is r (1 + 1e-9) to the bit, but dx**2 + dy**2 rounds
        # above its square: the squared-distance prefilter needs its slack,
        # and its floor where the squares are subnormal.
        assert assert_close_pairs_match_oracle([[0.0, 0.0], [dx, dy]], r) == 1

    def test_pair_across_a_rounded_cell_edge(self):
        # With r widened to 1/3 exactly, 6 cells of side r/2 would fit, and
        # 0.8333333333333333 * 6 rounds up to 5 while 0.49999999999999994 * 6
        # stays below 3: three cells apart, yet 1/3 apart. Cells sized for a
        # slightly wider radius keep this pair.
        far = [[k / 10, 0.0] for k in range(10)]
        points = [[0.49999999999999994, 0.5], [0.8333333333333333, 0.5], *far]
        assert assert_close_pairs_match_oracle(points, 0.33333333299999995) >= 1

    @pytest.mark.parametrize("m", [5, 6, 7, 10, 33, 50, 64])
    def test_radius_where_the_cell_side_is_half_of_it(self, m):
        # At r = 2/m, m cells of side exactly r/2 would fit across.
        points = np.vstack([lattice(m), np.random.default_rng(m).random((400, 2))])
        assert assert_close_pairs_match_oracle(points, 2.0 / m) > 0

    @pytest.mark.parametrize("r", [0.003, 0.01, 0.1, 0.2, 0.3, 0.45])
    def test_coordinates_next_to_one(self, r):
        top = 1.0 - 2.0**-53
        edge = [[top, 0.5], [0.0, 0.5], [top, top], [0.0, 0.0], [0.5, top], [top, 0.0]]
        points = np.vstack([edge, np.random.default_rng(7).random((300, 2))])
        points[300:] = np.where(points[300:] < 0.5, points[300:], top)
        assert assert_close_pairs_match_oracle(points, r) >= 9

    @pytest.mark.parametrize("r", [0.4000001, 0.41, 0.45, 0.49, 0.4999999])
    def test_single_cell_band(self, r):
        points = np.random.default_rng(11).random((300, 2))
        assert assert_close_pairs_match_oracle(points, r) > 0

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("r", [1e-300, 0.01, 0.3, 0.49])
    def test_fewest_points(self, n, r):
        points = [[0.1, 0.2], [0.1 + r / 2, 0.2]][:n]
        assert assert_close_pairs_match_oracle(points, r) == (n == 2)

    @pytest.mark.parametrize("r", [1e-4, 0.01, 0.2])
    def test_every_point_in_one_cell(self, r):
        points = 0.3 + 1e-4 * np.random.default_rng(3).random((500, 2))
        assert assert_close_pairs_match_oracle(points, r) > 0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 1500),
        r=st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True),
        grid=st.sampled_from([0, 8, 20, 64]),
    )
    def test_matches_the_all_pairs_oracle(self, seed, n, r, grid):
        points = np.random.default_rng(seed).random((n, 2))
        if grid:  # ties: many pairs share a distance
            points = np.floor(points * grid) / grid
        assert_close_pairs_match_oracle(points, r)

    @pytest.mark.parametrize("r", [0.05, 0.3])
    def test_blocks_of_the_module_budget(self, r):
        # 1500 points, set up 10 offsets at a time: at r = 0.05 the 5
        # offsets list their points in 2 runs; at r = 0.3 each offset has
        # about 27,700 candidates, and 44 runs of about 95 points each stay
        # under the budget of 16,384.
        points = np.random.default_rng(5).random((1500, 2))
        assert assert_close_pairs_match_oracle(points, r) > 0

    @pytest.mark.parametrize("caller", ["pairs", "pcf", "hardcore"])
    @pytest.mark.parametrize("block", [1, 7, 300, 5000])
    @pytest.mark.parametrize("r", [0.03, 0.2])
    def test_offsets_split_into_budgeted_blocks(self, monkeypatch, caller, block, r):
        # A budget of 1 lists each point's candidates alone; the others end
        # the runs of points at other edges, and a budget below n sets up
        # the per-point rows a few offsets at a time. Each caller folds the
        # blocks into the all-pairs answer, bit for bit, and no block lists
        # more than the budget unless it holds one point's candidates.
        monkeypatch.setattr(pointprocess, "_BLOCK", block)
        runs = []
        gap = pointprocess._torus_gap

        def spy(u, run, size, b):
            runs.append((run.stop - run.start, len(b)))
            return gap(u, run, size, b)

        monkeypatch.setattr(pointprocess, "_torus_gap", spy)
        points = np.vstack([lattice(10), np.random.default_rng(5).random((600, 2))])
        if caller == "pairs":
            assert assert_close_pairs_match_oracle(points, r) > 0
        elif caller == "pcf":
            est = estimate_pcf(PointPattern(points, "manual", 0), 0.01, r)
            np.testing.assert_array_equal(est.g, brute_force_g(points, 0.01, r))
        else:
            proposals, _, survivors = brute_force_hardcore(600.0, r, 5)
            pattern = simulate_hardcore(600.0, r, 5)
            np.testing.assert_array_equal(pattern.points, proposals[survivors])
        assert runs
        assert all(candidates <= block or size == 1 for size, candidates in runs)

    def test_refuses_before_listing(self):
        # 4500 coincident points: 10,122,750 candidates in one block.
        crowd = np.full((4500, 2), 0.5)
        tracemalloc.start()
        try:
            with pytest.raises(UsageError, match="candidate close pairs"):
                next(_close_pairs(crowd, 0.25))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


class TestSimulators:
    @pytest.mark.parametrize(
        "make",
        [
            lambda s: simulate_poisson(100.0, s),
            lambda s: simulate_thomas(20.0, 10.0, 0.02, s),
            lambda s: simulate_hardcore(200.0, 0.02, s),
        ],
        ids=["poisson", "thomas", "hardcore"],
    )
    def test_same_seed_same_pattern(self, make):
        runs = [make(11) for _ in range(3)]
        assert same_fields(runs[0], runs[1]) and same_fields(runs[1], runs[2])
        assert not same_fields(runs[0], make(12))

    @pytest.mark.parametrize(
        "make",
        [
            lambda s: simulate_poisson(150.0, s),
            lambda s: simulate_thomas(20.0, 10.0, 0.05, s),
            lambda s: simulate_hardcore(300.0, 0.03, s),
        ],
        ids=["poisson", "thomas", "hardcore"],
    )
    def test_coordinates_stay_in_unit_square(self, make):
        for seed in range(5):
            pts = make(seed).points
            if pts.size:
                assert pts.min() >= 0.0
                assert pts.max() < 1.0

    def test_poisson_count_calibration(self):
        counts = [simulate_poisson(100.0, s).n for s in range(1000)]
        assert 97.0 <= np.mean(counts) <= 103.0

    def test_thomas_count_calibration(self):
        # Expected points = parent_intensity * mean_offspring = 200.
        counts = [simulate_thomas(20.0, 10.0, 0.02, s).n for s in range(200)]
        assert 185.0 <= np.mean(counts) <= 215.0

    def test_hardcore_separation_is_enforced(self):
        for seed in range(5):
            pattern = simulate_hardcore(300.0, 0.05, seed)
            assert pattern.n >= 2
            assert pairwise_torus_distances(pattern.points).min() >= 0.05

    def test_hardcore_thins_the_proposals(self):
        for seed in range(5):
            assert simulate_hardcore(300.0, 0.05, seed).n < 300 * 0.7

    def test_hardcore_is_matern_type_ii_thinning(self):
        # Sequential inhibition, which keeps proposals in arrival order
        # unless an accepted one lies within r, keeps more points than type
        # II and must differ on at least one seed. 600 proposals spread over
        # many cells of the search.
        def check(intensity, r, seed):
            proposals, dist, type_ii = brute_force_hardcore(intensity, r, seed)
            near = dist < r
            np.fill_diagonal(near, False)
            sequential = np.zeros(len(proposals), dtype=bool)
            for i in range(len(proposals)):
                sequential[i] = not (near[i] & sequential).any()
            pattern = simulate_hardcore(intensity, r, seed)
            np.testing.assert_array_equal(pattern.points, proposals[type_ii])
            return not np.array_equal(sequential, type_ii), dist

        for intensity, r in [(60, 0.15), (600, 0.02), (600, 0.15), (600, 0.49)]:
            assert any([check(intensity, r, seed)[0] for seed in range(4)]), r
        # A pair exactly r apart is not close: take r from the pair distances.
        dist = np.unique(check(600.0, 0.02, 0)[1])
        for r in dist[[10, 30, 100, 300, 1000]]:
            check(600.0, float(r), 0)

    def test_huge_radius_packs_to_a_handful(self):
        # Pairwise separation 0.49 leaves room for very few survivors.
        for seed in range(10):
            assert 1 <= simulate_hardcore(1000.0, 0.49, seed).n <= 4

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            simulate_poisson(0.0, 1)
        with pytest.raises(DomainError):
            simulate_thomas(20.0, 10.0, 0.0, 1)
        for sigma in (math.inf, math.nan, 1e308):
            with pytest.raises(DomainError, match="sigma"):
                simulate_thomas(20.0, 10.0, sigma, 1)
        with pytest.raises(DomainError):
            simulate_hardcore(100.0, 0.5, 1)
        with pytest.raises(DomainError):
            simulate_hardcore(100.0, 0.0, 1)

    # Every size here is rejected before anything is drawn or allocated.
    @pytest.mark.parametrize(
        "make",
        [
            lambda: simulate_poisson(1e20, 0),
            lambda: simulate_poisson(math.inf, 0),
            lambda: simulate_thomas(1e8, 1.0, 0.02, 0),
            lambda: simulate_thomas(20.0, math.inf, 0.02, 0),
            lambda: simulate_thomas(1e-20, 1e20, 0.02, 0),
            lambda: simulate_thomas(2e3, 1e4, 0.02, 0),
            lambda: simulate_hardcore(1e19, 0.02, 0),
            lambda: quadrat_counts(simulate_poisson(10.0, 0), 100_000),
            lambda: taylor_experiment("poisson_sweep", [50], 10**7, 16, 0),
            lambda: estimate_pcf(simulate_poisson(10.0, 0), 1e-9, 0.25),
            lambda: estimate_pcf(simulate_poisson(10.0, 0), 5e-324, 0.25),
        ],
    )
    def test_sizes_above_the_limit_are_usage_errors(self, make):
        with pytest.raises(UsageError, match="exceed the limit of 1e"):
            make()

    def test_too_many_close_pairs_is_a_usage_error(self):
        # 4500 coincident points share one cell: its 10,122,750 candidates
        # are counted and refused before any is listed.
        crowd = PointPattern(np.full((4500, 2), 0.5), "manual", 0)
        with pytest.raises(UsageError, match="close pairs"):
            estimate_pcf(crowd, 0.01, 0.25)

    def test_close_pair_search_memory_grows_with_pairs_not_n_squared(self):
        # tracemalloc sees numpy buffers. The dense all-pairs searches this
        # replaced peaked near 770 MB and 500 MB on these two calls, and a
        # list of every close pair before binning near 76 MB on the second.
        pattern = simulate_poisson(4000.0, 2)
        tracemalloc.start()
        try:
            simulate_hardcore(4000.0, 0.02, 1)
            hardcore_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            estimate_pcf(pattern, 0.01, 0.25)
            pcf_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hardcore_peak < 20e6
        assert pcf_peak < 10e6

    def test_only_the_candidates_of_one_offset_meet_the_limit(self, monkeypatch):
        # About 98,000 close pairs, but about 8,300 candidates per offset:
        # the pairs are folded block by block, and no limit holds them.
        monkeypatch.setattr(pointprocess, "_SIZE_LIMIT", 50_000)
        points = np.random.default_rng(1).random((1000, 2))
        est = estimate_pcf(PointPattern(points, "manual", 0), 0.01, 0.25)
        np.testing.assert_array_equal(est.g, brute_force_g(points, 0.01, 0.25))

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "7", True])
    def test_seed_validation(self, seed):
        with pytest.raises(UsageError, match="seed"):
            simulate_poisson(100.0, seed)

    def test_generator_descriptors(self):
        assert simulate_poisson(100.0, 1).generator == "poisson(intensity=100)"
        assert simulate_hardcore(200.0, 0.02, 1).generator == (
            "hardcore(proposal_intensity=200, radius=0.02)"
        )


class TestPointPattern:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            PointPattern(np.array([[0.5, 1.0]]), "manual", 0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            PointPattern(np.array([[0.5, 0.5, 0.5]]), "manual", 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            PointPattern(np.array([[0.5, np.nan]]), "manual", 0)

    def test_empty_pattern_allowed(self):
        pattern = PointPattern(np.empty((0, 2)), "manual", 0)
        assert pattern.n == 0

    def test_points_are_read_only(self):
        pattern = PointPattern(np.array([[0.5, 0.5]]), "manual", 0)
        with pytest.raises(ValueError):
            pattern.points[0, 0] = 0.9


class TestQuadratCounts:
    def test_three_points_on_a_2x2_grid(self):
        pattern = PointPattern(
            np.array([[0.1, 0.1], [0.6, 0.1], [0.9, 0.95]]), "manual", 0
        )
        qc = quadrat_counts(pattern, 2)
        np.testing.assert_array_equal(qc, [[1, 0], [1, 1]])
        assert qc.dtype == np.int64
        with pytest.raises(ValueError):
            qc[0, 0] = 9

    def test_single_cell_holds_everything(self):
        pattern = simulate_poisson(50.0, 3)
        qc = quadrat_counts(pattern, 1)
        assert qc.shape == (1, 1)
        assert qc[0, 0] == pattern.n

    def test_invalid_q(self):
        pattern = simulate_poisson(10.0, 3)
        with pytest.raises(UsageError, match="q must be"):
            quadrat_counts(pattern, 0)
        with pytest.raises(UsageError, match="q must be"):
            quadrat_counts(pattern, 2.5)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), q=st.integers(1, 13))
    def test_cells_partition_the_points(self, seed, q):
        pattern = simulate_poisson(80.0, seed)
        qc = quadrat_counts(pattern, q)
        assert qc.shape == (q, q)
        assert qc.sum() == pattern.n
        assert qc.min() >= 0


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(9, "poisson_sweep", 2, 5) == derive_seed(
            9, "poisson_sweep", 2, 5
        )

    def test_distinct_across_cells_and_kinds(self):
        seeds = {
            derive_seed(9, kind, li, ri)
            for kind in EXPERIMENT_KINDS
            for li in range(6)
            for ri in range(10)
        }
        assert len(seeds) == 3 * 6 * 10

    def test_unsigned_64_bit_range(self):
        s = derive_seed(2**64 - 1, "hardcore_sweep", 0, 0)
        assert 0 <= s < 2**64

    def test_unknown_kind(self):
        with pytest.raises(UsageError, match="unknown experiment kind"):
            derive_seed(9, "brownian_sweep", 0, 0)


class TestTaylorExperiment:
    def test_structure_and_labels(self):
        series = taylor_experiment("poisson_sweep", [50, 100], reps=2, q=4, seed=3)
        assert series.scheme is None
        assert [p.label for p in series.pairs] == ["50", "100"]
        assert all(p.mean > 0 for p in series.pairs)

    def test_deterministic(self):
        first = taylor_experiment("thomas_cluster_sweep", [4, 8], reps=2, q=4, seed=5)
        second = taylor_experiment("thomas_cluster_sweep", [4, 8], reps=2, q=4, seed=5)
        assert first.pairs == second.pairs

    def test_mean_tracks_intensity(self):
        # Poisson intensity L spread over q*q cells gives mean about L/q^2.
        series = taylor_experiment("poisson_sweep", [400], reps=20, q=4, seed=2)
        assert series.pairs[0].mean == pytest.approx(400 / 16, rel=0.1)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(kind="lattice_sweep", levels=[1, 2]), "unknown experiment kind"),
            (dict(levels=[]), "non-empty"),
            (dict(levels=[100, 50]), "strictly increasing"),
            (dict(levels=[0, 50]), "positive"),
            (dict(levels=[50, 100], reps=0), "reps"),
            (dict(levels=[50, 100], q=0), "q must be"),
            (dict(levels=[50, 100], seed=-1), "seed"),
        ],
    )
    def test_validation(self, kwargs, message):
        args = dict(kind="poisson_sweep", levels=[50], reps=1, q=4, seed=0)
        args.update(kwargs)
        with pytest.raises(UsageError, match=message):
            taylor_experiment(**args)


def lattice(k):
    """k*k grid of spacing 1/k: many pairs lie exactly on ring edges."""
    ticks = np.arange(k) / k
    return np.array([(x, y) for x in ticks for y in ticks])


def brute_force_hardcore(intensity, r, seed):
    """Redraw the hardcore simulator's proposals and marks, then thin them by
    the dense rule over all pairs: type II kills a proposal when any proposal
    within r, dead or alive, has a smaller mark. Returns the proposals, their
    all-pairs distance matrix and the survivors' mask."""
    rng = np.random.default_rng(seed)
    proposals = rng.random((rng.poisson(intensity), 2))
    marks = rng.random(len(proposals))
    dist = squareform(pairwise_torus_distances(proposals))
    smaller = (dist < r) & (marks[None, :] < marks[:, None])
    return proposals, dist, ~smaller.any(axis=1)


def brute_force_g(points, w, r_max):
    """Ring estimate from every pair, in half-open rings [k*w, (k+1)*w)."""
    n = len(points)
    n_bins = min(math.floor(r_max / w + 1e-12), math.floor((0.5 + 1e-12) / w))
    idx = np.floor(pairwise_torus_distances(points) / w).astype(np.int64)
    raw = np.bincount(idx[idx < n_bins], minlength=n_bins)
    centers = (np.arange(n_bins) + 0.5) * w
    return raw / (n * (n - 1) / 2.0 * 2.0 * math.pi * centers * w)


class TestEstimatePcf:
    def test_two_point_pattern_lands_in_one_ring(self):
        # The only pair sits at distance 0.105, inside ring [0.10, 0.11),
        # whose null probability is 2*pi*0.105*0.01.
        pattern = PointPattern(np.array([[0.2, 0.2], [0.2, 0.305]]), "manual", 0)
        est = estimate_pcf(pattern, bin_width=0.01, r_max=0.2)
        assert est.radii.size == 20
        nonzero = np.nonzero(est.g)[0]
        assert list(nonzero) == [10]
        assert est.radii[10] == pytest.approx(0.105, rel=1e-12)
        assert est.g[10] == pytest.approx(
            1.0 / (2 * math.pi * 0.105 * 0.01), rel=1e-12
        )

    @pytest.mark.parametrize(
        "points,w,r_max",
        [
            (np.array([[0.0, 0.0], [0.25, 0.0]]), 0.01, 0.25),
            (np.array([[0.1, 0.9], [0.1, 0.15]]), 0.05, 0.25),
            (np.array([[0.3, 0.3], [0.3, np.nextafter(0.55, 1.0)]]), 0.05, 0.25),
            (np.array([[0.0, 0.0], [0.5, 0.0]]), 0.1, 0.4999999999),
            # The pair sits at 14 * 0.0198 to the bit, the search radius, yet
            # belongs to the last ring; a kd-tree lost it unless widened.
            (
                np.array(
                    [
                        [0.07577379498465642, 0.9170775304514804],
                        [0.15818577362512692, 0.6524115035863713],
                    ]
                ),
                0.0198,
                0.292,
            ),
            (lattice(10), 0.1, 0.4999999999),
            (lattice(20), 0.05, 0.25),
            (lattice(40), 0.025, 0.49999999),
            (lattice(40), 0.01, 0.3),
            (simulate_poisson(900.0, 3).points, 0.01, 0.25),
            (simulate_poisson(900.0, 4).points, 0.07, 0.4999999999),
            (simulate_thomas(20.0, 15.0, 0.01, 5).points, 0.01, 0.25),
            (simulate_hardcore(600.0, 0.03, 6).points, 0.03, 0.49),
        ],
    )
    def test_matches_brute_force_binning(self, points, w, r_max):
        est = estimate_pcf(PointPattern(points, "manual", 0), w, r_max)
        np.testing.assert_array_equal(est.g, brute_force_g(points, w, r_max))

    def test_rings_never_leave_the_half_width(self):
        pattern = simulate_poisson(100.0, 4)
        for w, r_max in [(0.01, 0.25), (0.05, 0.49), (0.12, 0.49)]:
            est = estimate_pcf(pattern, w, r_max)
            assert est.radii.size >= 1
            assert est.radii[-1] + w / 2 <= 0.5 + 1e-12

    def test_poisson_estimate_hovers_near_one(self):
        g_sum = np.zeros(10)
        for seed in range(20):
            pattern = simulate_poisson(2000.0, seed)
            g_sum += estimate_pcf(pattern, 0.02, 0.2).g
        g_bar = g_sum / 20
        assert np.max(np.abs(g_bar - 1.0)) <= 0.1

    def test_cluster_correlation_decays(self):
        pattern = simulate_thomas(20.0, 10.0, 0.02, 1)
        est = estimate_pcf(pattern, 0.02, 0.26)
        assert est.g[1] > 2.0
        assert est.g[-1] < 1.5
        assert est.g[1] > 4 * est.g[-1]

    def test_parameter_validation(self):
        pattern = simulate_poisson(50.0, 0)
        with pytest.raises(DomainError, match="r_max"):
            estimate_pcf(pattern, 0.01, 0.5)
        with pytest.raises(DomainError, match="bin_width"):
            estimate_pcf(pattern, 0.3, 0.2)
        with pytest.raises(DomainError, match="bin_width"):
            estimate_pcf(pattern, 0.0, 0.2)

    def test_needs_two_points(self):
        lonely = PointPattern(np.array([[0.5, 0.5]]), "manual", 0)
        with pytest.raises(InsufficientDataError, match="at least 2 points"):
            estimate_pcf(lonely, 0.01, 0.2)


class TestFitPcf:
    R0, S = 0.1, 1.8

    def paper_form_estimate(self):
        # g = (r0/r)^s - 1 is non-negative only for r <= r0, so the radii
        # stop at 0.095.
        radii = np.arange(0.025, 0.0951, 0.01)
        g = (self.R0 / radii) ** self.S - 1.0
        return PcfEstimate(radii, g, 0.01, 500)

    def xi_form_estimate(self):
        radii = np.arange(0.025, 0.2451, 0.01)
        g = 1.0 + (self.R0 / radii) ** self.S
        return PcfEstimate(radii, g, 0.01, 500)

    def test_paper_form_recovery(self):
        fit = fit_pcf(self.paper_form_estimate(), "paper_form")
        assert fit.form == "paper_form"
        assert fit.s == pytest.approx(self.S, rel=1e-9)
        assert fit.r0 == pytest.approx(self.R0, rel=1e-9)
        assert fit.r_squared >= 1 - 1e-9

    def test_xi_form_recovery(self):
        fit = fit_pcf(self.xi_form_estimate(), "xi_form")
        assert fit.form == "xi_form"
        assert fit.s == pytest.approx(self.S, rel=1e-9)
        assert fit.r0 == pytest.approx(self.R0, rel=1e-9)

    def test_xi_form_ignores_sub_unit_bins(self):
        # Bins with g <= 1 carry no excess correlation and are excluded;
        # only the first three bins here qualify.
        radii = np.array([0.025, 0.035, 0.045, 0.055, 0.065])
        g = np.array([3.0, 2.0, 1.5, 0.9, 0.2])
        fit = fit_pcf(PcfEstimate(radii, g, 0.01, 100), "xi_form")
        assert fit.n_used == 3

    def test_flat_unit_estimate_has_no_signal_for_xi_form(self):
        radii = np.arange(0.025, 0.2451, 0.01)
        flat = PcfEstimate(radii, np.ones_like(radii), 0.01, 100)
        with pytest.raises(InsufficientDataError, match="insufficient signal"):
            fit_pcf(flat, "xi_form")

    def test_flat_unit_estimate_degenerate_for_paper_form(self):
        radii = np.arange(0.025, 0.2451, 0.01)
        flat = PcfEstimate(radii, np.ones_like(radii), 0.01, 100)
        with pytest.raises(DegenerateDesignError, match="flat correlation"):
            fit_pcf(flat, "paper_form")

    def test_unknown_form(self):
        with pytest.raises(UsageError, match="unknown correlation fit form"):
            fit_pcf(self.xi_form_estimate(), "box_form")

    @settings(max_examples=60, deadline=None)
    @given(
        r0=st.floats(min_value=0.02, max_value=0.4),
        s=st.floats(min_value=0.3, max_value=4.0),
    )
    def test_xi_form_inverts_its_generating_law(self, r0, s):
        radii = np.arange(0.025, 0.2451, 0.01)
        g = 1.0 + (r0 / radii) ** s
        fit = fit_pcf(PcfEstimate(radii, g, 0.01, 100), "xi_form")
        assert fit.s == pytest.approx(s, rel=1e-8)
        assert fit.r0 == pytest.approx(r0, rel=1e-8)


class TestPcfValueObjects:
    def test_array_holders_are_frozen(self):
        holders = [
            (PointPattern(np.array([[0.5, 0.5]]), "manual", 0), ("points", "seed")),
            (PcfEstimate(np.array([0.1]), np.array([1.0]), 0.01, 10), ("g", "n_points")),
        ]
        for obj, fields in holders:
            for field in fields:
                with pytest.raises(AttributeError, match=f"assign to field '{field}'"):
                    setattr(obj, field, getattr(obj, field))

    def test_estimate_rejects_decreasing_radii(self):
        with pytest.raises(ValueError, match="increasing"):
            PcfEstimate(np.array([0.2, 0.1]), np.array([1.0, 1.0]), 0.01, 10)

    def test_estimate_rejects_negative_g(self):
        with pytest.raises(ValueError, match="non-negative"):
            PcfEstimate(np.array([0.1, 0.2]), np.array([1.0, -0.5]), 0.01, 10)

    def test_estimate_rejects_rings_outside_torus(self):
        with pytest.raises(ValueError, match="half-width"):
            PcfEstimate(np.array([0.3, 0.499]), np.array([1.0, 1.0]), 0.01, 10)

    def test_estimate_rejects_bad_bin_width(self):
        with pytest.raises(ValueError, match="bin_width"):
            PcfEstimate(np.array([0.1]), np.array([1.0]), 0.0, 10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(r0=0.0),
            dict(form="mystery"),
            dict(r_squared=1.2),
            dict(n_used=2),
        ],
    )
    def test_fit_validation(self, kwargs):
        base = dict(r0=0.1, s=1.5, form="xi_form", r_squared=0.9, n_used=5)
        base.update(kwargs)
        with pytest.raises(ValueError):
            PcfFit(**base)

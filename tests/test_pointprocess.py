"""Point-pattern simulators, torus geometry, quadrat counts, correlation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taylorlaw import (
    DegenerateDesignError,
    DomainError,
    EXPERIMENT_KINDS,
    InsufficientDataError,
    PcfEstimate,
    PcfFit,
    PointPattern,
    QuadratCounts,
    UsageError,
    derive_seed,
    estimate_pcf,
    fit_pcf,
    pairwise_torus_distances,
    quadrat_counts,
    simulate_hardcore,
    simulate_poisson,
    simulate_thomas,
    taylor_experiment,
)
from conftest import torus_distance

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
        assert runs[0] == runs[1] == runs[2]
        assert runs[0] != make(12)

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
        # Redraw the simulator's proposals and marks, then thin them by brute
        # force: type II kills a proposal when any proposal within r, dead or
        # alive, has a smaller mark. Sequential inhibition, which keeps
        # proposals in arrival order unless an accepted one lies within r,
        # keeps more points and must differ on at least one seed.
        intensity, r = 60.0, 0.15
        differs = False
        for seed in range(4):
            rng = np.random.default_rng(seed)
            proposals = rng.random((rng.poisson(intensity), 2))
            marks = rng.random(len(proposals))
            near = [
                [
                    j
                    for j in range(len(proposals))
                    if j != i and torus_distance(proposals[i], proposals[j]) < r
                ]
                for i in range(len(proposals))
            ]
            type_ii = [
                i
                for i in range(len(proposals))
                if all(marks[j] > marks[i] for j in near[i])
            ]
            sequential: list[int] = []
            for i in range(len(proposals)):
                if not any(j in near[i] for j in sequential):
                    sequential.append(i)
            pattern = simulate_hardcore(intensity, r, seed)
            np.testing.assert_array_equal(pattern.points, proposals[type_ii])
            differs |= sequential != type_ii
        assert differs

    def test_huge_radius_packs_to_a_handful(self):
        # Pairwise separation 0.49 leaves room for very few survivors.
        for seed in range(10):
            assert 1 <= simulate_hardcore(1000.0, 0.49, seed).n <= 4

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            simulate_poisson(0.0, 1)
        with pytest.raises(DomainError):
            simulate_thomas(20.0, 10.0, 0.0, 1)
        with pytest.raises(DomainError):
            simulate_hardcore(100.0, 0.5, 1)
        with pytest.raises(DomainError):
            simulate_hardcore(100.0, 0.0, 1)

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
        assert len(pattern) == 0

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
        np.testing.assert_array_equal(qc.counts, [[1, 0], [1, 1]])
        assert qc.total == 3

    def test_single_cell_holds_everything(self):
        pattern = simulate_poisson(50.0, 3)
        qc = quadrat_counts(pattern, 1)
        assert qc.counts.shape == (1, 1)
        assert qc.total == pattern.n

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
        assert qc.total == pattern.n
        assert qc.counts.min() >= 0

    def test_counts_validation(self):
        with pytest.raises(ValueError, match="shape"):
            QuadratCounts(2, np.zeros((2, 3), dtype=int))
        with pytest.raises(ValueError, match="integers"):
            QuadratCounts(2, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="non-negative"):
            QuadratCounts(1, np.array([[-1]]))


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


class TestEstimatePcf:
    def test_two_point_pattern_lands_in_one_ring(self):
        # The only pair sits at distance 0.105, inside ring [0.10, 0.11),
        # whose null probability is 2*pi*0.105*0.01.
        pattern = PointPattern(np.array([[0.2, 0.2], [0.2, 0.305]]), "manual", 0)
        est = estimate_pcf(pattern, bin_width=0.01, r_max=0.2)
        assert len(est) == 20
        nonzero = np.nonzero(est.g)[0]
        assert list(nonzero) == [10]
        assert est.radii[10] == pytest.approx(0.105, rel=1e-12)
        assert est.g[10] == pytest.approx(
            1.0 / (2 * math.pi * 0.105 * 0.01), rel=1e-12
        )

    def test_rings_never_leave_the_half_width(self):
        pattern = simulate_poisson(100.0, 4)
        for w, r_max in [(0.01, 0.25), (0.05, 0.49), (0.12, 0.49)]:
            est = estimate_pcf(pattern, w, r_max)
            assert len(est) >= 1
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

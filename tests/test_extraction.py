"""Mean-variance extraction under all five schemes.

Expected means and variances below were derived by hand as exact
fractions (sum-of-squares over 9, divided by n-1=2, for three-element
rows) and are compared at tight relative tolerance because the fractions
are not float-representable.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from taylorlaw import (
    DataError,
    MVPair,
    MVSeries,
    Scheme,
    UsageError,
    extract_pairs,
    mean_convert,
    parse_cross_sectional,
    parse_longitudinal,
    sample_variance,
)

TIGHT = 1e-12

CROSS_TEXT = (
    "subject_id,sp1,sp2,sp3\n"
    "#400,100,1200,0\n"
    "#401,200,800,1000\n"
    "#499,1000,100,50\n"
)

LONGI_TEXT = (
    "subject_id,time,sp1,sp2,sp3\n"
    "#400,2021-01-01,100,1200,0\n"
    "#400,2021-12-01,500,2000,10\n"
    "#401,2021-01-01,200,800,1000\n"
)


@pytest.fixture
def cross_table():
    return parse_cross_sectional(CROSS_TEXT)


@pytest.fixture
def longi_table():
    return parse_longitudinal(LONGI_TEXT)


class TestSampleVariance:
    def test_simple_triplet(self):
        # (1,2,3): deviations -1,0,1 -> SS=2 -> /2 = 1
        assert sample_variance(np.array([1.0, 2.0, 3.0])) == 1.0

    def test_single_element_is_zero(self):
        assert sample_variance(np.array([7.0])) == 0.0

    def test_constant_row_is_exactly_zero(self):
        # Short-circuit, not a near-zero float residue.
        assert sample_variance(np.array([0.1, 0.1, 0.1, 0.1])) == 0.0

    def test_unbiased_divisor(self):
        # (0,2): mean 1, SS=2, /1 = 2
        assert sample_variance(np.array([0.0, 2.0])) == 2.0


class TestSubjectsAcrossSpecies:
    def test_hand_fractions(self, cross_table):
        series = extract_pairs(cross_table, Scheme("subjects_across_species"))
        assert [p.label for p in series.pairs] == ["#400", "#401", "#499"]
        means = [p.mean for p in series.pairs]
        variances = [p.variance for p in series.pairs]
        assert means[0] == pytest.approx(1300 / 3, rel=TIGHT)
        assert variances[0] == pytest.approx(7980000 / 18, rel=TIGHT)
        assert means[1] == pytest.approx(2000 / 3, rel=TIGHT)
        assert variances[1] == pytest.approx(3120000 / 18, rel=TIGHT)
        assert means[2] == pytest.approx(1150 / 3, rel=TIGHT)
        assert variances[2] == pytest.approx(5145000 / 18, rel=TIGHT)

    def test_longitudinal_rows_labeled_subject_at_time(self, longi_table):
        series = extract_pairs(longi_table, Scheme("subjects_across_species"))
        assert [p.label for p in series.pairs] == [
            "#400@2021-01-01",
            "#400@2021-12-01",
            "#401@2021-01-01",
        ]

    def test_series_carries_its_scheme(self, cross_table):
        series = extract_pairs(cross_table, Scheme("subjects_across_species"))
        assert series.scheme == Scheme("subjects_across_species")


class TestSpeciesAcrossSubjects:
    def test_first_species_column(self, cross_table):
        series = extract_pairs(cross_table, Scheme("species_across_subjects"))
        assert [p.label for p in series.pairs] == ["sp1", "sp2", "sp3"]
        sp1 = series.pairs[0]
        # column (100, 200, 1000)
        assert sp1.mean == pytest.approx(1300 / 3, rel=TIGHT)
        assert sp1.variance == pytest.approx(4380000 / 18, rel=TIGHT)

    def test_zero_variance_column_kept(self):
        table = parse_cross_sectional("subject_id,sp1\na,4\nb,4\nc,4\n")
        series = extract_pairs(table, Scheme("species_across_subjects"))
        assert series.pairs[0] == MVPair("sp1", 4.0, 0.0)


class TestMeanConversion:
    def test_collapses_subject_400(self, longi_table):
        converted = mean_convert(longi_table)
        assert converted.times is None
        assert converted.subject_ids == ("#400", "#401")
        # rows (100,1200,0) and (500,2000,10) average exactly
        np.testing.assert_array_equal(converted.counts[0], [300.0, 1600.0, 5.0])
        np.testing.assert_array_equal(converted.counts[1], [200.0, 800.0, 1000.0])

    def test_overflowing_mean_names_the_subject(self):
        table = parse_longitudinal(
            "subject_id,time,a,b\nx,0,1e308,1\nx,1,1e308,2\ny,0,1,2\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="subject 'x'"):
                extract_pairs(table, Scheme("mean_converted_subjects"))

    def test_single_time_subject_passes_through(self, longi_table):
        converted = mean_convert(longi_table)
        np.testing.assert_array_equal(converted.counts[1], longi_table.counts[2])

    def test_requires_time_axis(self, cross_table):
        with pytest.raises(UsageError, match="time"):
            mean_convert(cross_table)

    def test_scheme_equals_convert_then_subjects(self, longi_table):
        direct = extract_pairs(longi_table, Scheme("mean_converted_subjects"))
        two_step = extract_pairs(
            mean_convert(longi_table), Scheme("subjects_across_species")
        )
        # Same arithmetic path, so bitwise identical values.
        assert [tuple(p)[1:] for p in direct.pairs] == [
            tuple(p)[1:] for p in two_step.pairs
        ]
        assert [p.label for p in direct.pairs] == ["#400", "#401"]

    def test_all_zero_rows_convert_to_zeros(self):
        table = parse_longitudinal("subject_id,time,sp1\nA,0,0\nA,1,0\n")
        converted = mean_convert(table)
        np.testing.assert_array_equal(converted.counts, [[0.0]])


class TestPerSubjectSchemes:
    def test_per_subject_time_labels_and_values(self, longi_table):
        series = extract_pairs(
            longi_table, Scheme("per_subject_time", subject="#400")
        )
        assert [p.label for p in series.pairs] == ["2021-01-01", "2021-12-01"]
        assert series.pairs[0].mean == pytest.approx(1300 / 3, rel=TIGHT)
        assert series.pairs[0].variance == pytest.approx(7980000 / 18, rel=TIGHT)

    def test_per_subject_species_values(self, longi_table):
        series = extract_pairs(
            longi_table, Scheme("per_subject_species", subject="#400")
        )
        assert [p.label for p in series.pairs] == ["sp1", "sp2", "sp3"]
        # sp1 over (100, 500): mean 300, SS = 2*200^2 = 80000, /1
        assert series.pairs[0] == MVPair("sp1", 300.0, 80000.0)
        # sp3 over (0, 10): mean 5, variance 50
        assert series.pairs[2] == MVPair("sp3", 5.0, 50.0)

    def test_unknown_subject(self, longi_table):
        with pytest.raises(UsageError, match="unknown subject"):
            extract_pairs(longi_table, Scheme("per_subject_time", subject="nope"))

    def test_requires_time_axis(self, cross_table):
        with pytest.raises(UsageError, match="time"):
            extract_pairs(
                cross_table, Scheme("per_subject_time", subject="#400")
            )


class TestSchemeValidation:
    def test_unknown_tag(self):
        with pytest.raises(UsageError, match="unknown scheme"):
            Scheme("rows_by_moonphase")

    def test_subject_required_for_per_subject(self):
        with pytest.raises(UsageError, match="requires"):
            Scheme("per_subject_time")

    def test_subject_forbidden_elsewhere(self):
        with pytest.raises(UsageError, match="does not take"):
            Scheme("subjects_across_species", subject="x")


class TestMVSeriesValidation:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            MVSeries(None, (MVPair("a", 1.0, 1.0), MVPair("a", 2.0, 1.0)))

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            MVSeries(None, (MVPair("a", 1.0, -1.0),))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            MVSeries(None, (MVPair("a", float("nan"), 1.0),))

    def test_overflowing_statistics_are_a_data_error(self):
        table = parse_cross_sectional("subject_id,a,b\nx,0,1e200\ny,1,2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="pair 'x'"):
                extract_pairs(table, Scheme("subjects_across_species"))

    def test_accessors(self):
        series = MVSeries(None, (MVPair("a", 1.0, 2.0), MVPair("b", 3.0, 4.0)))
        assert [p.mean for p in series.pairs] == [1.0, 3.0]
        assert [p.variance for p in series.pairs] == [2.0, 4.0]
        assert len(series) == 2


def _random_table(n_rows, n_cols, seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 500, size=(n_rows, n_cols)).astype(float)
    lines = ["subject_id," + ",".join(f"s{j}" for j in range(n_cols))]
    for i, row in enumerate(counts):
        lines.append(f"r{i}," + ",".join(str(int(v)) for v in row))
    return parse_cross_sectional("\n".join(lines) + "\n")


def test_pair_counts_match_table_shape():
    table = _random_table(36, 500, seed=11)
    rows = extract_pairs(table, Scheme("subjects_across_species"))
    cols = extract_pairs(table, Scheme("species_across_subjects"))
    assert len(rows) == 36
    assert len(cols) == 500


_count_rows = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(2, 6), st.integers(2, 6)),
    elements=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)


@settings(max_examples=80, deadline=None)
@given(counts=_count_rows, perm_seed=st.integers(0, 2**31))
def test_row_statistics_permutation_invariant(counts, perm_seed):
    """Shuffling species columns cannot change any row's mean or variance.

    Tolerance is relative 1e-12, not exact: float summation order shifts
    the last few ulps.
    """
    from taylorlaw.tables import AbundanceTable

    n_rows, n_cols = counts.shape
    base = AbundanceTable(
        tuple(f"r{i}" for i in range(n_rows)),
        tuple(f"s{j}" for j in range(n_cols)),
        counts,
    )
    perm = np.random.default_rng(perm_seed).permutation(n_cols)
    shuffled = AbundanceTable(
        base.subject_ids,
        tuple(f"s{j}" for j in perm),
        counts[:, perm],
    )
    scheme = Scheme("subjects_across_species")
    for p, q in zip(
        extract_pairs(base, scheme).pairs, extract_pairs(shuffled, scheme).pairs
    ):
        assert q.mean == pytest.approx(p.mean, rel=TIGHT, abs=1e-300)
        assert q.variance == pytest.approx(p.variance, rel=TIGHT, abs=1e-300)


@settings(max_examples=80, deadline=None)
@given(
    counts=_count_rows,
    scale=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
)
def test_scaling_counts_scales_mean_and_variance(counts, scale):
    """Counts scaled by c give means scaled by c and variances by c^2."""
    from taylorlaw.tables import AbundanceTable

    n_rows, n_cols = counts.shape
    subjects = tuple(f"r{i}" for i in range(n_rows))
    species = tuple(f"s{j}" for j in range(n_cols))
    base = AbundanceTable(subjects, species, counts)
    scaled = AbundanceTable(subjects, species, counts * scale)
    scheme = Scheme("subjects_across_species")
    for p, q in zip(
        extract_pairs(base, scheme).pairs, extract_pairs(scaled, scheme).pairs
    ):
        assert q.mean == pytest.approx(scale * p.mean, rel=1e-9, abs=1e-300)
        assert q.variance == pytest.approx(
            scale**2 * p.variance, rel=1e-9, abs=1e-300
        )

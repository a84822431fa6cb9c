"""Mean-variance pair extraction from abundance tables.

Five extraction schemes turn a table into an ordered series of (mean,
variance) pairs, one power-law fit input each:

* ``subjects_across_species`` - one pair per observation row, statistics
  taken across that row's species counts. On a timed table every
  (subject, time) row counts as one observation.
* ``species_across_subjects`` - one pair per species column, statistics
  across all observation rows.
* ``mean_converted_subjects`` - collapse each subject's time series to its
  per-species means, then apply ``subjects_across_species``.
* ``per_subject_time`` - for one subject, one pair per time point,
  statistics across species.
* ``per_subject_species`` - for one subject, one pair per species,
  statistics across that subject's time points.

Variances are unbiased sample variances (divisor n-1); a single-element
row or column yields variance 0. Pairs with zero mean or variance are kept
here and only excluded at fitting time, so data loss stays reportable. A
mean or variance that overflows the float range is a data error naming the
pair.

A series holds its labels, means and variances as columns. One path
builds every scheme's series from the rows or the species columns of a
block of counts: one subject's rows, or the whole (for
``mean_converted_subjects``, mean-converted) table. The per-subject schemes
extract every subject that has the same number of rows in one pass
(``extract_subjects``): those subjects form one (subjects, times, species)
block, and each subject's series is one row of the block's (subjects,
pairs) arrays of means and variances. Every row is summed in its 1-D
order, so a subject's pairs are the same bits whether it is extracted
alone or with the rest. The fits keep their results on the block
(``fitting``), so the first fit of any row fits them all.
"""

from __future__ import annotations

from itertools import compress
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ._choices import _PER_SUBJECT, SCHEME_TAGS
from ._records import _Checked, _Frozen
from .errors import DataError, UsageError, fresh_copy

if TYPE_CHECKING:
    from .tables import AbundanceTable

# The schemes whose pairs are species columns, not observation rows.
_COLUMNS = ("species_across_subjects", "per_subject_species")


class _SchemeFields(NamedTuple):
    tag: str
    subject: str | None = None


class Scheme(_Checked, _SchemeFields):
    """Extraction scheme tag plus the subject id for per-subject schemes."""

    __slots__ = ()

    def _check(self) -> None:
        if self.tag not in SCHEME_TAGS:
            raise UsageError(f"unknown scheme tag {self.tag!r}")
        if (self.subject is not None) != (self.tag in _PER_SUBJECT):
            raise UsageError(
                f"scheme {self.tag!r} "
                + ("requires" if self.tag in _PER_SUBJECT else "does not take")
                + " a subject"
            )


class MVPair(NamedTuple):
    label: str
    mean: float
    variance: float


class _Block:
    """Series of one length stored together: read-only (rows, pairs) means
    and variances, and the fits' results for every row by fit and options
    (filled by ``fitting``)."""

    __slots__ = ("means", "variances", "fits")

    def __init__(self, means: np.ndarray, variances: np.ndarray):
        means.flags.writeable = variances.flags.writeable = False
        self.means, self.variances = means, variances
        self.fits: dict = {}


class MVSeries(_Frozen):
    """Ordered mean-variance pairs tagged with their extraction scheme.

    ``labels`` is a tuple of str; ``means`` and ``variances`` are read-only
    float arrays, one row of a block shared with the series extracted
    beside it (a series built from pairs is a block of one row). ``pairs``
    gives the same values as ``MVPair`` records. ``scheme`` is None for
    series not derived from a table (e.g. simulation sweeps).
    """

    __slots__ = ("scheme", "labels", "means", "variances", "_block", "_row")

    def __init__(self, scheme: Scheme | None, pairs):
        rows = [(str(l), float(m), float(v)) for l, m, v in pairs]
        labels = tuple(row[0] for row in rows)
        means = np.array([row[1] for row in rows], dtype=float)
        variances = np.array([row[2] for row in rows], dtype=float)
        _check_pairs(labels, means, variances)
        self._fill(scheme, labels, _Block(means[None], variances[None]), 0)

    @classmethod
    def _of_block(cls, scheme: Scheme | None, labels: tuple, block: _Block, row: int):
        """Row ``row`` of ``block``, whose pairs are already checked."""
        series = object.__new__(cls)
        series._fill(scheme, labels, block, row)
        return series

    def _fill(self, scheme, labels, block: _Block, row: int) -> None:
        self.scheme = scheme
        self.labels = labels
        self.means = block.means[row]
        self.variances = block.variances[row]
        self._block = block
        self._row = row

    @property
    def pairs(self) -> tuple[MVPair, ...]:
        return tuple(
            map(MVPair, self.labels, self.means.tolist(), self.variances.tolist())
        )

    def __len__(self) -> int:
        return len(self.labels)


def _check_pairs(labels: tuple, means: np.ndarray, variances: np.ndarray) -> None:
    """Unique labels, then finite and non-negative pairs, the first bad pair
    named."""
    if len(set(labels)) != len(labels):
        raise ValueError("pair labels must be unique within a series")
    finite = np.isfinite(means) & np.isfinite(variances)
    bad = ~finite | (means < 0) | (variances < 0)
    if bad.any():
        j = int(np.argmax(bad))
        what = "negative mean or variance in pair" if finite[j] else "non-finite pair"
        raise ValueError(f"{what} {labels[j]!r}")


def _overflow_error(labels, means: np.ndarray, variances: np.ndarray) -> DataError:
    """The data error for the first pair whose mean or variance is not finite."""
    j = int(np.argmin(np.isfinite(means) & np.isfinite(variances)))
    return DataError(
        f"pair {labels[j]!r}: mean {float(means[j])} or variance "
        f"{float(variances[j])} overflows the float range"
    )


def _row_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and unbiased (n-1) variance of each row of a C-contiguous matrix.

    Each row is summed in the same pairwise order as a 1-D slice, so the
    values equal ``row.mean()`` and ``np.var(row, ddof=1)`` bit for bit. The
    variance is exactly 0 for a single column or a constant row.
    """
    if x.shape[1] <= 1:
        # np.var warns on a single column; a row of one value is its own mean.
        return x.sum(axis=1), np.zeros(len(x))
    variances = x.var(axis=1, ddof=1)
    variances[(x == x[:, :1]).all(axis=1)] = 0.0
    return x.mean(axis=1), variances


def sample_variance(values: np.ndarray) -> float:
    """Unbiased (n-1) sample variance; 0 for a single element or constants."""
    return float(_row_stats(np.asarray(values, dtype=float).reshape(1, -1))[1][0])


def mean_convert(table: AbundanceTable) -> AbundanceTable:
    """Collapse each subject's time series to per-species means.

    Returns a cross-sectional table (no time axis) with one row per subject
    in first-appearance order; species order is preserved.
    """
    # Imported here, not at the top: this is the one runtime use of tables
    # here, and the point-pattern commands load this module without it.
    from .tables import AbundanceTable

    if table.times is None:
        raise UsageError("mean conversion requires a table with a time axis")
    subjects = table.subjects()
    means = np.stack([table.counts[table.rows_for(s)].mean(axis=0) for s in subjects])
    overflowed = ~np.isfinite(means).all(axis=1)
    if overflowed.any():
        subject = subjects[int(np.argmax(overflowed))]
        raise DataError(f"mean of subject {subject!r} overflows the float range")
    return AbundanceTable(subjects, table.species_ids, means)


def extract_pairs(table: AbundanceTable, scheme: Scheme) -> MVSeries:
    """Extract the mean-variance series for ``scheme`` from ``table``."""
    series = _series(table, scheme.tag, [scheme.subject])[0]
    if isinstance(series, DataError):
        raise fresh_copy(series)
    return series


def extract_subjects(table: AbundanceTable, tag: str) -> list[MVSeries | DataError]:
    """The series of every subject of ``table`` under the per-subject
    scheme ``tag``, in subject order. A subject whose statistics overflow
    gets, in place of its series, the data error ``extract_pairs`` raises
    for it. Subjects with the same number of rows are extracted as one
    block, and their fits are made together."""
    if tag not in _PER_SUBJECT:
        raise UsageError(f"scheme {tag!r} does not take a subject")
    return _series(table, tag, table.subjects())


def _series(table: AbundanceTable, tag: str, subjects) -> list:
    """The series of ``tag`` for each of ``subjects``, in their order; the
    subject None is the whole table, whose block is the view
    ``counts[None]``. Species-column schemes transpose each block."""
    if tag == "mean_converted_subjects" and table.times is None:
        raise UsageError("mean_converted_subjects requires a table with a time axis")
    groups = [([None], None)]
    if tag in _PER_SUBJECT:
        if table.times is None:
            raise UsageError(f"scheme {tag!r} requires a table with a time axis")
        rows_of = table._rows_by_subject()
        by_length: dict[int, list[str]] = {}
        for subject in subjects:
            if subject not in rows_of:
                raise UsageError(f"unknown subject {subject!r}")
            by_length.setdefault(len(rows_of[subject]), []).append(subject)
        groups = [(g, np.array([rows_of[s] for s in g])) for g in by_length.values()]
    results = {}
    # Huge counts can overflow a mean or variance to inf; that is reported
    # as a data error, so numpy's overflow warning is silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        if tag == "mean_converted_subjects":
            table = mean_convert(table)
        for group, rows in groups:
            counts = table.counts[rows]
            if tag in _COLUMNS:
                counts = counts.transpose(0, 2, 1)
            shape = counts.shape[:2]
            means, variances = _row_stats(
                np.ascontiguousarray(counts).reshape(-1, counts.shape[2])
            )
            means, variances = means.reshape(shape), variances.reshape(shape)
            finite = (np.isfinite(means) & np.isfinite(variances)).all(axis=1)
            for subject, mean, variance in zip(
                compress(group, ~finite), means[~finite], variances[~finite]
            ):
                labels = _labels(table, tag, subject)
                results[subject] = _overflow_error(labels, mean, variance)
            block = _Block(means[finite], variances[finite])
            for row, subject in enumerate(compress(group, finite)):
                labels = _labels(table, tag, subject)
                # Species ids and a subject's times are unique, but a
                # library-built untimed table may repeat a subject id.
                if subject is None:
                    _check_pairs(labels, block.means[row], block.variances[row])
                results[subject] = MVSeries._of_block(
                    Scheme(tag, subject), labels, block, row
                )
    return [results[s] for s in subjects]


def _labels(table: AbundanceTable, tag: str, subject: str | None) -> tuple[str, ...]:
    """The pair labels of ``subject``'s series, or the whole table's."""
    if tag in _COLUMNS:
        return table.species_ids
    if subject is not None:
        return tuple(str(table.times[i]) for i in table.rows_for(subject))
    if table.times is None:
        return table.subject_ids
    return tuple(f"{s}@{t}" for s, t in zip(table.subject_ids, table.times))

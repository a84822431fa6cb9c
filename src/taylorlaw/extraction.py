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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, UsageError
from .tables import AbundanceTable, _fmt_time

SCHEME_TAGS = (
    "subjects_across_species",
    "species_across_subjects",
    "mean_converted_subjects",
    "per_subject_time",
    "per_subject_species",
)

_PER_SUBJECT = ("per_subject_time", "per_subject_species")


@dataclass(frozen=True)
class Scheme:
    """Extraction scheme tag plus the subject id for per-subject schemes."""

    tag: str
    subject: str | None = None

    def __post_init__(self):
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


@dataclass(frozen=True)
class MVSeries:
    """Ordered mean-variance pairs tagged with their extraction scheme.

    ``scheme`` is None for series not derived from a table (e.g. simulation
    sweeps).
    """

    scheme: Scheme | None
    pairs: tuple[MVPair, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "pairs", tuple(MVPair(str(l), float(m), float(v)) for l, m, v in self.pairs)
        )
        labels = [p.label for p in self.pairs]
        if len(set(labels)) != len(labels):
            raise ValueError("pair labels must be unique within a series")
        for p in self.pairs:
            if not (np.isfinite(p.mean) and np.isfinite(p.variance)):
                raise ValueError(f"non-finite pair {p.label!r}")
            if p.mean < 0 or p.variance < 0:
                raise ValueError(f"negative mean or variance in pair {p.label!r}")

    def __len__(self) -> int:
        return len(self.pairs)


def sample_variance(values: np.ndarray) -> float:
    """Unbiased (n-1) sample variance; 0 for a single element or constants."""
    values = np.asarray(values, dtype=float)
    if values.size <= 1 or np.all(values == values.flat[0]):
        return 0.0
    return float(np.var(values, ddof=1))


def mean_convert(table: AbundanceTable) -> AbundanceTable:
    """Collapse each subject's time series to per-species means.

    Returns a cross-sectional table (no time axis) with one row per subject
    in first-appearance order; species order is preserved.
    """
    if table.times is None:
        raise UsageError("mean conversion requires a table with a time axis")
    subjects = table.subjects()
    means = np.stack([table.counts[table.rows_for(s)].mean(axis=0) for s in subjects])
    overflowed = ~np.isfinite(means).all(axis=1)
    if overflowed.any():
        subject = subjects[int(np.argmax(overflowed))]
        raise DataError(f"mean of subject {subject!r} overflows the float range")
    return AbundanceTable(subjects, table.species_ids, means)


def _row_pairs(table: AbundanceTable, labeled_by_time: bool) -> list[MVPair]:
    pairs = []
    for i, row in enumerate(table.counts):
        subject = table.subject_ids[i]
        if table.times is not None:
            label = _fmt_time(table.times[i]) if labeled_by_time else (
                f"{subject}@{_fmt_time(table.times[i])}"
            )
        else:
            label = subject
        pairs.append(MVPair(label, float(row.mean()), sample_variance(row)))
    return pairs


def _column_pairs(table: AbundanceTable, rows: np.ndarray | None = None) -> list[MVPair]:
    counts = table.counts if rows is None else table.counts[rows]
    return [
        MVPair(sp, float(counts[:, j].mean()), sample_variance(counts[:, j]))
        for j, sp in enumerate(table.species_ids)
    ]


def _subject_rows(table: AbundanceTable, scheme: Scheme) -> np.ndarray:
    if table.times is None:
        raise UsageError(f"scheme {scheme.tag!r} requires a table with a time axis")
    rows = table.rows_for(scheme.subject)
    if not rows:
        raise UsageError(f"unknown subject {scheme.subject!r}")
    return np.array(rows)


def extract_pairs(table: AbundanceTable, scheme: Scheme) -> MVSeries:
    """Extract the mean-variance series for ``scheme`` from ``table``."""
    # Huge counts can overflow a mean or variance to inf; that is reported
    # below as a data error, so numpy's overflow warning is silenced.
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = _scheme_pairs(table, scheme)
    for p in pairs:
        if not (math.isfinite(p.mean) and math.isfinite(p.variance)):
            raise DataError(
                f"pair {p.label!r}: mean {p.mean} or variance {p.variance} "
                "overflows the float range"
            )
    return MVSeries(scheme, tuple(pairs))


def _scheme_pairs(table: AbundanceTable, scheme: Scheme) -> list[MVPair]:
    if scheme.tag == "subjects_across_species":
        pairs = _row_pairs(table, labeled_by_time=False)
    elif scheme.tag == "species_across_subjects":
        pairs = _column_pairs(table)
    elif scheme.tag == "mean_converted_subjects":
        if table.times is None:
            raise UsageError("mean_converted_subjects requires a table with a time axis")
        pairs = _row_pairs(mean_convert(table), labeled_by_time=False)
    elif scheme.tag == "per_subject_time":
        rows = _subject_rows(table, scheme)
        sub = AbundanceTable(
            tuple(table.subject_ids[i] for i in rows),
            table.species_ids,
            table.counts[rows],
            times=tuple(table.times[i] for i in rows),
        )
        pairs = _row_pairs(sub, labeled_by_time=True)
    elif scheme.tag == "per_subject_species":
        rows = _subject_rows(table, scheme)
        pairs = _column_pairs(table, rows)
    else:  # unreachable: Scheme validates its tag
        raise UsageError(f"unknown scheme tag {scheme.tag!r}")
    return pairs

"""Parsing and in-memory representation of species-abundance tables.

Three CSV layouts are supported, all UTF-8 and comma-separated with a header
on the first line:

* cross-sectional: ``subject_id,<species_1>,...,<species_N>``, one row per
  subject.
* longitudinal: ``subject_id,time,<species_1>,...``, one row per
  (subject, time) observation. Time cells must be either all ISO-8601 dates
  (``2021-01-01``) or all non-negative integer indexes.
* location-indexed: ``species,<loc_1>,...,<loc_k>``, one row per species,
  with an optional second header row ``distance,<d_1>,...,<d_k>`` giving
  strictly increasing positive distances. Without it, distances default to
  the location ranks 1..k.

A line whose first character is ``#`` followed by whitespace, another ``#``,
or the end of the line is a comment and is skipped. A ``#`` glued to other
text starts a data field, so subject ids like ``#400`` parse as data. The
serializers quote a leading field that would otherwise look like a comment.

Counts are accepted as any non-negative finite real, not just integers, so
that tables produced by time-series mean conversion reuse the same type.
Missing cells (``NA`` and friends) are rejected, never imputed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import date
from typing import IO, Iterable, Sequence, Union

import numpy as np

from .errors import ParseError, UsageError

TimeLabel = Union[int, date]

_NA_TOKENS = frozenset({"na", "n/a", "nan", "null", "none", ""})


def _as_readonly_counts(counts, n_rows: int, n_cols: int, what: str) -> np.ndarray:
    arr = np.array(counts, dtype=float)
    if arr.ndim != 2 or arr.shape != (n_rows, n_cols):
        raise ValueError(
            f"{what} counts must be {n_rows}x{n_cols}, got shape {arr.shape}"
        )
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0)):
        raise ValueError(f"{what} counts must be non-negative and finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class AbundanceTable:
    """Subjects x species count matrix, optionally with a time axis.

    ``subject_ids`` has one entry per observation row; with ``times`` present
    the row index is the (subject, time) pair and each subject's times must
    be strictly increasing.
    """

    subject_ids: tuple[str, ...]
    species_ids: tuple[str, ...]
    counts: np.ndarray
    times: tuple[TimeLabel, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "subject_ids", tuple(self.subject_ids))
        object.__setattr__(self, "species_ids", tuple(self.species_ids))
        if not self.subject_ids:
            raise ValueError("subject_ids must be non-empty")
        if not self.species_ids:
            raise ValueError("species_ids must be non-empty")
        if len(set(self.species_ids)) != len(self.species_ids):
            raise ValueError("duplicate species_ids")
        counts = _as_readonly_counts(
            self.counts, len(self.subject_ids), len(self.species_ids), "abundance"
        )
        object.__setattr__(self, "counts", counts)
        if self.times is not None:
            times = tuple(self.times)
            object.__setattr__(self, "times", times)
            if len(times) != len(self.subject_ids):
                raise ValueError("times must have one entry per observation row")
            kinds = {type(t) for t in times}
            if not (kinds <= {int} or kinds <= {date}):
                raise ValueError("times must be all integers or all dates")
            seen: dict[str, TimeLabel] = {}
            for subject, t in zip(self.subject_ids, times):
                if subject in seen and not t > seen[subject]:
                    raise ValueError(
                        f"times for subject {subject!r} are not strictly increasing"
                    )
                seen[subject] = t

    def subjects(self) -> tuple[str, ...]:
        """Distinct subjects in first-appearance order."""
        return tuple(dict.fromkeys(self.subject_ids))

    def rows_for(self, subject: str) -> list[int]:
        return [i for i, s in enumerate(self.subject_ids) if s == subject]

    def __eq__(self, other) -> bool:
        if not isinstance(other, AbundanceTable):
            return NotImplemented
        return (
            self.subject_ids == other.subject_ids
            and self.species_ids == other.species_ids
            and self.times == other.times
            and np.array_equal(self.counts, other.counts)
        )

    def to_csv(self) -> str:
        if self.times is None:
            return format_cross_sectional(self)
        return format_longitudinal(self)


@dataclass(frozen=True, eq=False)
class LocationTable:
    """Species x locations count matrix with ordered sampling locations."""

    species_ids: tuple[str, ...]
    location_labels: tuple[str, ...]
    counts: np.ndarray
    distances: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "species_ids", tuple(self.species_ids))
        object.__setattr__(self, "location_labels", tuple(self.location_labels))
        object.__setattr__(self, "distances", tuple(float(d) for d in self.distances))
        if not self.species_ids:
            raise ValueError("species_ids must be non-empty")
        if not self.location_labels:
            raise ValueError("location_labels must be non-empty")
        if len(set(self.species_ids)) != len(self.species_ids):
            raise ValueError("duplicate species_ids")
        counts = _as_readonly_counts(
            self.counts, len(self.species_ids), len(self.location_labels), "location"
        )
        object.__setattr__(self, "counts", counts)
        if len(self.distances) != len(self.location_labels):
            raise ValueError("distances must have one entry per location")
        for prev, cur in zip(self.distances, self.distances[1:]):
            if not cur > prev:
                raise ValueError("distances must be strictly increasing")
        if self.distances and self.distances[0] <= 0:
            raise ValueError("distances must be strictly positive")

    def __eq__(self, other) -> bool:
        if not isinstance(other, LocationTable):
            return NotImplemented
        return (
            self.species_ids == other.species_ids
            and self.location_labels == other.location_labels
            and self.distances == other.distances
            and np.array_equal(self.counts, other.counts)
        )

    def to_csv(self) -> str:
        return format_location(self)


def _is_comment(line: str) -> bool:
    if not line.startswith("#"):
        return False
    rest = line[1:]
    return rest == "" or rest[0] in " \t#"


def _data_lines(text: Union[str, IO[str], Iterable[str]]) -> list[tuple[int, list[str]]]:
    """Strip comments/blank lines, CSV-split the rest, keep 1-based line numbers."""
    if isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = [line.rstrip("\r\n") for line in text]
    numbered = [
        (i, line)
        for i, line in enumerate(lines, start=1)
        if line.strip() and not _is_comment(line)
    ]
    if not numbered:
        raise ParseError("empty input: no header line")
    parsed = list(csv.reader(line for _, line in numbered))
    if len(parsed) != len(numbered):
        raise ParseError("malformed CSV: embedded newline in quoted field")
    return [(num, fields) for (num, _), fields in zip(numbered, parsed)]


def _parse_count(cell: str, line_no: int, column: str) -> float:
    token = cell.strip()
    if token.lower() in _NA_TOKENS:
        raise ParseError(
            f"line {line_no}, column {column!r}: missing value {cell!r} is not allowed"
        )
    try:
        value = float(token)
    except ValueError:
        raise ParseError(
            f"line {line_no}, column {column!r}: non-numeric cell {cell!r}"
        ) from None
    if not np.isfinite(value):
        raise ParseError(f"line {line_no}, column {column!r}: non-finite cell {cell!r}")
    if value < 0:
        raise ParseError(f"line {line_no}, column {column!r}: negative count {cell!r}")
    return value


def _check_width(fields: Sequence[str], expected: int, line_no: int) -> None:
    if len(fields) != expected:
        raise ParseError(
            f"line {line_no}: expected {expected} fields, got {len(fields)}"
        )


def _species_header(fields: Sequence[str], line_no: int) -> tuple[str, ...]:
    species = tuple(s.strip() for s in fields)
    if not species:
        raise ParseError(f"line {line_no}: header names no species columns")
    dupes = {s for s in species if species.count(s) > 1}
    if dupes:
        raise ParseError(
            f"line {line_no}: duplicate species column {sorted(dupes)[0]!r}"
        )
    return species


def parse_cross_sectional(text: Union[str, IO[str], Iterable[str]]) -> AbundanceTable:
    """Parse a ``subject_id,<species...>`` CSV into an untimed table.

    Row order is preserved. Duplicate subjects, duplicate species columns,
    and negative or non-numeric cells are parse errors naming the offending
    line and column.
    """
    rows = _data_lines(text)
    head_no, header = rows[0]
    if not header or header[0].strip() != "subject_id":
        raise ParseError(f"line {head_no}: header must start with 'subject_id'")
    species = _species_header(header[1:], head_no)
    data = rows[1:]
    if not data:
        raise ParseError("no observations")
    subject_ids: list[str] = []
    counts = np.zeros((len(data), len(species)))
    for r, (line_no, fields) in enumerate(data):
        _check_width(fields, 1 + len(species), line_no)
        subject = fields[0].strip()
        if subject in subject_ids:
            raise ParseError(f"line {line_no}: duplicate subject_id {subject!r}")
        subject_ids.append(subject)
        for c, cell in enumerate(fields[1:]):
            counts[r, c] = _parse_count(cell, line_no, species[c])
    return AbundanceTable(tuple(subject_ids), species, counts)


def _parse_time_cells(cells: list[tuple[int, str]]) -> list[TimeLabel]:
    as_int: list[TimeLabel] = []
    for line_no, cell in cells:
        token = cell.strip()
        try:
            value = int(token)
        except ValueError:
            break
        if value < 0:
            raise ParseError(f"line {line_no}: negative time index {cell!r}")
        as_int.append(value)
    else:
        return as_int

    as_date: list[TimeLabel] = []
    for line_no, cell in cells:
        token = cell.strip()
        try:
            as_date.append(date.fromisoformat(token))
        except ValueError:
            raise ParseError(
                f"line {line_no}: time {cell!r} is neither an ISO date nor an "
                "integer index, or the file mixes the two formats"
            ) from None
    return as_date


def parse_longitudinal(text: Union[str, IO[str], Iterable[str]]) -> AbundanceTable:
    """Parse a ``subject_id,time,<species...>`` CSV into a timed table.

    Rows are regrouped by subject (first-appearance order); within each
    subject the input order is kept and times must be strictly increasing.
    """
    rows = _data_lines(text)
    head_no, header = rows[0]
    if len(header) < 2 or header[0].strip() != "subject_id" or header[1].strip() != "time":
        raise ParseError(f"line {head_no}: header must start with 'subject_id,time'")
    species = _species_header(header[2:], head_no)
    data = rows[1:]
    if not data:
        raise ParseError("no observations")

    subjects_raw: list[str] = []
    time_cells: list[tuple[int, str]] = []
    count_rows = np.zeros((len(data), len(species)))
    for r, (line_no, fields) in enumerate(data):
        _check_width(fields, 2 + len(species), line_no)
        subjects_raw.append(fields[0].strip())
        time_cells.append((line_no, fields[1]))
        for c, cell in enumerate(fields[2:]):
            count_rows[r, c] = _parse_count(cell, line_no, species[c])
    times_raw = _parse_time_cells(time_cells)

    by_subject: dict[str, list[int]] = {}
    for r, subject in enumerate(subjects_raw):
        by_subject.setdefault(subject, []).append(r)

    order: list[int] = []
    for subject, indices in by_subject.items():
        seen: set[TimeLabel] = set()
        last: TimeLabel | None = None
        for r in indices:
            t = times_raw[r]
            line_no = data[r][0]
            if t in seen:
                raise ParseError(
                    f"line {line_no}: duplicate observation ({subject!r}, {t})"
                )
            if last is not None and not t > last:
                raise ParseError(
                    f"line {line_no}: times for subject {subject!r} are not "
                    "strictly increasing"
                )
            seen.add(t)
            last = t
        order.extend(indices)

    return AbundanceTable(
        tuple(subjects_raw[r] for r in order),
        species,
        count_rows[order],
        times=tuple(times_raw[r] for r in order),
    )


def parse_location(text: Union[str, IO[str], Iterable[str]]) -> LocationTable:
    """Parse a ``species,<loc...>`` CSV, with optional ``distance`` row."""
    rows = _data_lines(text)
    head_no, header = rows[0]
    if not header or header[0].strip() != "species":
        raise ParseError(f"line {head_no}: header must start with 'species'")
    labels = _species_header(header[1:], head_no)
    data = rows[1:]

    distances = tuple(float(i) for i in range(1, len(labels) + 1))
    if data and data[0][1] and data[0][1][0].strip() == "distance":
        line_no, fields = data[0]
        _check_width(fields, 1 + len(labels), line_no)
        parsed: list[float] = []
        for c, cell in enumerate(fields[1:]):
            try:
                value = float(cell.strip())
            except ValueError:
                raise ParseError(
                    f"line {line_no}: non-numeric distance {cell!r}"
                ) from None
            if not np.isfinite(value) or value <= 0:
                raise ParseError(f"line {line_no}: distances must be positive")
            if parsed and value <= parsed[-1]:
                raise ParseError(f"line {line_no}: distances must increase")
            parsed.append(value)
        distances = tuple(parsed)
        data = data[1:]

    if not data:
        raise ParseError("no observations")
    species_ids: list[str] = []
    counts = np.zeros((len(data), len(labels)))
    for r, (line_no, fields) in enumerate(data):
        _check_width(fields, 1 + len(labels), line_no)
        name = fields[0].strip()
        if name in species_ids:
            raise ParseError(f"line {line_no}: duplicate species {name!r}")
        species_ids.append(name)
        for c, cell in enumerate(fields[1:]):
            counts[r, c] = _parse_count(cell, line_no, labels[c])
    return LocationTable(tuple(species_ids), labels, counts, distances)


def _fmt_number(x: float) -> str:
    x = float(x)
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _fmt_time(t: TimeLabel) -> str:
    return t.isoformat() if isinstance(t, date) else str(t)


def _quote(field: str, first: bool) -> str:
    needs = any(ch in field for ch in ',"\n\r')
    if first and _is_comment(field):
        needs = True
    if needs:
        return '"' + field.replace('"', '""') + '"'
    return field


def _emit(rows: Iterable[Sequence[str]]) -> str:
    out = io.StringIO()
    for row in rows:
        out.write(",".join(_quote(f, i == 0) for i, f in enumerate(row)))
        out.write("\n")
    return out.getvalue()


def format_cross_sectional(table: AbundanceTable) -> str:
    """Serialize an untimed table; inverse of :func:`parse_cross_sectional`."""
    if table.times is not None:
        raise UsageError("table has a time axis; use format_longitudinal")
    rows = [["subject_id", *table.species_ids]]
    for subject, row in zip(table.subject_ids, table.counts):
        rows.append([subject, *(_fmt_number(x) for x in row)])
    return _emit(rows)


def format_longitudinal(table: AbundanceTable) -> str:
    """Serialize a timed table; inverse of :func:`parse_longitudinal`."""
    if table.times is None:
        raise UsageError("table has no time axis; use format_cross_sectional")
    rows = [["subject_id", "time", *table.species_ids]]
    for subject, t, row in zip(table.subject_ids, table.times, table.counts):
        rows.append([subject, _fmt_time(t), *(_fmt_number(x) for x in row)])
    return _emit(rows)


def format_location(table: LocationTable) -> str:
    """Serialize a location table; inverse of :func:`parse_location`."""
    rows = [["species", *table.location_labels]]
    rows.append(["distance", *(_fmt_number(d) for d in table.distances)])
    for name, row in zip(table.species_ids, table.counts):
        rows.append([name, *(_fmt_number(x) for x in row)])
    return _emit(rows)

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
text starts a data field, so subject ids like ``#400`` parse as data. A line
that starts with a quote is never a comment, so a leading field that would
read as one can be written quoted, as the CSV reports do.

Counts are accepted as any non-negative finite real, not just integers, so
that tables produced by time-series mean conversion reuse the same type.
Missing cells (``NA`` and friends) are rejected, never imputed.

A table's count block is converted at once by ``np.loadtxt`` when splitting
each line on commas gives the fields ``csv.reader`` would: no quote, no NUL
byte and no field over the csv size limit. A block with no ``-``, ``.``,
``e`` or ``E`` is read as int64 and cast to float; one with such a
character, or with a cell that is no int64, is read as float. The checked
reader, one csv split and one conversion per row, reads every other table
and any table that fails a check there, so that its error names the first
bad line and cell in file order. All three routes give the same table, bit
for bit.
"""

from __future__ import annotations

import csv
import re
import warnings
from collections import Counter
from datetime import date
from typing import IO, Iterable, Sequence, Union

import numpy as np

from ._fmt import _is_comment
from ._records import _Frozen
from .errors import ParseError

TimeLabel = Union[int, date]

_NA_TOKENS = frozenset({"na", "n/a", "nan", "null", "none", ""})
# The one date form: date.fromisoformat also takes week and basic-format
# dates from Python 3.11 on, but not on 3.10.
_ISO_DATE = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")


class _Parsed:
    """A count matrix the parser has just built and checked in bulk: a table
    takes it as it is, without the copy and the second check that it gives
    a caller's array."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix


def _as_readonly_counts(counts, n_rows: int, n_cols: int, what: str) -> np.ndarray:
    if isinstance(counts, _Parsed):
        arr = counts.matrix
    else:
        arr = np.array(counts, dtype=float)
        if arr.ndim != 2 or arr.shape != (n_rows, n_cols):
            raise ValueError(
                f"{what} counts must be {n_rows}x{n_cols}, got shape {arr.shape}"
            )
        if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0)):
            raise ValueError(f"{what} counts must be non-negative and finite")
    arr.flags.writeable = False
    return arr


class AbundanceTable(_Frozen):
    """Subjects x species count matrix, optionally with a time axis.

    ``subject_ids`` has one entry per observation row; with ``times`` present
    the row index is the (subject, time) pair and each subject's times must
    be strictly increasing. The count matrix is read-only and the table's own.
    """

    __slots__ = ("subject_ids", "species_ids", "counts", "times", "_rows")

    def __init__(self, subject_ids, species_ids, counts, times=None):
        self.subject_ids: tuple[str, ...] = tuple(subject_ids)
        self.species_ids: tuple[str, ...] = tuple(species_ids)
        if not self.subject_ids:
            raise ValueError("subject_ids must be non-empty")
        if not self.species_ids:
            raise ValueError("species_ids must be non-empty")
        if len(set(self.species_ids)) != len(self.species_ids):
            raise ValueError("duplicate species_ids")
        self.counts = _as_readonly_counts(
            counts, len(self.subject_ids), len(self.species_ids), "abundance"
        )
        if times is not None:
            times = tuple(times)
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
        self.times: tuple[TimeLabel, ...] | None = times

    def _rows_by_subject(self) -> dict[str, list[int]]:
        try:
            return self._rows
        except AttributeError:  # the first call fills the slot
            rows: dict[str, list[int]] = {}
            for i, subject in enumerate(self.subject_ids):
                rows.setdefault(subject, []).append(i)
            self._rows = rows
            return rows

    def subjects(self) -> tuple[str, ...]:
        """Distinct subjects in first-appearance order."""
        return tuple(self._rows_by_subject())

    def rows_for(self, subject: str) -> list[int]:
        return list(self._rows_by_subject().get(subject, ()))


class LocationTable(_Frozen):
    """Species x locations count matrix with ordered sampling locations."""

    __slots__ = ("species_ids", "location_labels", "counts", "distances")

    def __init__(self, species_ids, location_labels, counts, distances):
        self.species_ids: tuple[str, ...] = tuple(species_ids)
        self.location_labels: tuple[str, ...] = tuple(location_labels)
        self.distances: tuple[float, ...] = tuple(float(d) for d in distances)
        if not self.species_ids:
            raise ValueError("species_ids must be non-empty")
        if not self.location_labels:
            raise ValueError("location_labels must be non-empty")
        if len(set(self.species_ids)) != len(self.species_ids):
            raise ValueError("duplicate species_ids")
        if len(set(self.location_labels)) != len(self.location_labels):
            raise ValueError("duplicate location_labels")
        self.counts = _as_readonly_counts(
            counts, len(self.species_ids), len(self.location_labels), "location"
        )
        if len(self.distances) != len(self.location_labels):
            raise ValueError("distances must have one entry per location")
        for prev, cur in zip(self.distances, self.distances[1:]):
            if not cur > prev:
                raise ValueError("distances must be strictly increasing")
        if self.distances and self.distances[0] <= 0:
            raise ValueError("distances must be strictly positive")


def _numbered_lines(text: Union[str, IO[str], Iterable[str]]) -> list[tuple[int, str]]:
    """Drop comment and blank lines, keeping each line's 1-based number."""
    if not isinstance(text, str):
        text = "\n".join(line.rstrip("\r\n") for line in text)
    numbered = [
        (i, line)
        for i, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not _is_comment(line)
    ]
    if not numbered:
        raise ParseError("empty input: no header line")
    return numbered


def _data_lines(numbered: list[tuple[int, str]]) -> list[tuple[int, list[str]]]:
    """CSV-split the numbered lines."""
    reader = csv.reader(line for _, line in numbered)
    try:
        parsed = list(reader)
    except csv.Error as exc:
        # A field over the csv module's size limit, or on Python 3.10 a NUL
        # byte. The limit is process-wide state, so it is left as it is.
        line_no = numbered[reader.line_num - 1][0]
        raise ParseError(f"line {line_no}: malformed CSV: {exc}") from None
    if len(parsed) != len(numbered):
        raise ParseError("malformed CSV: embedded newline in quoted field")
    return [(num, fields) for (num, _), fields in zip(numbered, parsed)]


def _splits_like_csv(numbered: list[tuple[int, str]]) -> bool:
    """Whether ``str.split(",")`` gives every line the fields ``csv.reader``
    gives: no quote, no NUL, and no field over the csv size limit."""
    limit = csv.field_size_limit()
    return not any(
        '"' in line
        or "\0" in line
        or (len(line) > limit and max(map(len, line.split(","))) > limit)
        for _, line in numbered
    )


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


def _read_header(
    rows: list[tuple[int, list[str]]], lead: Sequence[str]
) -> tuple[str, ...]:
    """Check that the header starts with ``lead``; return the unique column
    names after it: locations after ``species``, else species."""
    head_no, header = rows[0]
    if [f.strip() for f in header[: len(lead)]] != list(lead):
        raise ParseError(f"line {head_no}: header must start with {','.join(lead)!r}")
    kind = "location" if lead[0] == "species" else "species"
    names = tuple(s.strip() for s in header[len(lead) :])
    if not names:
        raise ParseError(f"line {head_no}: header names no {kind} columns")
    dupes = [s for s, n in Counter(names).items() if n > 1]
    if dupes:
        raise ParseError(f"line {head_no}: duplicate {kind} column {min(dupes)!r}")
    return names


def _read_rows(
    data: list[tuple[int, list[str]]],
    lead: Sequence[str],
    names: tuple[str, ...],
    unique: bool,
) -> tuple[list[str], np.ndarray]:
    """Check and convert the data rows below a ``lead`` + ``names`` header.

    Returns the stripped first-column ids and the count matrix. Rows are
    checked in file order: width, then (if ``unique``) a repeated id, then
    the cells. A row whose cells do not all convert to finite non-negative
    floats is re-read cell by cell, so the error names its first bad cell.
    """
    if not data:
        raise ParseError("no observations")
    width = len(lead) + len(names)
    ids: list[str] = []
    seen: set[str] = set()
    counts = np.empty((len(data), len(names)))
    for r, (line_no, fields) in enumerate(data):
        if len(fields) != width:
            raise ParseError(
                f"line {line_no}: expected {width} fields, got {len(fields)}"
            )
        row_id = fields[0].strip()
        if unique and row_id in seen:
            raise ParseError(f"line {line_no}: duplicate {lead[0]} {row_id!r}")
        seen.add(row_id)
        ids.append(row_id)
        cells = fields[len(lead) :]
        try:
            values = np.array(cells, dtype=float)
            ok = np.isfinite(values).all() and (values >= 0).all()
        except ValueError:
            ok = False
        if not ok:
            values = [_parse_count(c, line_no, name) for c, name in zip(cells, names)]
        counts[r] = values
    return ids, counts


def _read_distances(
    line_no: int, fields: list[str], labels: tuple[str, ...]
) -> tuple[float, ...]:
    """Check and convert a location table's ``distance`` row."""
    if len(fields) != 1 + len(labels):
        raise ParseError(
            f"line {line_no}: expected {1 + len(labels)} fields, got {len(fields)}"
        )
    parsed: list[float] = []
    for cell in fields[1:]:
        try:
            value = float(cell.strip())
        except ValueError:
            raise ParseError(f"line {line_no}: non-numeric distance {cell!r}") from None
        if not np.isfinite(value) or value <= 0:
            raise ParseError(f"line {line_no}: distances must be positive")
        if parsed and value <= parsed[-1]:
            raise ParseError(f"line {line_no}: distances must increase")
        parsed.append(value)
    return tuple(parsed)


# A block holding none of these takes numpy's integer tokenizer first: "-"
# keeps -0 (and every negative) on the float route, where -0 stays -0.0;
# ".", "e" and "E" mark a float cell, which the integer attempt would fail.
_NOT_INTEGER = "-.eE"


def _convert(rests: list[str]) -> np.ndarray:
    """The comma-separated count lines as a float matrix: read as int64 and
    cast to float (which rounds each integer as ``float(str)`` does) when no
    line holds a character of ``_NOT_INTEGER`` and every cell is an int64,
    else read as float. The caller turns warnings into errors."""
    kwargs = dict(delimiter=",", comments=None, ndmin=2)
    if not any(c in rest for rest in rests for c in _NOT_INTEGER):
        try:
            return np.loadtxt(rests, dtype=np.int64, **kwargs).astype(float)
        except (ValueError, Warning):
            # NA, inf, 1_0, a non-ASCII digit, 2**63 or more; an older numpy
            # reads an integer past int64 through float, with a warning.
            pass
    return np.loadtxt(rests, dtype=float, **kwargs)


def _read_block(
    lines: list[tuple[int, str]], n_lead: int, n_cols: int, unique: bool
):
    """Convert the data lines of a table that splits like csv at once.

    Each line is split into its ``n_lead`` lead fields and the rest, and all
    the rests are converted at once by :func:`_convert`. Returns each row as
    its line number and fields (the lead fields, then the rest), the
    stripped ids and the count matrix; or None when the block is ragged,
    fails to convert, warns, holds a non-finite or negative value, or
    repeats an id that must be unique.
    """
    data = [(line_no, line.split(",", n_lead)) for line_no, line in lines]
    if not data or any(len(fields) != n_lead + 1 for _, fields in data):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = _convert([fields[-1] for _, fields in data])
    except (ValueError, Warning):
        return None
    ids = [fields[0].strip() for _, fields in data]
    if (
        counts.shape != (len(data), n_cols)
        or not np.isfinite(counts).all()
        or (counts < 0).any()
        or (unique and len(set(ids)) != len(ids))
    ):
        return None
    return data, ids, counts


def _read_table(
    text: Union[str, IO[str], Iterable[str]],
    lead: Sequence[str],
    unique: bool,
    distance_row: bool = False,
):
    """Read the header, the optional ``distance`` row and the count rows.

    Returns the column names, the distances (None without that row), each
    data row as its line number and fields (the lead fields first), the
    stripped ids and the count matrix. A table that splits like csv reads
    its header and distance row from ``str.split`` and its count block
    through :func:`_read_block`; where that fails, and for every other
    table, the checked reader reads each row on its own and raises on the
    first error in file order.
    """
    numbered = _numbered_lines(text)
    plain = _splits_like_csv(numbered)
    if plain:
        rows = [(line_no, line.split(",")) for line_no, line in numbered[:2]]
    else:
        rows = _data_lines(numbered)
    names = _read_header(rows, lead)
    distances = None
    if distance_row and len(rows) > 1 and rows[1][1][0].strip() == "distance":
        distances = _read_distances(*rows[1], names)
    start = 1 if distances is None else 2
    if plain:
        block = _read_block(numbered[start:], len(lead), len(names), unique)
        if block is not None:
            return (names, distances, *block)
        rows = _data_lines(numbered)
    data = rows[start:]
    ids, counts = _read_rows(data, lead, names, unique)
    return names, distances, data, ids, counts


def parse_cross_sectional(text: Union[str, IO[str], Iterable[str]]) -> AbundanceTable:
    """Parse a ``subject_id,<species...>`` CSV into an untimed table.

    Row order is preserved. Duplicate subjects, duplicate species columns,
    and negative or non-numeric cells are parse errors naming the offending
    line and column.
    """
    species, _, _, subject_ids, counts = _read_table(text, ("subject_id",), unique=True)
    return AbundanceTable(tuple(subject_ids), species, _Parsed(counts))


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
            if not _ISO_DATE.fullmatch(token):
                raise ValueError(token)
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
    species, _, data, subjects_raw, count_rows = _read_table(
        text, ("subject_id", "time"), unique=False
    )
    times_raw = _parse_time_cells([(line_no, fields[1]) for line_no, fields in data])

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
        _Parsed(count_rows[order]),
        times=tuple(times_raw[r] for r in order),
    )


def parse_location(text: Union[str, IO[str], Iterable[str]]) -> LocationTable:
    """Parse a ``species,<loc...>`` CSV, with optional ``distance`` row."""
    labels, distances, _, species_ids, counts = _read_table(
        text, ("species",), unique=True, distance_row=True
    )
    if distances is None:
        distances = tuple(float(i) for i in range(1, len(labels) + 1))
    return LocationTable(tuple(species_ids), labels, _Parsed(counts), distances)

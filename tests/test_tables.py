"""Parsing, validation, and round-trip behavior of the three CSV layouts."""

import csv
import datetime
import io
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taylorlaw import tables
from taylorlaw import (
    AbundanceTable,
    LocationTable,
    ParseError,
    parse_cross_sectional,
    parse_location,
    parse_longitudinal,
)
from conftest import (
    format_cross_sectional,
    format_location,
    format_longitudinal,
    same_fields,
)


class TestCrossSectional:
    def test_single_row(self):
        table = parse_cross_sectional("subject_id,sp1,sp2,sp3\n#400,100,1200,0\n")
        assert table.subject_ids == ("#400",)
        assert table.species_ids == ("sp1", "sp2", "sp3")
        assert table.times is None
        np.testing.assert_array_equal(table.counts, [[100.0, 1200.0, 0.0]])

    def test_two_rows_preserve_order(self):
        text = "subject_id,sp1,sp2,sp3\n#400,100,1200,0\n#401,200,800,1000\n"
        table = parse_cross_sectional(text)
        assert table.subject_ids == ("#400", "#401")
        np.testing.assert_array_equal(
            table.counts, [[100, 1200, 0], [200, 800, 1000]]
        )

    def test_header_only_is_an_error(self):
        with pytest.raises(ParseError, match="no observations"):
            parse_cross_sectional("subject_id,sp1,sp2\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_cross_sectional("")

    def test_subject_id_starting_with_hash_is_data_not_comment(self):
        # A '#' glued to an identifier is a subject id; a '#' followed by a
        # space is a comment line.
        text = (
            "# study batch 7\n"
            "subject_id,sp1\n"
            "#400,5\n"
            "## another comment\n"
            "#401,6\n"
        )
        table = parse_cross_sectional(text)
        assert table.subject_ids == ("#400", "#401")

    def test_blank_lines_skipped(self):
        table = parse_cross_sectional("subject_id,sp1\n\na,1\n\n\nb,2\n")
        assert table.subject_ids == ("a", "b")

    def test_na_cell_rejected_with_location(self):
        with pytest.raises(ParseError, match="line 2.*'sp2'"):
            parse_cross_sectional("subject_id,sp1,sp2\nx,1,NA\n")

    def test_negative_count_rejected(self):
        with pytest.raises(ParseError, match="negative"):
            parse_cross_sectional("subject_id,sp1\nx,-3\n")

    def test_non_numeric_cell_rejected(self):
        with pytest.raises(ParseError):
            parse_cross_sectional("subject_id,sp1\nx,many\n")

    def test_ragged_row_rejected(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_cross_sectional("subject_id,sp1,sp2\na,1,2\nb,1\n")

    def test_duplicate_subject_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_cross_sectional("subject_id,sp1\na,1\na,2\n")

    def test_duplicate_species_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_cross_sectional("subject_id,sp1,sp1\na,1,2\n")

    def test_fractional_counts_accepted(self):
        table = parse_cross_sectional("subject_id,sp1\na,2.5\n")
        assert table.counts[0, 0] == 2.5


# Every character str.splitlines() ends a line at, besides "\n".
LINE_BREAKS = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85"]
LINE_BREAKS += ["\u2028", "\u2029"]


@pytest.mark.parametrize("sep", LINE_BREAKS, ids=[repr(s) for s in LINE_BREAKS])
def test_file_object_splits_lines_like_a_str(sep):
    text = f"subject_id,a,b\ns1,1,2{sep}s2,3,4\n"
    results = []
    for source in (text, io.StringIO(text)):
        try:
            results.append(format_cross_sectional(parse_cross_sectional(source)))
        except ParseError as exc:
            results.append(f"error: {exc}")
    assert results[0] == results[1]


class TestLongitudinal:
    def test_two_timed_rows_one_subject(self):
        text = (
            "subject_id,time,sp1,sp2,sp3\n"
            "#400,2021-01-01,100,1200,0\n"
            "#400,2021-12-01,500,2000,10\n"
        )
        table = parse_longitudinal(text)
        assert table.subject_ids == ("#400", "#400")
        assert table.times == (
            datetime.date(2021, 1, 1),
            datetime.date(2021, 12, 1),
        )
        np.testing.assert_array_equal(
            table.counts, [[100, 1200, 0], [500, 2000, 10]]
        )

    def test_integer_times(self):
        text = "subject_id,time,sp1\nA,0,1\nA,1,2\nA,2,3\n"
        table = parse_longitudinal(text)
        assert table.times == (0, 1, 2)

    def test_duplicate_subject_time_rejected(self):
        text = (
            "subject_id,time,sp1\n"
            "#400,2021-01-01,1\n"
            "#400,2021-01-01,2\n"
        )
        with pytest.raises(ParseError, match="duplicate observation"):
            parse_longitudinal(text)

    def test_non_monotone_times_rejected(self):
        text = "subject_id,time,sp1\nA,3,1\nA,1,2\n"
        with pytest.raises(ParseError, match="increasing"):
            parse_longitudinal(text)

    def test_mixed_time_formats_rejected(self):
        text = "subject_id,time,sp1\nA,2021-01-01,1\nB,7,2\n"
        with pytest.raises(ParseError):
            parse_longitudinal(text)

    def test_rows_regrouped_by_subject(self):
        # Interleaved subjects are grouped, keeping each subject's own order.
        text = "subject_id,time,sp1\nA,1,1\nB,1,2\nA,2,3\nB,2,4\n"
        table = parse_longitudinal(text)
        assert table.subject_ids == ("A", "A", "B", "B")
        assert list(table.counts[:, 0]) == [1.0, 3.0, 2.0, 4.0]

    def test_negative_integer_time_rejected(self):
        with pytest.raises(ParseError):
            parse_longitudinal("subject_id,time,sp1\nA,-1,1\n")

    # Python 3.11's date.fromisoformat takes these; 3.10's does not.
    @pytest.mark.parametrize("cell", ["2021-W02-1", "2021W021", "20210120"])
    def test_only_the_extended_calendar_date_form_is_a_date(self, cell):
        text = f"subject_id,time,sp1\nA,2021-01-01,1\nA,{cell},2\n"
        with pytest.raises(ParseError) as exc:
            parse_longitudinal(text)
        assert str(exc.value) == (
            f"line 3: time {cell!r} is neither an ISO date nor an integer index, "
            "or the file mixes the two formats"
        )


class TestLocation:
    TEXT = (
        "species,upper_third,middle_third,lower_third,outer\n"
        "species1,100,900,1500,2000\n"
    )

    def test_table_three_row(self):
        table = parse_location(self.TEXT)
        assert table.species_ids == ("species1",)
        assert table.location_labels == (
            "upper_third",
            "middle_third",
            "lower_third",
            "outer",
        )
        np.testing.assert_array_equal(table.counts, [[100, 900, 1500, 2000]])

    def test_default_distances_are_ranks(self):
        assert parse_location(self.TEXT).distances == (1.0, 2.0, 3.0, 4.0)

    def test_explicit_distance_row(self):
        text = (
            "species,a,b,c,d\n"
            "distance,1,2,3,4\n"
            "sp,5,6,7,8\n"
        )
        assert parse_location(text).distances == (1.0, 2.0, 3.0, 4.0)

    def test_decreasing_distances_rejected(self):
        text = "species,a,b,c,d\ndistance,2,1,3,4\nsp,5,6,7,8\n"
        with pytest.raises(ParseError, match="must increase"):
            parse_location(text)

    def test_non_positive_distance_rejected(self):
        text = "species,a,b\ndistance,0,1\nsp,5,6\n"
        with pytest.raises(ParseError, match="positive"):
            parse_location(text)


class TestTableInvariants:
    def test_counts_are_read_only(self):
        table = parse_cross_sectional("subject_id,sp1\na,1\n")
        with pytest.raises(ValueError):
            table.counts[0, 0] = 9.0

    def test_fields_cannot_be_rebound_or_deleted(self):
        table = parse_longitudinal("subject_id,time,sp1\na,0,1\na,1,2\n")
        assert table.subjects() == ("a",)  # fills the lazy row index too
        location = parse_location("species,x,y\ndistance,1,2\nsp,5,6\n")
        fields = ["subject_ids", "species_ids", "counts", "times", "_rows"]
        for obj, field in [(table, f) for f in fields] + [(location, "distances")]:
            with pytest.raises(AttributeError, match=f"assign to field '{field}'"):
                setattr(obj, field, getattr(obj, field))
            with pytest.raises(AttributeError, match=f"delete field '{field}'"):
                delattr(obj, field)
        assert table.subjects() == ("a",)

    def test_repr_lists_the_fields(self):
        table = AbundanceTable(("a",), ("s1",), [[1.0]])
        assert repr(table) == (
            "AbundanceTable(subject_ids=('a',), species_ids=('s1',), "
            "counts=array([[1.]]), times=None)"
        )

    # The parser hands its fresh matrix over without a copy; both routes,
    # one-block and checked (a quoted cell), in every layout.
    @pytest.mark.parametrize(
        "parse,text",
        [
            (parse_cross_sectional, 'subject_id,sp1\na,"1"\n'),
            (parse_longitudinal, "subject_id,time,sp1\nb,0,2\na,0,1\nb,1,3\n"),
            (parse_longitudinal, 'subject_id,time,sp1\nb,0,2\na,0,"1"\nb,1,3\n'),
            (parse_location, "species,x,y\ndistance,1,2\nsp,1,2\n"),
            (parse_location, 'species,x,y\ndistance,1,2\nsp,1,"2"\n'),
        ],
    )
    def test_parsed_counts_are_read_only(self, parse, text):
        with pytest.raises(ValueError):
            parse(text).counts[0, 0] = 9.0

    @pytest.mark.parametrize(
        "make",
        [
            lambda c: AbundanceTable(("a",), ("s1", "s2"), c),
            lambda c: LocationTable(("sp",), ("x", "y"), c, (1.0, 2.0)),
        ],
        ids=["abundance", "location"],
    )
    def test_constructor_keeps_a_copy_of_the_callers_counts(self, make):
        counts = np.array([[1.0, 2.0]])
        table = make(counts)
        counts[0, 0] = 9.0
        assert counts.flags.writeable
        assert table.counts[0, 0] == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AbundanceTable(("a",), ("s1", "s2"), np.array([[1.0]]))

    def test_non_finite_count_rejected(self):
        with pytest.raises(ValueError):
            AbundanceTable(("a",), ("s1",), np.array([[np.inf]]))

    def test_times_must_increase_per_subject(self):
        with pytest.raises(ValueError):
            AbundanceTable(
                ("a", "a"), ("s1",), np.array([[1.0], [2.0]]), times=(2, 1)
            )

    def test_location_distances_validated(self):
        with pytest.raises(ValueError):
            LocationTable(("sp",), ("x", "y"), np.array([[1.0, 2.0]]), (3.0, 2.0))


class TestRoundTrip:
    def test_cross_sectional_hand_case(self):
        text = "subject_id,sp1,sp2,sp3\n#400,100,1200,0\n#401,200,800,1000\n"
        table = parse_cross_sectional(text)
        assert same_fields(parse_cross_sectional(format_cross_sectional(table)), table)

    def test_longitudinal_hand_case(self):
        text = (
            "subject_id,time,sp1,sp2\n"
            "#400,2021-01-01,100,1200\n"
            "#400,2021-12-01,500,2000\n"
        )
        table = parse_longitudinal(text)
        assert same_fields(parse_longitudinal(format_longitudinal(table)), table)

    def test_location_hand_case(self):
        text = "species,a,b\ndistance,0.5,2.5\nsp,5,6\n"
        table = parse_location(text)
        assert same_fields(parse_location(format_location(table)), table)

    def test_hash_subject_round_trip(self):
        # Formatting must protect first fields that would read back as
        # comments or be ambiguous.
        ids = ("#400", "# 400", "#", "##")
        table = AbundanceTable(ids, ("sp1",), np.array([[3.0], [1.0], [2.0], [0.0]]))
        again = parse_cross_sectional(format_cross_sectional(table))
        assert same_fields(again, table)


_ids = st.text(
    alphabet=st.characters(
        codec="ascii", categories=("L", "N", "P", "S"), exclude_characters="\r\n"
    ),
    min_size=1,
    max_size=8,
).filter(lambda s: s.strip() == s and s != "")

_counts = st.one_of(
    st.integers(min_value=0, max_value=10**6).map(float),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip_random_cross_sectional(data):
    """Any valid table survives format -> parse unchanged."""
    n_rows = data.draw(st.integers(1, 5))
    n_cols = data.draw(st.integers(1, 4))
    subjects = data.draw(
        st.lists(_ids, min_size=n_rows, max_size=n_rows, unique=True)
    )
    species = data.draw(
        st.lists(_ids, min_size=n_cols, max_size=n_cols, unique=True)
    )
    counts = np.array(
        [
            [data.draw(_counts) for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
    )
    table = AbundanceTable(tuple(subjects), tuple(species), counts)
    assert same_fields(parse_cross_sectional(format_cross_sectional(table)), table)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_round_trip_random_longitudinal(data):
    n_subjects = data.draw(st.integers(1, 3))
    n_times = data.draw(st.integers(1, 4))
    n_cols = data.draw(st.integers(1, 3))
    names = data.draw(
        st.lists(_ids, min_size=n_subjects, max_size=n_subjects, unique=True)
    )
    species = data.draw(
        st.lists(_ids, min_size=n_cols, max_size=n_cols, unique=True)
    )
    subject_ids = []
    times = []
    for name in names:
        ts = sorted(
            data.draw(
                st.lists(
                    st.integers(0, 50),
                    min_size=n_times,
                    max_size=n_times,
                    unique=True,
                )
            )
        )
        subject_ids.extend([name] * n_times)
        times.extend(ts)
    counts = np.array(
        [
            [data.draw(_counts) for _ in range(n_cols)]
            for _ in range(len(subject_ids))
        ]
    )
    table = AbundanceTable(
        tuple(subject_ids), tuple(species), counts, times=tuple(times)
    )
    assert same_fields(parse_longitudinal(format_longitudinal(table)), table)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_round_trip_random_location(data):
    n_rows = data.draw(st.integers(1, 4))
    n_cols = data.draw(st.integers(1, 4))
    species = data.draw(st.lists(_ids, min_size=n_rows, max_size=n_rows, unique=True))
    labels = data.draw(st.lists(_ids, min_size=n_cols, max_size=n_cols, unique=True))
    positive = st.floats(min_value=1e-300, max_value=1e300)
    distances = sorted(
        data.draw(st.lists(positive, min_size=n_cols, max_size=n_cols, unique=True))
    )
    counts = np.array(
        [[data.draw(_counts) for _ in range(n_cols)] for _ in range(n_rows)]
    )
    table = LocationTable(tuple(species), tuple(labels), counts, tuple(distances))
    assert same_fields(parse_location(format_location(table)), table)


@pytest.mark.parametrize(
    ("parse", "text", "message"),
    [
        (
            parse_cross_sectional,
            "subject_id,a,b\nr1,1,x\nr2,1\n",
            "line 2, column 'b': non-numeric cell 'x'",
        ),
        (
            parse_longitudinal,
            "subject_id,time,a,b\ns,1,1,-2\ns,2,1\n",
            "line 2, column 'b': negative count '-2'",
        ),
        (
            parse_location,
            "species,l1,l2\nsp1,NA,1\nsp2,1,2,3\n",
            "line 2, column 'l1': missing value 'NA' is not allowed",
        ),
        (
            parse_location,
            "species,l1,l2\ndistance,1,2\nsp1,1e400,1\nsp2,1\n",
            "line 3, column 'l1': non-finite cell '1e400'",
        ),
        (
            parse_cross_sectional,
            "subject_id,a,b\nr1,1\nr2,1,x\n",
            "line 2: expected 3 fields, got 2",
        ),
    ],
)
def test_first_bad_row_in_file_order_is_reported(parse, text, message):
    """A bad cell is reported before a ragged row below it, and vice versa."""
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


_odd_cells = st.sampled_from(
    [
        "NA", "na", "N/A", "nan", "NaN", "-nan", "null", "None", "", " ",
        "inf", "-inf", "Infinity", "1e400", "-1e400", "1e-400", "-0", "-0.0",
        "+0", "1_000", "1__000", "_1", "1_", " 12 ", "\t3.5\n", " 7 ",
        "٣", "１２", "١٢٣.٥", "१२",
        "0x10", "1e", ".5", "5.", "-1", "-1e-300", "1,5", "1 000",
    ]
)
_cell_text = st.one_of(
    _odd_cells,
    st.text(max_size=6),
    st.floats().map(repr),
    st.integers(-(10**6), 10**20).map(str),
    st.tuples(st.sampled_from(["", " ", "\t", "　"]), _odd_cells).map("".join),
)


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(_cell_text, min_size=1, max_size=4))
def test_row_reader_accepts_exactly_what_the_cell_parser_accepts(cells):
    """The whole-row conversion keeps the per-cell rule: same values down to
    the sign of zero, or the same error naming the first bad cell."""
    from taylorlaw.tables import _parse_count, _read_rows

    names = tuple(f"c{j}" for j in range(len(cells)))
    data = [(2, ["r", *cells])]
    try:
        expected = [_parse_count(c, 2, n) for c, n in zip(cells, names)]
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            _read_rows(data, ("subject_id",), names, unique=True)
        assert str(got.value) == str(exc)
    else:
        _, counts = _read_rows(data, ("subject_id",), names, unique=True)
        assert [v.hex() for v in counts[0].tolist()] == [v.hex() for v in expected]


# The block route (one np.loadtxt per table) against the checked route (one
# csv split and one conversion per row): equal tables down to the bits of
# every count, or the same error message.

_OVER_LIMIT = "0" * (csv.field_size_limit() + 1)
_ROUTE_CELLS = [
    "1_0", "\u0661", "\uff11\uff12", " 7 ", "-0", "inf", "1e400", "NA", "",
    "0x10", "-1", "2.5", '"3"', '"4,5"', "1\0", _OVER_LIMIT,
]
_LAYOUTS = {
    "cross_sectional": (parse_cross_sectional, ["subject_id"]),
    "longitudinal": (parse_longitudinal, ["subject_id", "time"]),
    "location": (parse_location, ["species"]),
}


def _outcome(parse, text):
    try:
        table = parse(text)
    except ParseError as exc:
        return ("error", str(exc))
    hexed = [[v.hex() for v in row] for row in table.counts.tolist()]
    if isinstance(table, LocationTable):
        distances = [d.hex() for d in table.distances]
        return (table.species_ids, table.location_labels, distances, hexed)
    return (table.subject_ids, table.species_ids, table.times, hexed)


def _assert_routes_agree(parse, text):
    fast = _outcome(parse, text)
    with mock.patch.object(tables, "_read_block", lambda *args: None):
        checked = _outcome(parse, text)
    assert fast == checked


def _table_text(layout, rows, n_species, newline="\n", distances=None):
    lead = _LAYOUTS[layout][1]
    lines = [",".join([*lead, *(f"c{j}" for j in range(n_species))])]
    if distances is not None:
        lines.append(",".join(["distance", *distances]))
    lines += [",".join(row) for row in rows]
    return newline.join(lines) + newline


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@pytest.mark.parametrize("cell", _ROUTE_CELLS, ids=lambda c: repr(c)[:12])
def test_block_and_checked_routes_agree_on_each_odd_cell(layout, cell):
    lead = ["s1", "1"][: len(_LAYOUTS[layout][1])]
    other = ["s2", "2"][: len(lead)]
    rows = [[*lead, "3", cell], [*other, "4", "5"]]
    _assert_routes_agree(_LAYOUTS[layout][0], _table_text(layout, rows, 2))


_route_cells = st.one_of(st.integers(0, 99).map(str), st.sampled_from(_ROUTE_CELLS))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_block_and_checked_routes_agree(data):
    """Random tables in every layout, with odd cells, ragged rows, repeated
    ids, comment and blank lines and CRLF endings, read the same by both
    routes."""
    layout = data.draw(st.sampled_from(sorted(_LAYOUTS)))
    n_species = data.draw(st.integers(1, 3))
    clean = data.draw(st.booleans())
    cells = st.integers(0, 99).map(str) if clean else _route_cells
    rows = []
    for _ in range(data.draw(st.integers(1, 4))):
        row = [data.draw(st.sampled_from(["a", "b", "c", " a", "#1", "a\0"]))]
        if layout == "longitudinal":
            row.append(data.draw(st.sampled_from(["0", "1", "2", "2021-01-01", "x"])))
        width = n_species + data.draw(st.sampled_from([0, 0, 0, -1, 1]))
        row += [data.draw(cells) for _ in range(max(width, 0))]
        rows.append(row)
    distances = None
    if layout == "location" and data.draw(st.booleans()):
        distances = [
            data.draw(st.sampled_from(["1", "2", "0", "x", "0.5"]))
            for _ in range(n_species)
        ]
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    lines = _table_text(layout, rows, n_species, newline, distances).split(newline)
    for extra in data.draw(st.lists(st.sampled_from(["# note", "", "  "]), max_size=2)):
        lines.insert(data.draw(st.integers(1, len(lines))), extra)
    _assert_routes_agree(_LAYOUTS[layout][0], newline.join(lines))


def _refuse(*args, **kwargs):
    raise AssertionError("a plain table took the checked route")


@pytest.mark.parametrize(
    ("parse", "text"),
    [
        (parse_cross_sectional, "# counts\r\nsubject_id,a,b\r\n\r\ns1,1,2.5\r\ns2, 0 ,1e3\r\n"),
        (parse_longitudinal, "subject_id,time,a\ns,1,1\nt,1,2\ns,2,3\n"),
        (parse_location, "species,l1,l2\ndistance,0.5,2\nsp1,1,0\nsp2,3,4\n"),
        (parse_location, "species,l1\nsp1,7\n"),
        (
            parse_cross_sectional,
            "subject_id," + ",".join(f"sp{j}" for j in range(30000)) + "\n"
            + "".join(f"s{i}," + ",".join(["1234.5"] * 30000) + "\n" for i in range(2)),
        ),
    ],
    ids=["crlf_comment_blank", "longitudinal", "distance_row", "one_cell", "30000_species"],
)
def test_a_plain_table_never_takes_the_checked_route(monkeypatch, parse, text):
    """Long lines of short fields included: the field size limit is checked
    per field, so a 30,000-species table still converts in one block."""
    with mock.patch.object(tables, "_read_block", lambda *args: None):
        checked = parse(text)
    for name in ("_data_lines", "_read_rows", "_parse_count"):
        monkeypatch.setattr(tables, name, _refuse)
    assert same_fields(parse(text), checked)


@pytest.mark.parametrize(
    ("parse", "text"),
    [
        (parse_cross_sectional, "subject_id,a\ns1,\n"),
        (parse_cross_sectional, "subject_id,a\ns1\n"),
        (parse_cross_sectional, "subject_id,a,b\ns1\ns2\n"),
        (parse_longitudinal, "subject_id,time,a\ns,1,\n"),
        (parse_longitudinal, "subject_id,time,a\ns,1\n"),
        (parse_location, "species,l1\nsp,\n"),
        (parse_location, "species,l1\ndistance,1\nsp\n"),
    ],
)
def test_rows_with_only_an_id_raise_no_warning(parse, text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError):
            parse(text)
        parse_cross_sectional("subject_id,a\ns1,1\n")

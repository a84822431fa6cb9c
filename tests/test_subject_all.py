"""``--subject all`` reports what each ``--subject <s>`` run reports.

``--subject all`` extracts the subjects with the same row count as one
block and fits each block's rows together; a single subject is a block of
one row. These tests hold every report of an all-subjects run, byte for
byte, to the run of that subject alone, on tables with ragged row counts
(several blocks) and with subjects that fail in each way a subject can:
fewer than 3 usable pairs, all means equal, all variances zero, and
statistics that overflow the float range.
"""

import contextlib
import csv
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import synthetic_longitudinal
from taylorlaw import PowerLawFit, cli

SCHEMES = ("per_subject_time", "per_subject_species")
METHODS = ("log_ols", "nls")

# Rows of each failing kind of subject, as functions of the species count.
_FAILING = {
    # every mean is 0: no usable pair under either method
    "zeros": lambda k, t: [0] * k,
    # every count equal: equal means and zero variances
    "constant": lambda k, t: [7] * k,
    # every time point a rotation of one row: equal means across times
    "rotated": lambda k, t: [(3 * ((j + t) % k)) for j in range(k)],
    # sums past the float maximum
    "overflow": lambda k, t: ["1.5e308"] * k,
}

# u0's NLS fit is b = 2 exactly, in a block with the failing u1. Given one
# exponent, np.power takes a loop whose m^2 rounds differently from the
# loop a block of exponents runs, so a lone fit could differ from its row.
EXACT_SQUARE = (
    "subject_id,time,sp1,sp2,sp3\n"
    "u0,0,0,0,0\nu0,3,1,1,2\nu0,6,0,0,0\n"
    "u1,0,7,7,7\nu1,1,7,7,7\nu1,2,7,7,7\n"
)

# Subjects of 3, 2, 3 and 2 rows: two blocks, whose subjects interleave in
# the table, and the all-zero C fails alone.
RAGGED = (
    "subject_id,time,sp1,sp2,sp3,sp4\n"
    "A,1,3,9,27,81\nA,2,5,11,30,70\nA,3,2,8,25,90\n"
    "B,1,4,10,20,40\nB,2,6,14,26,60\n"
    "C,1,0,0,0,0\nC,2,0,0,0,0\nC,3,0,0,0,0\n"
    "D,1,1,2,3,4\nD,2,2,3,5,9\n"
)


@st.composite
def longitudinal_tables(draw, failing_only=False):
    """A timed table whose subjects have 1 to 5 rows each; some subjects
    are one of the failing kinds above. With ``failing_only``, every
    subject is of a kind that fails under both schemes and both methods
    (an NLS fit of equal means is only not converged)."""
    k = draw(st.integers(2, 6))
    if failing_only:
        kinds = st.sampled_from(["constant", "overflow", "zeros"])
    else:
        kinds = st.sampled_from(["counts", "counts", *sorted(_FAILING)])
    subjects = draw(st.lists(st.tuples(kinds, st.integers(1, 5)), min_size=1, max_size=7))
    lines = ["subject_id,time," + ",".join(f"sp{j}" for j in range(k))]
    for s, (kind, n_times) in enumerate(subjects):
        for t in range(n_times):
            if kind == "counts":
                # Some rows are all zero, so that labels of dropped pairs
                # show in the reports.
                row = draw(
                    st.one_of(
                        st.lists(st.integers(0, 60), min_size=k, max_size=k),
                        st.just([0] * k),
                    )
                )
            else:
                row = _FAILING[kind](k, t)
            lines.append(f"u{s},{3 * t + s}," + ",".join(map(str, row)))
    return "\n".join(lines) + "\n", [f"u{s}" for s in range(len(subjects))]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue(), err.getvalue()


def csv_reports(text, prefix):
    """The field,value rows of each report of a CSV report, with the
    ``reports[i].`` or ``report.`` prefix taken off, by report."""
    reports = {}
    for field, value in list(csv.reader(io.StringIO(text)))[1:]:
        head, _, rest = field.partition(".")
        if head.startswith(prefix):
            reports.setdefault(head, []).append(f"{rest},{value}")
    return list(reports.values())


def json_reports(text, key):
    """Each report of a JSON report, with every number kept as its text."""
    value = json.loads(text, parse_float=str, parse_int=str)[key]
    return [json.dumps(r) for r in (value if key == "reports" else [value])]


def reports(text, output_format, many):
    if output_format == "csv":
        return csv_reports(text, "reports[" if many else "report")
    return json_reports(text, "reports" if many else "report")


def error_report(scheme, subject, message, output_format):
    """The entry of a subject that failed with ``message``, as ``reports``
    gives it."""
    if output_format == "csv":
        return [f"scheme.tag,{scheme}", f"scheme.subject,{subject}", f"error,{message}"]
    return json.dumps({"scheme": {"tag": scheme, "subject": subject}, "error": message})


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("scheme", SCHEMES)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn=longitudinal_tables())
@example(drawn=(EXACT_SQUARE, ["u0", "u1"]))
@example(drawn=(RAGGED, ["A", "B", "C", "D"]))
def test_each_report_is_the_subjects_own_run(scheme, method, drawn):
    text, subjects = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_text(text)
        base = ["fit-taylor", "--input", str(path), "--scheme", scheme, "--method", method]
        for output_format in ("json", "csv"):
            argv = [*base, "--format", output_format]
            status, out, err = run([*argv, "--subject", "all"])
            singles = [run([*argv, "--subject", s]) for s in subjects]
            errors = [e for st_, _, e in singles if st_ != 0]
            if len(errors) == len(subjects):
                first = errors[0].removeprefix("error: ")
                assert (status, out) == (2, "")
                assert err == f"error: no subject could be fitted; first error: {first}"
                continue
            assert status == 0, err
            got = reports(out, output_format, many=True)
            assert len(got) == len(subjects)
            for subject, report, (single_status, single_out, single_err) in zip(
                subjects, got, singles
            ):
                if single_status == 0:
                    assert [report] == reports(single_out, output_format, many=False)
                else:
                    assert single_status == 2
                    message = single_err.removeprefix("error: ").removesuffix("\n")
                    assert report == error_report(scheme, subject, message, output_format)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("scheme", SCHEMES)
@settings(max_examples=10, deadline=None)
@given(drawn=longitudinal_tables(failing_only=True))
def test_a_table_where_every_subject_fails_is_a_data_error(scheme, method, drawn):
    text, subjects = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_text(text)
        argv = ["fit-taylor", "--input", str(path), "--scheme", scheme, "--method", method]
        status, out, err = run([*argv, "--subject", "all"])
        first = run([*argv, "--subject", subjects[0]])
    assert first[0] == 2
    assert (status, out) == (2, "")
    assert err == "error: no subject could be fitted; first error: " + first[2].removeprefix(
        "error: "
    )


@pytest.mark.parametrize("output_format", ["json", "csv"])
def test_an_exact_square_fits_alike_alone_and_in_its_block(tmp_path, output_format):
    path = tmp_path / "square.csv"
    path.write_text(EXACT_SQUARE)
    argv = ["fit-taylor", "--input", str(path), "--scheme", "per_subject_species"]
    argv += ["--method", "nls", "--format", output_format]
    alone = reports(run([*argv, "--subject", "u0"])[1], output_format, many=False)
    everyone = reports(run([*argv, "--subject", "all"])[1], output_format, many=True)
    assert everyone[0] == alone[0]


@pytest.mark.parametrize(
    "kind, method, message",
    [
        ("zeros", "log_ols", "insufficient data: 0 usable pairs, need 3"),
        ("zeros", "nls", "insufficient data: 0 pairs with positive mean, need 3"),
        ("rotated", "log_ols", "degenerate design: all retained means are equal"),
        ("constant", "nls", "degenerate design: coefficient a = 0 is not a positive float"),
        ("overflow", "nls", "pair '1': mean inf or variance 0.0 overflows"),
    ],
)
def test_each_failing_kind_fails(tmp_path, kind, method, message):
    # The kinds of failing subject above fail as their names say.
    lines = ["subject_id,time,a,b,c,d"]
    lines += [f"{kind},{t},{','.join(map(str, _FAILING[kind](4, t)))}" for t in (1, 4, 7)]
    path = tmp_path / "failing.csv"
    path.write_text("\n".join(lines) + "\n")
    argv = ["fit-taylor", "--input", str(path), "--scheme", "per_subject_time"]
    status, _, err = run([*argv, "--subject", kind, "--method", method])
    assert status == 2
    assert err.startswith(f"error: {message}")


def test_a_large_nls_run_stays_near_the_parse_in_memory(tmp_path, monkeypatch):
    # 400 subjects of 6 times and 20 species: one (400, 6, 20) block. The
    # batched b grid is taken in chunks, so fitting every subject adds
    # little to the memory the parse peaks at (an unchunked grid would
    # add some 10 MB).
    path = tmp_path / "longi.csv"
    path.write_text(synthetic_longitudinal(400, 20, 6))
    argv = ["fit-taylor", "--input", str(path), "--scheme", "per_subject_species"]
    argv += ["--subject", "all", "--method", "nls"]
    run(argv)  # load every layer first
    parse = cli._load_table
    parse_peak = []

    def traced_parse(*args):
        table = parse(*args)
        parse_peak.append(tracemalloc.get_traced_memory()[1])
        return table

    monkeypatch.setattr(cli, "_load_table", traced_parse)
    tracemalloc.start()
    try:
        status = run(argv)[0]
        run_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    assert run_peak - parse_peak[0] <= 1_000_000


def test_every_fit_of_a_block_is_its_rows_own():
    # Fitting one row of a block fits every row; each row reads its own fit.
    from taylorlaw import Scheme, extract_pairs, extract_subjects, fit_nls, parse_longitudinal

    table = parse_longitudinal(synthetic_longitudinal(5, 4, 6))
    block = extract_subjects(table, "per_subject_species")
    fits = [fit_nls(series) for series in reversed(block)][::-1]
    for subject, fit in zip(table.subjects(), fits):
        alone = fit_nls(extract_pairs(table, Scheme("per_subject_species", subject)))
        assert isinstance(fit, PowerLawFit)
        assert fit == alone

"""Report rendering: generated trees read back through ``json`` and ``csv``,
and numbers of types outside the leaf tables."""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taylorlaw._fmt import sig12
from taylorlaw.cli import _COMMANDS, RunConfig, render_report

CROSS_CSV = str(Path(__file__).parent / "golden" / "inputs" / "cross.csv")

_TEXT = st.one_of(
    st.text(),
    st.text(alphabet=',"\n\r #éß日本 '),
    st.text().map(lambda s: "# " + s),
)
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308, 1e16]),
)
_LEAVES = st.one_of(_TEXT, st.integers(), st.booleans(), st.none(), _FLOATS)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=25,
)


def _as_json(value):
    """What ``json.loads`` should give for a rendered tree."""
    if type(value) is dict:
        return {k: _as_json(v) for k, v in value.items()}
    if type(value) in (list, tuple):
        return [_as_json(v) for v in value]
    if type(value) is float:
        return float(sig12(value)) if math.isfinite(value) else None
    return value


def _same(got, want) -> bool:
    """Equal trees, with key order kept and a bool never equal to a number."""
    if type(want) is dict:
        return (
            type(got) is dict
            and list(got) == list(want)
            and all(_same(got[k], v) for k, v in want.items())
        )
    if type(want) is list:
        return (
            type(got) is list
            and len(got) == len(want)
            and all(map(_same, got, want))
        )
    return (type(got) is bool) == (type(want) is bool) and got == want


def _csv_rows(value, path=""):
    """The README's rule: one dotted-path row per leaf or empty container,
    in walk order."""
    if type(value) is dict:
        items = [(f"{path}.{k}" if path else k, v) for k, v in value.items()]
    elif type(value) in (list, tuple):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
    elif type(value) is float:
        return [[path, sig12(value) if math.isfinite(value) else "nan"]]
    elif type(value) is bool:
        return [[path, "true" if value else "false"]]
    else:
        return [[path, "" if value is None else str(value)]]
    if not items:
        return [[path, ""]]
    return [row for p, v in items for row in _csv_rows(v, p)]


@settings(max_examples=300, deadline=None)
@given(tree=_TREES)
def test_json_reads_back_as_the_tree(tree):
    assert _same(json.loads(render_report(tree, "json")), _as_json(tree))


@settings(max_examples=300, deadline=None)
@given(key=st.text(), leaf=st.text())
@example(key="é", leaf="é")
@example(key="\u2028", leaf="\u2028")
@example(key="\x00", leaf="\x00")
@example(key='"', leaf='"')
@example(key="\\", leaf="\\")
def test_json_strings_are_the_bytes_json_dumps_gives(key, leaf):
    # Reading the report back cannot see how a string was escaped.
    want = "{\n  " + json.dumps(key) + ": " + json.dumps(leaf) + "\n}\n"
    assert render_report({key: leaf}, "json") == want


@settings(max_examples=300, deadline=None)
@given(tree=_TREES)
def test_csv_reads_back_as_one_two_field_row_per_leaf(tree):
    rows = list(csv.reader(io.StringIO(render_report(tree, "csv"), newline="")))
    assert rows[0] == ["field", "value"]
    assert all(len(row) == 2 for row in rows)
    assert rows[1:] == _csv_rows(tree)


def _leaves(value):
    if type(value) is dict:
        value = list(value.values())
    if type(value) in (list, tuple):
        return [leaf for v in value for leaf in _leaves(v)]
    return [value]


@pytest.mark.parametrize("output_format", ["json", "csv"])
@pytest.mark.parametrize(
    "fields, numpy_fields",
    [
        (dict(command="simulate", kind="thomas", seed=7), dict(seed=np.int64(7))),
        # Above 2**53 a seed read as a float would lose digits.
        (
            dict(command="pcf", kind="poisson", seed=2**62 + 11),
            dict(seed=np.int64(2**62 + 11)),
        ),
        (
            dict(command="pacd", a=2.0, b=1.5),
            dict(a=np.float64(2.0), b=np.float64(1.5)),
        ),
        (
            dict(
                command="classify",
                input_path=CROSS_CSV,
                scheme_tag="species_across_subjects",
                alpha=0.01,
            ),
            dict(alpha=np.float64(0.01)),
        ),
    ],
)
def test_numpy_config_values_print_as_python_numbers(
    fields, numpy_fields, output_format
):
    def report(config_fields):
        config = RunConfig(**config_fields, output_format=output_format)
        return _COMMANDS[config.command].run(config)

    plain, numpy_report = report(fields), report(fields | numpy_fields)
    assert any(isinstance(leaf, np.generic) for leaf in _leaves(numpy_report))
    assert render_report(numpy_report, output_format) == render_report(
        plain, output_format
    )


@pytest.mark.parametrize("output_format", ["json", "csv"])
def test_an_unsupported_leaf_is_a_type_error_naming_it(output_format):
    with pytest.raises(TypeError, match="unsupported report value <object object at"):
        render_report({"fits": [1.5, object()]}, output_format)

"""SVG plot output: element counts, caption bookkeeping, determinism."""

import re

import numpy as np
import pytest

from conftest import exact_series
from taylorlaw import (
    InsufficientDataError,
    MVPair,
    MVSeries,
    emit_svg_plot,
    fit_log_ols,
)
from taylorlaw.svgplot import _LEFT, _RIGHT, _W


def render(series, tmp_path, name="plot.svg"):
    fit = fit_log_ols(series)
    path = tmp_path / name
    emit_svg_plot(series, fit, str(path))
    return path.read_text()


def test_clean_series_element_counts(tmp_path):
    content = render(exact_series(), tmp_path)
    assert content.count("<circle class=\"used\"") == 4
    assert content.count("<line ") == 1
    assert content.count("<rect class=\"dropped\"") == 0


def test_dropped_pairs_get_margin_markers(tmp_path):
    series = MVSeries(
        None,
        (
            MVPair("p1", 1.0, 2.0),
            MVPair("p2", 4.0, 16.0),
            MVPair("p3", 16.0, 128.0),
            MVPair("zero_mean", 0.0, 5.0),
            MVPair("zero_var", 9.0, 0.0),
        ),
    )
    content = render(series, tmp_path)
    assert content.count("<circle class=\"used\"") == 3
    assert content.count("<rect class=\"dropped\"") == 2
    assert "dropped: 2" in content
    assert "used: 3" in content


def test_caption_repeats_the_fit(tmp_path):
    content = render(exact_series(), tmp_path)
    assert "variance = a * mean^b" in content
    assert "a=2, b=1.5" in content
    assert "used: 4, dropped: 0" in content


def test_axis_labels(tmp_path):
    content = render(exact_series(), tmp_path)
    assert ">ln mean</text>" in content
    assert ">ln variance</text>" in content


def test_document_skeleton(tmp_path):
    content = render(exact_series(), tmp_path)
    assert content.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert 'version="1.1"' in content
    assert content.rstrip().endswith("</svg>")


def test_byte_determinism(tmp_path):
    series = exact_series()
    fit = fit_log_ols(series)
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_svg_plot(series, fit, str(a))
    emit_svg_plot(series, fit, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_io_errors_propagate(tmp_path):
    series = exact_series()
    fit = fit_log_ols(series)
    with pytest.raises(OSError):
        emit_svg_plot(series, fit, str(tmp_path / "missing" / "out.svg"))


def test_too_few_plottable_pairs(tmp_path):
    thin = MVSeries(
        None,
        (
            MVPair("p1", 1.0, 2.0),
            MVPair("zero_mean", 0.0, 5.0),
            MVPair("zero_var", 9.0, 0.0),
        ),
    )
    fit = fit_log_ols(exact_series())
    with pytest.raises(InsufficientDataError, match="at least 2"):
        emit_svg_plot(thin, fit, str(tmp_path / "out.svg"))


def test_x_ticks_span_the_x_axis(tmp_path):
    # A narrow mean range under a wide variance range: the x ticks must be
    # spaced by the x padding, not the y padding.
    means = np.linspace(1.0, 1.1, 5)
    variances = np.linspace(1.0, 400.0, 5)
    series = MVSeries(
        None,
        tuple(MVPair(f"p{i}", m, v) for i, (m, v) in enumerate(zip(means, variances))),
    )
    content = render(series, tmp_path)
    ticks = [float(x) for x in re.findall(r"M ([-\d.]+) \d+ l 0 6", content)]
    assert len(ticks) == 5
    assert all(_LEFT <= x <= _W - _RIGHT for x in ticks), ticks
    assert ticks == sorted(ticks) and len(set(ticks)) == 5

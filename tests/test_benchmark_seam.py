"""The benchmark's traced run still finds every layer entry point.

``benchmark/spans.py`` wraps functions by (module, attribute) name, so a
renamed or removed binding would break ``benchmark/run.py --trace 1``
without failing any other test. It imports only the standard library and
is loaded here from its file.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # dataclasses resolves the module by name
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    return sorted(spans.ENTRY_POINTS)


@pytest.mark.parametrize("module_name, attr", _entry_points())
def test_entry_point_is_a_callable_attribute(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"

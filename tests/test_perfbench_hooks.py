"""The benchmark's tracer wraps package functions by name; they must all exist.

``perfbench/spans.py`` replaces each ``(module, attribute)`` in ``WRAPPED`` at
trace time. A renamed or deleted function would only fail there, so this test
resolves every pair without installing the wrappers.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from v2vbeam.fingerprint import BinGrid, FingerprintDatabase

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = load_spans().WRAPPED


@pytest.mark.parametrize(
    "module_name, attr", [(module, attr) for module, attr, *_ in WRAPPED]
)
def test_wrapped_attribute_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_fallback_detail_reads_existing_names():
    # the query_candidates span reads db.grid.bin_of(pos) and db.bins
    assert callable(BinGrid.bin_of)
    assert "bins" in {f.name for f in dataclasses.fields(FingerprintDatabase)}

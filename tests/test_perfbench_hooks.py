"""The benchmark's tracer wraps package functions by name; they must all exist.

``perfbench/spans.py`` replaces each ``(module, attribute)`` in ``WRAPPED`` at
trace time. A renamed or deleted function would only fail there, so these tests
resolve every pair without installing the wrappers, and feed the detail
functions that read a call's arguments (``_batch``, ``_fallback``) the
arguments of real calls.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest
from conftest import make_dataset

from v2vbeam.fingerprint import (
    BinGrid, FingerprintDatabase, build_database, query_candidates,
)
from v2vbeam.geodata import NormalizedPosition, fit_normalization, normalize_points
from v2vbeam.neuralbeam import ConvBlockSpec, LayerSpec, TrainingConfig, training

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS_MODULE = load_spans()
WRAPPED = SPANS_MODULE.WRAPPED


@pytest.mark.parametrize(
    "module_name, attr", [(module, attr) for module, attr, *_ in WRAPPED]
)
def test_wrapped_attribute_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_fallback_detail_reads_existing_names():
    # the query_candidates span reads db.grid.bin_of(pos) and db.bins
    assert callable(BinGrid.bin_of)
    assert "bins" in {f.name for f in dataclasses.fields(FingerprintDatabase)}


def test_batch_detail_reads_the_labels_of_each_backward_call(monkeypatch):
    # the neuralbeam.backward span's detail is the batch size, read from the call's arguments
    calls = []
    original = training.backward

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(training, "backward", recording)
    rng = np.random.default_rng(0)
    train_ds, val_ds = make_dataset(rng.random((300, 8))), make_dataset(rng.random((20, 8)))
    spec = LayerSpec(conv_blocks=(ConvBlockSpec(4),), dense_widths=(8,), classes=8)
    norm = fit_normalization(train_ds.tx)
    training.train(train_ds, val_ds, spec, TrainingConfig(epochs=1), norm, seed=1)
    sizes = []
    for args, kwargs in calls:
        labels = inspect.signature(original).bind(*args, **kwargs).arguments["labels"]
        sizes.append(len(labels))
        assert SPANS_MODULE._batch(args, kwargs) == len(labels)
    assert sizes == [128, 128, 44]


def test_fallback_detail_tells_an_empty_bin_from_an_occupied_one():
    rng = np.random.default_rng(1)
    ds = make_dataset(rng.random((40, 8)))  # tx moves along the grid's diagonal
    norm = fit_normalization(ds.tx)
    db = build_database(ds, BinGrid.unit_square(4), norm)
    occupied = NormalizedPosition(*normalize_points(ds.tx[:1], norm)[0])
    empty = NormalizedPosition(0.9, 0.1)
    assert db.grid.bin_of(occupied) in db.bins and db.grid.bin_of(empty) not in db.bins
    for pos, fallback in ((empty, 1), (occupied, 0)):
        args = (db, pos, 3)
        query_candidates(*args)  # the arguments of a real query
        assert SPANS_MODULE._fallback(args, {}) == fallback

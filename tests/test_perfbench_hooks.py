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
    features = [training.dataset_features(ds, norm) for ds in (train_ds, val_ds)]
    training.train(
        features[0], train_ds.best, features[1], val_ds.best, spec, TrainingConfig(epochs=1),
        seed=1,
    )
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


def test_a_repeat_calls_split_and_build_database_by_the_names_the_tracer_wraps(
    tmp_path, monkeypatch
):
    # the ingest.split and fingerprint.build spans wrap experiment.split and
    # experiment.build_database: a stage that calls them by another name is untimed
    from v2vbeam import cli, experiment
    from v2vbeam.ingest import write_dataset
    from v2vbeam.neuralbeam import TrainedModel, init_params, save_checkpoint

    calls = []
    for name in ("split", "build_database"):
        real = getattr(experiment, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(experiment, name, counting)
    rng = np.random.default_rng(2)
    ds = make_dataset(rng.random((200, 8)))
    config = experiment.ExperimentConfig(
        dataset_csv=tmp_path / "drive.csv", bins_per_axis=4, m_values=(1, 3),
        model=experiment.ModelOptions(conv_channels=(4,), dense_hidden=(8,)),
        training=TrainingConfig(epochs=1),
    )
    experiment.single_run(ds, config, run_seed=1)
    assert calls == ["split", "build_database"]

    spec = experiment.build_layer_spec(config.model, ds.codebook_size)
    norm = fit_normalization(ds.tx)
    ckpt = save_checkpoint(tmp_path / "ckpt.json", TrainedModel(init_params(spec, rng), norm, "tx", 1))
    write_dataset(ds, tmp_path / "drive.csv")
    calls.clear()
    argv = ["eval", "--checkpoint", str(ckpt), "--dataset", str(tmp_path / "drive.csv"),
            "--m-values", "1,3", "--bins-per-axis", "4", "--out", str(tmp_path / "eval")]
    assert cli.main(argv) == 0
    assert calls == ["split", "build_database"]

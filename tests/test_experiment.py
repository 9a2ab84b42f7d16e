import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import make_dataset

from v2vbeam import experiment, parallel
from v2vbeam.errors import CodebookMismatchError, ConfigError
from v2vbeam.experiment import (
    ExperimentConfig,
    build_layer_spec,
    check_codebook_compatible,
    experiment_config_from_json,
    resolve_dataset,
    run_experiment,
    single_run,
)
from v2vbeam.synthchan import scenario_from_json

TINY_SCENARIO = {
    "codebook_size": 64,
    "trajectory": {
        "duration": 64.0,
        "sample_period": 0.1,
        "rx_heading": 1.5707963267948966,
        "origin": {"lat": 33.42, "lon": -111.93},
        "tx_waypoints": [[-60.0, 20.0], [60.0, 50.0]],
        "rx_waypoints": [[0.0, 0.0]],
    },
    "channel": {"n_subcarriers": 16, "noise_power": 1e-5, "seed": 2},
}


def tiny_config(**overrides):
    doc = {
        "seed": 3,
        "dataset": {"synthetic": TINY_SCENARIO},
        "model": {"conv_channels": [8, 16], "dense_hidden": [32]},
        "training": {"epochs": 2},
        "baseline": {"bins_per_axis": 16},
        "m_values": [1, 5],
        "repeats": 1,
    }
    doc.update(overrides)
    return doc


class TestConfigParsing:
    def test_valid_config(self):
        cfg = experiment_config_from_json(tiny_config())
        assert cfg.seed == 3
        assert cfg.training.epochs == 2
        assert cfg.m_values == (1, 5)
        assert cfg.model.conv_channels == (8, 16)

    def test_missing_dataset_named(self):
        with pytest.raises(ConfigError) as exc:
            experiment_config_from_json({"seed": 1})
        assert "dataset" in str(exc.value)

    def test_both_sources_rejected(self):
        doc = tiny_config()
        doc["dataset"] = {"csv": "x.csv", "synthetic": TINY_SCENARIO}
        with pytest.raises(ConfigError):
            experiment_config_from_json(doc)

    def test_bad_m_values_named(self):
        with pytest.raises(ConfigError) as exc:
            experiment_config_from_json(tiny_config(m_values=[0, 5]))
        assert "m_values" in str(exc.value)

    def test_bad_input_mode_named(self):
        doc = tiny_config()
        doc["model"] = {"input_mode": "laser"}
        with pytest.raises(ConfigError) as exc:
            experiment_config_from_json(doc)
        assert "input_mode" in str(exc.value)

    def test_defaults_fill_in(self):
        cfg = experiment_config_from_json({"dataset": {"synthetic": TINY_SCENARIO}})
        assert cfg.train_frac == 0.6
        assert cfg.m_values == (1, 5, 9, 13)
        assert cfg.training.learning_rate == 0.01
        assert cfg.training.weight_decay == 1e-4
        assert cfg.training.batch_size == 128
        assert cfg.training.epochs == 30
        assert cfg.bins_per_axis == 32

    def test_exactly_one_source_invariant(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(dataset_csv=None, synthetic=None)

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"m_values": [5, 1]}, "m_values"),
            ({"m_values": [1, 5, 5]}, "m_values"),
            ({"model": {"conv_channels": [8.7]}}, "model.conv_channels"),
            ({"model": {"conv_channels": [8.0]}}, "model.conv_channels"),
            ({"model": {"kernel": 0}}, "model.kernel"),
            ({"baseline": {"bins_per_axis": 0}}, "baseline.bins_per_axis"),
            ({"split": {"train_frac": 0.6, "val_frac": 0.2, "test_frac": 0.1}}, "split"),
            ({"split": {"mode": "random"}}, "split.mode"),
            ({"training": {"batch_size": 0}}, "training.batch_size"),
            ({"repeats": 2.0}, "repeats"),
            ({"seed": True}, "seed"),
            # keys that name no field, which used to be ignored
            ({"training": {"epoch": 5}}, "training.epoch"),
            ({"split": {"test_fraction": 0.5}}, "split.test_fraction"),
            ({"training": {"seed": 4}}, "training.seed"),
            ({"epochs": 5}, "epochs"),
            ({"dataset": {"synthetic": dict(TINY_SCENARIO, channel={"noise": 0.0})}}, "channel.noise"),
            (
                {"dataset": {"synthetic": {
                    "chanel" if k == "channel" else k: v for k, v in TINY_SCENARIO.items()
                }}},
                "chanel",
            ),
            (
                {"dataset": {"synthetic": dict(
                    TINY_SCENARIO, trajectory=dict(TINY_SCENARIO["trajectory"], origin={"lng": 1.0})
                )}},
                "trajectory.origin.lng",
            ),
        ],
    )
    def test_bad_field_named_with_its_section(self, overrides, field):
        with pytest.raises(ConfigError) as exc:
            experiment_config_from_json(tiny_config(**overrides))
        assert exc.value.field == field

    def test_a_synthetic_config_parses_its_scenario_once(self, monkeypatch):
        docs = []

        def counting(doc):
            docs.append(doc)
            return scenario_from_json(doc)

        monkeypatch.setattr(experiment, "scenario_from_json", counting)
        cfg = experiment_config_from_json(tiny_config())
        assert len(resolve_dataset(cfg)) == 640
        assert docs == [TINY_SCENARIO]
        assert cfg.synthetic == scenario_from_json(TINY_SCENARIO)

    @pytest.mark.parametrize(
        "scenario, message",
        [
            (
                dict(TINY_SCENARIO, trajectory=dict(TINY_SCENARIO["trajectory"], duration=-1.0)),
                "config field 'trajectory.duration': must be finite and > 0, got -1.0",
            ),
            (5, "config field 'dataset.synthetic': expected dict, got 5"),
            (None, "config field 'dataset.synthetic': expected dict, got None"),
        ],
        ids=["negative-duration", "number", "null"],
    )
    def test_malformed_scenario_message(self, scenario, message):
        with pytest.raises(ConfigError) as exc:
            experiment_config_from_json(tiny_config(dataset={"synthetic": scenario}))
        assert str(exc.value) == message

    def test_integer_literal_in_float_field_reads_as_float(self):
        cfg = experiment_config_from_json(tiny_config(training={"learning_rate": 1, "epochs": 2}))
        assert cfg.training.learning_rate == 1.0 and type(cfg.training.learning_rate) is float


def test_readme_config_examples_load():
    # the README's two documented configs must keep matching the reader's rules
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    experiment_doc, scenario_doc = (
        json.loads(block) for block in re.findall(r"```json\n(.*?)```", readme, re.S)
    )
    cfg = experiment_config_from_json(experiment_doc)
    assert cfg.dataset_csv == Path("data.csv") and cfg.repeats == 5 and cfg.emit_svg
    scenario = scenario_from_json(scenario_doc)
    assert scenario.trajectory.duration == 2000.0 and scenario.array.n_elements == 16
    assert scenario.channel.seed == 77 and scenario.codebook_size == 64


class TestResolveDataset:
    def test_synthetic_generation(self):
        cfg = experiment_config_from_json(tiny_config())
        ds = resolve_dataset(cfg)
        assert len(ds) == 640
        assert ds.codebook_size == 64

    def test_missing_csv_raises_file_not_found(self, tmp_path):
        doc = tiny_config()
        doc["dataset"] = {"csv": str(tmp_path / "nope.csv")}
        cfg = experiment_config_from_json(doc)
        with pytest.raises(FileNotFoundError):
            resolve_dataset(cfg)


class TestSingleRun:
    def test_pipeline_produces_reports(self):
        cfg = experiment_config_from_json(tiny_config())
        ds = resolve_dataset(cfg)
        run = single_run(ds, cfg, run_seed=3)
        assert run.model_report.n_test == 128
        assert run.baseline_report.n_test == 128
        assert len(run.history) == 2
        assert run.model_report.m_values == (1, 5)
        for v in run.model_report.accuracy_inclusion:
            assert 0.0 <= v <= 1.0

    def test_training_receives_the_run_seed(self, monkeypatch):
        seeds, real_train = [], experiment.train

        def train(*args):
            seeds.append(args[6])
            return real_train(*args)

        monkeypatch.setattr(experiment, "train", train)
        cfg = experiment_config_from_json(tiny_config())
        single_run(resolve_dataset(cfg), cfg, run_seed=7)
        assert cfg.seed == 3 and seeds == [7]

    def test_m_beyond_codebook_rejected(self):
        cfg = experiment_config_from_json(tiny_config(m_values=[1, 65]))
        ds = resolve_dataset(cfg)
        with pytest.raises(ConfigError):
            single_run(ds, cfg, run_seed=3)


class TestRepeatMemory:
    def test_a_shuffle_repeat_gathers_no_more_than_the_test_part(self):
        # a straight drive of 20,000 rows of 128 powers: the power matrix is
        # 20.5 MB. A repeat gathers the test fifth of it and the rows that the
        # database sums, one bin rank at a time, so a gathered copy of every
        # row, or of the train+val rows, would break the bound. Validation holds
        # two copies of a part's probabilities at its peak, 40% of the matrix
        n, q = 20_000, 128
        rng = np.random.default_rng(12)
        i = np.arange(n)
        tx = np.column_stack([33.0 + 1e-5 * i, -112.0 + 1e-5 * i])
        dataset = make_dataset(rng.uniform(0.1, 2.0, (n, q)), tx=tx)
        cfg = experiment_config_from_json(
            tiny_config(dataset={"csv": "unused.csv"}, training={"epochs": 1})
        )
        tracemalloc.start()
        try:
            run = single_run(dataset, cfg, run_seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert run.model_report.n_test == 4000
        assert peak < dataset.powers.nbytes / 2


class TestRunExperiment:
    def test_repeats_aggregate(self):
        cfg = experiment_config_from_json(tiny_config(repeats=2))
        ds = resolve_dataset(cfg)
        result = run_experiment(ds, cfg)
        assert len(result.runs) == 2
        assert result.runs[0].model.seed == 3
        assert result.runs[1].model.seed == 4
        predictors = {r.predictor for r in result.rows}
        assert predictors == {"model", "baseline"}
        # 2 predictors x 3 metric series x 2 m_values
        assert len(result.rows) == 12

    def test_deterministic_rows(self):
        cfg = experiment_config_from_json(tiny_config())
        ds = resolve_dataset(cfg)
        a = run_experiment(ds, cfg).rows
        b = run_experiment(ds, cfg).rows
        assert a == b


class TestParallelRepeats:
    @pytest.mark.skipif(
        parallel._openblas_threads() is None, reason="repeats run serially without OpenBLAS"
    )
    def test_one_blas_thread_per_process_then_restored(self, tmp_path, monkeypatch):
        get_threads, _ = parallel._openblas_threads()
        threads = get_threads()
        real_single_run = experiment.single_run

        def single_run(dataset, config, run_seed):
            (tmp_path / str(run_seed)).write_text(str(get_threads()))
            return real_single_run(dataset, config, run_seed)

        monkeypatch.setattr(experiment, "single_run", single_run)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        cfg = experiment_config_from_json(tiny_config(repeats=2))
        run_experiment(resolve_dataset(cfg), cfg)
        assert [(tmp_path / s).read_text() for s in ("3", "4")] == ["1", "1"]
        assert get_threads() == threads

    def test_same_results_for_any_worker_count(self, monkeypatch):
        cfg = experiment_config_from_json(tiny_config(repeats=3))
        ds = resolve_dataset(cfg)
        results = []
        for k in (1, 2):
            monkeypatch.setattr(parallel, "_usable_cpus", lambda k=k: k)
            results.append(run_experiment(ds, cfg))
        serial, pooled = results
        assert pooled.rows == serial.rows
        assert [run.model.seed for run in pooled.runs] == [3, 4, 5]
        for a, b in zip(serial.runs, pooled.runs):
            assert a.model.seed == b.model.seed
            assert a.history == b.history
            assert [w.tobytes() for w in a.model.params.arrays()] == [
                w.tobytes() for w in b.model.params.arrays()
            ]


class TestCodebookCheck:
    def test_mismatch_raises(self):
        cfg = experiment_config_from_json(tiny_config())
        ds = resolve_dataset(cfg)
        spec = build_layer_spec(cfg.model, classes=32)
        with pytest.raises(CodebookMismatchError):
            check_codebook_compatible(spec, ds)

    def test_match_passes(self):
        cfg = experiment_config_from_json(tiny_config())
        ds = resolve_dataset(cfg)
        spec = build_layer_spec(cfg.model, classes=64)
        check_codebook_compatible(spec, ds)

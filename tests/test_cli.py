import csv
import functools
import json
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import v2vbeam
from v2vbeam import cli, experiment, ingest, parallel, synthchan
from v2vbeam.cli import main
from v2vbeam.errors import ConfigError
from v2vbeam.ingest import write_dataset

from conftest import make_dataset

SCENARIO = {
    "codebook_size": 64,
    "trajectory": {
        "duration": 40.0,
        "sample_period": 0.1,
        "rx_heading": 1.5707963267948966,
        "origin": {"lat": 33.42, "lon": -111.93},
        "tx_waypoints": [[-60.0, 20.0], [60.0, 50.0]],
        "rx_waypoints": [[0.0, 0.0]],
    },
    "channel": {"n_subcarriers": 16, "noise_power": 1e-5, "seed": 2},
}

# the channel section under a misspelt key, and a codebook size under a key of no field
TYPO_SCENARIO = {"chanel" if k == "channel" else k: v for k, v in SCENARIO.items()}
TYPO_SCENARIO["codebook"] = 32


def scenario_with(section, **values):
    """SCENARIO with ``values`` set in its ``section``."""
    return dict(SCENARIO, **{section: dict(SCENARIO.get(section, {}), **values)})


# each used to pass the config reader, then fail during generation or write a CSV
# that parse_dataset rejects; the second item is the field the error names
BAD_SCENARIOS = {
    "negative-tx-power": (scenario_with("channel", tx_power=-1.0), "channel.tx_power"),
    "no-tx-power-no-noise": (
        scenario_with("channel", tx_power=0.0, noise_power=0.0), "channel.tx_power"
    ),
    "infinite-noise": (scenario_with("channel", noise_power=math.inf), "channel.noise_power"),
    "infinite-reference-distance": (
        scenario_with("channel", reference_distance=math.inf), "channel.reference_distance"
    ),
    "negative-channel-seed": (scenario_with("channel", seed=-5), "channel.seed"),
    "origin-lat-100": (
        scenario_with("trajectory", origin={"lat": 100.0, "lon": -111.93}), "trajectory.origin"
    ),
    "infinite-duration": (scenario_with("trajectory", duration=math.inf), "trajectory.duration"),
    "infinite-sample-period": (
        scenario_with("trajectory", sample_period=math.inf), "trajectory.sample_period"
    ),
    "no-sample-in-duration": (
        scenario_with("trajectory", duration=0.04), "trajectory.sample_period"
    ),
    "more-elements-than-beams": (scenario_with("array", n_elements=128), "codebook_size"),
    "infinite-element-spacing": (
        scenario_with("array", element_spacing=math.inf), "array.element_spacing"
    ),
    "infinite-rx-heading": (
        scenario_with("trajectory", rx_heading=math.inf), "trajectory.rx_heading"
    ),
    "infinite-waypoint": (
        scenario_with("trajectory", tx_waypoints=[[math.inf, 20.0]]), "trajectory.tx_waypoints"
    ),
    # a valid origin whose waypoints map to fixes out of bounds: 20 m north of lat 90,
    # and 5 m east of lon 180
    "waypoint-north-of-lat-90": (
        scenario_with("trajectory", origin={"lat": 90.0, "lon": -111.93}), "trajectory.tx_waypoints"
    ),
    "waypoint-east-of-lon-180": (
        scenario_with(
            "trajectory", origin={"lat": 33.42, "lon": 180.0},
            tx_waypoints=[[-60.0, 20.0], [-10.0, 50.0]], rx_waypoints=[[5.0, 0.0]],
        ),
        "trajectory.rx_waypoints",
    ),
    # the sample count overflows a float
    "sample-count-overflow": (
        scenario_with("trajectory", duration=1e308, sample_period=1e-10), "trajectory.duration"
    ),
    # columns past any machine's memory: these used to exit 1 with a MemoryError
    # traceback, or exit 2 naming no field, when the columns were allocated
    "columns-past-memory": (
        scenario_with("trajectory", duration=1e9, sample_period=0.001), "trajectory.duration"
    ),
    "columns-past-memory-by-far": (
        scenario_with("trajectory", duration=1e300, sample_period=1e-5), "trajectory.duration"
    ),
}


def experiment_doc(out_dir, **overrides):
    doc = {
        "seed": 5,
        "out_dir": str(out_dir),
        "dataset": {"synthetic": SCENARIO},
        "model": {"conv_channels": [8, 16], "dense_hidden": [32]},
        "training": {"epochs": 2},
        "baseline": {"bins_per_axis": 16},
        "m_values": [1, 5],
        "repeats": 1,
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def experiment_config(tmp_path):
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(experiment_doc(tmp_path / "out")))
    return path


class TestGenerate:
    def test_writes_csv_and_prints_count(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(SCENARIO))
        out = tmp_path / "data.csv"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        assert "wrote 400 samples" in capsys.readouterr().out
        assert out.exists()

    def test_fixed_seed_identical_bytes(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(SCENARIO))
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "--config", str(cfg), "--out", str(out_a)])
        main(["generate", "--config", str(cfg), "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("duration", [133.7, 30.0], ids=["1337rows", "300rows"])
    def test_same_csv_for_any_cpu_count(self, tmp_path, monkeypatch, duration):
        # 1337 rows end in a part chunk; 300 rows are fewer than one chunk
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(dict(
            SCENARIO, trajectory=dict(SCENARIO["trajectory"], duration=duration)
        )))
        outputs = []
        for k in (1, 2, 3):
            monkeypatch.setattr(parallel, "_usable_cpus", lambda k=k: k)
            out = tmp_path / f"cpus_{k}.csv"
            assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0].count(b"\n") == round(duration / 0.1) + 1

    @pytest.mark.parametrize(
        "bad, field",
        [
            (
                dict(SCENARIO, trajectory={
                    k: v for k, v in SCENARIO["trajectory"].items() if k != "duration"
                }),
                "trajectory.duration",
            ),
            # used to run with a noiseless channel of seed 0 and 64 beams
            (TYPO_SCENARIO, "chanel"),
            *BAD_SCENARIOS.values(),
        ],
        ids=["missing-duration", "root-key-typo", *BAD_SCENARIOS],
    )
    def test_malformed_config_exit_2_names_field(self, tmp_path, capsys, monkeypatch, bad, field):
        # each fails while the scenario loads, before any column is allocated
        monkeypatch.setattr(cli, "generate_scenario", lambda *args: pytest.fail("generated"))
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(bad))
        out = tmp_path / "x.csv"
        code = main(["generate", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert f"config field '{field}'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_flag_exit_2_before_generating(self, tmp_path, capsys, monkeypatch):
        # used to fail in numpy's SeedSequence, naming no field, once generation ran
        def never(*args):
            raise AssertionError("a negative seed reached generation")

        monkeypatch.setattr(cli, "generate_scenario", never)
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(SCENARIO))
        out = tmp_path / "x.csv"
        assert main(["generate", "--config", str(cfg), "--out", str(out), "--seed", "-1"]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_literals_in_float_fields_same_csv(self, tmp_path):
        # a float field reads a JSON integer as the float of the same value
        outputs = []
        for duration, tx_power in ((300, 2), (300.0, 2.0)):
            cfg = tmp_path / "scenario.json"
            cfg.write_text(json.dumps(dict(
                SCENARIO,
                trajectory=dict(SCENARIO["trajectory"], duration=duration),
                channel=dict(SCENARIO["channel"], tx_power=tx_power),
            )))
            out = tmp_path / f"{type(duration).__name__}.csv"
            assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") == 3001

    def test_float_in_integer_field_exit_2_names_field(self, tmp_path, capsys):
        # "n_elements": 16.7 used to run as 16 elements
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(dict(SCENARIO, array={"n_elements": 16.7})))
        out = tmp_path / "x.csv"
        assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "array.n_elements" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc", [[], {"dataset": "x.csv"}], ids=["list", "string-dataset"])
    def test_config_not_an_object_exit_2(self, tmp_path, capsys, doc):
        # each used to end in an AttributeError traceback
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(doc))
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert "expected an object" in capsys.readouterr().err

    def test_invalid_json_exit_2(self, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text("{not json")
        assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2

    def test_missing_config_exit_3(self, tmp_path):
        code = main(
            ["generate", "--config", str(tmp_path / "gone.json"), "--out", str(tmp_path / "x.csv")]
        )
        assert code == 3


class TestTrain:
    def test_smoke_run_writes_artifacts(self, experiment_config, tmp_path, capsys):
        assert main(["train", "--config", str(experiment_config)]) == 0
        out = tmp_path / "out"
        assert (out / "checkpoint.json").exists()
        history = (out / "history.csv").read_text().splitlines()
        assert len(history) == 3  # header + 2 epochs

    def test_same_seed_identical_history(self, experiment_config, tmp_path):
        out = tmp_path / "out"
        main(["train", "--config", str(experiment_config)])
        first = (out / "history.csv").read_bytes()
        main(["train", "--config", str(experiment_config)])
        assert (out / "history.csv").read_bytes() == first

    def test_missing_dataset_exit_3(self, tmp_path):
        doc = experiment_doc(tmp_path / "out")
        doc["dataset"] = {"csv": str(tmp_path / "missing.csv")}
        cfg = tmp_path / "experiment.json"
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg)]) == 3

    def test_all_zero_power_row_exit_2_names_line(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(SCENARIO))
        data = tmp_path / "data.csv"
        main(["generate", "--config", str(scenario), "--out", str(data)])
        lines = data.read_text().splitlines(keepends=True)
        fields = lines[200].rstrip("\n").split(",")
        lines[200] = ",".join(fields[:5] + ["0"] + ["0.0"] * 64) + "\n"
        data.write_text("".join(lines))
        doc = experiment_doc(tmp_path / "out")
        doc["dataset"] = {"csv": str(data)}
        cfg = tmp_path / "experiment.json"
        cfg.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "--config", str(cfg)]) == 2
        assert "line 201" in capsys.readouterr().err


    @pytest.mark.skipif(
        parallel._openblas_threads() is None, reason="needs an OpenBLAS whose threads can be set"
    )
    def test_checkpoint_same_for_one_and_two_blas_threads(self, tmp_path):
        # 1,003 rows: the 603-row train part ends in a batch of 91, for which two
        # BLAS threads sum the conv products of the `both` model in another order
        scenario = dict(SCENARIO, trajectory=dict(SCENARIO["trajectory"], duration=100.3))
        get_threads, set_threads = parallel._openblas_threads()
        before = get_threads()
        checkpoints = []
        try:
            for threads in (1, 2):
                set_threads(threads)
                doc = experiment_doc(
                    tmp_path / f"out_{threads}",
                    dataset={"synthetic": scenario},
                    model={"input_mode": "both"},
                    training={"epochs": 1},
                )
                cfg = tmp_path / f"experiment_{threads}.json"
                cfg.write_text(json.dumps(doc))
                assert main(["train", "--config", str(cfg)]) == 0
                assert get_threads() == threads
                checkpoints.append((tmp_path / f"out_{threads}" / "checkpoint.json").read_bytes())
        finally:
            set_threads(before)
        assert checkpoints[0] == checkpoints[1]


class TestBaseline:
    def test_writes_database(self, experiment_config, tmp_path):
        assert main(["baseline", "--config", str(experiment_config)]) == 0
        db = json.loads((tmp_path / "out" / "fingerprint_db.json").read_text())
        assert db["codebook_size"] == 64
        assert len(db["bins"]) >= 1


class TestEval:
    def _train_and_generate(self, experiment_config, tmp_path):
        main(["train", "--config", str(experiment_config)])
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(SCENARIO))
        data = tmp_path / "data.csv"
        main(["generate", "--config", str(scenario), "--out", str(data)])
        return tmp_path / "out" / "checkpoint.json", data

    def test_eval_writes_report(self, experiment_config, tmp_path, capsys):
        ckpt, data = self._train_and_generate(experiment_config, tmp_path)
        out = tmp_path / "eval_out"
        code = main(
            [
                "eval",
                "--checkpoint", str(ckpt),
                "--dataset", str(data),
                "--m-values", "1,5,9,13",
                "--out", str(out),
                "--emit-svg",
            ]
        )
        assert code == 0
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == "predictor,metric,variant,M,mean,stddev"
        # 2 predictors x 3 series x 4 m values
        assert len(report) == 1 + 24
        meta = json.loads((out / "report.json").read_text())["meta"]
        assert meta["n_test"] == 80 and "repeats" not in meta
        assert (out / "report.svg").exists()

    def test_same_report_for_any_cpu_count(self, experiment_config, tmp_path, monkeypatch):
        # 400 rows parse as two chunks of the default size
        ckpt, data = self._train_and_generate(experiment_config, tmp_path)
        outputs = []
        for k in (1, 2, 3):
            monkeypatch.setattr(parallel, "_usable_cpus", lambda k=k: k)
            out = tmp_path / f"eval_{k}"
            args = ["eval", "--checkpoint", str(ckpt), "--dataset", str(data), "--out", str(out)]
            assert main(args) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert set(outputs[0]) == {"report.csv", "report.json"}
        assert outputs[0] == outputs[1] == outputs[2]

    def test_codebook_mismatch_exit_2(self, experiment_config, tmp_path):
        ckpt, data = self._train_and_generate(experiment_config, tmp_path)
        small = dict(SCENARIO, codebook_size=32)
        scenario = tmp_path / "small.json"
        scenario.write_text(json.dumps(small))
        small_csv = tmp_path / "small.csv"
        main(["generate", "--config", str(scenario), "--out", str(small_csv)])
        code = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(small_csv)])
        assert code == 2

    @pytest.mark.parametrize("m_values", ["5,5,1", "5,1", "0"])
    def test_bad_m_values_exit_2_names_field(self, experiment_config, tmp_path, capsys, m_values):
        # "5,5,1" used to write every M=5 row twice, before the M=1 row
        ckpt, data = self._train_and_generate(experiment_config, tmp_path)
        out = tmp_path / "eval_out"
        capsys.readouterr()
        code = main([
            "eval", "--checkpoint", str(ckpt), "--dataset", str(data),
            "--m-values", m_values, "--out", str(out),
        ])
        assert code == 2
        assert "config field 'm_values'" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_byte_exit_2_names_line_and_cell(self, experiment_config, tmp_path, capsys):
        ckpt, data = self._train_and_generate(experiment_config, tmp_path)
        lines = data.read_bytes().split(b"\n")
        fields = lines[150].split(b",")
        fields[1] = b"\xff" + fields[1]
        lines[150] = b",".join(fields)
        data.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(data)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: line 151: bad tx_lat: '\\udcff")

    def test_missing_checkpoint_exit_3(self, tmp_path):
        code = main(
            ["eval", "--checkpoint", str(tmp_path / "no.json"), "--dataset", str(tmp_path / "no.csv")]
        )
        assert code == 3

    def test_too_few_rows_for_a_test_part_exit_2(self, experiment_config, tmp_path, capsys):
        # floor(4 * 0.2) = 0 test rows; the message names the row count and the split
        ckpt, data = self._train_and_generate(experiment_config, tmp_path)
        small = tmp_path / "four.csv"
        small.write_text("".join(data.read_text().splitlines(keepends=True)[:5]))
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(small)])
        assert code == 2
        err = capsys.readouterr().err
        assert "4 rows leave no test rows in the 0.6/0.2/0.2 shuffle split" in err
        assert "reshape" not in err


class TestReport:
    def test_full_experiment_with_repeats(self, tmp_path, capsys):
        cfg = tmp_path / "experiment.json"
        cfg.write_text(json.dumps(experiment_doc(tmp_path / "out", repeats=2)))
        assert main(["report", "--config", str(cfg), "--emit-svg"]) == 0
        out = tmp_path / "out"
        assert (out / "report.csv").exists()
        assert (out / "report.svg").exists()
        assert (out / "dataset.csv").exists()
        assert (out / "history_r0.csv").exists()
        assert (out / "history_r1.csv").exists()
        assert (out / "checkpoint_r1.json").exists()
        doc = json.loads((out / "report.json").read_text())
        assert doc["meta"]["repeats"] == 2

    def test_rerun_with_fewer_repeats_leaves_no_stale_repeat_files(self, tmp_path):
        cfg = tmp_path / "experiment.json"
        cfg.write_text(json.dumps(experiment_doc(tmp_path / "out", repeats=2)))
        out = tmp_path / "out"
        assert main(["report", "--config", str(cfg)]) == 0
        assert (out / "checkpoint_r1.json").exists()
        # files of other names stay, even when they look like a repeat's
        others = ["checkpoint_r1.csv", "history_r1.json", "notes_r1.json", "checkpoint_rx.json"]
        for name in others:
            (out / name).write_text("kept")
        assert main(["report", "--config", str(cfg), "--repeats", "1"]) == 0
        names = {p.name for p in out.iterdir()}
        assert not names & {"checkpoint_r1.json", "history_r1.csv", "fingerprint_db_r1.json"}
        assert {"checkpoint_r0.json", "history_r0.csv", "fingerprint_db_r0.json"} <= names
        assert set(others) <= names
        assert json.loads((out / "report.json").read_text())["meta"]["repeats"] == 1

    def test_train_baseline_and_report_share_an_output_directory(self, experiment_config, tmp_path):
        out = tmp_path / "out"
        assert main(["train", "--config", str(experiment_config)]) == 0
        assert main(["baseline", "--config", str(experiment_config)]) == 0
        kept = {name: (out / name).read_bytes() for name in (
            "checkpoint.json", "history.csv", "fingerprint_db.json"
        )}
        assert main(["report", "--config", str(experiment_config)]) == 0
        assert {name: (out / name).read_bytes() for name in kept} == kept

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = tmp_path / "experiment.json"
        cfg.write_text(json.dumps(experiment_doc(tmp_path / "out")))
        main(["report", "--config", str(cfg), "--seed", "5"])
        first = (tmp_path / "out" / "report.csv").read_text()
        main(["report", "--config", str(cfg), "--seed", "6"])
        second = (tmp_path / "out" / "report.csv").read_text()
        assert first != second

    def test_outputs_identical_for_any_worker_count(self, tmp_path, monkeypatch):
        outputs = []
        for k in (1, 2):
            monkeypatch.setattr(parallel, "_usable_cpus", lambda k=k: k)
            cfg = tmp_path / f"experiment_{k}.json"
            cfg.write_text(json.dumps(experiment_doc(tmp_path / f"out_{k}", repeats=3)))
            assert main(["report", "--config", str(cfg), "--emit-svg"]) == 0
            outputs.append({p.name: p.read_bytes() for p in (tmp_path / f"out_{k}").iterdir()})
        assert {
            "checkpoint_r2.json", "history_r2.csv", "fingerprint_db_r2.json",
            "report.csv", "report.json",
        } <= set(outputs[0])
        assert outputs[0] == outputs[1]

    @pytest.mark.skipif(
        parallel._openblas_threads() is None, reason="repeats run serially without OpenBLAS"
    )
    def test_config_error_in_a_worker_exits_2(self, tmp_path, capsys, monkeypatch):
        parent = os.getpid()
        started = tmp_path / "started"
        started.mkdir()
        real_single_run = experiment.single_run

        def single_run(dataset, config, run_seed):
            (started / str(run_seed)).touch()
            if os.getpid() != parent:
                raise ConfigError("m_values", "raised in a worker")
            return real_single_run(dataset, config, run_seed)

        # forked workers inherit the patched function
        monkeypatch.setattr(experiment, "single_run", single_run)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        cfg = tmp_path / "experiment.json"
        cfg.write_text(json.dumps(experiment_doc(tmp_path / "out", repeats=6)))
        assert main(["report", "--config", str(cfg)]) == 2
        assert "raised in a worker" in capsys.readouterr().err
        # the one worker runs seeds 6, 8 and 10; after 6 fails the others never start
        assert (started / "6").exists()
        assert not (started / "8").exists()
        assert not (started / "10").exists()
        assert not (tmp_path / "out" / "report.csv").exists()

    @pytest.mark.parametrize(
        "field, value",
        [("weight_decay", float("nan")), ("learning_rate", float("inf")), ("epsilon", 0.0)],
    )
    def test_non_finite_optimizer_setting_exit_2(self, tmp_path, capsys, field, value):
        # a NaN weight decay used to train to all-NaN tensors and exit 0
        cfg = tmp_path / "experiment.json"
        doc = experiment_doc(tmp_path / "out", training={"epochs": 2, field: value})
        cfg.write_text(json.dumps(doc))  # as NaN / Infinity, which json reads back
        assert main(["report", "--config", str(cfg)]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_repeats_exit_2(self, experiment_config, capsys):
        code = main(["report", "--config", str(experiment_config), "--repeats", "0"])
        assert code == 2
        assert "repeats" in capsys.readouterr().err

    def test_no_test_rows_exit_2_before_training(self, tmp_path, capsys, monkeypatch):
        # the split is checked before training; the empty test part used to fail in scoring
        def no_training(*args, **kwargs):
            raise AssertionError("trained without a test part")

        monkeypatch.setattr(experiment, "train", no_training)
        cfg = tmp_path / "experiment.json"
        split = {"train_frac": 0.8, "val_frac": 0.2, "test_frac": 0}
        cfg.write_text(json.dumps(experiment_doc(tmp_path / "out", split=split)))
        assert main(["report", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "400 rows leave no test rows in the 0.8/0.2/0.0 shuffle split" in err
        assert "reshape" not in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"baseline": {"bins_per_axis": 0}}, "baseline.bins_per_axis"),
        ({"split": {"train_frac": 0.6, "val_frac": 0.2, "test_frac": 0.1}}, "split"),
        ({"model": {"kernel": 0}}, "model.kernel"),
        ({"model": {"conv_channels": [8.7]}}, "model.conv_channels"),
        ({"m_values": [5, 1]}, "m_values"),
        ({"dataset": {"synthetic": dict(SCENARIO, array={"n_elements": 16.7})}}, "array.n_elements"),
        ({"training": {"epoch": 5}}, "training.epoch"),
        ({"split": {"test_fraction": 0.5}}, "split.test_fraction"),
        ({"dataset": {"synthetic": TYPO_SCENARIO}}, "chanel"),
        *(({"dataset": {"synthetic": bad}}, field) for bad, field in BAD_SCENARIOS.values()),
    ],
)
def test_bad_config_exit_2_before_any_data(tmp_path, capsys, monkeypatch, overrides, field):
    # each of these used to fail only after the dataset was made or the model trained
    def never(*args, **kwargs):
        raise AssertionError("a bad config got past loading")

    monkeypatch.setattr(cli, "resolve_dataset", never)
    monkeypatch.setattr(experiment, "train", never)
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps(experiment_doc(tmp_path / "out", **overrides)))
    assert main(["report", "--config", str(cfg)]) == 2
    assert f"config field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["config", "flag"])
def test_negative_run_seed_exit_2_before_any_data(tmp_path, capsys, monkeypatch, where):
    # used to fail in numpy's permutation, naming no field, once the dataset was made
    def never(*args):
        raise AssertionError("a negative seed got past loading")

    monkeypatch.setattr(cli, "resolve_dataset", never)
    cfg = tmp_path / "experiment.json"
    seed = {"seed": -3} if where == "config" else {}
    cfg.write_text(json.dumps(experiment_doc(tmp_path / "out", **seed)))
    flag = ["--seed", "-3"] if where == "flag" else []
    assert main(["train", "--config", str(cfg), *flag]) == 2
    assert "config field 'seed': must be >= 0, got -3" in capsys.readouterr().err


@pytest.fixture(scope="module")
def checkpoint_doc(tmp_path_factory):
    """The document of the checkpoint that ``train`` writes for experiment_doc's config."""
    tmp = tmp_path_factory.mktemp("trained")
    cfg = tmp / "experiment.json"
    cfg.write_text(json.dumps(experiment_doc(tmp / "out")))
    assert main(["train", "--config", str(cfg)]) == 0
    return json.loads((tmp / "out" / "checkpoint.json").read_text())


DELETED = object()


@pytest.mark.parametrize(
    "keys, value, field",
    [
        # each of the first six used to end in a traceback or be accepted as it was
        (("spec", "conv_blocks", 0, "kernel"), "3", "spec.conv_blocks.kernel"),
        (("normalization", "lat_min"), None, "normalization.lat_min"),
        ((), [1], "<root>"),
        (("spec", "dropout"), 0.5, "spec.dropout"),
        (("spec", "in_length"), 4.0, "spec.in_length"),
        (("seed",), "7", "seed"),
        # a wrong shape used to fail only in the test part's forward pass
        (("tensors", "dense1.bias"), [0.0] * 63, "tensors.dense1.bias"),
        (("tensors", "dense1.bias"), DELETED, "tensors.dense1.bias"),
        (("tensors", "dense2.bias"), [0.0], "tensors.dense2.bias"),
        (("tensors", "conv0.bias"), ["0.5"] * 8, "tensors.conv0.bias"),
        (("tensors", "conv0.bias"), [[0.5]] * 7 + [0.5], "tensors.conv0.bias"),
        # both used to fail only after the dataset was parsed
        (("input_mode",), "both", "input_mode"),
        (("input_mode",), "laser", "input_mode"),
    ],
    ids=[
        "string-kernel", "null-lat-min", "list-root", "unknown-spec-key", "float-in-length",
        "string-seed", "short-bias", "missing-tensor", "unknown-tensor", "string-tensor",
        "ragged-tensor", "input-mode-of-another-length", "unknown-input-mode",
    ],
)
def test_malformed_checkpoint_exit_2_before_the_dataset_is_read(
    tmp_path, capsys, monkeypatch, checkpoint_doc, keys, value, field
):
    doc = json.loads(json.dumps(checkpoint_doc))
    if keys:
        *parents, last = keys
        section = functools.reduce(operator.getitem, parents, doc)
        if value is DELETED:
            del section[last]
        else:
            section[last] = value
    else:
        doc = value
    assert_eval_exit_2_naming(field, doc, tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize(
    "name, value, field",
    [
        # each of these used to exit 4 with "degenerate lat (or lon) range: min == max"
        ("lat_max", "lat_min", "normalization.lat_max"),
        ("lat_max", math.nan, "normalization.lat_max"),
        ("lat_min", math.nan, "normalization.lat_min"),
        ("lon_max", -math.inf, "normalization.lon_max"),
    ],
    ids=["lat-max-equal-to-min", "nan-lat-max", "nan-lat-min", "infinite-lon-max"],
)
def test_degenerate_checkpoint_normalization_exit_2(
    tmp_path, capsys, monkeypatch, checkpoint_doc, name, value, field
):
    doc = json.loads(json.dumps(checkpoint_doc))
    norm = doc["normalization"]
    norm[name] = norm[value] if isinstance(value, str) else value
    assert_eval_exit_2_naming(field, doc, tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize(
    "kind, damage",
    [("checkpoint", "truncated"), ("checkpoint", "latin-1"), ("config", "latin-1")],
    ids=["truncated-checkpoint", "latin-1-checkpoint", "latin-1-config"],
)
def test_unreadable_json_file_exit_2_names_its_path(
    tmp_path, capsys, monkeypatch, checkpoint_doc, kind, damage
):
    # a truncated checkpoint's error named neither the file nor <json>, and a file
    # that is not UTF-8 printed only the codec's error
    doc = checkpoint_doc if kind == "checkpoint" else experiment_doc(tmp_path / "out")
    text = json.dumps(doc).encode()
    path = tmp_path / f"{kind}.json"
    # truncated inside the document, or with a Latin-1 no-break space after the first key
    path.write_bytes(text[:25] if damage == "truncated" else text.replace(b": ", b":\xa0", 1))
    data = tmp_path / "data.csv"
    data.write_text("never read")
    monkeypatch.setattr(cli, "parse_dataset", lambda *args: pytest.fail("dataset parsed"))
    monkeypatch.setattr(cli, "resolve_dataset", lambda *args: pytest.fail("dataset made"))
    if kind == "checkpoint":
        args = ["eval", "--checkpoint", str(path), "--dataset", str(data)]
    else:
        args = ["report", "--config", str(path)]
    assert main([*args, "--out", str(tmp_path / "out")]) == 2
    assert f"config error: config field '<json>': invalid JSON in {path}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def assert_eval_exit_2_naming(field, doc, tmp_path, capsys, monkeypatch):
    """``eval`` of the checkpoint ``doc`` exits 2 naming ``field``, before the dataset is read."""
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(doc))
    data = tmp_path / "data.csv"
    data.write_text("never read")
    monkeypatch.setattr(cli, "parse_dataset", lambda *args: pytest.fail("dataset parsed"))
    out = tmp_path / "eval_out"
    code = main(["eval", "--checkpoint", str(ckpt), "--dataset", str(data), "--out", str(out)])
    assert code == 2
    assert f"config error: config field '{field}'" in capsys.readouterr().err
    assert not out.exists()


# a road due east keeps one latitude, and one due north one longitude: generate
# accepts both, and report used to exit 4 with "degenerate lat (or lon) range"
@pytest.mark.parametrize(
    "tx_waypoints, input_mode, axis",
    [
        ([[-60.0, 20.0], [60.0, 20.0]], "tx", "lat"),
        ([[20.0, 10.0], [20.0, 100.0]], "tx", "lon"),
        # the parked receiver's fixes give the axis a range, so the drive trains
        ([[-60.0, 20.0], [60.0, 20.0]], "both", None),
    ],
    ids=["due-east", "due-north", "due-east-with-rx-fixes"],
)
def test_drive_along_one_axis_generates_and_exits_2_before_training(
    tmp_path, capsys, monkeypatch, tx_waypoints, input_mode, axis
):
    scenario = scenario_with("trajectory", tx_waypoints=tx_waypoints)
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(scenario))
    data = tmp_path / "data.csv"
    assert main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
    assert len(set(csv_column(data, f"tx_{axis or 'lat'}"))) == 1
    if axis:
        monkeypatch.setattr(experiment, "train", lambda *args: pytest.fail("trained"))
    doc = experiment_doc(tmp_path / "out", dataset={"synthetic": scenario})
    doc["model"] = dict(doc["model"], input_mode=input_mode)
    cfg.write_text(json.dumps(doc))
    code = main(["report", "--config", str(cfg)])
    err = capsys.readouterr().err
    if axis is None:
        assert code == 0, err
    else:
        assert code == 2
        assert "config error: config field 'dataset': all " in err
        assert f" positions of the training part have {axis} " in err


@pytest.mark.parametrize("command", ["train", "baseline"])
@pytest.mark.parametrize("axis", [0, 1], ids=["lat", "lon"])
def test_csv_with_a_constant_axis_exits_2(tmp_path, capsys, command, axis):
    rng = np.random.default_rng(3)
    tx = np.column_stack([33.0 + 0.01 * np.arange(200), -112.0 + 0.01 * np.arange(200)])
    tx[:, axis] = tx[0, axis]
    data = write_dataset(make_dataset(rng.random((200, 64)), tx=tx), tmp_path / "data.csv")
    doc = experiment_doc(tmp_path / "out", dataset={"csv": str(data)})
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps(doc))
    assert main([command, "--config", str(cfg)]) == 2
    name, value = ("lat", "lon")[axis], float(tx[0, axis])
    err = capsys.readouterr().err
    assert f"'dataset': all 120 positions of the training part have {name} {value!r};" in err


def csv_column(path, name):
    with open(path, newline="") as fh:
        return [row[name] for row in csv.DictReader(fh)]


def test_key_error_in_a_subcommand_is_no_config_error(experiment_config, monkeypatch):
    # nothing raises a KeyError on purpose, so one is a fault of the program
    def lookup_fault(config):
        raise KeyError("a lookup fault")

    monkeypatch.setattr(cli, "resolve_dataset", lookup_fault)
    with pytest.raises(KeyError, match="a lookup fault"):
        main(["train", "--config", str(experiment_config)])


def test_report_flags_match_the_same_config_fields(tmp_path):
    # each flag overrides the config field of the same name
    values = {"seed": 7, "m_values": [1, 3], "repeats": 2, "split": {"mode": "sequential"}, "emit_svg": True}
    from_json = tmp_path / "from_json.json"
    from_json.write_text(json.dumps(experiment_doc(tmp_path / "from_json", **values)))
    from_flags = tmp_path / "from_flags.json"
    from_flags.write_text(json.dumps(experiment_doc(tmp_path / "unused")))
    assert main(["report", "--config", str(from_json)]) == 0
    assert main([
        "report", "--config", str(from_flags), "--out", str(tmp_path / "from_flags"),
        "--seed", "7", "--m-values", "1,3", "--repeats", "2",
        "--split-mode", "sequential", "--emit-svg",
    ]) == 0
    outputs = [
        {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
        for name in ("from_json", "from_flags")
    ]
    assert {"report.svg", "checkpoint_r1.json"} <= set(outputs[0])
    assert outputs[0] == outputs[1]
    assert not (tmp_path / "unused").exists()


@pytest.mark.parametrize("command", ["train", "baseline", "report"])
def test_no_training_rows_exit_2(tmp_path, capsys, command):
    # the normalization used to fail on the empty training part with exit 4
    cfg = tmp_path / "experiment.json"
    split = {"train_frac": 0, "val_frac": 0.8, "test_frac": 0.2}
    cfg.write_text(json.dumps(experiment_doc(tmp_path / "out", split=split)))
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "400 rows leave no training rows in the 0.0/0.8/0.2 shuffle split" in err
    assert not (tmp_path / "out").exists()


def test_train_baseline_and_eval_match_one_report_repeat(tmp_path):
    # train, baseline and eval run the stages of one report repeat, so with the
    # same config and seed they write the same bytes; eval's default split, M
    # values and bins are those of a config that leaves them out
    doc = experiment_doc(tmp_path / "report", model={"input_mode": "both"})
    del doc["m_values"], doc["baseline"]
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps(doc))
    assert main(["report", "--config", str(cfg)]) == 0
    for command in ("train", "baseline"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
    report = tmp_path / "report"
    assert main([
        "eval", "--checkpoint", str(report / "checkpoint_r0.json"),
        "--dataset", str(report / "dataset.csv"), "--out", str(tmp_path / "eval"),
    ]) == 0
    pairs = [
        ("train/checkpoint.json", "report/checkpoint_r0.json"),
        ("train/history.csv", "report/history_r0.csv"),
        ("baseline/fingerprint_db.json", "report/fingerprint_db_r0.json"),
        ("eval/report.csv", "report/report.csv"),
    ]
    for ours, theirs in pairs:
        assert (tmp_path / ours).read_bytes() == (tmp_path / theirs).read_bytes(), ours


# runs the CLI with one write chunk raising, as a full disk would
FAIL_IN_SECOND_CHUNK = """
import sys
from v2vbeam import ingest, parallel
from v2vbeam.cli import main
parallel._usable_cpus = lambda: int(sys.argv[1])
real_format_rows = ingest._format_rows
def format_rows(d, start):
    if start == ingest._CHUNK_ROWS:
        raise OSError("disk full")
    return real_format_rows(d, start)
ingest._format_rows = format_rows
sys.exit(main(sys.argv[2:]))
"""


def run_failing_write(cpus, *argv):
    env = dict(os.environ, PYTHONPATH=str(Path(v2vbeam.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-c", FAIL_IN_SECOND_CHUNK, str(cpus), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


class TestAtomicDatasetWrite:
    SCENARIO_600_ROWS = dict(SCENARIO, trajectory=dict(SCENARIO["trajectory"], duration=60.0))

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("old", [None, b"old bytes"], ids=["absent", "existing"])
    def test_generate(self, tmp_path, cpus, old):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps(self.SCENARIO_600_ROWS))
        out = tmp_path / "data" / "drive.csv"
        if old is not None:
            out.parent.mkdir()
            out.write_bytes(old)
        done = run_failing_write(cpus, "generate", "--config", str(cfg), "--out", str(out))
        assert done.returncode != 0
        assert "disk full" in done.stderr
        if old is None:
            assert list(out.parent.iterdir()) == []
        else:
            assert out.read_bytes() == old
            assert list(out.parent.iterdir()) == [out]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_report(self, tmp_path, cpus):
        cfg = tmp_path / "experiment.json"
        doc = experiment_doc(tmp_path / "out", training={"epochs": 1})
        doc["dataset"] = {"synthetic": self.SCENARIO_600_ROWS}
        cfg.write_text(json.dumps(doc))
        done = run_failing_write(cpus, "report", "--config", str(cfg))
        assert done.returncode != 0
        assert "disk full" in done.stderr
        assert list((tmp_path / "out").iterdir()) == []


# the receiver at the origin faces north; the transmitter crosses the array's axis, east
# of it, at sample 750 of 1,000, inside the second 512-row chunk
LATE_SECTOR_EXIT = dict(SCENARIO, trajectory=dict(
    SCENARIO["trajectory"], duration=100.0, tx_waypoints=[[-80.0, 60.0], [80.0, -20.0]],
))


@pytest.mark.parametrize("old", [None, b"old bytes"], ids=["absent", "existing"])
def test_late_sector_exit_leaves_nothing_behind(tmp_path, capsys, cpus, old):
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(LATE_SECTOR_EXIT))
    out = tmp_path / "data" / "drive.csv"
    out.parent.mkdir()
    if old is not None:
        out.write_bytes(old)
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == "error: sample 750: transmitter angle -1.5708 rad outside (-pi/2, pi/2)\n"
    if old is None:
        assert list(out.parent.iterdir()) == []
    else:
        assert out.read_bytes() == old
        assert list(out.parent.iterdir()) == [out]


def test_generate_synthesises_no_more_than_a_chunk_at_a_time(tmp_path, monkeypatch, cpus):
    # the whole drive used to be synthesised into one set of columns before the write
    real = ingest._shared_columns
    asked = []

    def chunk_columns(capacity, codebook_size):
        if capacity > ingest._CHUNK_ROWS:  # raised in a pool worker too
            raise AssertionError(f"columns of {capacity} rows")
        asked.append(capacity)
        return real(capacity, codebook_size)

    monkeypatch.setattr(synthchan, "_shared_columns", chunk_columns)
    monkeypatch.setattr(ingest, "_shared_columns", chunk_columns)
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(scenario_with("trajectory", duration=300.0)))
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0
    # the caller's chunks; a worker's are asked for in the worker
    assert asked == [512, 512, 512, 512, 512, 440][::cpus]


# --- output locations, checked before any work ------------------------------------------


def never(*args, **kwargs):
    raise AssertionError("work started before the output location was checked")


@pytest.mark.parametrize("kind", ["directory", "fifo", "symlink-to-directory", "below-a-file"])
def test_generate_to_an_unusable_out_exits_2_before_generating(tmp_path, capsys, monkeypatch, kind):
    # a directory used to fail with an IsADirectoryError traceback once every row was
    # written, and a FIFO was replaced by a regular file that its reader never saw
    monkeypatch.setattr(cli, "generate_scenario", never)
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(SCENARIO))
    out = tmp_path / "out.csv"
    if kind == "directory":
        out.mkdir()
    elif kind == "fifo":
        os.mkfifo(out)
    elif kind == "symlink-to-directory":
        (tmp_path / "dir").mkdir()
        out.symlink_to(tmp_path / "dir")
    else:
        (tmp_path / "file").write_bytes(b"a file")
        out = tmp_path / "file" / "out.csv"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: output ") and str(out) in err
    assert kind != "fifo" or not out.is_file()


def test_generate_writes_through_a_symlinked_out(tmp_path):
    # the link used to be replaced by a regular file, leaving its target as it was
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(SCENARIO))
    target = tmp_path / "data" / "drive.csv"
    target.parent.mkdir()
    target.write_bytes(b"old bytes")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(["generate", "--config", str(cfg), "--out", str(link)]) == 0
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "direct.csv")]) == 0
    assert link.is_symlink()
    assert target.read_bytes() == (tmp_path / "direct.csv").read_bytes()
    assert list(target.parent.iterdir()) == [target]


@pytest.mark.parametrize("command", ["train", "baseline", "report", "eval"])
def test_out_dir_that_is_a_file_exits_2_before_the_dataset_is_read(
    tmp_path, capsys, monkeypatch, checkpoint_doc, command
):
    # used to fail with a FileExistsError traceback once the work was done: report's
    # after every repeat was trained
    monkeypatch.setattr(cli, "resolve_dataset", never)
    monkeypatch.setattr(cli, "parse_dataset", never)
    out = tmp_path / "out"
    out.write_bytes(b"a file")
    if command == "eval":
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps(checkpoint_doc))
        data = tmp_path / "data.csv"
        data.write_bytes(b"never read")
        argv = ["eval", "--checkpoint", str(ckpt), "--dataset", str(data), "--out", str(out)]
    else:
        cfg = tmp_path / "experiment.json"
        cfg.write_text(json.dumps(experiment_doc(out)))
        argv = [command, "--config", str(cfg)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: output {out} exists and is not a directory\n"
    assert out.read_bytes() == b"a file"


@pytest.mark.parametrize("command, name", [
    ("train", "checkpoint.json"),
    ("train", "history.csv"),
    ("baseline", "fingerprint_db.json"),
    ("eval", "report.json"),
    ("eval", "report.svg"),
    ("report", "report.csv"),
    ("report", "dataset.csv"),
    ("report", "checkpoint_r1.json"),
    ("report", "history_r0.csv"),
    ("report", "fingerprint_db_r1.json"),
])
def test_output_file_that_is_a_directory_exits_2_before_the_dataset_is_read(
    tmp_path, capsys, monkeypatch, checkpoint_doc, command, name
):
    # report with report.csv a directory used to train every repeat and write the
    # dataset, checkpoints and databases, then fail with an IsADirectoryError traceback
    monkeypatch.setattr(cli, "resolve_dataset", never)
    monkeypatch.setattr(cli, "parse_dataset", never)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    if command == "eval":
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(json.dumps(checkpoint_doc))
        data = tmp_path / "data.csv"
        data.write_bytes(b"never read")
        argv = ["eval", "--checkpoint", str(ckpt), "--dataset", str(data), "--out", str(out)]
    else:
        cfg = tmp_path / "experiment.json"
        cfg.write_text(json.dumps(experiment_doc(out, repeats=2)))
        argv = [command, "--config", str(cfg)]
    assert main([*argv, *(["--emit-svg"] if name == "report.svg" else [])]) == 2
    path = out / name
    assert capsys.readouterr().err == f"config error: output {path} exists and is not a regular file\n"
    assert list(out.iterdir()) == [path]


def test_report_svg_is_checked_only_when_written(experiment_config, tmp_path, capsys):
    (tmp_path / "out" / "report.svg").mkdir(parents=True)
    assert main(["report", "--config", str(experiment_config)]) == 0
    assert (tmp_path / "out" / "report.csv").is_file()


def test_import_does_not_load_multiprocessing():
    # the pool is imported only when repeats run in parallel
    code = (
        "import sys, v2vbeam.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(v2vbeam.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2 or parallel._openblas_threads() is None,
    reason="the repeats run in a pool only on 2 or more usable CPUs with OpenBLAS",
)
def test_report_leaves_no_process_running(tmp_path):
    cfg = tmp_path / "experiment.json"
    cfg.write_text(json.dumps(experiment_doc(tmp_path / "out", repeats=2)))
    env = dict(os.environ, PYTHONPATH=str(Path(v2vbeam.__file__).resolve().parents[1]))
    # its own session, so its process group holds the run and every process it forks
    run = subprocess.Popen(
        [sys.executable, "-m", "v2vbeam.cli", "report", "--config", str(cfg)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    _, err = run.communicate(timeout=120)
    assert run.returncode == 0, err
    with pytest.raises(ProcessLookupError):
        os.killpg(run.pid, 0)

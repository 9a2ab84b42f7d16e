"""The benchmark's workloads: their inputs, made from a seed, and their output checks.

Each workload names one ``v2vbeam`` subcommand. ``prepare`` makes the inputs
that are not measured, ``argv`` gives the measured invocation, and ``check``
verifies its outputs against ``reference`` and against properties the method
must have, raising ``CheckError`` on the first disagreement.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import reference as ref

M_VALUES = (1, 5, 9, 13)
FRACTIONS = (0.6, 0.2, 0.2)
BINS_PER_AXIS = 32
NOISE_POWER = 1e-4
# several repeats let parallel repeats show, and their mean steadies model_top1
# (one 6-epoch model's top-1 moves about 5% with the noise seed); 6 epochs
# leave room for two operations a run, whose median steadies wall_s
REPORT_REPEATS = 4
REPORT_EPOCHS = 6
EVAL_EPOCHS = 6
SCORE_EPOCHS = 12
# generate's quality figures come from scoring every SCORE_STRIDE-th row
SCORE_STRIDE = 10
# noise seed of the drives the fixed models learn from; the workload seed
# draws the noise of the rows they are scored on
SURVEY_SEED = 0
# the program writes floats with repr, so parsed values are the computed ones;
# these cover the reference's other order of operations (see README.md)
GPS_TOL_DEG = 1e-9
# relative to the power, plus the same share of the row's peak for sidelobe nulls
LOS_RTOL = 1e-9
DB_RTOL = 1e-9
METRIC_TOL = 1e-12
RATIO_TOL = 1e-9


class CheckError(Exception):
    """An output of the program disagrees with the reference or breaks a property."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _scenario(seed: int, duration: float, heading: float, origin, tx, rx) -> dict:
    return {
        "codebook_size": 64,
        "trajectory": {
            "duration": duration,
            "sample_period": 0.1,
            "rx_heading": heading,
            "origin": {"lat": origin[0], "lon": origin[1]},
            "tx_waypoints": tx,
            "rx_waypoints": rx,
        },
        "array": {"n_elements": 16, "element_spacing": 0.5},
        "channel": {"n_subcarriers": 16, "tx_power": 1.0, "noise_power": NOISE_POWER, "seed": seed},
    }


def straight_drive(seed: int = 77) -> dict:
    """The acceptance scenario: 20k samples of a straight pass in front of a parked receiver."""
    return _scenario(seed, 2000.0, math.pi / 2, (33.42, -111.93), [[-80.0, 20.0], [80.0, 60.0]], [[0.0, 0.0]])


def lawnmower_drive(seed: int) -> dict:
    """20k samples: the transmitter zig-zags north across a field for the first
    six tenths of the drive, then zig-zags back south at a steeper pitch, cutting
    through the gaps between its own tracks, while the receiver weaves behind
    it. Ten segments of equal time put the sequential test part (the last two)
    over the training area but mostly in fingerprint bins that no earlier
    sample entered."""
    tx = [[-60.0 if k % 2 == 0 else 60.0, 20.0 + 10.0 * k] for k in range(7)]
    tx += [[60.0, 65.0], [-60.0, 50.0], [60.0, 35.0], [-60.0, 20.0]]
    rx = [[-10.0, -10.0], [10.0, -5.0], [-10.0, -8.0], [10.0, 0.0], [-10.0, -3.0], [10.0, -10.0], [-10.0, -5.0]]
    return _scenario(seed, 2000.0, math.pi / 2, (40.0, -105.0), tx, rx)


def convoy_drive(seed: int, duration: float = 3000.0) -> dict:
    """30k samples: both vehicles drive east, the transmitter weaving ahead of the receiver.

    A shorter ``duration`` samples the same path more coarsely: at 300 s,
    sample j sits where sample 10j of the full drive does.
    """
    return _scenario(
        seed, duration, 0.0, (47.6, -122.3), [[40.0, -30.0], [200.0, 20.0], [340.0, -10.0]], [[0.0, 0.0], [300.0, 0.0]]
    )


def experiment_doc(
    dataset: dict, *, epochs: int, seed: int = 1, repeats: int = 1, mode: str = "shuffle", input_mode: str = "tx"
) -> dict:
    """Reference optimizer settings and the default model."""
    return {
        "seed": seed,
        "dataset": dataset,
        "split": dict(zip(("train_frac", "val_frac", "test_frac"), FRACTIONS), mode=mode),
        "model": {"input_mode": input_mode},
        "training": {"learning_rate": 0.01, "weight_decay": 1e-4, "batch_size": 128, "epochs": epochs},
        "baseline": {"bins_per_axis": BINS_PER_AXIS},
        "m_values": list(M_VALUES),
        "repeats": repeats,
    }


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return path


# --- checks ---------------------------------------------------------------------------


def check_dataset(path: Path, scenario: dict) -> dict:
    """Row count, labels, GPS fixes and powers of a generated dataset CSV."""
    data = ref.read_dataset(path)
    geom = ref.scenario_geometry(scenario)
    n = len(geom["t"])
    _require(len(data["t"]) == n, f"{path.name}: {len(data['t'])} rows, expected round(duration / period) = {n}")
    _require(np.allclose(data["t"], geom["t"], rtol=1e-12, atol=1e-9), f"{path.name}: sample times off the period grid")
    _require(
        np.array_equal(data["best"], np.argmax(data["powers"], axis=1)), f"{path.name}: best_beam is not the argmax of the powers"
    )
    for col, key in (("tx", "tx_geo"), ("rx", "rx_geo")):
        err = float(np.max(np.abs(data[col] - geom[key])))
        _require(err <= GPS_TOL_DEG, f"{path.name}: {col} fixes off the waypoint path by {err:g} deg")
    los = ref.los_powers(scenario, geom["theta"], geom["distance"])
    floor = los * (1.0 - LOS_RTOL) - LOS_RTOL * los.max(axis=1, keepdims=True)
    _require(np.all(data["powers"] >= floor), f"{path.name}: a power is below its noise-free LOS value")
    noise = float(scenario["channel"]["noise_power"])
    excess = float(np.mean(data["powers"] - los))
    tol = ref.noise_tolerance(noise, data["powers"].size)
    _require(abs(excess - noise) <= tol, f"{path.name}: mean excess {excess:g} vs noise_power {noise:g} (tolerance {tol:g})")
    return data


def check_history(path: Path, classes: int = 64) -> None:
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    _require(lines[0] == "epoch,train_loss,val_top1" and len(lines) > 1, f"{path.name}: bad header or no epochs")
    losses = [float(line.split(",")[1]) for line in lines[1:]]
    _require(losses[0] <= math.log(classes), f"{path.name}: first-epoch loss {losses[0]} above ln {classes}")
    _require(losses[-1] < math.log(classes), f"{path.name}: last-epoch loss {losses[-1]} not below ln {classes}")


def read_report(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    _require(lines[0] == "predictor,metric,variant,M,mean,stddev", f"{path.name}: bad header")
    rows = {}
    for line in lines[1:]:
        predictor, metric, variant, m, mean, std = line.split(",")
        rows[(predictor, metric, variant, int(m))] = (float(mean), float(std))
    return rows


def _check_database(path: Path, keys: np.ndarray, counts: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Compare an exported fingerprint database with the reference; return its means."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    width = 1.0 / BINS_PER_AXIS
    _require(doc["grid"]["bin_width_u"] == width and doc["grid"]["bin_width_v"] == width, f"{path.name}: grid")
    got_keys = np.array([[b["row"], b["col"]] for b in doc["bins"]])
    _require(np.array_equal(got_keys, keys), f"{path.name}: occupied bins differ from the reference")
    _require(np.array_equal([b["count"] for b in doc["bins"]], counts), f"{path.name}: bin counts differ")
    got = np.array([b["mean_power"] for b in doc["bins"]])
    _require(np.allclose(got, means, rtol=DB_RTOL, atol=0.0), f"{path.name}: bin mean powers differ")
    return got


def check_scores(data: dict, runs: list, rows: dict, *, mode: str, input_mode: str) -> dict:
    """Recompute both predictors' scores for every repeat and compare with the report.

    ``runs`` holds one (checkpoint dict, exported database path or None) per
    repeat. Returns how many test queries the reference answered by fallback.
    """
    tx, rx, powers = data["tx"], data["rx"], data["powers"]
    m_max = max(M_VALUES)
    scores = {"model": [], "baseline": []}
    slack = {"model": [], "baseline": []}
    fallbacks = 0
    for ckpt, db_path in runs:
        train, val, test = ref.split_indices(len(tx), FRACTIONS, ckpt["seed"], mode)
        norm = ref.fit_minmax(tx[train], rx[train] if input_mode == "both" else None)
        _require(ref.checkpoint_norm(ckpt) == norm, "checkpoint normalization is not the min-max of its training part")
        _require(ckpt["input_mode"] == input_mode, "checkpoint input mode")

        base = np.concatenate([train, val])
        keys, counts, means = ref.bin_means(ref.bin_keys(ref.normalise(tx[base], norm), BINS_PER_AXIS), powers[base])
        if db_path is not None:
            means = _check_database(db_path, keys, counts, means)
        answer, fell_back = ref.answering_bins(ref.bin_keys(ref.normalise(tx[test], norm), BINS_PER_AXIS), keys)
        fallbacks += int(fell_back.sum())
        bin_scores = means[answer]
        probs = ref.forward(ckpt, ref.features(tx[test], rx[test], norm, input_mode))
        for name, s in (("model", probs), ("baseline", bin_scores)):
            scores[name].append(ref.topm_metrics(ref.rank(s, m_max), powers[test], M_VALUES))
            # an exported database is the program's own table, so its ranking is exact
            exact = name == "baseline" and db_path is not None
            slack[name].append(0.0 if exact else float(ref.near_ties(s, m_max).mean()))

    series = (("accuracy", "inclusion", "inclusion"), ("accuracy", "literal", "literal"), ("power_ratio", "-", "power_ratio"))
    for predictor in ("model", "baseline"):
        tol_acc = float(np.mean(slack[predictor])) + METRIC_TOL
        for metric, variant, key in series:
            tol = tol_acc + (RATIO_TOL if metric == "power_ratio" else 0.0)
            values = np.array([s[key] for s in scores[predictor]])
            for j, m in enumerate(M_VALUES):
                row = rows.get((predictor, metric, variant, m))
                _require(row is not None, f"report lacks {predictor} {metric}/{variant} M={m}")
                mean, std = row
                ref_mean, ref_std = float(values[:, j].mean()), float(values[:, j].std())
                _require(
                    abs(mean - ref_mean) <= tol and abs(std - ref_std) <= 2 * tol,
                    f"{predictor} {metric}/{variant} M={m}: report {mean!r} +- {std!r}, reference {ref_mean!r} +- {ref_std!r}",
                )
        check_properties(rows, predictor)
    _require(len(rows) == 2 * 3 * len(M_VALUES), f"report has {len(rows)} rows, expected {2 * 3 * len(M_VALUES)}")
    return fallbacks


def check_properties(rows: dict, predictor: str) -> None:
    """Properties every report must have, whatever the numbers."""
    inclusion = [rows[(predictor, "accuracy", "inclusion", m)][0] for m in M_VALUES]
    _require(all(b >= a - METRIC_TOL for a, b in zip(inclusion, inclusion[1:])), f"{predictor}: inclusion falls as M grows")
    for m, inc in zip(M_VALUES, inclusion):
        literal = rows[(predictor, "accuracy", "literal", m)][0]
        ratio = rows[(predictor, "power_ratio", "-", m)][0]
        _require(abs(literal - inc / m) <= METRIC_TOL, f"{predictor} M={m}: literal {literal} != inclusion / M")
        _require(0.0 < ratio <= 1.0 + METRIC_TOL, f"{predictor} M={m}: power ratio {ratio} outside (0, 1]")
        _require(ratio >= inc - METRIC_TOL, f"{predictor} M={m}: power ratio {ratio} below inclusion {inc}")


def quality(rows: dict) -> dict:
    """The paper's figures, as the program reported them (means over repeats)."""
    return {
        "model_top1": rows[("model", "accuracy", "inclusion", 1)][0],
        "model_power_ratio_m1": rows[("model", "power_ratio", "-", 1)][0],
        "baseline_top1": rows[("baseline", "accuracy", "inclusion", 1)][0],
    }


def csv_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines(keepends=True)


# --- workloads -------------------------------------------------------------------------


class Workload:
    """One subcommand, its inputs made from ``seed`` in ``work`` and its output checks."""

    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def prepare(self, invoke) -> None:
        """Make the inputs that are not measured; ``invoke(argv)`` runs a subcommand."""

    def argv(self, out: Path) -> list[str]:
        raise NotImplementedError

    def check(self, out: Path) -> dict:
        """Verify one invocation's outputs; return the quality figures it produced."""
        raise NotImplementedError

    def finish(self, invoke, out: Path, figures: dict) -> dict:
        """Quality figures for the run, given the last invocation's outputs in ``out``."""
        return figures


class ReportWorkload(Workload):
    name = "report"

    def prepare(self, invoke):
        self.scenario = straight_drive()
        doc = experiment_doc(
            {"synthetic": self.scenario}, epochs=REPORT_EPOCHS, seed=self.seed, repeats=REPORT_REPEATS
        )
        self.config = write_json(self.work / "report.json", doc)

    def argv(self, out):
        return ["report", "--config", str(self.config), "--out", str(out)]

    def check(self, out):
        data = check_dataset(out / "dataset.csv", self.scenario)
        runs = []
        for r in range(REPORT_REPEATS):
            ckpt = ref.load_checkpoint(out / f"checkpoint_r{r}.json")
            _require(ckpt["seed"] == self.seed + r, f"checkpoint_r{r}.json: seed {ckpt['seed']}, expected {self.seed + r}")
            check_history(out / f"history_r{r}.csv")
            runs.append((ckpt, out / f"fingerprint_db_r{r}.json"))
        rows = read_report(out / "report.csv")
        check_scores(data, runs, rows, mode="shuffle", input_mode="tx")
        return quality(rows)


class EvalWorkload(Workload):
    """The rows the checkpoint and the baseline learn from (the first four fifths)
    come from the lawnmower drive with SURVEY_SEED's noise; the test fifth comes
    from the same drive with the workload seed's noise. A surveyed site is scored
    on a new drive, and the checkpoint is the same for every seed."""

    name = "eval"

    def prepare(self, invoke):
        parts = []
        for seed in (SURVEY_SEED, self.seed):
            scenario = lawnmower_drive(seed)
            csv = self.work / f"lawnmower_{seed}.csv"
            invoke(["generate", "--config", str(write_json(self.work / f"lawnmower_{seed}.json", scenario)), "--out", str(csv)])
            parts.append((csv, check_dataset(csv, scenario)))
        (survey_csv, survey), (drive_csv, drive) = parts
        n = len(survey["t"])
        keep = n - int(n * FRACTIONS[2])
        self.csv = self.work / "lawnmower.csv"
        survey_lines, drive_lines = csv_lines(survey_csv), csv_lines(drive_csv)
        self.csv.write_text("".join(survey_lines[: 1 + keep] + drive_lines[1 + keep :]), encoding="utf-8")
        self.data = {key: np.concatenate([survey[key][:keep], drive[key][keep:]]) for key in survey}

        doc = experiment_doc({"csv": str(self.csv)}, epochs=EVAL_EPOCHS, mode="sequential", input_mode="both")
        model_dir = self.work / "model"
        invoke(["train", "--config", str(write_json(self.work / "train.json", doc)), "--out", str(model_dir)])
        check_history(model_dir / "history.csv")
        self.checkpoint = model_dir / "checkpoint.json"
        self.ckpt = ref.load_checkpoint(self.checkpoint)

    def argv(self, out):
        return [
            "eval", "--checkpoint", str(self.checkpoint), "--dataset", str(self.csv),
            "--split-mode", "sequential", "--out", str(out),
        ]

    def check(self, out):
        rows = read_report(out / "report.csv")
        self.fallbacks = check_scores(self.data, [(self.ckpt, None)], rows, mode="sequential", input_mode="both")
        return quality(rows)


class GenerateWorkload(Workload):
    """The quality figures come from ``v2vbeam eval`` of a fixed checkpoint on
    every SCORE_STRIDE-th row of the last generated drive. The checkpoint learns
    from the same positions with SURVEY_SEED's noise, so it is the same for
    every seed; none of this is measured."""

    name = "generate"

    def prepare(self, invoke):
        self.scenario = convoy_drive(self.seed)
        self.config = write_json(self.work / "convoy.json", self.scenario)
        coarse = convoy_drive(SURVEY_SEED, duration=self.scenario["trajectory"]["duration"] / SCORE_STRIDE)
        csv = self.work / "convoy_survey.csv"
        invoke(["generate", "--config", str(write_json(self.work / "convoy_survey.json", coarse)), "--out", str(csv)])
        check_dataset(csv, coarse)
        doc = experiment_doc({"csv": str(csv)}, epochs=SCORE_EPOCHS)
        model_dir = self.work / "model"
        invoke(["train", "--config", str(write_json(self.work / "train.json", doc)), "--out", str(model_dir)])
        check_history(model_dir / "history.csv")
        self.checkpoint = model_dir / "checkpoint.json"

    def argv(self, out):
        return ["generate", "--config", str(self.config), "--out", str(out / "convoy.csv")]

    def check(self, out):
        check_dataset(out / "convoy.csv", self.scenario)
        return {}

    def finish(self, invoke, out, figures):
        subset = self.work / "convoy_subset.csv"
        lines = csv_lines(out / "convoy.csv")
        subset.write_text(lines[0] + "".join(lines[1::SCORE_STRIDE]), encoding="utf-8")
        score_dir = self.work / "score"
        invoke(["eval", "--checkpoint", str(self.checkpoint), "--dataset", str(subset), "--out", str(score_dir)])
        rows = read_report(score_dir / "report.csv")
        ckpt = ref.load_checkpoint(self.checkpoint)
        check_scores(ref.read_dataset(subset), [(ckpt, None)], rows, mode="shuffle", input_mode="tx")
        return quality(rows)


WORKLOADS = {w.name: w for w in (ReportWorkload, EvalWorkload, GenerateWorkload)}

"""End-to-end experiment pipeline shared by the CLI subcommands.

One experiment: resolve a dataset (CSV or synthetic scenario), split it,
fit normalization on the training part, train the classifier, build the
fingerprint baseline on train+validation, and score both on the held-out
test part. Repeats rerun the whole pipeline with derived seeds and are
aggregated into mean/stddev rows.

Repeats run in parallel on the usable CPUs through ``parallel.ordered_map``,
one item per seed: the calling process runs every k-th seed itself and forked
workers, which inherit the dataset instead of receiving a pickled copy, run
the rest. Each repeat depends only on its seed and the results come back in
seed order, so every output is the same for any number of CPUs. The same map
synthesises a scenario and writes the dataset CSV in row chunks.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CodebookMismatchError, ConfigError
from .evalmetrics import (
    EvaluationReport,
    ReportRow,
    aggregate_reports,
    build_report,
)
from .fingerprint import (
    BinGrid,
    FingerprintDatabase,
    build_database,
    evaluate_baseline,
)
from .geodata import NormalizationParams, fit_normalization
from .ingest import Dataset, SplitSpec, concat, parse_dataset, split
from .neuralbeam import (
    ConvBlockSpec,
    EpochRecord,
    LayerSpec,
    ModelParams,
    TrainingConfig,
    dataset_features,
    input_length_for_mode,
    predict_top_m_batch,
    train,
)
from .parallel import ordered_map
from .synthchan import generate_scenario, scenario_from_json

log = logging.getLogger(__name__)

DEFAULT_M_VALUES = (1, 5, 9, 13)


@dataclass(frozen=True)
class ModelOptions:
    conv_channels: tuple[int, ...] = (32, 64, 128)
    kernel: int = 3
    pool: int = 2
    dense_hidden: tuple[int, ...] = (256,)
    input_mode: str = "tx"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs; exactly one dataset source is set."""

    seed: int = 0
    out_dir: Path = Path("out")
    dataset_csv: Path | None = None
    synthetic: dict | None = None
    train_frac: float = 0.6
    val_frac: float = 0.2
    test_frac: float = 0.2
    split_mode: str = "shuffle"
    model: ModelOptions = ModelOptions()
    training: TrainingConfig = TrainingConfig()
    bins_per_axis: int = 32
    m_values: tuple[int, ...] = DEFAULT_M_VALUES
    repeats: int = 1
    emit_svg: bool = False

    def __post_init__(self):
        if (self.dataset_csv is None) == (self.synthetic is None):
            raise ConfigError("dataset", "exactly one of 'csv' or 'synthetic' required")
        if self.repeats < 1:
            raise ConfigError("repeats", "must be >= 1")
        if not self.m_values:
            raise ConfigError("m_values", "must be non-empty")


def _expect(doc: dict, field: str, kind, default):
    value = doc.get(field, default)
    if isinstance(value, bool) and kind in (int, float):
        raise ConfigError(field, f"expected {kind.__name__}, got a boolean")
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ConfigError(field, f"expected {kind.__name__}, got {value!r}")
    return value


def experiment_config_from_json(doc: dict) -> ExperimentConfig:
    """Parse and validate a config document; ConfigError names bad fields."""
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "expected a JSON object")
    dataset_doc = _expect(doc, "dataset", dict, {})
    if ("csv" in dataset_doc) == ("synthetic" in dataset_doc):
        raise ConfigError("dataset", "exactly one of 'csv' or 'synthetic' required")
    dataset_csv = None
    synthetic = None
    if "csv" in dataset_doc:
        dataset_csv = Path(_expect(dataset_doc, "csv", str, None))
    else:
        synthetic = _expect(dataset_doc, "synthetic", dict, None)
        scenario_from_json(synthetic)  # validate eagerly for early errors

    split_doc = _expect(doc, "split", dict, {})
    model_doc = _expect(doc, "model", dict, {})
    training_doc = _expect(doc, "training", dict, {})
    baseline_doc = _expect(doc, "baseline", dict, {})

    m_values = doc.get("m_values", list(DEFAULT_M_VALUES))
    if not isinstance(m_values, list) or not all(
        isinstance(m, int) and not isinstance(m, bool) and m >= 1 for m in m_values
    ):
        raise ConfigError("m_values", "expected a list of positive integers")

    conv_channels = model_doc.get("conv_channels", [32, 64, 128])
    dense_hidden = model_doc.get("dense_hidden", [256])
    if not isinstance(conv_channels, list) or not conv_channels:
        raise ConfigError("model.conv_channels", "expected a non-empty list")
    if not isinstance(dense_hidden, list):
        raise ConfigError("model.dense_hidden", "expected a list")
    input_mode = _expect(model_doc, "input_mode", str, "tx")
    if input_mode not in ("tx", "both"):
        raise ConfigError("model.input_mode", "must be 'tx' or 'both'")

    split_mode = _expect(split_doc, "mode", str, "shuffle")
    if split_mode not in ("shuffle", "sequential"):
        raise ConfigError("split.mode", "must be 'shuffle' or 'sequential'")

    try:
        training = TrainingConfig(
            learning_rate=_expect(training_doc, "learning_rate", float, 0.01),
            weight_decay=_expect(training_doc, "weight_decay", float, 1e-4),
            batch_size=_expect(training_doc, "batch_size", int, 128),
            epochs=_expect(training_doc, "epochs", int, 30),
            beta1=_expect(training_doc, "beta1", float, 0.9),
            beta2=_expect(training_doc, "beta2", float, 0.999),
            epsilon=_expect(training_doc, "epsilon", float, 1e-8),
            seed=_expect(doc, "seed", int, 0),
        )
        return ExperimentConfig(
            seed=_expect(doc, "seed", int, 0),
            out_dir=Path(_expect(doc, "out_dir", str, "out")),
            dataset_csv=dataset_csv,
            synthetic=synthetic,
            train_frac=_expect(split_doc, "train_frac", float, 0.6),
            val_frac=_expect(split_doc, "val_frac", float, 0.2),
            test_frac=_expect(split_doc, "test_frac", float, 0.2),
            split_mode=split_mode,
            model=ModelOptions(
                conv_channels=tuple(int(c) for c in conv_channels),
                kernel=_expect(model_doc, "kernel", int, 3),
                pool=_expect(model_doc, "pool", int, 2),
                dense_hidden=tuple(int(w) for w in dense_hidden),
                input_mode=input_mode,
            ),
            training=training,
            bins_per_axis=_expect(baseline_doc, "bins_per_axis", int, 32),
            m_values=tuple(m_values),
            repeats=_expect(doc, "repeats", int, 1),
            emit_svg=_expect(doc, "emit_svg", bool, False),
        )
    except ValueError as exc:
        raise ConfigError("<config>", str(exc)) from exc


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError("<json>", f"invalid JSON in {path}: {exc}") from exc
    return experiment_config_from_json(doc)


def resolve_dataset(config: ExperimentConfig) -> Dataset:
    """Parse the configured CSV or generate the configured scenario."""
    if config.dataset_csv is not None:
        if not config.dataset_csv.exists():
            raise FileNotFoundError(f"dataset file not found: {config.dataset_csv}")
        return parse_dataset(config.dataset_csv)
    traj, arr, ch, codebook_size = scenario_from_json(config.synthetic)
    return generate_scenario(traj, arr, ch, codebook_size)


def build_layer_spec(options: ModelOptions, classes: int) -> LayerSpec:
    return LayerSpec(
        in_channels=1,
        in_length=input_length_for_mode(options.input_mode),
        conv_blocks=tuple(
            ConvBlockSpec(c, options.kernel, options.pool) for c in options.conv_channels
        ),
        dense_widths=tuple(options.dense_hidden) + (classes,),
        classes=classes,
    )


def fit_split_normalization(train_ds: Dataset, input_mode: str) -> NormalizationParams:
    """Fit scaling on the training split; 'both' mode pools tx and rx fixes."""
    points = train_ds.tx
    if input_mode == "both":
        rx = train_ds.rx
        points = np.concatenate([points, rx[~np.isnan(rx[:, 0])]])
    return fit_normalization(points)


@dataclass(frozen=True)
class RunResult:
    """Artifacts of one repeat."""

    run_seed: int
    params: ModelParams
    spec: LayerSpec
    norm: NormalizationParams
    history: list[EpochRecord]
    database: FingerprintDatabase
    model_report: EvaluationReport
    baseline_report: EvaluationReport


def single_run(dataset: Dataset, config: ExperimentConfig, run_seed: int) -> RunResult:
    """Split, train, build the baseline, and evaluate both on the test part."""
    if any(m > dataset.codebook_size for m in config.m_values):
        raise ConfigError("m_values", f"must be <= codebook size {dataset.codebook_size}")
    spec = build_layer_spec(config.model, dataset.codebook_size)
    split_spec = SplitSpec(
        config.train_frac, config.val_frac, config.test_frac, seed=run_seed
    )
    train_ds, val_ds, test_ds = split(dataset, split_spec, mode=config.split_mode)
    norm = fit_split_normalization(train_ds, config.model.input_mode)
    training = dataclasses.replace(config.training, seed=run_seed)
    params, history = train(
        train_ds, val_ds, spec, training, norm, input_mode=config.model.input_mode
    )

    # the baseline trains on train+val so both predictors see 80% of the data
    # and share the identical held-out test part
    database = build_database(
        concat([train_ds, val_ds]), BinGrid.unit_square(config.bins_per_axis), norm
    )

    m_max = max(config.m_values)
    x_test = dataset_features(test_ds, norm, config.model.input_mode)
    model_preds = predict_top_m_batch(params, spec, x_test, m_max)
    baseline_preds = evaluate_baseline(database, test_ds, norm, m_max)
    model_report, baseline_report = build_report(
        model_preds, baseline_preds, test_ds, config.m_values
    )
    return RunResult(
        run_seed=run_seed,
        params=params,
        spec=spec,
        norm=norm,
        history=history,
        database=database,
        model_report=model_report,
        baseline_report=baseline_report,
    )


@dataclass(frozen=True)
class ExperimentResult:
    dataset_size: int
    runs: list[RunResult]
    rows: list[ReportRow]


def _repeat(dataset: Dataset, config: ExperimentConfig, run_seed: int) -> RunResult:
    r = run_seed - config.seed
    log.info("repeat %d/%d (seed %d)", r + 1, config.repeats, run_seed)
    return single_run(dataset, config, run_seed)


def run_experiment(dataset: Dataset, config: ExperimentConfig) -> ExperimentResult:
    """All repeats with derived seeds, aggregated to mean/stddev rows."""
    seeds = range(config.seed, config.seed + config.repeats)
    runs = list(ordered_map(functools.partial(_repeat, dataset, config), seeds))
    rows = aggregate_reports([run.model_report for run in runs])
    rows += aggregate_reports([run.baseline_report for run in runs])
    return ExperimentResult(dataset_size=len(dataset), runs=runs, rows=rows)


def check_codebook_compatible(spec: LayerSpec, dataset: Dataset) -> None:
    if spec.classes != dataset.codebook_size:
        raise CodebookMismatchError(
            f"checkpoint predicts {spec.classes} beams, dataset has "
            f"{dataset.codebook_size}"
        )

"""End-to-end experiment pipeline shared by the CLI subcommands.

One experiment resolves a dataset (CSV or synthetic scenario) and runs its
repeats, aggregated into mean/stddev rows. A repeat (``single_run``) is four
stages, each defined only here:

1. ``split_stage``: cut train/validation/test parts with the repeat's seed;
2. ``fit_stage``: build the layer spec, fit normalization, train the model;
3. ``baseline_stage``: build the fingerprint database on train+validation;
4. ``score_stage``: score both predictors on the held-out test part.

The CLI's ``train`` runs stages 1-2, ``baseline`` 1 and 3, and ``eval`` 1, 3
and 4 with the model from a checkpoint.

Repeats run in parallel on the usable CPUs through ``parallel.ordered_map``,
one item per seed: the calling process runs every k-th seed itself and forked
workers, which inherit the dataset instead of receiving a pickled copy, run
the rest. Each repeat depends only on its seed and the results come back in
seed order, so every output is the same for any number of CPUs. The same map
synthesises a scenario and writes the dataset CSV in row chunks.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CodebookMismatchError, ConfigError, config_section, load_json, read_fields, read_object,
)
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
    """Everything one experiment needs; exactly one dataset source is set.

    Every rule on the values is checked here, so a bad config, however it
    is made, fails before any data is read.
    """

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
        if self.seed < 0:
            raise ConfigError("seed", f"must be >= 0, got {self.seed}")
        if self.repeats < 1:
            raise ConfigError("repeats", "must be >= 1")
        m = self.m_values
        if not m or m[0] < 1 or any(a >= b for a, b in zip(m, m[1:])):
            raise ConfigError(
                "m_values", f"must be positive and strictly increasing, got {list(m)}"
            )
        if self.split_mode not in ("shuffle", "sequential"):
            raise ConfigError("split.mode", "must be 'shuffle' or 'sequential'")
        with config_section("split"):
            SplitSpec(self.train_frac, self.val_frac, self.test_frac)
        with config_section("baseline", ExperimentConfig):
            BinGrid.unit_square(self.bins_per_axis)
        with config_section("model", ModelOptions):
            build_layer_spec(self.model, 1)
        if self.synthetic is not None:
            scenario_from_json(self.synthetic)


def experiment_config_from_json(doc: dict) -> ExperimentConfig:
    """Parse and validate a config document; ConfigError names bad fields.

    Each section's fields are read by ``errors.read_fields`` as their declared
    types, and a field left out takes its dataclass default. ``model`` and
    ``training`` are dataclass fields, read as nested sections.
    """
    read = functools.partial(read_fields, ExperimentConfig)
    doc = dict(read_object(doc, ""))
    dataset, split, baseline = (doc.pop(name, {}) for name in ("dataset", "split", "baseline"))
    fields = read(
        doc, "", "seed", "out_dir", "model", "training", "m_values", "repeats", "emit_svg"
    )
    fields |= read(dataset, "dataset", dataset_csv="csv", synthetic="synthetic")
    fields |= read(split, "split", "train_frac", "val_frac", "test_frac", split_mode="mode")
    fields |= read(baseline, "baseline", "bins_per_axis")
    return ExperimentConfig(**fields)


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    return experiment_config_from_json(load_json(path))


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
    """Artifacts of one repeat, in the order its stages make them."""

    run_seed: int
    spec: LayerSpec
    norm: NormalizationParams
    params: ModelParams
    history: list[EpochRecord]
    database: FingerprintDatabase
    model_report: EvaluationReport
    baseline_report: EvaluationReport


def split_stage(
    dataset: Dataset, config: ExperimentConfig, run_seed: int, scored: bool = True
) -> tuple[Dataset, Dataset, Dataset]:
    """Stage 1: the train/val/test parts of one run, cut with ``run_seed``.

    Every job fits on the training part, so an empty one is a ConfigError. A
    ``scored`` job also needs a test part and every M within the codebook;
    both are checked here, before anything is trained.
    """
    if scored and any(m > dataset.codebook_size for m in config.m_values):
        raise ConfigError("m_values", f"must be <= codebook size {dataset.codebook_size}")
    s = SplitSpec(config.train_frac, config.val_frac, config.test_frac, seed=run_seed)
    train_ds, val_ds, test_ds = split(dataset, s, mode=config.split_mode)
    empty = "test" if scored and not len(test_ds) else "training" if not len(train_ds) else ""
    if empty:
        raise ConfigError(
            "dataset",
            f"{len(dataset)} rows leave no {empty} rows in the {s.train_frac}/"
            f"{s.val_frac}/{s.test_frac} {config.split_mode} split",
        )
    return train_ds, val_ds, test_ds


def fit_stage(
    train_ds: Dataset, val_ds: Dataset, config: ExperimentConfig, run_seed: int
) -> tuple[LayerSpec, NormalizationParams, ModelParams, list[EpochRecord]]:
    """Stage 2: the layer spec, the training part's normalization and the trained model."""
    spec = build_layer_spec(config.model, train_ds.codebook_size)
    norm = fit_split_normalization(train_ds, config.model.input_mode)
    params, history = train(
        train_ds, val_ds, spec, config.training, norm, run_seed, config.model.input_mode
    )
    return spec, norm, params, history


def baseline_stage(
    train_ds: Dataset, val_ds: Dataset, norm: NormalizationParams, config: ExperimentConfig
) -> FingerprintDatabase:
    """Stage 3: the fingerprint database, built on train+val so that both
    predictors learn from every row outside the held-out test part."""
    grid = BinGrid.unit_square(config.bins_per_axis)
    return build_database(concat([train_ds, val_ds]), grid, norm)


def score_stage(
    spec: LayerSpec, norm: NormalizationParams, params: ModelParams,
    database: FingerprintDatabase, test_ds: Dataset, config: ExperimentConfig,
) -> tuple[EvaluationReport, EvaluationReport]:
    """Stage 4: the model's and the baseline's reports on the test part."""
    m_max = max(config.m_values)
    x_test = dataset_features(test_ds, norm, config.model.input_mode)
    model_preds = predict_top_m_batch(params, spec, x_test, m_max)
    baseline_preds = evaluate_baseline(database, test_ds, norm, m_max)
    return build_report(model_preds, baseline_preds, test_ds, config.m_values)


def report_rows(reports: list[tuple[EvaluationReport, ...]]) -> list[ReportRow]:
    """Mean/stddev rows over runs' (model, baseline) reports, model rows first."""
    models, baselines = zip(*reports)
    return aggregate_reports(models) + aggregate_reports(baselines)


def single_run(dataset: Dataset, config: ExperimentConfig, run_seed: int) -> RunResult:
    """One repeat: the four stages, all with ``run_seed``."""
    train_ds, val_ds, test_ds = split_stage(dataset, config, run_seed)
    spec, norm, params, history = fit_stage(train_ds, val_ds, config, run_seed)
    database = baseline_stage(train_ds, val_ds, norm, config)
    reports = score_stage(spec, norm, params, database, test_ds, config)
    return RunResult(run_seed, spec, norm, params, history, database, *reports)


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
    rows = report_rows([(run.model_report, run.baseline_report) for run in runs])
    return ExperimentResult(dataset_size=len(dataset), runs=runs, rows=rows)


def check_codebook_compatible(spec: LayerSpec, dataset: Dataset) -> None:
    if spec.classes != dataset.codebook_size:
        raise CodebookMismatchError(
            f"checkpoint predicts {spec.classes} beams, dataset has "
            f"{dataset.codebook_size}"
        )

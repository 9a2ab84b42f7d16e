"""Command-line entry point.

Subcommands: generate | train | baseline | eval | report. Configs are JSON
files; a handful of flags override them. Exit codes: 0 success, 2 config
error, 3 missing input, 4 runtime numeric failure. BEAM_LOG sets the log
level (DEBUG, INFO, WARNING, ...). Every subcommand runs numpy's OpenBLAS at
one thread, so its outputs are the same bytes for any number of CPUs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from .errors import (
    CodebookMismatchError,
    ConfigError,
    IndexMismatchError,
    RowParseError,
    SchemaMismatchError,
    V2VBeamError,
)
from .evalmetrics import (
    aggregate_reports,
    build_report,
    write_report_csv,
    write_report_json,
    write_report_svg,
)
from .experiment import (
    ExperimentConfig,
    build_layer_spec,
    check_codebook_compatible,
    fit_split_normalization,
    load_experiment_config,
    resolve_dataset,
    run_experiment,
)
from .fingerprint import BinGrid, build_database, evaluate_baseline, save_database
from .ingest import SplitSpec, concat, parse_dataset, split, write_dataset
from .neuralbeam import (
    dataset_features,
    load_checkpoint,
    predict_top_m_batch,
    save_checkpoint,
    train,
    write_history,
)
from .parallel import one_blas_thread
from .synthchan import generate_scenario, scenario_from_json

log = logging.getLogger("v2vbeam")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_NUMERIC = 4


def _load_json(path: Path) -> dict:
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError("<json>", f"invalid JSON in {path}: {exc}") from exc


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
        updates["training"] = dataclasses.replace(config.training, seed=args.seed)
    if getattr(args, "out", None) is not None:
        updates["out_dir"] = Path(args.out)
    if getattr(args, "m_values", None) is not None:
        updates["m_values"] = tuple(args.m_values)
    if getattr(args, "split_mode", None) is not None:
        updates["split_mode"] = args.split_mode
    if getattr(args, "repeats", None) is not None:
        updates["repeats"] = args.repeats
    if getattr(args, "emit_svg", False):
        updates["emit_svg"] = True
    return dataclasses.replace(config, **updates) if updates else config


def _parse_m_values(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad m-values {text!r}") from None
    if not values or any(m < 1 for m in values):
        raise argparse.ArgumentTypeError("m-values must be positive integers")
    return values


def cmd_generate(args) -> int:
    doc = _load_json(Path(args.config))
    scenario_doc = doc.get("dataset", {}).get("synthetic", doc)
    if args.seed is not None:
        scenario_doc = dict(scenario_doc)
        channel = dict(scenario_doc.get("channel", {}))
        channel["seed"] = args.seed
        scenario_doc["channel"] = channel
    traj, arr, ch, codebook_size = scenario_from_json(scenario_doc)
    dataset = generate_scenario(traj, arr, ch, codebook_size)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_dataset(dataset, out)
    print(f"wrote {len(dataset)} samples to {out}")
    return EXIT_OK


def _prepare(config: ExperimentConfig):
    dataset = resolve_dataset(config)
    spec = build_layer_spec(config.model, dataset.codebook_size)
    split_spec = SplitSpec(
        config.train_frac, config.val_frac, config.test_frac, seed=config.seed
    )
    parts = split(dataset, split_spec, mode=config.split_mode)
    return dataset, spec, parts


def cmd_train(args) -> int:
    config = _apply_overrides(load_experiment_config(Path(args.config)), args)
    dataset, spec, (train_ds, val_ds, _) = _prepare(config)
    norm = fit_split_normalization(train_ds, config.model.input_mode)
    params, history = train(
        train_ds, val_ds, spec, config.training, norm,
        input_mode=config.model.input_mode,
    )
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt = save_checkpoint(
        out_dir / "checkpoint.json", params, spec, norm, config.seed,
        input_mode=config.model.input_mode,
    )
    hist = write_history(history, out_dir / "history.csv")
    print(f"trained on {len(train_ds)} samples for {config.training.epochs} epochs")
    print(f"checkpoint: {ckpt}")
    print(f"history: {hist}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    config = _apply_overrides(load_experiment_config(Path(args.config)), args)
    _, _, (train_ds, val_ds, _) = _prepare(config)
    norm = fit_split_normalization(train_ds, config.model.input_mode)
    combined = concat([train_ds, val_ds])
    db = build_database(combined, BinGrid.unit_square(config.bins_per_axis), norm)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    path = save_database(db, config.out_dir / "fingerprint_db.json")
    print(f"built {len(db)} bins from {len(combined)} samples")
    print(f"database: {path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    ckpt_path = Path(args.checkpoint)
    if not ckpt_path.exists():
        raise FileNotFoundError(f"checkpoint not found: {ckpt_path}")
    data_path = Path(args.dataset)
    if not data_path.exists():
        raise FileNotFoundError(f"dataset file not found: {data_path}")
    params, spec, norm, meta = load_checkpoint(ckpt_path)
    dataset = parse_dataset(data_path)
    check_codebook_compatible(spec, dataset)

    m_values = tuple(args.m_values or (1, 5, 9, 13))
    if any(m > dataset.codebook_size for m in m_values):
        raise ConfigError("m_values", f"must be <= codebook size {dataset.codebook_size}")
    seed = args.seed if args.seed is not None else meta["seed"]
    split_spec = SplitSpec(0.6, 0.2, 0.2, seed=seed)
    train_ds, val_ds, test_ds = split(dataset, split_spec, mode=args.split_mode)
    if not len(test_ds):
        raise ConfigError(
            "dataset",
            f"{len(dataset)} rows leave no test rows in the {split_spec.train_frac}/"
            f"{split_spec.val_frac}/{split_spec.test_frac} {args.split_mode} split",
        )

    m_max = max(m_values)
    input_mode = meta.get("input_mode", "tx")
    x_test = dataset_features(test_ds, norm, input_mode)
    model_preds = predict_top_m_batch(params, spec, x_test, m_max)
    db = build_database(
        concat([train_ds, val_ds]), BinGrid.unit_square(args.bins_per_axis), norm
    )
    baseline_preds = evaluate_baseline(db, test_ds, norm, m_max)
    # one deterministic pass; its stddev column reads 0.0, as for a one-repeat report
    model, baseline = build_report(model_preds, baseline_preds, test_ds, m_values)
    rows = aggregate_reports([model]) + aggregate_reports([baseline])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta_out = {
        "seed": seed,
        "m_values": list(m_values),
        "n_test": len(test_ds),
        "checkpoint": str(ckpt_path),
        "dataset": str(data_path),
    }
    csv_path = write_report_csv(rows, out_dir / "report.csv")
    json_path = write_report_json(rows, out_dir / "report.json", meta_out)
    print(f"evaluated {len(test_ds)} test samples at M in {list(m_values)}")
    for row in rows:
        print(
            f"  {row.predictor:8s} {row.metric}/{row.variant} M={row.m}: "
            f"{row.mean:.4f} (std {row.stddev:.4f})"
        )
    print(f"report: {csv_path}")
    print(f"report: {json_path}")
    if args.emit_svg:
        print(f"report: {write_report_svg(rows, out_dir / 'report.svg')}")
    return EXIT_OK


def cmd_report(args) -> int:
    config = _apply_overrides(load_experiment_config(Path(args.config)), args)
    dataset = resolve_dataset(config)
    result = run_experiment(dataset, config)
    out_dir = config.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    if config.synthetic is not None:
        write_dataset(dataset, out_dir / "dataset.csv")
    for run in result.runs:
        tag = f"r{run.run_seed - config.seed}"
        save_checkpoint(
            out_dir / f"checkpoint_{tag}.json", run.params, run.spec, run.norm,
            run.run_seed, input_mode=config.model.input_mode,
        )
        write_history(run.history, out_dir / f"history_{tag}.csv")
        save_database(run.database, out_dir / f"fingerprint_db_{tag}.json")
    meta = {
        "seed": config.seed,
        "repeats": config.repeats,
        "m_values": list(config.m_values),
        "dataset_size": result.dataset_size,
        "n_test": result.runs[0].model_report.n_test,
    }
    csv_path = write_report_csv(result.rows, out_dir / "report.csv")
    json_path = write_report_json(result.rows, out_dir / "report.json", meta)
    print(
        f"experiment: {result.dataset_size} samples, {config.repeats} repeat(s), "
        f"M in {list(config.m_values)}"
    )
    for row in result.rows:
        print(
            f"  {row.predictor:8s} {row.metric}/{row.variant} M={row.m}: "
            f"{row.mean:.4f} (std {row.stddev:.4f})"
        )
    print(f"report: {csv_path}")
    print(f"report: {json_path}")
    if config.emit_svg:
        print(f"report: {write_report_svg(result.rows, out_dir / 'report.svg')}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="v2vbeam",
        description="Position-aware top-M beam prediction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic scenario CSV")
    p.add_argument("--config", required=True, help="scenario JSON")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, default=None, help="override channel seed")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="split, train, write checkpoint + history")
    p.add_argument("--config", required=True, help="experiment JSON")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--split-mode", choices=("shuffle", "sequential"), default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("baseline", help="build and export the fingerprint database")
    p.add_argument("--config", required=True, help="experiment JSON")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--split-mode", choices=("shuffle", "sequential"), default=None)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("eval", help="evaluate a checkpoint against a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True, help="dataset CSV")
    p.add_argument("--m-values", dest="m_values", type=_parse_m_values, default=None)
    p.add_argument("--seed", type=int, default=None, help="split seed (default: checkpoint seed)")
    p.add_argument("--split-mode", choices=("shuffle", "sequential"), default="shuffle")
    p.add_argument("--bins-per-axis", type=int, default=32)
    p.add_argument("--out", default="out")
    p.add_argument("--emit-svg", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="run the full repeated experiment")
    p.add_argument("--config", required=True, help="experiment JSON")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--m-values", dest="m_values", type=_parse_m_values, default=None)
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--split-mode", choices=("shuffle", "sequential"), default=None)
    p.add_argument("--emit-svg", action="store_true")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("BEAM_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with one_blas_thread():
            return args.func(args)
    except (
        ConfigError,
        CodebookMismatchError,
        SchemaMismatchError,
        RowParseError,
        IndexMismatchError,
    ) as exc:
        # malformed configs and input files that cannot pair up
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except V2VBeamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

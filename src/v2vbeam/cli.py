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
    read_object,
)
from .errors import load_json as _load_json
from .evalmetrics import write_report_csv, write_report_json, write_report_svg
from .experiment import (
    ExperimentConfig,
    ModelOptions,
    baseline_stage,
    check_codebook_compatible,
    fit_split_normalization,
    fit_stage,
    load_experiment_config,
    report_rows,
    resolve_dataset,
    run_experiment,
    score_stage,
    split_stage,
)
from .fingerprint import save_database
from .ingest import parse_dataset, write_dataset
from .neuralbeam import input_length_for_mode, load_checkpoint, save_checkpoint, write_history
from .parallel import one_blas_thread
from .synthchan import generate_scenario, scenario_from_json

# Not called here any more: the stages in ``experiment`` call these. The
# benchmark's tracer (perfbench/spans.py) still wraps them under this module's
# names, so they stay importable from it until the tracer drops those entries.
from .evalmetrics import aggregate_reports, build_report  # noqa: F401
from .fingerprint import build_database, evaluate_baseline  # noqa: F401
from .ingest import split  # noqa: F401
from .neuralbeam import dataset_features, predict_top_m_batch, train  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING_INPUT = 3
EXIT_NUMERIC = 4


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    """``config`` with each field whose flag (of the same ``dest``) was given replaced."""
    flags = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(config)}
    return dataclasses.replace(config, **{k: v for k, v in flags.items() if v is not None})


def _parse_m_values(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad m-values {text!r}") from None


# Options of the experiment subcommands. A flag whose dest names an
# ExperimentConfig field overrides that field (``_apply_overrides``).
_FLAGS = {
    "--config": {"required": True, "help": "experiment JSON"},
    "--checkpoint": {"required": True},
    "--dataset": {"required": True, "help": "dataset CSV"},
    "--out": {"dest": "out_dir", "type": Path, "help": "output directory"},
    "--seed": {"type": int, "help": "run seed (eval: defaults to the checkpoint's)"},
    "--split-mode": {"help": "shuffle or sequential"},
    "--m-values": {"type": _parse_m_values, "help": "strictly increasing, such as 1,5,9,13"},
    "--repeats": {"type": int},
    "--bins-per-axis": {"type": int},
    "--emit-svg": {"action": "store_true"},
}


def cmd_generate(args) -> int:
    doc = read_object(_load_json(Path(args.config)), "")
    dataset_doc = read_object(doc.get("dataset", {}), "dataset")
    traj, arr, ch, codebook_size = scenario_from_json(dataset_doc.get("synthetic", doc))
    if args.seed is not None:
        ch = dataclasses.replace(ch, seed=args.seed)
    dataset = generate_scenario(traj, arr, ch, codebook_size)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_dataset(dataset, out)
    print(f"wrote {len(dataset)} samples to {out}")
    return EXIT_OK


def _out_dir(config: ExperimentConfig) -> Path:
    config.out_dir.mkdir(parents=True, exist_ok=True)
    return config.out_dir


def _save_model(config, suffix, run_seed, spec, norm, params, history):
    """Write ``checkpoint<suffix>.json`` and ``history<suffix>.csv``; return both paths."""
    out_dir = _out_dir(config)
    ckpt = save_checkpoint(
        out_dir / f"checkpoint{suffix}.json", params, spec, norm, run_seed,
        input_mode=config.model.input_mode,
    )
    return ckpt, write_history(history, out_dir / f"history{suffix}.csv")


def _write_report(rows, config: ExperimentConfig, meta: dict, headline: str) -> int:
    """Write report.csv, report.json (and report.svg) and print the rows."""
    out_dir = _out_dir(config)
    csv_path = write_report_csv(rows, out_dir / "report.csv")
    json_path = write_report_json(rows, out_dir / "report.json", meta)
    print(headline)
    for row in rows:
        print(
            f"  {row.predictor:8s} {row.metric}/{row.variant} M={row.m}: "
            f"{row.mean:.4f} (std {row.stddev:.4f})"
        )
    print(f"report: {csv_path}")
    print(f"report: {json_path}")
    if config.emit_svg:
        print(f"report: {write_report_svg(rows, out_dir / 'report.svg')}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _apply_overrides(load_experiment_config(Path(args.config)), args)
    train_ds, val_ds, _ = split_stage(resolve_dataset(config), config, config.seed, scored=False)
    fit = fit_stage(train_ds, val_ds, config, config.seed)
    ckpt, hist = _save_model(config, "", config.seed, *fit)
    print(f"trained on {len(train_ds)} samples for {config.training.epochs} epochs")
    print(f"checkpoint: {ckpt}")
    print(f"history: {hist}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    config = _apply_overrides(load_experiment_config(Path(args.config)), args)
    train_ds, val_ds, _ = split_stage(resolve_dataset(config), config, config.seed, scored=False)
    norm = fit_split_normalization(train_ds, config.model.input_mode)
    db = baseline_stage(train_ds, val_ds, norm, config)
    path = save_database(db, _out_dir(config) / "fingerprint_db.json")
    print(f"built {len(db)} bins from {len(train_ds) + len(val_ds)} samples")
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
    # the layer spec comes from the checkpoint; of the model options only the input mode is used
    model = ModelOptions(input_mode=meta["input_mode"])
    config = _apply_overrides(
        ExperimentConfig(seed=meta["seed"], dataset_csv=data_path, model=model), args
    )
    if input_length_for_mode(model.input_mode) != spec.in_length:
        raise ConfigError("input_mode", f"{model.input_mode!r} does not fit spec.in_length")
    dataset = parse_dataset(data_path)
    check_codebook_compatible(spec, dataset)
    train_ds, val_ds, test_ds = split_stage(dataset, config, config.seed)
    database = baseline_stage(train_ds, val_ds, norm, config)
    # one deterministic pass; its stddev column reads 0.0, as for a one-repeat report
    rows = report_rows([score_stage(spec, norm, params, database, test_ds, config)])
    meta_out = {
        "seed": config.seed,
        "m_values": list(config.m_values),
        "n_test": len(test_ds),
        "checkpoint": str(ckpt_path),
        "dataset": str(data_path),
    }
    headline = f"evaluated {len(test_ds)} test samples at M in {list(config.m_values)}"
    return _write_report(rows, config, meta_out, headline)


def cmd_report(args) -> int:
    config = _apply_overrides(load_experiment_config(Path(args.config)), args)
    dataset = resolve_dataset(config)
    result = run_experiment(dataset, config)
    out_dir = _out_dir(config)
    if config.synthetic is not None:
        write_dataset(dataset, out_dir / "dataset.csv")
    for run in result.runs:
        tag = f"_r{run.run_seed - config.seed}"
        _save_model(config, tag, run.run_seed, run.spec, run.norm, run.params, run.history)
        save_database(run.database, out_dir / f"fingerprint_db{tag}.json")
    meta = {
        "seed": config.seed,
        "repeats": config.repeats,
        "m_values": list(config.m_values),
        "dataset_size": result.dataset_size,
        "n_test": result.runs[0].model_report.n_test,
    }
    headline = (
        f"experiment: {result.dataset_size} samples, {config.repeats} repeat(s), "
        f"M in {list(config.m_values)}"
    )
    return _write_report(result.rows, config, meta, headline)


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

    for name, func, help_text, flags in (
        ("train", cmd_train, "split, train, write checkpoint + history", ("--config",)),
        ("baseline", cmd_baseline, "build and export the fingerprint database", ("--config",)),
        ("eval", cmd_eval, "evaluate a checkpoint against a dataset",
         ("--checkpoint", "--dataset", "--m-values", "--bins-per-axis", "--emit-svg")),
        ("report", cmd_report, "run the full repeated experiment",
         ("--config", "--m-values", "--repeats", "--emit-svg")),
    ):
        p = sub.add_parser(name, help=help_text)
        for flag in (*flags, "--out", "--seed", "--split-mode"):
            p.add_argument(flag, default=None, **_FLAGS[flag])
        p.set_defaults(func=func)
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

"""Command-line entry point.

Subcommands: generate | train | baseline | eval | report. Configs are JSON
files; a handful of flags override them. Exit codes: 0 success, 2 config
error, 3 missing input, 4 runtime numeric failure, such as a training run
whose epoch loss exceeds 2 ln(classes) or is not finite (it writes no
output). BEAM_LOG sets the log level (DEBUG, INFO, WARNING, ...). Every
subcommand runs numpy's OpenBLAS at one thread, so its outputs are the same
bytes for any number of CPUs.

Files written: generate, its --out CSV; the others, in out_dir (--out): train,
checkpoint.json and history.csv; baseline, fingerprint_db.json; eval,
report.csv, report.json and, with --emit-svg, report.svg; report, the same
report files, dataset.csv when the dataset is synthetic, and for each repeat N
checkpoint_rN.json, history_rN.csv and fingerprint_db_rN.json. Every one of
them, and out_dir, is checked before any data is read. Once written, eval
and report delete a report.svg that they did not write, and report deletes
the per-repeat files of any other N, which an earlier report with more repeats
left; directories and files of other names stay.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import re
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
from .neuralbeam import load_checkpoint, save_checkpoint, write_history
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
    scenario = scenario_from_json(dataset_doc.get("synthetic", doc))
    if args.seed is not None:
        channel = dataclasses.replace(scenario.channel, seed=args.seed)
        scenario = dataclasses.replace(scenario, channel=channel)
    out = _check_out(Path(args.out))
    drive = generate_scenario(scenario)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_dataset(drive, out)
    print(f"wrote {len(drive)} samples to {out}")
    return EXIT_OK


def _check_out(path: Path, directory: bool = False) -> Path:
    """``path``, checked before any work: it must be a regular file (or a symlink to
    one), or a directory when ``directory``, or not exist below a directory.
    Raises ValueError naming the path otherwise."""
    kind = "a directory" if directory else "a regular file"
    if path.exists():
        if not (path.is_dir() if directory else path.is_file()):
            raise ValueError(f"output {path} exists and is not {kind}")
        return path
    parent = next(p for p in path.parents if p.exists())  # "." or "/" at the latest
    if not parent.is_dir():
        raise ValueError(f"output {path} lies below {parent}, which is not a directory")
    return path


def _outputs(config: ExperimentConfig, *groups) -> list[list[Path]]:
    """The paths in ``config.out_dir`` of each group of file names that a subcommand
    writes, each checked by ``_check_out`` after the directory, before any data is read."""
    _check_out(config.out_dir, directory=True)
    return [[_check_out(config.out_dir / name) for name in group] for group in groups]


# the report's files, the SVG last as only --emit-svg writes it
_REPORT_FILES = ("report.csv", "report.json", "report.svg")


def _report_names(config: ExperimentConfig) -> tuple[str, ...]:
    return _REPORT_FILES if config.emit_svg else _REPORT_FILES[:2]


# the files of each ``report`` repeat, with its index for {}, in the order they are written
_REPEAT_FILES = ("checkpoint_r{}.json", "history_r{}.csv", "fingerprint_db_r{}.json")


def _sweep(out_dir: Path, written: list[Path], names: tuple[str, ...]) -> None:
    """Delete each file in ``out_dir`` named as one of ``names`` ({} stands for any
    repeat index) but not ``written``: an earlier run left it, and it would not
    match this run's outputs. Directories are never swept."""
    stale = re.compile("|".join(re.escape(n).replace(r"\{\}", "[0-9]+") for n in names))
    for path in set(out_dir.iterdir()) - set(written):
        if stale.fullmatch(path.name) and not path.is_dir():
            path.unlink()


def _write_report(rows, paths: list[Path], meta: dict, headline: str) -> int:
    """Write the report's CSV, JSON (and SVG, given a third path) at ``paths``; print the rows."""
    csv_path, json_path, *svg_path = paths
    write_report_csv(rows, csv_path)
    write_report_json(rows, json_path, meta)
    print(headline)
    for row in rows:
        print(
            f"  {row.predictor:8s} {row.metric}/{row.variant} M={row.m}: "
            f"{row.mean:.4f} (std {row.stddev:.4f})"
        )
    print(f"report: {csv_path}")
    print(f"report: {json_path}")
    for path in svg_path:
        print(f"report: {write_report_svg(rows, path)}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _apply_overrides(load_experiment_config(Path(args.config)), args)
    [[ckpt_path, history_path]] = _outputs(config, ["checkpoint.json", "history.csv"])
    dataset = resolve_dataset(config)
    train_rows, val_rows, _ = split_stage(dataset, config, config.seed, scored=False)
    model, history = fit_stage(dataset, train_rows, val_rows, config, config.seed)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(ckpt_path, model)
    write_history(history, history_path)
    print(f"trained on {len(dataset.t[train_rows])} samples for {config.training.epochs} epochs")
    print(f"checkpoint: {ckpt_path}")
    print(f"history: {history_path}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    config = _apply_overrides(load_experiment_config(Path(args.config)), args)
    [[db_path]] = _outputs(config, ["fingerprint_db.json"])
    dataset = resolve_dataset(config)
    train_rows, val_rows, _ = split_stage(dataset, config, config.seed, scored=False)
    norm = fit_split_normalization(dataset, train_rows, config.model.input_mode)
    db = baseline_stage(dataset, train_rows, val_rows, norm, config)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    save_database(db, db_path)
    n_rows = sum(stats.count for stats in db.bins.values())
    print(f"built {len(db)} bins from {n_rows} samples")
    print(f"database: {db_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    ckpt_path = Path(args.checkpoint)
    if not ckpt_path.exists():
        raise FileNotFoundError(f"checkpoint not found: {ckpt_path}")
    data_path = Path(args.dataset)
    if not data_path.exists():
        raise FileNotFoundError(f"dataset file not found: {data_path}")
    # the layer spec, normalization and input mode all come from the checkpoint
    model = load_checkpoint(ckpt_path)
    config = _apply_overrides(ExperimentConfig(seed=model.seed, dataset_csv=data_path), args)
    [report_paths] = _outputs(config, _report_names(config))
    dataset = parse_dataset(data_path)
    check_codebook_compatible(model.spec, dataset)
    train_rows, val_rows, test_rows = split_stage(dataset, config, config.seed)
    database = baseline_stage(dataset, train_rows, val_rows, model.norm, config)
    # one deterministic pass; its stddev column reads 0.0, as for a one-repeat report
    rows = report_rows([score_stage(model, database, dataset, test_rows, config)])
    n_test = len(dataset.t[test_rows])
    meta_out = {
        "seed": config.seed,
        "m_values": list(config.m_values),
        "n_test": n_test,
        "checkpoint": str(ckpt_path),
        "dataset": str(data_path),
    }
    headline = f"evaluated {n_test} test samples at M in {list(config.m_values)}"
    config.out_dir.mkdir(parents=True, exist_ok=True)
    status = _write_report(rows, report_paths, meta_out, headline)
    _sweep(config.out_dir, report_paths, _REPORT_FILES)
    return status


def cmd_report(args) -> int:
    config = _apply_overrides(load_experiment_config(Path(args.config)), args)
    report_paths, dataset_paths, *repeat_paths = _outputs(
        config,
        _report_names(config),
        ["dataset.csv"] if config.synthetic is not None else [],
        *([name.format(r) for name in _REPEAT_FILES] for r in range(config.repeats)),
    )
    dataset = resolve_dataset(config)
    result = run_experiment(dataset, config)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    for path in dataset_paths:
        write_dataset(dataset, path)
    for run, (ckpt_path, history_path, db_path) in zip(result.runs, repeat_paths, strict=True):
        save_checkpoint(ckpt_path, run.model)
        write_history(run.history, history_path)
        save_database(run.database, db_path)
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
    status = _write_report(result.rows, report_paths, meta, headline)
    # train and baseline write other names, so their files stay
    written = [*report_paths, *(p for paths in repeat_paths for p in paths)]
    _sweep(config.out_dir, written, _REPORT_FILES + _REPEAT_FILES)
    return status


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
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

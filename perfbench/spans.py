"""Span tracing from outside the program, and the per-layer metrics drawn from it.

``SpanRecorder.install`` runs in the child interpreter. It replaces public
functions at the names their callers look up (``v2vbeam.cli.parse_dataset``,
``v2vbeam.neuralbeam.layers.conv1d_forward``, ...) with wrappers that record a
span: name, start, end, parent and run id, plus a small detail such as a row
count. Spans stay in memory and are written once, when the subcommand
returns. ``layer_metrics`` runs in the benchmark and turns a span file into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path


def _length(args, kwargs, result):
    return len(result)


def _written_bytes(args, kwargs, result):
    return os.path.getsize(result)


def _batch(args, kwargs):
    return len(args[3])


def _fallback(args, kwargs):
    # the queried bin is checked here, outside the timed call
    db, pos = args[0], args[1]
    return int(db.grid.bin_of(pos) not in db.bins)


# (module, attribute, span name, detail read before the call, detail read after it)
WRAPPED = [
    ("v2vbeam.cli", "_load_json", "cli.config", None, None),
    ("v2vbeam.cli", "scenario_from_json", "cli.config", None, None),
    ("v2vbeam.cli", "load_experiment_config", "cli.config", None, None),
    ("v2vbeam.cli", "_apply_overrides", "cli.config", None, None),
    ("v2vbeam.cli", "resolve_dataset", "experiment.resolve", None, None),
    ("v2vbeam.cli", "generate_scenario", "synthchan.generate", None, _length),
    ("v2vbeam.experiment", "generate_scenario", "synthchan.generate", None, _length),
    ("v2vbeam.cli", "write_dataset", "ingest.write", None, _written_bytes),
    ("v2vbeam.cli", "parse_dataset", "ingest.parse", None, _length),
    ("v2vbeam.experiment", "parse_dataset", "ingest.parse", None, _length),
    ("v2vbeam.cli", "split", "ingest.split", None, None),
    ("v2vbeam.experiment", "split", "ingest.split", None, None),
    ("v2vbeam.experiment", "fit_normalization", "geodata.fit", None, None),
    ("v2vbeam.experiment", "single_run", "experiment.repeat", None, None),
    ("v2vbeam.cli", "train", "neuralbeam.train", None, None),
    ("v2vbeam.experiment", "train", "neuralbeam.train", None, None),
    ("v2vbeam.cli", "dataset_features", "neuralbeam.features", None, None),
    ("v2vbeam.experiment", "dataset_features", "neuralbeam.features", None, None),
    ("v2vbeam.neuralbeam.training", "dataset_features", "neuralbeam.features", None, None),
    ("v2vbeam.neuralbeam.training", "backward", "neuralbeam.backward", _batch, None),
    ("v2vbeam.neuralbeam.training", "adam_step", "neuralbeam.adam", None, None),
    ("v2vbeam.neuralbeam.training", "top1_accuracy", "neuralbeam.val", None, None),
    ("v2vbeam.neuralbeam.layers", "conv1d_forward", "neuralbeam.conv_fwd", None, None),
    ("v2vbeam.neuralbeam.layers", "conv1d_backward", "neuralbeam.conv_bwd", None, None),
    ("v2vbeam.neuralbeam.layers", "relu_forward", "neuralbeam.relu_fwd", None, None),
    ("v2vbeam.neuralbeam.layers", "relu_backward", "neuralbeam.relu_bwd", None, None),
    ("v2vbeam.neuralbeam.layers", "maxpool1d_forward", "neuralbeam.maxpool_fwd", None, None),
    ("v2vbeam.neuralbeam.layers", "maxpool1d_backward", "neuralbeam.maxpool_bwd", None, None),
    ("v2vbeam.neuralbeam.layers", "dense_forward", "neuralbeam.dense_fwd", None, None),
    ("v2vbeam.neuralbeam.layers", "dense_backward", "neuralbeam.dense_bwd", None, None),
    ("v2vbeam.neuralbeam.layers", "softmax", "neuralbeam.softmax_ce", None, None),
    ("v2vbeam.neuralbeam.layers", "cross_entropy_batch", "neuralbeam.softmax_ce", None, None),
    ("v2vbeam.cli", "predict_top_m_batch", "neuralbeam.predict", None, None),
    ("v2vbeam.experiment", "predict_top_m_batch", "neuralbeam.predict", None, None),
    ("v2vbeam.cli", "load_checkpoint", "neuralbeam.checkpoint_load", None, None),
    ("v2vbeam.cli", "save_checkpoint", "neuralbeam.checkpoint_write", None, _written_bytes),
    ("v2vbeam.cli", "build_database", "fingerprint.build", None, _length),
    ("v2vbeam.experiment", "build_database", "fingerprint.build", None, _length),
    ("v2vbeam.cli", "evaluate_baseline", "fingerprint.query_all", None, None),
    ("v2vbeam.experiment", "evaluate_baseline", "fingerprint.query_all", None, None),
    ("v2vbeam.fingerprint", "query_candidates", "fingerprint.query", _fallback, None),
    ("v2vbeam.cli", "save_database", "fingerprint.save", None, None),
    ("v2vbeam.cli", "build_report", "evalmetrics.score", None, None),
    ("v2vbeam.experiment", "build_report", "evalmetrics.score", None, None),
    ("v2vbeam.cli", "aggregate_reports", "evalmetrics.score", None, None),
    ("v2vbeam.experiment", "aggregate_reports", "evalmetrics.score", None, None),
    ("v2vbeam.cli", "write_report_csv", "evalmetrics.write", None, None),
    ("v2vbeam.cli", "write_report_json", "evalmetrics.write", None, None),
    ("v2vbeam.cli", "write_report_svg", "evalmetrics.write", None, None),
]


class SpanRecorder:
    """In-memory spans of one process: (name, start_ns, end_ns, parent, run_id, detail)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, fn, name, before=None, after=None):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            detail = before(args, kwargs) if before else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, run_id, detail)
            if after:
                spans[idx] = (name, start, end, parent, run_id, after(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, before, after in WRAPPED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(getattr(module, attr), name, before, after))

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps({"run_id": self.run_id, "spans": self.spans}), encoding="utf-8")


# --- per-layer metrics ---------------------------------------------------------------

LAYER_KINDS = (
    "conv_fwd", "conv_bwd", "relu_fwd", "relu_bwd", "maxpool_fwd",
    "maxpool_bwd", "dense_fwd", "dense_bwd", "softmax_ce",
)
STEP_BATCH = 128

# metric -> span name whose durations it sums, in seconds
_TOTALS = {
    "synthchan.generate_s": "synthchan.generate",
    "ingest.write_s": "ingest.write",
    "ingest.parse_s": "ingest.parse",
    "ingest.split_s": "ingest.split",
    "geodata.fit_s": "geodata.fit",
    "neuralbeam.features_s": "neuralbeam.features",
    "neuralbeam.train_s": "neuralbeam.train",
    "neuralbeam.val_s": "neuralbeam.val",
    "neuralbeam.predict_s": "neuralbeam.predict",
    "neuralbeam.checkpoint_load_s": "neuralbeam.checkpoint_load",
    "neuralbeam.checkpoint_write_s": "neuralbeam.checkpoint_write",
    "fingerprint.build_s": "fingerprint.build",
    "fingerprint.query_s": "fingerprint.query_all",
    "fingerprint.save_s": "fingerprint.save",
    "evalmetrics.score_s": "evalmetrics.score",
    "evalmetrics.write_s": "evalmetrics.write",
    "experiment.resolve_s": "experiment.resolve",
    "cli.config_s": "cli.config",
}
# metric -> span name whose details it sums
_DETAIL_SUMS = {
    "synthchan.rows": "synthchan.generate",
    "ingest.write_bytes": "ingest.write",
    "ingest.parse_rows": "ingest.parse",
    "neuralbeam.checkpoint_bytes": "neuralbeam.checkpoint_write",
    "fingerprint.fallbacks": "fingerprint.query",
}


def _median(values):
    return statistics.median(values) if values else 0.0


def _p99(values):
    return statistics.quantiles(values, n=100)[98] if len(values) >= 2 else _median(values)


def self_time_ns(spans, index: int) -> int:
    """A span's duration minus the time its direct children cover.

    Children of one span run one after another on the same thread, so their
    durations add up without overlap.
    """
    name, start, end, *_ = spans[index]
    children = sum(s[2] - s[1] for s in spans if s[3] == index)
    return (end - start) - children


def layer_metrics(spans: list, root: int = 0) -> dict[str, float]:
    """Per-layer metrics of one traced subcommand whose root span is ``spans[root]``."""
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def dur_ns(i):
        return spans[i][2] - spans[i][1]

    out: dict[str, float] = {}
    for metric, name in _TOTALS.items():
        out[metric] = sum(dur_ns(i) for i in by_name[name]) / 1e9
    for metric, name in _DETAIL_SUMS.items():
        out[metric] = float(sum(spans[i][5] for i in by_name[name]))

    # a training step is one backward call and the Adam update that follows it
    children = defaultdict(list)
    for i, s in enumerate(spans):
        children[s[3]].append(i)
    steps, backward_ms, adam_ms = [], [], []
    per_kind = {kind: [] for kind in LAYER_KINDS}
    for train in by_name["neuralbeam.train"]:
        kids = children[train]
        for a, b in zip(kids, kids[1:]):
            if spans[a][0] != "neuralbeam.backward" or spans[b][0] != "neuralbeam.adam":
                continue
            steps.append((spans[b][2] - spans[a][1]) / 1e6)
            backward_ms.append(dur_ns(a) / 1e6)
            adam_ms.append(dur_ns(b) / 1e6)
            if spans[a][5] != STEP_BATCH:
                continue
            sums = dict.fromkeys(LAYER_KINDS, 0)
            pending = list(children[a])
            while pending:
                i = pending.pop()
                pending.extend(children[i])
                kind = spans[i][0].removeprefix("neuralbeam.")
                if kind in sums:
                    sums[kind] += dur_ns(i)
            for kind, total in sums.items():
                per_kind[kind].append(total / 1e3)
    out["neuralbeam.steps"] = float(len(steps))
    out["neuralbeam.step_ms_p50"] = _median(steps)
    out["neuralbeam.step_ms_p99"] = _p99(steps)
    out["neuralbeam.backward_ms_p50"] = _median(backward_ms)
    out["neuralbeam.adam_ms_p50"] = _median(adam_ms)
    for kind, values in per_kind.items():
        out[f"neuralbeam.{kind}_us"] = _median(values)

    builds = [spans[i][5] for i in by_name["fingerprint.build"]]
    out["fingerprint.bins"] = float(statistics.fmean(builds)) if builds else 0.0
    queries_us = [dur_ns(i) / 1e3 for i in by_name["fingerprint.query"]]
    out["fingerprint.queries"] = float(len(queries_us))
    out["fingerprint.query_us_p50"] = _median(queries_us)
    out["fingerprint.query_us_p99"] = _p99(queries_us)
    repeats = [dur_ns(i) / 1e9 for i in by_name["experiment.repeat"]]
    out["experiment.repeat_s"] = _median(repeats)
    out["trace.uncovered_s"] = self_time_ns(spans, root) / 1e9
    out["trace.spans"] = float(len(spans))
    return out


def load_spans(path: str | Path) -> list:
    return [tuple(s) for s in json.loads(Path(path).read_text(encoding="utf-8"))["spans"]]


# --- computed counts -------------------------------------------------------------------


def step_counts(
    batch: int = STEP_BATCH,
    in_length: int = 2,
    conv_channels=(32, 64, 128),
    kernel: int = 3,
    pool: int = 2,
    dense_widths=(256, 64),
) -> dict[str, float]:
    """Floating-point operations and bytes of one training step, computed, not measured.

    The defaults are the default ``LayerSpec`` with tx input. Each matrix
    product counts 2 operations per multiply-add, once forward and twice
    backward (input and weight gradients); Adam counts ADAM_FLOPS_PER_PARAM.
    Bytes are float64 traffic a step cannot avoid: every parameter read
    forward and backward and its gradient written, Adam's 4 reads and 3 writes
    per parameter, and every stored activation written forward and read
    backward; temporaries and cache misses are not counted.

    The conv blocks after the first see length-1 features, so only their
    centre taps reach the output: 20,480 of the 80,512 parameters are dead
    taps that still cost their full share here.
    """
    flops = params = acts = 0
    channels, length = 1, in_length
    for out_channels in conv_channels:
        l_out = length + 2 * (kernel // 2) - kernel + 1
        flops += 3 * 2 * batch * out_channels * l_out * channels * kernel
        params += out_channels * channels * kernel + out_channels
        # unrolled input columns, the pre-activation and ReLU output, the pooled output
        length = -(-l_out // pool)
        acts += batch * (channels * kernel * l_out + 2 * out_channels * l_out + out_channels * length)
        channels = out_channels
    n_in = channels * length
    for width in dense_widths:
        flops += 3 * 2 * batch * n_in * width
        params += n_in * width + width
        acts += batch * 2 * width  # pre-activation and activation (softmax for the last)
        n_in = width
    flops += ADAM_FLOPS_PER_PARAM * params
    moved = 8 * (3 * params + 7 * params + 2 * acts)
    return {"neuralbeam.step_flops": float(flops), "neuralbeam.step_bytes": float(moved)}


# g + wd*p, two moment updates, two bias corrections, sqrt, +eps, divide, *lr, p - step
ADAM_FLOPS_PER_PARAM = 16

PER_LAYER_UNITS = {
    "synthchan.generate_s": "s",
    "synthchan.rows": "count",
    "ingest.write_s": "s",
    "ingest.write_bytes": "bytes",
    "ingest.parse_s": "s",
    "ingest.parse_rows": "count",
    "ingest.split_s": "s",
    "geodata.fit_s": "s",
    "neuralbeam.features_s": "s",
    "neuralbeam.train_s": "s",
    "neuralbeam.steps": "count",
    "neuralbeam.step_ms_p50": "ms",
    "neuralbeam.step_ms_p99": "ms",
    "neuralbeam.backward_ms_p50": "ms",
    "neuralbeam.adam_ms_p50": "ms",
    "neuralbeam.val_s": "s",
    **{f"neuralbeam.{kind}_us": "us" for kind in LAYER_KINDS},
    "neuralbeam.step_flops": "flop",
    "neuralbeam.step_bytes": "bytes",
    "neuralbeam.predict_s": "s",
    "neuralbeam.checkpoint_load_s": "s",
    "neuralbeam.checkpoint_write_s": "s",
    "neuralbeam.checkpoint_bytes": "bytes",
    "fingerprint.build_s": "s",
    "fingerprint.bins": "count",
    "fingerprint.queries": "count",
    "fingerprint.fallbacks": "count",
    "fingerprint.query_s": "s",
    "fingerprint.query_us_p50": "us",
    "fingerprint.query_us_p99": "us",
    "fingerprint.save_s": "s",
    "evalmetrics.score_s": "s",
    "evalmetrics.write_s": "s",
    "experiment.resolve_s": "s",
    "experiment.repeat_s": "s",
    "cli.config_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
    "trace.spans": "count",
}

"""Top-M accuracy and received-power ratio of ranked candidate arrays.

A predictor's answer for n samples is an (n, M) integer array of beam
indices, best first; equal-length lists of lists are accepted too. Two
accuracy variants are computed side by side. The inclusion variant counts a
sample as correct when its ground-truth beam appears anywhere in its row of
candidates; this is the headline number. The literal variant averages
|{truth} /\\ candidates| / M instead, which divides the single possible hit
by M and therefore cannot exceed 1/M; it is reported so the two definitions
can be compared directly. They coincide at M = 1.

Per-sample values are summed in row order with Python floats, so every mean is
the one a per-sample loop over the same candidates gives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import LengthMismatchError, ZeroGroundTruthPowerError
from .ingest import Dataset


def _check_lengths(
    preds: np.ndarray, truths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``preds`` as an (n, M) array and ``truths`` as (n,), checked to pair up."""
    preds, truths = np.asarray(preds), np.asarray(truths)
    if preds.ndim != 2:
        raise ValueError(f"candidates must be an (n, M) array, got shape {preds.shape}")
    if len(preds) != len(truths):
        raise LengthMismatchError(
            f"{len(preds)} candidate rows vs {len(truths)} ground truths"
        )
    if len(preds) == 0:
        raise LengthMismatchError("need at least one sample")
    return preds, truths


def _hits(preds: np.ndarray, truths: np.ndarray) -> np.ndarray:
    return (preds == truths[:, None]).any(axis=1)


def _mean(values: np.ndarray) -> float:
    # a Python sum in row order adds exactly as a per-sample loop does
    return sum(values.tolist()) / len(values)


def topm_accuracy_inclusion(preds: np.ndarray, truths: np.ndarray) -> float:
    """Fraction of samples whose ground-truth beam appears among its candidates."""
    preds, truths = _check_lengths(preds, truths)
    return int(_hits(preds, truths).sum()) / len(truths)


def topm_accuracy_literal(preds: np.ndarray, truths: np.ndarray) -> float:
    """Mean of |{truth} intersect candidates| / M per sample."""
    preds, truths = _check_lengths(preds, truths)
    return _mean(_hits(preds, truths) / preds.shape[1])


def received_power_ratio(
    preds: np.ndarray, power_vectors: np.ndarray, truths: np.ndarray
) -> float:
    """Mean of (best candidate power) / (ground-truth beam power).

    The numerator models the post-prediction mini-sweep: the link measures the
    M candidates and keeps the strongest. ``power_vectors`` is (n, Q).
    """
    preds, truths = _check_lengths(preds, truths)
    powers = np.asarray(power_vectors, dtype=np.float64)
    if len(powers) != len(truths):
        raise LengthMismatchError(
            f"{len(powers)} power vectors vs {len(truths)} ground truths"
        )
    rows = np.arange(len(truths))
    gt_power = powers[rows, truths]
    if (gt_power == 0.0).any():
        raise ZeroGroundTruthPowerError(
            "ground-truth beam has zero power; ratio undefined"
        )
    return _mean(powers[rows[:, None], preds].max(axis=1) / gt_power)


@dataclass(frozen=True)
class EvaluationReport:
    """Per-M metrics for one predictor on one test set."""

    predictor: str
    n_test: int
    m_values: tuple[int, ...]
    accuracy_inclusion: tuple[float, ...]
    accuracy_literal: tuple[float, ...]
    power_ratio: tuple[float, ...]


def evaluate_predictions(
    predictor: str,
    preds: np.ndarray,
    test: Dataset,
    m_values: Sequence[int],
) -> EvaluationReport:
    """Score ranked candidates at every M by taking the first M columns.

    ``preds`` is (n, at least max(m_values)), ranked best first.
    """
    if not m_values:
        raise ValueError("m_values must be non-empty")
    if any(not 1 <= m <= test.codebook_size for m in m_values):
        raise ValueError(f"every M must lie in [1, {test.codebook_size}]")
    preds = np.asarray(preds)
    if preds.ndim != 2 or preds.shape[1] < max(m_values):
        raise ValueError(
            f"need {max(m_values)} ranked candidates per sample, got shape {preds.shape}"
        )
    acc_inc, acc_lit, ratio = [], [], []
    for m in m_values:
        prefix = preds[:, :m]
        acc_inc.append(topm_accuracy_inclusion(prefix, test.best))
        acc_lit.append(topm_accuracy_literal(prefix, test.best))
        ratio.append(received_power_ratio(prefix, test.powers, test.best))
    return EvaluationReport(
        predictor=predictor,
        n_test=len(test),
        m_values=tuple(int(m) for m in m_values),
        accuracy_inclusion=tuple(acc_inc),
        accuracy_literal=tuple(acc_lit),
        power_ratio=tuple(ratio),
    )


def build_report(
    model_preds: np.ndarray,
    baseline_preds: np.ndarray,
    test: Dataset,
    m_values: Sequence[int] = (1, 5, 9, 13),
) -> tuple[EvaluationReport, EvaluationReport]:
    """Score the model's and the baseline's candidate arrays on the same test set."""
    return (
        evaluate_predictions("model", model_preds, test, m_values),
        evaluate_predictions("baseline", baseline_preds, test, m_values),
    )


@dataclass(frozen=True)
class ReportRow:
    """One aggregated metric value: mean and stddev across repeats."""

    predictor: str
    metric: str  # "accuracy" | "power_ratio"
    variant: str  # "inclusion" | "literal" | "-"
    m: int
    mean: float
    stddev: float


def aggregate_reports(reports: Sequence[EvaluationReport]) -> list[ReportRow]:
    """Mean/stddev over repeated reports of the same predictor and m_values.

    Population stddev, so a single repeat yields 0.0.
    """
    if not reports:
        raise ValueError("no reports to aggregate")
    first = reports[0]
    if any(
        r.predictor != first.predictor or r.m_values != first.m_values
        for r in reports
    ):
        raise ValueError("reports must share predictor and m_values")
    rows = []
    series = {
        ("accuracy", "inclusion"): [r.accuracy_inclusion for r in reports],
        ("accuracy", "literal"): [r.accuracy_literal for r in reports],
        ("power_ratio", "-"): [r.power_ratio for r in reports],
    }
    for (metric, variant), values in series.items():
        arr = np.array(values)  # (repeats, n_m)
        for j, m in enumerate(first.m_values):
            rows.append(
                ReportRow(
                    predictor=first.predictor,
                    metric=metric,
                    variant=variant,
                    m=m,
                    mean=float(arr[:, j].mean()),
                    stddev=float(arr[:, j].std()),
                )
            )
    return rows


def write_report_csv(rows: Sequence[ReportRow], path: str | Path) -> Path:
    path = Path(path)
    lines = ["predictor,metric,variant,M,mean,stddev"]
    lines += [
        f"{r.predictor},{r.metric},{r.variant},{r.m},{r.mean!r},{r.stddev!r}"
        for r in rows
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_report_json(
    rows: Sequence[ReportRow], path: str | Path, meta: dict | None = None
) -> Path:
    doc = {
        "meta": meta or {},
        "rows": [
            {
                "predictor": r.predictor,
                "metric": r.metric,
                "variant": r.variant,
                "M": r.m,
                "mean": r.mean,
                "stddev": r.stddev,
            }
            for r in rows
        ],
    }
    path = Path(path)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
    return path


_SVG_COLORS = {"model": "#1f77b4", "baseline": "#ff7f0e"}


def write_report_svg(rows: Sequence[ReportRow], path: str | Path) -> Path:
    """Two grouped bar panels (inclusion accuracy, power ratio) vs M."""
    panels = [
        ("Top-M accuracy (inclusion)", "accuracy", "inclusion"),
        ("Received power ratio", "power_ratio", "-"),
    ]
    m_values = sorted({r.m for r in rows})
    predictors = sorted({r.predictor for r in rows})
    width, height, margin = 460, 260, 45
    panel_gap = 30
    total_w = 2 * width + panel_gap + 2 * margin
    total_h = height + 2 * margin + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" '
        f'height="{total_h}" font-family="sans-serif" font-size="11">'
    ]
    lookup = {(r.predictor, r.metric, r.variant, r.m): r.mean for r in rows}
    for p, (title, metric, variant) in enumerate(panels):
        x0 = margin + p * (width + panel_gap)
        y0 = margin
        parts.append(
            f'<text x="{x0 + width / 2:.1f}" y="{y0 - 14}" '
            f'text-anchor="middle" font-size="13">{title}</text>'
        )
        parts.append(
            f'<rect x="{x0}" y="{y0}" width="{width}" height="{height}" '
            f'fill="none" stroke="#999"/>'
        )
        for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
            y = y0 + height * (1 - tick)
            parts.append(
                f'<line x1="{x0}" y1="{y:.1f}" x2="{x0 + width}" y2="{y:.1f}" '
                f'stroke="#ddd"/>'
            )
            parts.append(
                f'<text x="{x0 - 6}" y="{y + 4:.1f}" text-anchor="end">{tick:g}</text>'
            )
        group_w = width / max(len(m_values), 1)
        bar_w = group_w / (len(predictors) + 1)
        for gi, m in enumerate(m_values):
            gx = x0 + gi * group_w
            parts.append(
                f'<text x="{gx + group_w / 2:.1f}" y="{y0 + height + 16}" '
                f'text-anchor="middle">M={m}</text>'
            )
            for pi, predictor in enumerate(predictors):
                value = lookup.get((predictor, metric, variant, m))
                if value is None:
                    continue
                bar_h = height * max(min(value, 1.0), 0.0)
                bx = gx + bar_w * (pi + 0.5)
                by = y0 + height - bar_h
                color = _SVG_COLORS.get(predictor, "#555")
                parts.append(
                    f'<rect x="{bx:.2f}" y="{by:.2f}" width="{bar_w:.2f}" '
                    f'height="{bar_h:.2f}" fill="{color}">'
                    f"<title>{predictor} M={m}: {value:.6f}</title></rect>"
                )
    for pi, predictor in enumerate(predictors):
        color = _SVG_COLORS.get(predictor, "#555")
        lx = margin + pi * 120
        ly = total_h - 12
        parts.append(f'<rect x="{lx}" y="{ly - 10}" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="{lx + 18}" y="{ly}">{predictor}</text>')
    parts.append("</svg>")
    path = Path(path)
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return path

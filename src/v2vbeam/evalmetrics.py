"""Top-M accuracy and received-power ratio for arbitrary candidate lists.

Two accuracy variants are computed side by side. The inclusion variant counts
a sample as correct when its ground-truth beam appears anywhere in the
candidate list; this is the headline number. The literal variant averages
|{truth} /\\ candidates| / |candidates| instead, which divides the single
possible hit by M and therefore cannot exceed 1/M; it is reported so the two
definitions can be compared directly. They coincide at M = 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import LengthMismatchError, ZeroGroundTruthPowerError
from .ingest import Dataset

CandidateLists = Sequence[Sequence[int]]


def _check_lengths(preds: CandidateLists, truths: Sequence[int]) -> None:
    if len(preds) != len(truths):
        raise LengthMismatchError(
            f"{len(preds)} candidate lists vs {len(truths)} ground truths"
        )
    if len(preds) == 0:
        raise LengthMismatchError("need at least one sample")


def topm_accuracy_inclusion(preds: CandidateLists, truths: Sequence[int]) -> float:
    """Fraction of samples whose ground-truth beam appears in its candidate list."""
    _check_lengths(preds, truths)
    hits = sum(1 for cands, truth in zip(preds, truths) if truth in cands)
    return hits / len(truths)


def topm_accuracy_literal(preds: CandidateLists, truths: Sequence[int]) -> float:
    """Mean of |{truth} intersect candidates| / |candidates| per sample."""
    _check_lengths(preds, truths)
    total = sum(
        (1.0 if truth in cands else 0.0) / len(cands)
        for cands, truth in zip(preds, truths)
    )
    return total / len(truths)


def received_power_ratio(
    preds: CandidateLists,
    power_vectors: Sequence[np.ndarray],
    truths: Sequence[int],
) -> float:
    """Mean of (best candidate power) / (ground-truth beam power).

    The numerator models the post-prediction mini-sweep: the link measures the
    M candidates and keeps the strongest.
    """
    _check_lengths(preds, truths)
    if len(power_vectors) != len(truths):
        raise LengthMismatchError(
            f"{len(power_vectors)} power vectors vs {len(truths)} ground truths"
        )
    total = 0.0
    for cands, powers, truth in zip(preds, power_vectors, truths):
        gt_power = float(powers[truth])
        if gt_power == 0.0:
            raise ZeroGroundTruthPowerError(
                "ground-truth beam has zero power; ratio undefined"
            )
        total += max(float(powers[i]) for i in cands) / gt_power
    return total / len(truths)


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
    preds: CandidateLists,
    test: Dataset,
    m_values: Sequence[int],
) -> EvaluationReport:
    """Score full candidate lists at every M by taking length-M prefixes.

    ``preds`` must hold at least max(m_values) candidates per sample, ranked
    best first.
    """
    if not m_values:
        raise ValueError("m_values must be non-empty")
    if any(not 1 <= m <= test.codebook_size for m in m_values):
        raise ValueError(f"every M must lie in [1, {test.codebook_size}]")
    truths = test.best.tolist()
    powers = test.powers
    acc_inc, acc_lit, ratio = [], [], []
    for m in m_values:
        prefix = [list(c[:m]) for c in preds]
        acc_inc.append(topm_accuracy_inclusion(prefix, truths))
        acc_lit.append(topm_accuracy_literal(prefix, truths))
        ratio.append(received_power_ratio(prefix, powers, truths))
    return EvaluationReport(
        predictor=predictor,
        n_test=len(truths),
        m_values=tuple(int(m) for m in m_values),
        accuracy_inclusion=tuple(acc_inc),
        accuracy_literal=tuple(acc_lit),
        power_ratio=tuple(ratio),
    )


def build_report(
    model_preds: CandidateLists,
    baseline_preds: CandidateLists,
    test: Dataset,
    m_values: Sequence[int] = (1, 5, 9, 13),
) -> tuple[EvaluationReport, EvaluationReport]:
    """Score the model and the baseline on the same test set."""
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

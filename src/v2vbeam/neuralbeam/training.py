"""Training loop: feature assembly, seeded epochs, history tracking."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import EmptyDatasetError, TrainingDivergedError
from ..geodata import NormalizationParams, normalize_points
from ..ingest import Dataset, Rows
from .model import (
    LayerSpec,
    ModelParams,
    backward,
    init_params,
    input_length_for_mode,
    score_chunks,
)
from .optim import AdamState, TrainingConfig, adam_step

log = logging.getLogger(__name__)

def dataset_features(
    ds: Dataset, norm: NormalizationParams, input_mode: str = "tx", rows: Rows = slice(None)
) -> np.ndarray:
    """Normalized position sequences of ``ds``'s ``rows``, shape (n, 1, 2) or (n, 1, 4);
    only their tx fixes are read, and their rx fixes in "both" mode."""
    length = input_length_for_mode(input_mode)
    points = ds.tx[rows]
    if input_mode == "both":
        rx = ds.rx[rows]
        if np.isnan(rx).any():
            raise ValueError("input_mode 'both' needs rx positions in the dataset")
        points = np.concatenate([points, rx], axis=1).reshape(-1, 2)
    return normalize_points(points, norm).reshape(-1, 1, length)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_top1: float


def top1_accuracy(
    params: ModelParams, spec: LayerSpec, x: np.ndarray, labels: np.ndarray
) -> float:
    if len(labels) == 0:
        return float("nan")
    return float(np.mean(score_chunks(params, spec, x, lambda p: np.argmax(p, axis=1)) == labels))


def train(
    x_train: np.ndarray, y_train: np.ndarray, x_val: np.ndarray, y_val: np.ndarray,
    spec: LayerSpec, config: TrainingConfig, seed: int,
) -> tuple[ModelParams, list[EpochRecord]]:
    """Train from a seeded init on features ``x_train`` (as ``dataset_features``
    makes them) and labels ``y_train``; returns final-epoch weights and per-epoch
    history, with top-1 accuracy on ``x_val``/``y_val`` after each epoch.

    Weight init and the per-epoch shuffles all come from one generator seeded
    with ``seed``, the run seed, so a rerun reproduces the history bit for bit. No
    early stopping: validation accuracy is recorded but never used for
    selection. Every step's gradients are written into one buffer. Raises
    TrainingDivergedError after an epoch whose loss exceeds 2 ln(classes),
    twice a uniform guess's, or which leaves a loss or parameter not finite.
    """
    if len(y_train) == 0:
        raise EmptyDatasetError("cannot train on an empty dataset")
    rng = np.random.default_rng(seed)
    params = init_params(spec, rng)
    state = AdamState.zeros(params)
    grads = ModelParams(spec, np.empty(params.flat.size))
    n = len(y_train)
    loss_bound = 2 * math.log(spec.classes)
    history: list[EpochRecord] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grads = backward(params, spec, x_train[batch], y_train[batch], grads)
            params, state = adam_step(params, grads, state, config)
            loss_sum += loss * len(batch)
        record = EpochRecord(
            epoch=epoch,
            train_loss=loss_sum / n,
            val_top1=top1_accuracy(params, spec, x_val, y_val),
        )
        history.append(record)
        log.info(
            "epoch %d: train_loss=%.6f val_top1=%.4f",
            record.epoch,
            record.train_loss,
            record.val_top1,
        )
        finite = bool(np.isfinite(params.flat).all())
        if not (finite and record.train_loss <= loss_bound):  # false for a NaN loss too
            raise TrainingDivergedError(
                f"training diverged at epoch {epoch}: loss {record.train_loss!r} "
                f"(bound 2 ln({spec.classes}) = {loss_bound:.4f}), parameters finite: {finite}"
            )
    return params, history


def write_history(history: list[EpochRecord], path: str | Path) -> Path:
    path = Path(path)
    lines = ["epoch,train_loss,val_top1"]
    lines += [
        f"{r.epoch},{r.train_loss!r},{r.val_top1!r}" for r in history
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path

"""Model definition: spec, parameters, forward/backward, top-M prediction.

The classifier maps a short position sequence to beam probabilities:
three conv blocks (conv -> ReLU -> maxpool), flatten, a hidden dense layer
with ReLU, an output dense layer, softmax. Defaults follow the smallest
conventional ladder that keeps a length-2 input valid through all blocks.

Every ``ModelParams`` keeps its tensors as views into one float64 vector,
``flat``, and :func:`backward` returns its gradients in the same layout, so
the optimizer updates all parameters with a few whole-vector operations.

Prediction works on whole batches: :func:`predict_top_m_batch` ranks the
rows into an (n, M) integer array of beam indices, best first, the candidate
array that ``evalmetrics`` scores. A forward pass without backward caches
scores 512 rows at a time, and each such chunk is ranked as it is scored, so
validation and test scoring stay small in memory.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import floatrepr
from ..errors import (
    ConfigError, ShapeMismatchError, config_section, load_json, read_config, read_object,
)
from ..geodata import NormalizationParams
from . import layers


@dataclass(frozen=True)
class ConvBlockSpec:
    out_channels: int
    kernel: int = 3
    pool: int = 2

    def __post_init__(self):
        for name in ("out_channels", "kernel", "pool"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def padding(self) -> int:
        return self.kernel // 2


@dataclass(frozen=True)
class LayerSpec:
    """Architecture hyperparameters; immutable and checkpoint-serializable."""

    in_channels: int = 1
    in_length: int = 2
    conv_blocks: tuple[ConvBlockSpec, ...] = (
        ConvBlockSpec(32),
        ConvBlockSpec(64),
        ConvBlockSpec(128),
    )
    dense_widths: tuple[int, ...] = (256, 64)
    classes: int = 64

    def __post_init__(self):
        if not self.conv_blocks:
            raise ValueError("need at least one conv block")
        if not self.dense_widths or self.dense_widths[-1] != self.classes:
            raise ValueError("last dense width must equal the number of classes")
        if min(self.in_channels, self.in_length, self.classes) < 1:
            raise ValueError("all spec counts must be >= 1")
        if min(self.dense_widths) < 1:
            raise ValueError("dense widths must be >= 1")
        self.flatten_size()  # rejects shapes the conv ladder cannot carry

    def feature_shapes(self) -> list[tuple[int, int]]:
        """(channels, length) after each conv block."""
        shapes = []
        channels, length = self.in_channels, self.in_length
        for block in self.conv_blocks:
            length = length + 2 * block.padding - block.kernel + 1
            if length < 1:
                raise ValueError(
                    f"kernel {block.kernel} does not fit length {length} features"
                )
            length = -(-length // block.pool)
            channels = block.out_channels
            shapes.append((channels, length))
        return shapes

    def flatten_size(self) -> int:
        channels, length = self.feature_shapes()[-1]
        return channels * length


class ModelParams:
    """All learnable tensors, ordered to match the spec's layers.

    The constructor copies the tensors into one float64 vector, ``flat``, in
    :meth:`arrays` order, and every tensor attribute is a view into it: the
    optimizer updates ``flat`` in place, and a write through any tensor is a
    write to ``flat``.
    """

    conv_weights: list[np.ndarray]  # each (C_out, C_in, K)
    conv_biases: list[np.ndarray]  # each (C_out,)
    dense_weights: list[np.ndarray]  # each (n_out, n_in)
    dense_biases: list[np.ndarray]  # each (n_out,)

    def __init__(self, conv_weights, conv_biases, dense_weights, dense_biases):
        pairs = [*zip(conv_weights, conv_biases), *zip(dense_weights, dense_biases)]
        arrays = [a for pair in pairs for a in pair]
        self.flat = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
        views, offset = [], 0
        for a in arrays:
            views.append(self.flat[offset : offset + np.size(a)].reshape(np.shape(a)))
            offset += np.size(a)
        n = 2 * len(conv_weights)
        self.conv_weights, self.conv_biases = views[0:n:2], views[1:n:2]
        self.dense_weights, self.dense_biases = views[n::2], views[n + 1 :: 2]

    def __reduce__(self):
        # pickle the tensors, not ``flat`` beside copies of its views
        return (
            ModelParams,
            (self.conv_weights, self.conv_biases, self.dense_weights, self.dense_biases),
        )

    def arrays(self) -> list[np.ndarray]:
        return [a for _, a in self.named_arrays()]

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        names: list[tuple[str, np.ndarray]] = []
        for i, (w, b) in enumerate(zip(self.conv_weights, self.conv_biases)):
            names += [(f"conv{i}.weight", w), (f"conv{i}.bias", b)]
        for i, (w, b) in enumerate(zip(self.dense_weights, self.dense_biases)):
            names += [(f"dense{i}.weight", w), (f"dense{i}.bias", b)]
        return names

    @staticmethod
    def from_arrays(arrays: list[np.ndarray], n_conv: int) -> "ModelParams":
        """Params over copies of ``arrays``, in arrays() order, with ``n_conv`` conv layers."""
        n = 2 * n_conv
        return ModelParams(arrays[0:n:2], arrays[1:n:2], arrays[n::2], arrays[n + 1 :: 2])

    def with_arrays(self, arrays: list[np.ndarray]) -> "ModelParams":
        """The same structure over copies of ``arrays`` (in arrays() order)."""
        return ModelParams.from_arrays(arrays, len(self.conv_weights))


def tensor_shapes(spec: LayerSpec) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of each of ``spec``'s tensors, in ModelParams.arrays() order:
    each layer's weight, (C_out, C_in, K) or (n_out, n_in), then its bias."""
    c_in = [spec.in_channels] + [b.out_channels for b in spec.conv_blocks]
    n_in = [spec.flatten_size(), *spec.dense_widths]
    weights = [
        (f"conv{i}", (b.out_channels, c_in[i], b.kernel)) for i, b in enumerate(spec.conv_blocks)
    ]
    weights += [(f"dense{i}", (width, n_in[i])) for i, width in enumerate(spec.dense_widths)]
    shapes = []
    for layer, weight in weights:
        shapes += [(f"{layer}.weight", weight), (f"{layer}.bias", weight[:1])]
    return shapes


def init_params(spec: LayerSpec, rng: np.random.Generator) -> ModelParams:
    """Uniform init in +-1/sqrt(fan_in) per layer, a weight and then its bias;
    bounded so the first-epoch loss starts near log(classes)."""
    arrays = []
    for name, shape in tensor_shapes(spec):
        if name.endswith(".weight"):
            bound = 1.0 / np.sqrt(math.prod(shape[1:]))
        arrays.append(rng.uniform(-bound, bound, shape))
    return ModelParams.from_arrays(arrays, len(spec.conv_blocks))


def _check_input(spec: LayerSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1:] != (spec.in_channels, spec.in_length):
        raise ShapeMismatchError(
            f"input {x.shape} != (batch, {spec.in_channels}, {spec.in_length})"
        )
    return x


# rows per scoring pass: a multiple of the 128-row training batch (on OpenBLAS
# such chunks give every row the bits of one pass over all rows), and few
# enough that scoring a 4,000-row part never sets the process's peak memory
_SCORE_ROWS = 4 * 128


def forward_batch(
    params: ModelParams, spec: LayerSpec, x: np.ndarray, caches: list | None = None
) -> np.ndarray:
    """Probabilities for a batch, shape (B, classes).

    Each layer's backward inputs (conv columns, ReLU masks, pooling argmaxes,
    dense inputs) are appended to ``caches`` when a list is given, as
    :func:`backward` does. Without one they are dropped as soon as the next
    layer has them, and the rows are scored _SCORE_ROWS at a time, so scoring
    a large batch holds about two layers of one chunk at a time.
    """
    if caches is None and len(x) > _SCORE_ROWS:
        return np.concatenate([
            forward_batch(params, spec, x[start : start + _SCORE_ROWS])
            for start in range(0, len(x), _SCORE_ROWS)
        ])
    h = _check_input(spec, x)
    for block, w, b in zip(spec.conv_blocks, params.conv_weights, params.conv_biases):
        pre, cols = layers.conv1d_forward(h, w, b, block.padding)
        act, mask = layers.relu_forward(pre)
        del pre
        h, argmax = layers.maxpool1d_forward(act, block.pool)
        if caches is not None:
            caches.append((cols, mask, argmax, act.shape[2]))
        del cols, act, mask, argmax
    h = h.reshape(h.shape[0], -1)
    if h.shape[1] != spec.flatten_size():
        raise ShapeMismatchError(
            f"flattened width {h.shape[1]} != spec {spec.flatten_size()}"
        )
    for i, (w, b) in enumerate(zip(params.dense_weights, params.dense_biases)):
        h, x_in = layers.dense_forward(h, w, b)
        mask = None
        if i < len(params.dense_weights) - 1:
            h, mask = layers.relu_forward(h)
        if caches is not None:
            caches.append((x_in, mask))
        del x_in, mask
    return layers.softmax(h)


def backward(
    params: ModelParams, spec: LayerSpec, x: np.ndarray, labels: np.ndarray
) -> tuple[float, ModelParams]:
    """Mean cross-entropy over the batch and its gradient for every tensor.

    Uses the softmax/cross-entropy identity d_logits = probs - one_hot, exact
    wherever the loss's 1e-12 probability floor is inactive.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != np.shape(x)[0] or labels.shape[0] == 0:
        raise ShapeMismatchError("labels must be a non-empty vector matching the batch")
    caches: list = []
    probs = forward_batch(params, spec, x, caches)
    loss = layers.cross_entropy_batch(probs, labels)
    batch = len(labels)
    d_logits = probs.copy()
    d_logits[np.arange(batch), labels] -= 1.0
    d_logits /= batch

    # gradients are collected last layer first and reversed at the end
    dense_w, dense_b, conv_w, conv_b = [], [], [], []
    d_h = d_logits
    for w in reversed(params.dense_weights):
        x_in, mask = caches.pop()
        if mask is not None:
            d_h = layers.relu_backward(d_h, mask)
        d_h, d_w, d_b = layers.dense_backward(d_h, x_in, w)
        dense_w.append(d_w)
        dense_b.append(d_b)
    d_h = d_h.reshape(caches[-1][2].shape)  # the last pooled output's shape
    for block, w in zip(reversed(spec.conv_blocks), reversed(params.conv_weights)):
        cols, mask, argmax, pre_pool_len = caches.pop()
        d_h = layers.maxpool1d_backward(d_h, argmax, pre_pool_len)
        d_h = layers.relu_backward(d_h, mask)
        d_h, d_w, d_b = layers.conv1d_backward(d_h, cols, w, block.padding)
        conv_w.append(d_w)
        conv_b.append(d_b)
    return loss, ModelParams(conv_w[::-1], conv_b[::-1], dense_w[::-1], dense_b[::-1])


def predict_top_m_batch(
    params: ModelParams, spec: LayerSpec, x: np.ndarray, m: int
) -> np.ndarray:
    """Ranked candidates, shape (B, m): beam indices by descending probability,
    the lowest index first among ties.

    Each _SCORE_ROWS chunk is ranked as soon as it is scored, so only one
    chunk's probabilities and full ranking are held at a time.
    """

    def rank(rows: np.ndarray) -> np.ndarray:
        probs = forward_batch(params, spec, rows)
        return np.argsort(-probs, axis=1, kind="stable")[:, :m].copy()

    # an empty batch is one empty chunk, so it fails in forward_batch as it always has
    starts = range(0, max(len(x), 1), _SCORE_ROWS)
    return np.concatenate([rank(x[start : start + _SCORE_ROWS]) for start in starts])


CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class _Checkpoint:
    """A checkpoint document: ``tensors`` maps each tensor's name to its nested lists."""

    version: int
    seed: int
    spec: LayerSpec
    normalization: NormalizationParams
    tensors: dict
    input_mode: str = "tx"


def save_checkpoint(
    path: str | Path,
    params: ModelParams,
    spec: LayerSpec,
    norm: NormalizationParams,
    seed: int,
    input_mode: str = "tx",
) -> Path:
    """Single JSON document: version, spec, normalization, seed, all tensors.

    The bytes are those of ``json.dumps(doc, sort_keys=True)``. Each tensor is
    written a block of values at a time through ``floatrepr.format_floats``
    (``_write_tensor``), so the text of only one block is held at once.
    """
    doc = dataclasses.asdict(_Checkpoint(CHECKPOINT_VERSION, seed, spec, norm, {}, input_mode))
    head, _, tail = json.dumps(doc, sort_keys=True).partition('"tensors": {}')
    tensors = sorted(params.named_arrays(), key=lambda item: item[0])
    path = Path(path)
    with path.open("wb") as out:
        out.write(f'{head}"tensors": {{'.encode("utf-8"))
        for i, (name, arr) in enumerate(tensors):
            out.write(f"{', ' if i else ''}{json.dumps(name)}: ".encode("utf-8"))
            _write_tensor(out, arr)
        out.write(f"}}{tail}".encode("utf-8"))
    return path


def _write_tensor(out, arr: np.ndarray) -> None:
    """Write the bytes of ``json.dumps(arr.tolist())``.

    The separator after each value is the byte k + 1, where k is the number of
    the tensor's axes that end at that value; it becomes ", " for k = 0,
    "]" * k + ", " + "[" * k for an inner axis, and nothing after the last
    value. json.dumps writes a finite float as its repr and a non-finite one
    as NaN, Infinity or -Infinity.
    """
    values = arr.ravel()
    sizes = np.cumprod(arr.shape[::-1])  # values per slice along each axis
    joins = [b", "] + [b"]" * k + b", " + b"[" * k for k in range(1, arr.ndim)] + [b""]
    out.write(b"[" * arr.ndim)
    for start in range(0, len(values), floatrepr.BLOCK):
        block = values[start : start + floatrepr.BLOCK]
        ends = np.arange(start + 1, start + len(block) + 1)
        seps = 1 + (ends[:, None] % sizes == 0).sum(axis=1)
        text = floatrepr.format_floats(block, seps)
        for k, join in enumerate(joins):
            text = text.replace(bytes([k + 1]), join)
        out.write(text.replace(b"nan", b"NaN").replace(b"inf", b"Infinity"))
    out.write(b"]" * arr.ndim)


def load_checkpoint(
    path: str | Path,
) -> tuple[ModelParams, LayerSpec, NormalizationParams, dict]:
    """The params, spec, normalization and {"seed", "input_mode"} of a checkpoint.

    A version other than CHECKPOINT_VERSION is a ValueError; a malformed field,
    or a tensor whose name or shape the spec does not give, a ConfigError.
    """
    doc = read_object(load_json(path), "")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
    ckpt = read_config(_Checkpoint, doc, "")
    tensors, arrays = dict(ckpt.tensors), []
    for name, shape in tensor_shapes(ckpt.spec):
        if name not in tensors:
            raise ConfigError(f"tensors.{name}", "missing")
        with config_section(f"tensors.{name}"):
            arr = np.array(tensors.pop(name))
            if arr.shape != shape or arr.dtype.kind not in "if":
                raise ValueError(f"expected {shape} numbers, got {arr.shape} {arr.dtype}")
        arrays.append(arr)
    if tensors:
        raise ConfigError(f"tensors.{next(iter(tensors))}", "no such tensor")
    params = ModelParams.from_arrays(arrays, len(ckpt.spec.conv_blocks))
    meta = {"seed": ckpt.seed, "input_mode": ckpt.input_mode}
    return params, ckpt.spec, ckpt.normalization, meta

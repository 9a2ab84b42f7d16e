"""Model definition: spec, parameters, forward/backward, top-M prediction.

The classifier maps a short position sequence to beam probabilities:
three conv blocks (conv -> ReLU -> maxpool), flatten, a hidden dense layer
with ReLU, an output dense layer, softmax. Defaults follow the smallest
conventional ladder that keeps a length-2 input valid through all blocks.

A ``ModelParams`` is laid out from its spec alone: :func:`tensor_shapes`
names, shapes and orders the tensors, and each is a view into one float64
vector, ``flat``. :func:`init_params` and :func:`load_checkpoint` concatenate
their tensors into a fresh ``flat``, and :func:`backward` writes into the views
of the gradient buffer that training reuses every step (the dense layers'
products straight into them), so the gradients share the parameters' layout and
the optimizer updates all parameters with a few whole-vector operations. The
first conv block's input gradient, which nothing reads, is not computed. A
``TrainedModel`` (parameters, normalization, input mode and run seed) is what
training makes, a checkpoint holds and scoring takes.

Prediction works on whole batches: :func:`predict_top_m_batch` ranks the
rows into an (n, M) integer array of beam indices, best first, the candidate
array that ``evalmetrics`` scores. :func:`score_chunks` scores 128 rows, one
training batch, at a time and reduces each chunk (to its ranking, or to its
argmax for validation) as it is scored, so validation and test scoring hold no
more activations than a training step.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

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
    """All learnable tensors of ``spec``, as views into one float64 vector.

    ``flat`` (zeros when not given) holds the tensors in :func:`tensor_shapes`
    order, and every tensor is a view into it: the optimizer updates ``flat`` in
    place, and a write through any tensor is a write to ``flat``. The lists
    ``conv_weights``, ``conv_biases``, ``dense_weights`` and ``dense_biases``
    hold each kind's views, first layer first.
    """

    def __init__(self, spec: LayerSpec, flat: np.ndarray | None = None):
        shapes = tensor_shapes(spec)
        self.spec = spec
        self.flat = np.zeros(sum(math.prod(s) for _, s in shapes)) if flat is None else flat
        self._tensors, views, offset = [], {}, 0
        for name, shape in shapes:
            size = math.prod(shape)
            view = self.flat[offset : offset + size].reshape(shape)
            self._tensors.append((name, view))
            layer, kind = name.split(".")  # such as "conv0" and "weight"
            views.setdefault((layer.rstrip("0123456789"), kind), []).append(view)
            offset += size
        self.conv_weights, self.conv_biases = views["conv", "weight"], views["conv", "bias"]
        self.dense_weights, self.dense_biases = views["dense", "weight"], views["dense", "bias"]

    def __reduce__(self):
        # pickle ``flat`` alone, not copies of its views beside it
        return ModelParams, (self.spec, self.flat)

    def arrays(self) -> list[np.ndarray]:
        return [a for _, a in self._tensors]

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        return list(self._tensors)


def tensor_shapes(spec: LayerSpec) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of each of ``spec``'s tensors, in the order ``ModelParams.flat``
    holds them: each layer's weight, (C_out, C_in, K) or (n_out, n_in), then its bias."""
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
    # the vector is allocated after the draws, as in load_checkpoint (report: 0.4 MB)
    return ModelParams(spec, np.concatenate([a.ravel() for a in arrays]))


INPUT_MODES = ("tx", "both")


def input_length_for_mode(input_mode: str) -> int:
    """Model input length: 2 for the transmitter position, 4 for both ends."""
    if input_mode not in INPUT_MODES:
        raise ValueError(f"input_mode must be one of {INPUT_MODES}")
    return 2 if input_mode == "tx" else 4


@dataclass(frozen=True)
class TrainedModel:
    """A trained classifier with the input scaling, input mode and run seed it was trained with."""

    params: ModelParams
    norm: NormalizationParams
    input_mode: str
    seed: int

    @property
    def spec(self) -> LayerSpec:
        return self.params.spec


def _check_input(spec: LayerSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1:] != (spec.in_channels, spec.in_length):
        raise ShapeMismatchError(
            f"input {x.shape} != (batch, {spec.in_channels}, {spec.in_length})"
        )
    return x


# rows per scoring pass: the 128-row training batch (on OpenBLAS, chunks of a
# multiple of 128 rows give every row the bits of one pass over all rows), so
# scoring a part never holds more activations than a training step
_SCORE_ROWS = 128


def forward_batch(
    params: ModelParams, spec: LayerSpec, x: np.ndarray, caches: list | None = None
) -> np.ndarray:
    """Probabilities for a batch, shape (B, classes).

    Each layer's backward inputs (conv columns, ReLU masks, pooling argmaxes,
    dense inputs) are appended to ``caches`` when a list is given, as
    :func:`backward` does. Without one they are dropped as soon as the next
    layer has them, so a pass holds about two layers at a time.
    """
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
    params: ModelParams, spec: LayerSpec, x: np.ndarray, labels: np.ndarray,
    grads: ModelParams | None = None,
) -> tuple[float, ModelParams]:
    """Mean cross-entropy over the batch and its gradient for every tensor.

    Uses the softmax/cross-entropy identity d_logits = probs - one_hot, exact
    wherever the loss's 1e-12 probability floor is inactive. The gradients
    overwrite every tensor of ``grads`` when it is given (a training loop
    passes one buffer to every step), else of a new ``ModelParams``. The input
    gradient of the first conv block is not computed.
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

    # each layer's gradients go straight into their views, last layer first
    if grads is None:
        grads = ModelParams(spec, np.empty(params.flat.size))
    d_h = d_logits
    for i in reversed(range(len(params.dense_weights))):
        x_in, mask = caches.pop()
        if mask is not None:
            d_h = layers.relu_backward(d_h, mask)
        d_h, _, _ = layers.dense_backward(
            d_h, x_in, params.dense_weights[i], grads.dense_weights[i], grads.dense_biases[i]
        )
    d_h = d_h.reshape(caches[-1][2].shape)  # the last pooled output's shape
    for i in reversed(range(len(spec.conv_blocks))):
        cols, mask, argmax, pre_pool_len = caches.pop()
        d_h = layers.maxpool1d_backward(d_h, argmax, pre_pool_len)
        d_h = layers.relu_backward(d_h, mask)
        d_h, grads.conv_weights[i][...], grads.conv_biases[i][...] = layers.conv1d_backward(
            d_h, cols, params.conv_weights[i], spec.conv_blocks[i].padding, input_grad=i > 0
        )
    return loss, grads


def score_chunks(
    params: ModelParams, spec: LayerSpec, x: np.ndarray, reduce: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """``reduce`` of the probabilities of each _SCORE_ROWS chunk of ``x``, concatenated:
    only one chunk's probabilities are held at a time."""
    # an empty batch is one empty chunk, so it fails in forward_batch as it always has
    starts = range(0, max(len(x), 1), _SCORE_ROWS)
    return np.concatenate([
        reduce(forward_batch(params, spec, x[start : start + _SCORE_ROWS])) for start in starts
    ])


def predict_top_m_batch(
    params: ModelParams, spec: LayerSpec, x: np.ndarray, m: int
) -> np.ndarray:
    """Ranked candidates, shape (B, m): beam indices by descending probability,
    the lowest index first among ties; each chunk's full ranking is dropped as
    soon as its first ``m`` columns are copied."""
    return score_chunks(
        params, spec, x, lambda probs: np.argsort(-probs, axis=1, kind="stable")[:, :m].copy()
    )


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

    def __post_init__(self):
        if input_length_for_mode(self.input_mode) != self.spec.in_length:
            raise ValueError(f"input_mode {self.input_mode!r} does not fit spec.in_length")


def save_checkpoint(path: str | Path, model: TrainedModel) -> Path:
    """Single JSON document: version, spec, normalization, seed, input mode, all tensors.

    The bytes are those of ``json.dumps(doc, sort_keys=True)``. Each tensor is
    written a block of values at a time through ``floatrepr.format_floats``
    (``_write_tensor``), so the text of only one block is held at once.
    """
    ckpt = _Checkpoint(CHECKPOINT_VERSION, model.seed, model.spec, model.norm, {}, model.input_mode)
    doc = dataclasses.asdict(ckpt)
    head, _, tail = json.dumps(doc, sort_keys=True).partition('"tensors": {}')
    tensors = sorted(model.params.named_arrays(), key=lambda item: item[0])
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
        out.write(_tensor_text(values[start : start + floatrepr.BLOCK], start, sizes, joins))
    out.write(b"]" * arr.ndim)


def _tensor_text(block: np.ndarray, start: int, sizes: np.ndarray, joins: list) -> bytes:
    """The text ``_write_tensor`` writes for values start .. start + len(block) - 1."""
    seps = np.ones(len(block), np.uint8)
    for size in sizes:
        seps += np.arange(start + 1, start + len(block) + 1) % size == 0
    text = floatrepr.format_floats(block, seps)
    for k, join in enumerate(joins):
        text = text.replace(bytes([k + 1]), join)
    return text.replace(b"nan", b"NaN").replace(b"inf", b"Infinity")


def load_checkpoint(path: str | Path) -> TrainedModel:
    """The model a checkpoint holds.

    A version other than CHECKPOINT_VERSION is a ValueError; a malformed field,
    an input mode that is unknown or does not fit the spec's input length, a
    tensor whose name or shape the spec does not give, or a tensor value that is
    not finite, a ConfigError.
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
            if not np.isfinite(arr).all():
                raise ValueError(f"expected finite numbers, got {arr[~np.isfinite(arr)][0]}")
        arrays.append(arr)
    if tensors:
        raise ConfigError(f"tensors.{next(iter(tensors))}", "no such tensor")
    # the vector is allocated after the reads: before them, eval's peak memory read 0.5 MB higher
    params = ModelParams(ckpt.spec, np.concatenate([a.ravel() for a in arrays], dtype=np.float64))
    return TrainedModel(params, ckpt.normalization, ckpt.input_mode, ckpt.seed)

"""Layer primitives with explicit forward/backward passes, batch-first numpy.

Tensor conventions: conv inputs are (batch, channels, length), dense inputs
are (batch, features). Forward functions return (output, cache); backward
functions consume the cache and the upstream gradient and return input and
parameter gradients. Everything is float64.

A conv layer contracts only the kernel taps that meet its input; the taps
that would read padding alone keep their weights, with a zero gradient. On a
length-1 input that leaves one tap, and the layer is one matrix product.
Max-pool backward passes the gradient through when every window holds one
element.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatchError

PROB_FLOOR = 1e-12


def _data_taps(length: int, kernel: int, padding: int) -> tuple[int, int]:
    """Kernel taps [lo, hi) that meet the input at some output position.

    Tap k reads padded positions k .. k + l_out - 1 and the data sits at
    padding .. padding + length - 1; every other tap multiplies only padding
    zeros (with kernel 3 and padding 1, a length-1 input leaves tap 1 alone).
    """
    l_out = length + 2 * padding - kernel + 1
    return max(0, padding - (l_out - 1)), min(kernel, length + padding)


def conv1d_forward(
    x: np.ndarray, weights: np.ndarray, bias: np.ndarray, padding: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cross-correlation per output channel plus bias.

    x (B, C_in, L), weights (C_out, C_in, K), bias (C_out,). Output length is
    L + 2*padding - K + 1. Returns (out, stacked input columns) for the
    backward pass. The kernel axis is unrolled into columns so the whole
    convolution is one BLAS contraction. Only the taps that meet the input
    are unrolled: the others would add products with padding zeros, which
    change no sum, though the BLAS may group the remaining terms otherwise.
    """
    if x.ndim != 3 or weights.ndim != 3 or x.shape[1] != weights.shape[1]:
        raise ShapeMismatchError(
            f"conv1d: input {x.shape} incompatible with weights {weights.shape}"
        )
    c_out, _, kernel = weights.shape
    if bias.shape != (c_out,):
        raise ShapeMismatchError(f"conv1d: bias {bias.shape} != ({c_out},)")
    batch, c_in, length = x.shape
    l_out = length + 2 * padding - kernel + 1
    if l_out < 1:
        raise ShapeMismatchError(
            f"conv1d: kernel {kernel} longer than padded length {length + 2 * padding}"
        )
    if length == 1 and l_out == 1:
        # only the middle tap meets the input: tensordot's one product, on the
        # same operand layouts, without the padding and the stacked copy
        cols = np.ascontiguousarray(x).reshape(batch, c_in, 1, 1)
        out = np.dot(weights[:, :, padding], cols[:, :, 0, 0].T).reshape(c_out, batch, 1)
    else:
        x_pad = np.zeros((batch, c_in, length + 2 * padding))
        x_pad[:, :, padding : padding + length] = x
        lo, hi = _data_taps(length, kernel, padding)
        cols = np.stack(
            [x_pad[:, :, k : k + l_out] for k in range(lo, hi)], axis=2
        )  # (B, C_in, taps, L_out)
        # (O, C*taps) x (B, C*taps, L_out) -> (O, B, L_out)
        out = np.tensordot(
            weights[:, :, lo:hi].reshape(c_out, -1),
            cols.reshape(cols.shape[0], -1, l_out),
            axes=([1], [1]),
        )
    out = out.transpose(1, 0, 2) + bias[None, :, None]
    return out, cols


def conv1d_backward(
    d_out: np.ndarray, cols: np.ndarray, weights: np.ndarray, padding: int,
    input_grad: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients w.r.t. conv input, weights, and bias.

    ``cols`` is the column cache from the forward pass. The taps it leaves
    out see only padding, so their weights get a zero gradient. The input
    gradient is None when ``input_grad`` is false (a first layer's is never read).
    """
    batch, c_in, _, l_out = cols.shape
    kernel = weights.shape[2]
    padded_len = l_out + kernel - 1
    length = padded_len - 2 * padding
    lo, hi = _data_taps(length, kernel, padding)
    d_w = np.zeros(weights.shape)
    d_b = d_out.sum(axis=(0, 2))
    if length == 1 and l_out == 1:
        # the one-tap products of the general path below, on the same operand layouts
        d_w[:, :, lo] = np.dot(d_out[:, :, 0].T, cols[:, :, 0, 0])
        if not input_grad:
            return None, d_w, d_b
        # + 0.0 as the zero-filled padded gradient adds it: no -0.0 passes
        d_x = np.dot(d_out[:, :, 0], weights[:, :, lo]) + 0.0
        return d_x.reshape(batch, c_in, 1), d_w, d_b
    # d_w[o,c,k] = sum_{b,l} d_out[b,o,l] * cols[b,c,k,l]
    d_w[:, :, lo:hi] = np.tensordot(d_out, cols, axes=([0, 2], [0, 3]))
    if not input_grad:
        return None, d_w, d_b
    # d_cols[b,c,k,l] = sum_o d_out[b,o,l] * weights[o,c,k]
    d_cols = np.tensordot(d_out, weights[:, :, lo:hi], axes=([1], [0]))  # (B, L, C, taps)
    d_cols = d_cols.transpose(0, 2, 3, 1)
    d_xpad = np.zeros((batch, c_in, padded_len))
    for k in range(lo, hi):
        d_xpad[:, :, k : k + l_out] += d_cols[:, :, k - lo, :]
    d_x = d_xpad[:, :, padding : padded_len - padding] if padding else d_xpad
    return d_x, d_w, d_b


def maxpool1d_forward(
    x: np.ndarray, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """Non-overlapping max pooling with a partial final window (ceiling mode).

    Returns (out, absolute argmax positions); a maximum repeated inside one
    window routes to its first occurrence. Inputs are post-ReLU activations
    and so hold no NaN, which the strict comparison below would never pick.
    """
    batch, channels, length = x.shape
    if length == 1 or window == 1:
        # every window holds one element
        argmax = np.empty(x.shape, dtype=np.intp)
        argmax[...] = np.arange(length)
        return x.copy(), argmax
    l_out = -(-length // window)
    padded = np.full((batch, channels, l_out * window), -np.inf)
    padded[:, :, :length] = x
    windows = padded.reshape(batch, channels, l_out, window)
    out = windows[..., 0].copy()
    offset = np.zeros(out.shape, dtype=np.intp)
    for k in range(1, window):
        better = windows[..., k] > out
        np.copyto(out, windows[..., k], where=better)
        np.copyto(offset, k, where=better)
    return out, offset + np.arange(0, length, window)


def maxpool1d_backward(
    d_out: np.ndarray, argmax: np.ndarray, length: int
) -> np.ndarray:
    """Route each window's gradient to the position that produced its max.

    When every window holds one element, that is the gradient itself (copied).
    """
    if d_out.shape[2] == length:
        return d_out.copy()
    d_x = np.zeros((*d_out.shape[:2], length))
    b_idx = np.arange(d_out.shape[0])[:, None, None]
    c_idx = np.arange(d_out.shape[1])[None, :, None]
    # windows never overlap, so targets are unique and assignment is safe
    d_x[b_idx, c_idx, argmax] = d_out
    return d_x


def dense_forward(
    x: np.ndarray, weights: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Affine layer: x (B, n_in) @ weights (n_out, n_in)^T + bias."""
    if x.ndim != 2 or x.shape[1] != weights.shape[1]:
        raise ShapeMismatchError(
            f"dense: input {x.shape} incompatible with weights {weights.shape}"
        )
    return x @ weights.T + bias, x


def dense_backward(
    d_out: np.ndarray, x: np.ndarray, weights: np.ndarray,
    d_weights: np.ndarray | None = None, d_bias: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients w.r.t. input, weights and bias; the last two are written into
    ``d_weights`` and ``d_bias`` when given (such as a gradient buffer's views)."""
    return d_out @ weights, np.matmul(d_out.T, x, out=d_weights), d_out.sum(axis=0, out=d_bias)


def relu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mask = x > 0
    return np.where(mask, x, 0.0), mask


def relu_backward(d_out: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return np.where(mask, d_out, 0.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shift-stabilized."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def cross_entropy(probabilities: np.ndarray, true_index: int) -> float:
    """Negative log probability of the true class, floored at 1e-12."""
    return float(-np.log(max(float(probabilities[true_index]), PROB_FLOOR)))


def cross_entropy_batch(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy over a batch; probabilities (B, classes), labels (B,)."""
    picked = probabilities[np.arange(len(labels)), labels]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())

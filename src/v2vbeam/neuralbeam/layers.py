"""Layer primitives with explicit forward/backward passes, batch-first numpy.

Tensor conventions: conv inputs are (batch, channels, length), dense inputs
are (batch, features). Forward functions return (output, cache); backward
functions consume the cache and the upstream gradient and return input and
parameter gradients. Everything is float64.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatchError

PROB_FLOOR = 1e-12


def conv1d_forward(
    x: np.ndarray, weights: np.ndarray, bias: np.ndarray, padding: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cross-correlation per output channel plus bias.

    x (B, C_in, L), weights (C_out, C_in, K), bias (C_out,). Output length is
    L + 2*padding - K + 1. Returns (out, stacked input columns) for the
    backward pass. The kernel axis is unrolled into columns so the whole
    convolution is one BLAS contraction.
    """
    if x.ndim != 3 or weights.ndim != 3 or x.shape[1] != weights.shape[1]:
        raise ShapeMismatchError(
            f"conv1d: input {x.shape} incompatible with weights {weights.shape}"
        )
    c_out, _, kernel = weights.shape
    if bias.shape != (c_out,):
        raise ShapeMismatchError(f"conv1d: bias {bias.shape} != ({c_out},)")
    x_pad = np.pad(x, ((0, 0), (0, 0), (padding, padding))) if padding else x
    l_out = x_pad.shape[2] - kernel + 1
    if l_out < 1:
        raise ShapeMismatchError(
            f"conv1d: kernel {kernel} longer than padded length {x_pad.shape[2]}"
        )
    cols = np.stack(
        [x_pad[:, :, k : k + l_out] for k in range(kernel)], axis=2
    )  # (B, C_in, K, L_out)
    # (O, C*K) x (B, C*K, L_out) -> (O, B, L_out)
    out = np.tensordot(
        weights.reshape(c_out, -1),
        cols.reshape(cols.shape[0], -1, l_out),
        axes=([1], [1]),
    )
    out = out.transpose(1, 0, 2) + bias[None, :, None]
    return out, cols


def conv1d_backward(
    d_out: np.ndarray, cols: np.ndarray, weights: np.ndarray, padding: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients w.r.t. conv input, weights, and bias.

    ``cols`` is the stacked-column cache from the forward pass.
    """
    l_out = d_out.shape[2]
    kernel = weights.shape[2]
    # d_w[o,c,k] = sum_{b,l} d_out[b,o,l] * cols[b,c,k,l]
    d_w = np.tensordot(d_out, cols, axes=([0, 2], [0, 3]))
    d_b = d_out.sum(axis=(0, 2))
    # d_cols[b,c,k,l] = sum_o d_out[b,o,l] * weights[o,c,k]
    d_cols = np.tensordot(d_out, weights, axes=([1], [0]))  # (B, L, C, K)
    d_cols = d_cols.transpose(0, 2, 3, 1)
    padded_len = l_out + kernel - 1
    d_xpad = np.zeros((cols.shape[0], cols.shape[1], padded_len))
    for k in range(kernel):
        d_xpad[:, :, k : k + l_out] += d_cols[:, :, k, :]
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
    """Route each window's gradient to the position that produced its max."""
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
    d_out: np.ndarray, x: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return d_out @ weights, d_out.T @ x, d_out.sum(axis=0)


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

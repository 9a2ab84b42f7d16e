import math

import numpy as np
import pytest

from v2vbeam.errors import ShapeMismatchError
from v2vbeam.neuralbeam.layers import (
    conv1d_backward,
    conv1d_forward,
    cross_entropy,
    cross_entropy_batch,
    dense_forward,
    maxpool1d_backward,
    maxpool1d_forward,
    relu_backward,
    relu_forward,
    softmax,
)


def as3d(values):
    return np.asarray(values, dtype=float).reshape(1, 1, -1)


class TestConv1d:
    def test_hand_convolution_with_padding(self):
        # padded [0, 1, 2, 0] under kernel [1, 1, 1] -> [3, 3]
        out, _ = conv1d_forward(
            as3d([1.0, 2.0]), np.ones((1, 1, 3)), np.zeros(1), padding=1
        )
        assert np.allclose(out.ravel(), [3.0, 3.0])

    def test_identity_kernel(self):
        x = as3d([4.0, -1.0, 2.5])
        w = np.array([0.0, 1.0, 0.0]).reshape(1, 1, 3)
        out, _ = conv1d_forward(x, w, np.zeros(1), padding=1)
        assert np.allclose(out, x)

    def test_zero_weights_constant_bias(self):
        out, _ = conv1d_forward(
            as3d([1.0, 2.0, 3.0]), np.zeros((2, 1, 3)), np.array([5.0, -1.0]), padding=1
        )
        assert np.allclose(out[0, 0], 5.0)
        assert np.allclose(out[0, 1], -1.0)

    def test_output_length(self):
        x = np.zeros((2, 3, 7))
        w = np.zeros((4, 3, 3))
        out, _ = conv1d_forward(x, w, np.zeros(4), padding=2)
        assert out.shape == (2, 4, 7 + 4 - 3 + 1)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            conv1d_forward(np.zeros((1, 2, 5)), np.zeros((3, 1, 3)), np.zeros(3), 1)

    def test_kernel_longer_than_padded_input_rejected(self):
        with pytest.raises(ShapeMismatchError):
            conv1d_forward(np.zeros((1, 1, 2)), np.zeros((1, 1, 5)), np.zeros(1), 0)

    def test_backward_shapes(self):
        x = np.random.default_rng(0).normal(size=(2, 3, 6))
        w = np.random.default_rng(1).normal(size=(4, 3, 3))
        out, cols = conv1d_forward(x, w, np.zeros(4), padding=1)
        d_x, d_w, d_b = conv1d_backward(np.ones_like(out), cols, w, padding=1)
        assert d_x.shape == x.shape
        assert d_w.shape == w.shape
        assert d_b.shape == (4,)


class TestMaxPool1d:
    def test_simple_window(self):
        out, _ = maxpool1d_forward(as3d([3.0, 1.0]), 2)
        assert out.ravel().tolist() == [3.0]

    def test_partial_final_window(self):
        out, _ = maxpool1d_forward(as3d([5.0]), 2)
        assert out.ravel().tolist() == [5.0]

    def test_two_windows(self):
        out, _ = maxpool1d_forward(as3d([1.0, 4.0, 2.0, 2.0]), 2)
        assert out.ravel().tolist() == [4.0, 2.0]

    def test_ceiling_mode_length(self):
        out, _ = maxpool1d_forward(np.zeros((1, 1, 5)), 2)
        assert out.shape[2] == 3

    def test_backward_routes_to_argmax(self):
        x = as3d([1.0, 4.0, 2.0, 2.0])
        out, argmax = maxpool1d_forward(x, 2)
        d_x = maxpool1d_backward(np.array([[[1.0, 10.0]]]), argmax, 4)
        # second window ties at 2.0; gradient goes to the first occurrence
        assert d_x.ravel().tolist() == [0.0, 1.0, 10.0, 0.0]

    @staticmethod
    def window_loop(x, window):
        """Reference: one max/argmax reduction per window."""
        length = x.shape[2]
        l_out = -(-length // window)
        out = np.empty((*x.shape[:2], l_out))
        argmax = np.empty((*x.shape[:2], l_out), dtype=np.intp)
        for j in range(l_out):
            lo, hi = j * window, min((j + 1) * window, length)
            segment = x[:, :, lo:hi]
            out[:, :, j] = segment.max(axis=2)
            argmax[:, :, j] = lo + segment.argmax(axis=2)
        return out, argmax

    @pytest.mark.parametrize("length", range(1, 8))
    @pytest.mark.parametrize("window", (1, 2, 3))
    def test_matches_window_loop(self, length, window):
        # post-ReLU inputs: small integers clipped at zero tie often, at zero and above
        rng = np.random.default_rng(100 * length + window)
        x, _ = relu_forward(rng.integers(-3, 3, size=(5, 4, length)).astype(float))
        out, argmax = maxpool1d_forward(x, window)
        ref_out, ref_argmax = self.window_loop(x, window)
        assert out.shape == ref_out.shape and argmax.shape == ref_argmax.shape
        assert np.array_equal(out, ref_out)
        assert np.array_equal(argmax, ref_argmax)
        assert not np.shares_memory(out, x)


class TestDenseRelu:
    def test_dense_affine(self):
        x = np.array([[1.0, 2.0]])
        w = np.array([[3.0, 4.0], [0.5, -1.0]])
        out, _ = dense_forward(x, w, np.array([1.0, 0.0]))
        assert np.allclose(out, [[12.0, -1.5]])

    def test_dense_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            dense_forward(np.zeros((1, 3)), np.zeros((2, 4)), np.zeros(2))

    def test_relu_masks_negatives(self):
        out, mask = relu_forward(np.array([-1.0, 0.0, 2.0]))
        assert out.tolist() == [0.0, 0.0, 2.0]
        d = relu_backward(np.array([5.0, 5.0, 5.0]), mask)
        assert d.tolist() == [0.0, 0.0, 5.0]


class TestSoftmaxCrossEntropy:
    def test_softmax_is_distribution(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(0, 50, (10, 64))
        p = softmax(logits)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(p >= 0)

    def test_softmax_shift_invariance(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(softmax(logits), softmax(logits + 100.0))

    def test_certain_prediction_zero_loss(self):
        p = np.zeros(4)
        p[2] = 1.0
        assert cross_entropy(p, 2) == 0.0

    def test_uniform_64_is_ln_64(self):
        p = np.full(64, 1.0 / 64.0)
        assert cross_entropy(p, 10) == pytest.approx(math.log(64.0), abs=1e-9)

    def test_zero_probability_floored(self):
        p = np.zeros(4)
        p[0] = 1.0
        assert cross_entropy(p, 3) == pytest.approx(-math.log(1e-12), abs=1e-6)

    def test_batch_mean(self):
        probs = np.array([[0.5, 0.5], [1.0, 0.0]])
        loss = cross_entropy_batch(probs, np.array([0, 0]))
        assert loss == pytest.approx(-math.log(0.5) / 2.0, abs=1e-12)

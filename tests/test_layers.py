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


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == np.ascontiguousarray(b).tobytes()


def full_tap_conv1d_forward(x, weights, bias, padding, taps=None):
    """Reference: every kernel tap unrolled, the ones over padding included, or
    only the tap ``range`` given, as the layer's stacked-column path unrolls them."""
    c_out, _, kernel = weights.shape
    taps = range(kernel) if taps is None else taps
    x_pad = np.pad(x, ((0, 0), (0, 0), (padding, padding))) if padding else x
    l_out = x_pad.shape[2] - kernel + 1
    cols = np.stack([x_pad[:, :, k : k + l_out] for k in taps], axis=2)
    out = np.tensordot(
        weights[:, :, taps.start : taps.stop].reshape(c_out, -1),
        cols.reshape(cols.shape[0], -1, l_out),
        axes=([1], [1]),
    )
    return out.transpose(1, 0, 2) + bias[None, :, None], cols


def full_tap_conv1d_backward(d_out, cols, weights, padding, taps=None):
    l_out = d_out.shape[2]
    kernel = weights.shape[2]
    taps = range(kernel) if taps is None else taps
    d_w = np.zeros(weights.shape)
    d_w[:, :, taps.start : taps.stop] = np.tensordot(d_out, cols, axes=([0, 2], [0, 3]))
    d_b = d_out.sum(axis=(0, 2))
    d_cols = np.tensordot(
        d_out, weights[:, :, taps.start : taps.stop], axes=([1], [0])
    ).transpose(0, 2, 3, 1)
    padded_len = l_out + kernel - 1
    d_xpad = np.zeros((cols.shape[0], cols.shape[1], padded_len))
    for k in taps:
        d_xpad[:, :, k : k + l_out] += d_cols[:, :, k - taps.start, :]
    d_x = d_xpad[:, :, padding : padded_len - padding] if padding else d_xpad
    return d_x, d_w, d_b


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


class TestDataTaps:
    """The layer against a contraction of every kernel tap."""

    @pytest.mark.parametrize(
        "c_in, c_out, length",
        # the default spec's three blocks with tx input (length 2, 1, 1) and with both
        [(1, 32, 2), (32, 64, 1), (64, 128, 1), (1, 32, 4), (32, 64, 2)],
    )
    def test_default_spec_blocks_match_full_taps_bit_for_bit(self, c_in, c_out, length):
        rng = np.random.default_rng(c_in + length)
        x, _ = relu_forward(rng.normal(size=(128, c_in, length)))
        w = rng.uniform(-0.3, 0.3, (c_out, c_in, 3))
        b = rng.uniform(-0.1, 0.1, c_out)
        out, cols = conv1d_forward(x, w, b, 1)
        ref_out, ref_cols = full_tap_conv1d_forward(x, w, b, 1)
        # upstream gradients after a ReLU: exact zeros of both signs among them
        d_out, _ = relu_forward(rng.normal(size=out.shape))
        d_out[:, ::2] *= -1.0
        got = conv1d_backward(d_out, cols, w, 1)
        want = full_tap_conv1d_backward(d_out, ref_cols, w, 1)
        assert same_bits(out, ref_out)
        for g, r in zip(got, want):
            assert same_bits(g, r)

    def test_taps_over_padding_alone_get_zero_gradient(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 2, 1))
        w = rng.normal(size=(3, 2, 3))
        out, cols = conv1d_forward(x, w, np.zeros(3), 1)
        assert cols.shape == (4, 2, 1, 1)  # the middle tap only
        _, d_w, _ = conv1d_backward(rng.normal(size=out.shape), cols, w, 1)
        assert not d_w[:, :, [0, 2]].any()
        assert not np.signbit(d_w[:, :, [0, 2]]).any()

    @pytest.mark.parametrize("length", [1, 2])
    def test_skipped_input_gradient_leaves_the_parameter_gradients(self, length):
        rng = np.random.default_rng(40 + length)
        x = rng.normal(size=(7, 3, length))
        w = rng.normal(size=(5, 3, 3))
        out, cols = conv1d_forward(x, w, np.zeros(5), 1)
        d_out = rng.normal(size=out.shape)
        d_x, d_w, d_b = conv1d_backward(d_out, cols, w, 1)
        skipped = conv1d_backward(d_out, cols, w, 1, input_grad=False)
        assert d_x is not None and skipped[0] is None
        assert same_bits(skipped[1], d_w) and same_bits(skipped[2], d_b)

    def test_random_shapes_within_four_ulps_of_the_term_sum(self):
        # the general path contracts every tap, as the reference does, and gives
        # its bits; the one-tap product leaves out zero products, which can only
        # regroup the BLAS sums: its drift stays within 4 * eps * sum(|terms|)
        eps = np.finfo(float).eps
        rng = np.random.default_rng(300)
        cases = 0
        while cases < 300:
            kernel, padding, length = (int(v) for v in rng.integers(1, [6, 4, 7]))
            l_out = length + 2 * padding - kernel + 1
            if l_out < 1:
                continue
            cases += 1
            batch, c_in, c_out = (int(v) for v in rng.integers(1, 9, 3))
            x = rng.normal(size=(batch, c_in, length))
            w = rng.normal(size=(c_out, c_in, kernel))
            b = rng.normal(size=c_out)
            out, cols = conv1d_forward(x, w, b, padding)
            ref_out, ref_cols = full_tap_conv1d_forward(x, w, b, padding)
            d_out = rng.normal(size=ref_out.shape)
            got = (out, *conv1d_backward(d_out, cols, w, padding))
            want = (ref_out, *full_tap_conv1d_backward(d_out, ref_cols, w, padding))
            # the same contractions over absolute values bound each sum's error
            x, w, b, d_out = (np.abs(a) for a in (x, w, b, d_out))
            abs_out, abs_cols = full_tap_conv1d_forward(x, w, b, padding)
            scales = (abs_out, *full_tap_conv1d_backward(d_out, abs_cols, w, padding))
            for g, r, scale in zip(got, want, scales):
                if length == 1 and l_out == 1:
                    assert g.shape == r.shape
                    assert np.all(np.abs(g - r) <= 4 * eps * scale)
                else:
                    assert same_bits(g, r)


class TestOneTap:
    """A length-1 input meets the middle tap alone, and the layer is one product."""

    @pytest.mark.parametrize("c_in, c_out", [(32, 64), (64, 128)])  # default spec blocks 2, 3
    @pytest.mark.parametrize("batch", [1, 2, 7, 18, 96, 100, 127, 128, 129, 512])
    def test_matches_the_stacked_column_path_bit_for_bit(self, c_in, c_out, batch):
        rng = np.random.default_rng(batch * c_in)
        x, _ = relu_forward(rng.normal(size=(batch, c_in, 1)))
        w = rng.uniform(-0.3, 0.3, (c_out, c_in, 3))
        b = rng.uniform(-0.1, 0.1, c_out)
        out, cols = conv1d_forward(x, w, b, 1)
        ref_out, ref_cols = full_tap_conv1d_forward(x, w, b, 1, taps=range(1, 2))
        # the next layers see the same memory layout, not only the same values
        assert same_bits(out, ref_out) and out.strides == ref_out.strides
        d_out, _ = relu_forward(rng.normal(size=out.shape))
        d_out[:, ::2] *= -1.0
        # the upstream gradient in C order and in the conv output's own layout
        for d in (d_out, np.ascontiguousarray(d_out.transpose(1, 0, 2)).transpose(1, 0, 2)):
            got = conv1d_backward(d, cols, w, 1)
            want = full_tap_conv1d_backward(d, ref_cols, w, 1, taps=range(1, 2))
            for g, r in zip(got, want):
                assert same_bits(g, r)

    def test_caches_the_input_without_a_copy(self):
        x = np.random.default_rng(4).normal(size=(5, 2, 1))
        _, cols = conv1d_forward(x, np.ones((3, 2, 3)), np.zeros(3), 1)
        assert cols.shape == (5, 2, 1, 1) and np.shares_memory(cols, x)


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

    @pytest.mark.parametrize("length, window", [(1, 1), (1, 2), (1, 3), (4, 1), (5, 1)])
    def test_one_element_windows_pass_the_gradient_through(self, length, window):
        rng = np.random.default_rng(length + window)
        x, _ = relu_forward(rng.normal(size=(6, 4, length)))
        out, argmax = maxpool1d_forward(x, window)
        d_out = rng.normal(size=out.shape)
        d_out.flat[:2] = [-0.0, 0.0]
        d_x = maxpool1d_backward(d_out, argmax, length)
        # the scatter the general path does
        ref = np.zeros((6, 4, length))
        ref[np.arange(6)[:, None, None], np.arange(4)[None, :, None], argmax] = d_out
        assert same_bits(d_x, ref)
        assert not np.shares_memory(d_x, d_out)

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

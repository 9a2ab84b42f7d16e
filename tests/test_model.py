import json
import pickle
import tracemalloc

import numpy as np
import pytest

from v2vbeam.errors import ConfigError, ShapeMismatchError
from v2vbeam.geodata import NormalizationParams
from v2vbeam.neuralbeam import model
from v2vbeam.neuralbeam.layers import cross_entropy_batch, softmax
from v2vbeam.neuralbeam.model import (
    ConvBlockSpec,
    LayerSpec,
    ModelParams,
    TrainedModel,
    backward,
    forward_batch,
    init_params,
    load_checkpoint,
    predict_top_m_batch,
    save_checkpoint,
)
from v2vbeam.neuralbeam.training import top1_accuracy

SMALL = LayerSpec(
    in_channels=1,
    in_length=4,
    conv_blocks=(ConvBlockSpec(3, 3, 2), ConvBlockSpec(4, 3, 2)),
    dense_widths=(6, 5),
    classes=5,
)


def loss_only(params, spec, x, y):
    return cross_entropy_batch(forward_batch(params, spec, x), y)


def numeric_gradients(params, spec, x, y, h=1e-6):
    """Central finite differences over every scalar parameter."""
    out = []
    for arr in params.arrays():
        g = np.zeros_like(arr)
        flat, gflat = arr.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            upper = loss_only(params, spec, x, y)
            flat[i] = orig - h
            lower = loss_only(params, spec, x, y)
            flat[i] = orig
            gflat[i] = (upper - lower) / (2.0 * h)
        out.append(g)
    return out


def zero_params(spec):
    return ModelParams(spec)


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        err = np.abs(a - n) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        worst = max(worst, float(err.max()))
    return worst


class TestModelParams:
    def test_tensors_are_views_of_one_flat_vector(self):
        params = init_params(SMALL, np.random.default_rng(30))
        arrays = params.arrays()
        assert params.flat.dtype == np.float64
        assert params.flat.size == sum(a.size for a in arrays)
        assert np.array_equal(params.flat, np.concatenate([a.ravel() for a in arrays]))
        assert all(np.shares_memory(a, params.flat) for a in arrays)
        params.flat[:] = 0.0
        assert not any(a.any() for a in arrays)

    def test_backward_gradients_share_the_layout(self):
        params = init_params(SMALL, np.random.default_rng(31))
        x = np.random.default_rng(32).normal(size=(3, 1, 4))
        _, grads = backward(params, SMALL, x, np.array([0, 1, 2]))
        assert grads.flat.shape == params.flat.shape
        assert [a.shape for a in grads.arrays()] == [a.shape for a in params.arrays()]
        assert all(np.shares_memory(a, grads.flat) for a in grads.arrays())

    def test_a_reused_gradient_buffer_gives_the_bytes_of_fresh_ones(self):
        params = init_params(SMALL, np.random.default_rng(33))
        rng = np.random.default_rng(34)
        batches = [(rng.normal(size=(b, 1, 4)), rng.integers(0, 5, b)) for b in (7, 3, 7)]
        buffer = ModelParams(SMALL, np.full(params.flat.size, np.nan))  # every value overwritten
        for x, y in batches:
            loss, grads = backward(params, SMALL, x, y, buffer)
            fresh_loss, fresh = backward(params, SMALL, x, y)
            assert grads is buffer
            assert np.float64(loss).tobytes() == np.float64(fresh_loss).tobytes()
            assert grads.flat.tobytes() == fresh.flat.tobytes()

    def test_init_draws_each_weight_then_its_bias_in_tensor_shapes_order(self):
        # the per-layer loop of bounds and draws that init_params has always made
        rng = np.random.default_rng(38)
        expected, fan_in = [], SMALL.in_channels
        for block in SMALL.conv_blocks:
            bound = 1.0 / np.sqrt(fan_in * block.kernel)
            expected.append(rng.uniform(-bound, bound, (block.out_channels, fan_in, block.kernel)))
            expected.append(rng.uniform(-bound, bound, block.out_channels))
            fan_in = block.out_channels
        fan_in = SMALL.flatten_size()
        for width in SMALL.dense_widths:
            bound = 1.0 / np.sqrt(fan_in)
            expected.append(rng.uniform(-bound, bound, (width, fan_in)))
            expected.append(rng.uniform(-bound, bound, width))
            fan_in = width
        params = init_params(SMALL, np.random.default_rng(38))
        assert [a.tobytes() for a in params.arrays()] == [a.tobytes() for a in expected]
        named = [(name, a.shape) for name, a in params.named_arrays()]
        assert named == model.tensor_shapes(SMALL)

    @pytest.mark.parametrize("in_length", [2, 4])
    def test_backward_writes_every_view_and_skips_the_first_input_gradient(
        self, monkeypatch, in_length
    ):
        # the default spec: blocks 2 and 3 (tx) or block 3 (both) see length 1
        spec = LayerSpec(in_length=in_length)
        params = init_params(spec, np.random.default_rng(35))
        rng = np.random.default_rng(36)
        x, y = rng.normal(size=(9, 1, in_length)), rng.integers(0, 64, 9)
        real, calls = model.layers.conv1d_backward, []

        def conv1d_backward(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append((kwargs.get("input_grad", True), result[0] is None))
            return result

        monkeypatch.setattr(model.layers, "conv1d_backward", conv1d_backward)
        buffer = ModelParams(spec, np.full(params.flat.size, np.nan))
        _, grads = backward(params, spec, x, y, buffer)
        assert calls == [(True, False), (True, False), (False, True)]  # last block first
        assert not np.isnan(grads.flat).any()
        monkeypatch.undo()
        assert grads.flat.tobytes() == backward(params, spec, x, y)[1].flat.tobytes()

    def test_pickle_keeps_one_vector(self):
        params = init_params(SMALL, np.random.default_rng(34))
        data = pickle.dumps(params)
        # the tensors travel once, not again as a copy of the flat vector
        assert len(data) < 1.5 * params.flat.nbytes
        loaded = pickle.loads(data)
        assert loaded.flat.tobytes() == params.flat.tobytes()
        assert all(np.shares_memory(a, loaded.flat) for a in loaded.arrays())


class TestLayerSpec:
    def test_default_shapes(self):
        spec = LayerSpec()
        assert spec.feature_shapes() == [(32, 1), (64, 1), (128, 1)]
        assert spec.flatten_size() == 128

    def test_last_dense_must_match_classes(self):
        with pytest.raises(ValueError):
            LayerSpec(dense_widths=(256, 10), classes=64)

    def test_needs_conv_block(self):
        with pytest.raises(ValueError):
            LayerSpec(conv_blocks=(), dense_widths=(64,), classes=64)


class TestForward:
    def test_zero_params_give_uniform_probabilities(self):
        spec = LayerSpec()
        probs = forward_batch(zero_params(spec), spec, np.array([[[0.3, 0.8]]]))
        assert np.allclose(probs, 1.0 / 64.0, atol=1e-15)

    def test_probabilities_sum_to_one(self):
        spec = SMALL
        params = init_params(spec, np.random.default_rng(1))
        x = np.random.default_rng(2).normal(0, 3, (17, 1, 4))
        probs = forward_batch(params, spec, x)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_final_bias_shift_leaves_probabilities(self):
        spec = SMALL
        params = init_params(spec, np.random.default_rng(3))
        x = np.random.default_rng(4).normal(size=(2, 1, 4))
        base = forward_batch(params, spec, x)
        params.dense_biases[-1] = params.dense_biases[-1] + 7.5
        shifted = forward_batch(params, spec, x)
        assert np.allclose(base, shifted, atol=1e-12)

    def test_wrong_input_shape_rejected(self):
        spec = SMALL
        params = init_params(spec, np.random.default_rng(0))
        with pytest.raises(ShapeMismatchError):
            forward_batch(params, spec, np.zeros((2, 1, 9)))

    def test_caches_leave_probabilities_bit_identical(self):
        params = init_params(SMALL, np.random.default_rng(16))
        x = np.random.default_rng(17).normal(size=(11, 1, 4))
        caches = []
        cached = forward_batch(params, SMALL, x, caches)
        assert np.array_equal(cached, forward_batch(params, SMALL, x))
        # one entry per conv block and per dense layer
        assert len(caches) == len(SMALL.conv_blocks) + len(SMALL.dense_widths)

    def test_inference_frees_layer_caches(self):
        # 4,000 rows on the default spec with both ends as input: holding every
        # layer's backward inputs until the softmax peaked at about 51 MB
        spec = LayerSpec(in_length=4)
        params = init_params(spec, np.random.default_rng(18))
        x = np.random.default_rng(19).uniform(size=(4000, 1, 4))
        tracemalloc.start()
        try:
            forward_batch(params, spec, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 35e6



class TestChunkedScoring:
    @pytest.mark.parametrize("in_length", [2, 4])
    def test_same_answers_as_one_pass(self, monkeypatch, in_length):
        spec = LayerSpec(in_length=in_length)
        params = init_params(spec, np.random.default_rng(20))
        x = np.random.default_rng(21).uniform(size=(4000 + 7, 1, in_length))
        chunked = model.score_chunks(params, spec, x, lambda probs: probs)
        ranked = predict_top_m_batch(params, spec, x, 13)
        monkeypatch.setattr(model, "_SCORE_ROWS", len(x))
        one_pass = forward_batch(params, spec, x)
        assert chunked.shape == one_pass.shape
        assert np.allclose(chunked, one_pass, rtol=1e-12, atol=0.0)
        assert (ranked == predict_top_m_batch(params, spec, x, 13)).all()
        labels = np.argmax(one_pass, axis=1)
        labels[::3] = 0
        monkeypatch.undo()
        assert top1_accuracy(params, spec, x, labels) == float(
            np.mean(np.argmax(one_pass, axis=1) == labels)
        )

    @pytest.mark.parametrize("in_length", [2, 4])
    @pytest.mark.parametrize("n", [1, 127, 128, 129, 146, 511, 512, 513, 4000, 4007])
    def test_chunked_ranking_is_the_one_pass_ranking(self, monkeypatch, in_length, n):
        spec = LayerSpec(in_length=in_length)
        params = init_params(spec, np.random.default_rng(22))
        x = np.random.default_rng(23).uniform(size=(n, 1, in_length))
        ranked = predict_top_m_batch(params, spec, x, 13)
        probs = forward_batch(params, spec, x)
        one_pass = np.argsort(-probs, axis=1, kind="stable")[:, :13]
        assert (ranked.dtype, ranked.shape) == (one_pass.dtype, one_pass.shape) == (np.intp, (n, 13))
        assert ranked.tobytes() == one_pass.tobytes()
        labels = np.argmax(probs, axis=1)
        labels[::3] = 0
        top1 = top1_accuracy(params, spec, x, labels)
        monkeypatch.setattr(model, "_SCORE_ROWS", 512)  # the chunk size before 128
        assert top1_accuracy(params, spec, x, labels) == top1
        monkeypatch.setattr(model, "_SCORE_ROWS", n)
        assert predict_top_m_batch(params, spec, x, 13).tobytes() == ranked.tobytes()

    def test_empty_batch_fails_as_one_pass_does(self):
        spec = LayerSpec(in_length=4)
        params = init_params(spec, np.random.default_rng(22))
        x = np.empty((0, 1, 4))
        with pytest.raises(ValueError) as one_pass:
            forward_batch(params, spec, x)
        with pytest.raises(ValueError) as ranked:
            predict_top_m_batch(params, spec, x, 13)
        assert str(ranked.value) == str(one_pass.value)

    def test_ranking_holds_one_chunks_probabilities(self):
        spec = LayerSpec(in_length=4)
        params = init_params(spec, np.random.default_rng(18))
        x = np.random.default_rng(19).uniform(size=(4000, 1, 4))
        tracemalloc.start()
        try:
            predict_top_m_batch(params, spec, x, 13)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # ranking all 4,000 rows after scoring them peaked at 6.2 MB
        assert peak < 4.5e6

    def test_scoring_4000_rows_peaks_at_one_chunk(self):
        spec = LayerSpec(in_length=4)
        params = init_params(spec, np.random.default_rng(18))
        x = np.random.default_rng(19).uniform(size=(4000, 1, 4))
        for score in (
            lambda: predict_top_m_batch(params, spec, x, 13),
            lambda: top1_accuracy(params, spec, x, np.zeros(len(x), dtype=np.int64)),
        ):
            tracemalloc.start()
            try:
                score()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # one pass over all 4,000 rows peaked at 23.3 MB
            assert peak < 8e6

    def test_validation_holds_one_chunks_probabilities(self):
        spec = LayerSpec(in_length=4)
        params = init_params(spec, np.random.default_rng(18))
        x = np.random.default_rng(19).uniform(size=(4000, 1, 4))
        labels = np.zeros(len(x), dtype=np.int64)
        tracemalloc.start()
        try:
            top1_accuracy(params, spec, x, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # concatenating every chunk's probabilities before the argmax peaked at 4.6 MB
        assert peak < 3.6e6

class TestBackward:
    def test_softmax_ce_gradient_identity_at_output(self):
        # with a single dense layer the logit gradient is (probs - onehot)/B,
        # so the bias gradient must equal it exactly
        spec = LayerSpec(
            in_channels=1,
            in_length=2,
            conv_blocks=(ConvBlockSpec(2, 1, 1),),
            dense_widths=(4,),
            classes=4,
        )
        params = init_params(spec, np.random.default_rng(5))
        x = np.random.default_rng(6).normal(size=(3, 1, 2))
        y = np.array([0, 2, 1])
        probs = forward_batch(params, spec, x)
        expected = probs.copy()
        expected[np.arange(3), y] -= 1.0
        _, grads = backward(params, spec, x, y)
        assert np.allclose(grads.dense_biases[-1], expected.mean(axis=0) * 3 / 3, atol=1e-12)
        assert np.allclose(grads.dense_biases[-1], expected.sum(axis=0) / 3, atol=1e-12)

    def test_gradients_finite_for_random_inputs(self):
        params = init_params(SMALL, np.random.default_rng(7))
        x = np.random.default_rng(8).normal(0, 5, (9, 1, 4))
        y = np.random.default_rng(9).integers(0, 5, 9)
        loss, grads = backward(params, SMALL, x, y)
        assert np.isfinite(loss)
        assert all(np.all(np.isfinite(a)) for a in grads.arrays())

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        params = init_params(SMALL, rng)
        x = rng.normal(size=(3, 1, 4))
        y = rng.integers(0, 5, 3)
        _, grads = backward(params, SMALL, x, y)
        numeric = numeric_gradients(params, SMALL, x, y)
        assert max_relative_error(grads.arrays(), numeric) < 1e-4

    def test_empty_batch_rejected(self):
        params = init_params(SMALL, np.random.default_rng(0))
        with pytest.raises(ShapeMismatchError):
            backward(params, SMALL, np.zeros((0, 1, 4)), np.zeros(0, dtype=int))


class TestPrediction:
    def test_matches_per_row_stable_ranking(self):
        params = init_params(SMALL, np.random.default_rng(11))
        x = np.random.default_rng(12).normal(size=(40, 1, 4))
        probs = forward_batch(params, SMALL, x)
        for m in (1, 3, 5):
            cands = predict_top_m_batch(params, SMALL, x, m)
            assert cands.shape == (40, m)
            assert cands.dtype.kind == "i"
            want = [np.argsort(-p, kind="stable")[:m].tolist() for p in probs]
            assert cands.tolist() == want

    def test_top_m_prefix_property(self):
        params = init_params(SMALL, np.random.default_rng(11))
        x = np.zeros((1, 1, 4))
        for m in range(1, 5):
            assert np.array_equal(
                predict_top_m_batch(params, SMALL, x, m),
                predict_top_m_batch(params, SMALL, x, m + 1)[:, :m],
            )

    def test_predict_top_m_full_is_permutation(self):
        spec = LayerSpec()
        params = init_params(spec, np.random.default_rng(12))
        x = np.random.default_rng(13).uniform(size=(5, 1, 2))
        for row in predict_top_m_batch(params, spec, x, 64):
            assert sorted(row.tolist()) == list(range(64))

    def test_uniform_output_picks_index_zero(self):
        spec = LayerSpec()
        x = np.array([[[0.4, 0.5]], [[0.9, 0.1]]])
        cands = predict_top_m_batch(zero_params(spec), spec, x, 3)
        assert cands.tolist() == [[0, 1, 2], [0, 1, 2]]

    def test_argmax_invariant_to_monotone_logit_transform(self):
        rng = np.random.default_rng(13)
        logits = rng.normal(size=64)
        base = np.argmax(softmax(logits[None])[0])
        warped = np.argmax(softmax((3.0 * logits + 11.0)[None])[0])
        assert base == warped


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        spec = SMALL
        params = init_params(spec, np.random.default_rng(14))
        norm = NormalizationParams(33.0, 34.0, -112.0, -111.0)
        path = save_checkpoint(tmp_path / "ckpt.json", TrainedModel(params, norm, "both", 99))
        loaded = load_checkpoint(path)
        assert loaded.spec == spec
        assert loaded.norm == norm
        assert (loaded.input_mode, loaded.seed) == ("both", 99)
        for a, b in zip(params.arrays(), loaded.params.arrays()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("mode, reason", [
        ("both", "'both' does not fit spec.in_length"),
        ("laser", "must be one of ('tx', 'both')"),
    ])
    def test_input_mode_checked_against_the_spec(self, tmp_path, mode, reason):
        # a tx checkpoint (input length 2) edited to another mode
        params = init_params(LayerSpec(), np.random.default_rng(16))
        norm = NormalizationParams(33.0, 34.0, -112.0, -111.0)
        path = save_checkpoint(tmp_path / "ckpt.json", TrainedModel(params, norm, "tx", 1))
        path.write_text(path.read_text().replace('"input_mode": "tx"', f'"input_mode": "{mode}"'))
        with pytest.raises(ConfigError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == f"config field 'input_mode': {reason}"

    def test_integer_tensors_load_as_floats(self, tmp_path):
        params = ModelParams(SMALL)
        params.flat[:] = np.arange(params.flat.size) % 7 - 3.0
        norm = NormalizationParams(33.0, 34.0, -112.0, -111.0)
        path = save_checkpoint(tmp_path / "ckpt.json", TrainedModel(params, norm, "both", 1))
        path.write_text(path.read_text().replace(".0", ""))  # every number a JSON integer
        loaded = load_checkpoint(path)
        assert loaded.params.flat.dtype == np.float64
        assert np.array_equal(loaded.params.flat, params.flat)

    def test_version_checked(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"version": 999}')
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_deterministic_bytes(self, tmp_path):
        spec = SMALL
        params = init_params(spec, np.random.default_rng(15))
        norm = NormalizationParams(33.0, 34.0, -112.0, -111.0)
        trained = TrainedModel(params, norm, "both", 1)
        a = save_checkpoint(tmp_path / "a.json", trained).read_bytes()
        b = save_checkpoint(tmp_path / "b.json", trained).read_bytes()
        assert a == b

    @staticmethod
    def one_document(params, spec, norm, seed, input_mode):
        """Reference: the whole checkpoint as one json.dumps."""
        doc = {
            "version": model.CHECKPOINT_VERSION,
            "seed": seed,
            "input_mode": input_mode,
            "spec": {
                "in_channels": spec.in_channels,
                "in_length": spec.in_length,
                "conv_blocks": [
                    {"out_channels": b.out_channels, "kernel": b.kernel, "pool": b.pool}
                    for b in spec.conv_blocks
                ],
                "dense_widths": list(spec.dense_widths),
                "classes": spec.classes,
            },
            "normalization": {
                "lat_min": norm.lat_min,
                "lat_max": norm.lat_max,
                "lon_min": norm.lon_min,
                "lon_max": norm.lon_max,
            },
            "tensors": {name: arr.tolist() for name, arr in params.named_arrays()},
        }
        return json.dumps(doc, sort_keys=True).encode("utf-8")

    @pytest.mark.parametrize(
        "spec, input_mode",
        [
            (LayerSpec(), "tx"),
            (LayerSpec(in_length=4), "both"),
            (
                LayerSpec(
                    conv_blocks=(ConvBlockSpec(8), ConvBlockSpec(16, kernel=5, pool=1)),
                    dense_widths=(64,),
                ),
                "tx",
            ),
        ],
    )
    def test_streamed_bytes_equal_one_json_dumps(self, tmp_path, spec, input_mode):
        params = init_params(spec, np.random.default_rng(35))
        params.flat[:3] = [-0.0, 1e-310, 0.1]  # a signed zero, a subnormal
        norm = NormalizationParams(33.4201, 33.4205, -111.9309, -111.9291)
        path = save_checkpoint(tmp_path / "c.json", TrainedModel(params, norm, input_mode, 7))
        assert path.read_bytes() == self.one_document(params, spec, norm, 7, input_mode)

    def test_non_finite_values_written_as_json_dumps(self, tmp_path):
        spec = LayerSpec(in_length=4)
        params = init_params(spec, np.random.default_rng(37))
        conv = params.conv_weights[1]
        conv[0, 0, :] = [np.nan, np.inf, -np.inf]
        params.dense_weights[0][3, 5] = np.nan
        norm = NormalizationParams(33.0, 34.0, -112.0, -111.0)
        path = save_checkpoint(tmp_path / "c.json", TrainedModel(params, norm, "both", 3))
        assert path.read_bytes() == self.one_document(params, spec, norm, 3, "both")
        assert b"[[NaN, Infinity, -Infinity], [" in path.read_bytes()

    def test_default_spec_write_holds_one_row(self, tmp_path):
        spec = LayerSpec()
        params = init_params(spec, np.random.default_rng(36))
        norm = NormalizationParams(33.0, 34.0, -112.0, -111.0)
        trained = TrainedModel(params, norm, "tx", 1)
        save_checkpoint(tmp_path / "warm.json", trained)
        tracemalloc.start()
        try:
            save_checkpoint(tmp_path / "c.json", trained)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one json.dumps of the whole document peaked at 8.6 MB
        assert peak < 1e6

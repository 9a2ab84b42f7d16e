import numpy as np
import pytest

from v2vbeam.neuralbeam.model import ConvBlockSpec, LayerSpec, ModelParams, init_params
from v2vbeam.neuralbeam.optim import AdamState, TrainingConfig, adam_step

# one tensor of each kind, each a single scalar: (1, 1, 1), (1,), (1, 1) and (1,)
SCALAR_SPEC = LayerSpec(
    in_length=1, conv_blocks=(ConvBlockSpec(1, kernel=1, pool=1),), dense_widths=(1,), classes=1
)


def scalar_params(value=0.0):
    return ModelParams(SCALAR_SPEC, np.full(4, value))


class TestTrainingConfig:
    def test_defaults_match_reference_settings(self):
        cfg = TrainingConfig()
        assert cfg.learning_rate == 0.01
        assert cfg.weight_decay == 1e-4
        assert cfg.batch_size == 128
        assert cfg.epochs == 30
        assert (cfg.beta1, cfg.beta2, cfg.epsilon) == (0.9, 0.999, 1e-8)

    def test_invalid_betas_rejected(self):
        with pytest.raises(ValueError):
            TrainingConfig(beta1=1.0)
        with pytest.raises(ValueError):
            TrainingConfig(beta2=-0.1)

    def test_invalid_batch_rejected(self):
        with pytest.raises(ValueError):
            TrainingConfig(batch_size=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("weight_decay", float("nan")),
            ("weight_decay", float("inf")),
            ("epsilon", float("nan")),
            ("epsilon", float("inf")),
            ("epsilon", 0.0),
            ("epsilon", -1e-8),
        ],
    )
    def test_non_finite_or_non_positive_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainingConfig(**{field: value})


class TestAdamStep:
    def test_first_step_closed_form(self):
        # grad 0.5, lr 0.01: bias correction cancels and the step is
        # -lr * g / |g| = -0.01 up to epsilon
        params = scalar_params(0.0)
        grads = scalar_params(0.5)
        cfg = TrainingConfig(learning_rate=0.01, weight_decay=0.0)
        new_params, state = adam_step(params, grads, AdamState.zeros(params), cfg)
        for arr in new_params.arrays():
            assert arr.ravel()[0] == pytest.approx(-0.01, abs=1e-9)
        assert state.step == 1

    def test_zero_gradient_no_motion(self):
        params = scalar_params(3.0)
        before = [a.copy() for a in params.arrays()]  # the step works in place
        grads = scalar_params(0.0)
        cfg = TrainingConfig(weight_decay=0.0)
        new_params, _ = adam_step(params, grads, AdamState.zeros(params), cfg)
        for a, b in zip(before, new_params.arrays()):
            assert np.array_equal(a, b)

    def test_equal_gradients_update_identically(self):
        # a (1, 1, 2) conv weight, then its bias, the dense weight and its bias
        spec = LayerSpec(
            in_length=1, conv_blocks=(ConvBlockSpec(1, kernel=2, pool=2),), dense_widths=(1,),
            classes=1,
        )
        params = ModelParams(spec, np.array([1.0, 1.0, 0.0, 0.0, 0.0]))
        grads = ModelParams(spec, np.array([0.3, 0.3, 0.0, 0.0, 0.0]))
        cfg = TrainingConfig(weight_decay=0.0)
        new_params, _ = adam_step(params, grads, AdamState.zeros(params), cfg)
        w = new_params.conv_weights[0].ravel()
        assert w[0] == w[1]

    def test_weight_decay_pulls_toward_zero(self):
        params = scalar_params(2.0)
        grads = scalar_params(0.0)
        cfg = TrainingConfig(weight_decay=1e-4)
        new_params, _ = adam_step(params, grads, AdamState.zeros(params), cfg)
        # decay enters the gradient, so the update direction is -sign(param)
        for arr in new_params.arrays():
            assert arr.ravel()[0] < 2.0

    def test_zero_learning_rate_freezes(self):
        params = scalar_params(1.5)
        before = [a.copy() for a in params.arrays()]  # the step works in place
        grads = scalar_params(0.7)
        cfg = TrainingConfig(learning_rate=0.0)
        new_params, state = adam_step(params, grads, AdamState.zeros(params), cfg)
        for a, b in zip(before, new_params.arrays()):
            assert np.array_equal(a, b)
        assert state.step == 1

    def test_two_steps_track_reference_formula(self):
        # scalar reference implementation of the update rule
        cfg = TrainingConfig(learning_rate=0.05, weight_decay=0.0)
        p, m, v = 1.0, 0.0, 0.0
        params = scalar_params(1.0)
        state = AdamState.zeros(params)
        for t, g in ((1, 0.4), (2, -0.2)):
            grads = scalar_params(g)
            params, state = adam_step(params, grads, state, cfg)
            m = cfg.beta1 * m + (1 - cfg.beta1) * g
            v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
            m_hat = m / (1 - cfg.beta1**t)
            v_hat = v / (1 - cfg.beta2**t)
            p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
            assert params.arrays()[0].ravel()[0] == pytest.approx(p, abs=1e-15)


def list_form_adam_step(arrays, gradients, m, v, t, config):
    """Reference: the update with a fresh array per intermediate, tensor by tensor."""
    bc1 = 1.0 - config.beta1**t
    bc2 = 1.0 - config.beta2**t
    new_arrays, new_m, new_v = [], [], []
    for p, g, m_, v_ in zip(arrays, gradients, m, v):
        g = g + config.weight_decay * p
        m_ = config.beta1 * m_ + (1.0 - config.beta1) * g
        v_ = config.beta2 * v_ + (1.0 - config.beta2) * g * g
        step = config.learning_rate * (m_ / bc1) / (np.sqrt(v_ / bc2) + config.epsilon)
        new_arrays.append(p - step)
        new_m.append(m_)
        new_v.append(v_)
    return new_arrays, new_m, new_v


class TestInPlaceAdam:
    def test_updates_the_flat_vectors_in_place(self):
        params = init_params(LayerSpec(), np.random.default_rng(0))
        grads = ModelParams(LayerSpec(), np.full_like(params.flat, 0.5))
        state = AdamState.zeros(params)
        # one scratch vector: the gradient vector is the other
        assert isinstance(state.scratch, np.ndarray)
        assert state.scratch.shape == params.flat.shape
        buffers = [params.flat, state.m, state.v, state.scratch, grads.flat]
        stepped, new_state = adam_step(params, grads, state, TrainingConfig())
        assert stepped is params and new_state is state
        after = [stepped.flat, new_state.m, new_state.v, new_state.scratch, grads.flat]
        assert all(a is b for a, b in zip(after, buffers))
        assert np.shares_memory(stepped.conv_weights[0], stepped.flat)

    def test_matches_list_form_while_overwriting_the_gradient_buffer(self):
        # as train does: one gradient buffer, refilled before every step
        rng = np.random.default_rng(2)
        params = init_params(LayerSpec(), rng)
        state = AdamState.zeros(params)
        cfg = TrainingConfig()
        buffer = ModelParams(LayerSpec())
        ref = [a.copy() for a in params.arrays()]
        ref_m = [np.zeros_like(a) for a in ref]
        ref_v = [np.zeros_like(a) for a in ref]
        for t in range(1, 6):
            grads = [rng.normal(0.0, 0.1, a.shape) for a in ref]
            buffer.flat[:] = np.concatenate([g.ravel() for g in grads])
            before = params.flat.copy()
            params, state = adam_step(params, buffer, state, cfg)
            ref, ref_m, ref_v = list_form_adam_step(ref, grads, ref_m, ref_v, t, cfg)
            assert params.flat.tobytes() == b"".join(a.tobytes() for a in ref)
            assert state.m.tobytes() == b"".join(a.tobytes() for a in ref_m)
            assert state.v.tobytes() == b"".join(a.tobytes() for a in ref_v)
            # the buffer now holds the step that was subtracted, not the gradients
            assert not np.array_equal(buffer.flat, np.concatenate([g.ravel() for g in grads]))
            assert np.subtract(before, buffer.flat).tobytes() == params.flat.tobytes()

    @pytest.mark.parametrize(
        "learning_rate, weight_decay", [(0.01, 1e-4), (0.01, 0.0), (0.0, 1e-4)]
    )
    def test_matches_list_form_bit_for_bit(self, learning_rate, weight_decay):
        rng = np.random.default_rng(1)
        params = init_params(LayerSpec(), rng)
        state = AdamState.zeros(params)
        cfg = TrainingConfig(learning_rate=learning_rate, weight_decay=weight_decay)
        ref = [a.copy() for a in params.arrays()]
        ref_m = [np.zeros_like(a) for a in ref]
        ref_v = [np.zeros_like(a) for a in ref]
        for t in range(1, 51):
            grads = [rng.normal(0.0, 0.1, a.shape) for a in ref]
            # the dead conv taps get exact zeros; signed zeros must survive too
            grads[2][:, :, 0] = 0.0
            grads[2][:, :, 2] = -0.0
            flat = np.concatenate([g.ravel() for g in grads])
            params, state = adam_step(params, ModelParams(LayerSpec(), flat), state, cfg)
            ref, ref_m, ref_v = list_form_adam_step(ref, grads, ref_m, ref_v, t, cfg)
        assert state.step == 50
        for got, want in zip(params.arrays(), ref):
            assert got.tobytes() == want.tobytes()
        assert state.m.tobytes() == b"".join(a.tobytes() for a in ref_m)
        assert state.v.tobytes() == b"".join(a.tobytes() for a in ref_v)

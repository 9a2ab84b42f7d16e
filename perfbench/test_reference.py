"""Hand-worked cases for the benchmark's reference computations.

    python3 -m pytest perfbench
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import reference as ref
import spans
from run import END_TO_END_UNITS


def _scenario(n_sub=16, tx_power=1.0, d0=1.0, alpha=2.0, codebook=64):
    return {
        "codebook_size": codebook,
        "array": {"n_elements": 16, "element_spacing": 0.5},
        "channel": {"n_subcarriers": n_sub, "tx_power": tx_power, "reference_distance": d0, "pathloss_exponent": alpha},
    }


@pytest.mark.parametrize(
    "beam, n_sub, tx_power, d0, alpha, distance",
    [(32, 16, 1.0, 1.0, 2.0, 10.0), (40, 8, 2.0, 2.0, 3.0, 8.0), (5, 1, 0.5, 1.0, 2.5, 30.0)],
)
def test_matched_beam_power(beam, n_sub, tx_power, d0, alpha, distance):
    # beam i is matched where sin(theta) = psi_i = -1 + 2i/64
    theta = math.asin(-1.0 + 2.0 * beam / 64)
    p = ref.los_powers(_scenario(n_sub, tx_power, d0, alpha), np.array([theta]), np.array([distance]))[0]
    expected = 16 * n_sub * tx_power * (d0 / distance) ** alpha
    assert int(np.argmax(p)) == beam
    assert p[beam] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("codebook", [16, 64])
def test_beam_gains_sum_to_codebook_size(codebook):
    theta = np.linspace(-1.5, 1.5, 41)
    gains = ref.dirichlet_gains(16, 0.5, codebook, theta)
    np.testing.assert_allclose(gains.sum(axis=1), codebook, rtol=1e-12)


def test_path_position_interpolates_equal_time_segments():
    waypoints = [[0.0, 0.0], [10.0, 0.0], [10.0, 20.0]]
    pos = ref.path_position(waypoints, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    np.testing.assert_array_equal(pos, [[0, 0], [5, 0], [10, 0], [10, 10], [10, 20]])


def test_split_floor_sizes_remainder_to_train():
    train, val, test = ref.split_indices(11, (0.6, 0.2, 0.2), seed=3, mode="sequential")
    assert (list(train), list(val), list(test)) == ([0, 1, 2, 3, 4, 5, 6], [7, 8], [9, 10])
    parts = ref.split_indices(11, (0.6, 0.2, 0.2), seed=3, mode="shuffle")
    assert [len(p) for p in parts] == [7, 2, 2]
    assert sorted(np.concatenate(parts)) == list(range(11))
    np.testing.assert_array_equal(np.concatenate(parts), np.random.default_rng(3).permutation(11))


def test_one_sample_per_bin_replays_its_labels():
    rng = np.random.default_rng(42)
    n = 14
    u, v = np.meshgrid((np.arange(n) + 0.5) / n, (np.arange(n) + 0.5) / n, indexing="ij")
    uv = np.stack([u.ravel(), v.ravel()], axis=1)
    powers = rng.uniform(0.1, 1.0, (n * n, 16))
    keys = ref.bin_keys(uv, n)
    occupied, counts, means = ref.bin_means(keys, powers)
    assert len(occupied) == n * n and np.all(counts == 1)
    answer, fallback = ref.answering_bins(keys, occupied)
    assert not fallback.any()
    top1 = ref.rank(means[answer], 1)[:, 0]
    np.testing.assert_array_equal(top1, np.argmax(powers, axis=1))


def test_bin_means_are_grouped_means():
    keys = np.array([[0, 0], [1, 2], [0, 0]])
    powers = np.array([[1.0, 4.0], [2.0, 2.0], [3.0, 0.0]])
    occupied, counts, means = ref.bin_means(keys, powers)
    np.testing.assert_array_equal(occupied, [[0, 0], [1, 2]])
    np.testing.assert_array_equal(counts, [2, 1])
    np.testing.assert_array_equal(means, [[2.0, 2.0], [2.0, 2.0]])


def test_fallback_takes_nearest_bin_and_lowest_key_on_ties():
    occupied = np.array([[0, 1], [1, 0], [5, 5]])
    answer, fallback = ref.answering_bins(np.array([[0, 0], [4, 5], [1, 0]]), occupied)
    assert list(answer) == [0, 2, 1]
    assert list(fallback) == [True, True, False]


def test_rank_breaks_ties_toward_lowest_index():
    scores = np.array([[0.1, 0.5, 0.5, 0.2]])
    np.testing.assert_array_equal(ref.rank(scores, 3), [[1, 2, 3]])
    assert ref.near_ties(scores, 1)[0]
    assert not ref.near_ties(np.array([[0.1, 0.5, 0.4, 0.2]]), 2)[0]


def test_topm_metrics_brute_force():
    powers = np.array([[1.0, 4.0, 2.0], [3.0, 1.0, 2.0]])  # truths: beam 1, beam 0
    cands = np.array([[2, 1, 0], [1, 2, 0]])
    m = ref.topm_metrics(cands, powers, (1, 2, 3))
    assert m["inclusion"] == [0.0, 0.5, 1.0]
    assert m["literal"] == [0.0, 0.25, pytest.approx(1 / 3)]
    # M=1: 2/4 and 1/3; M=2: 4/4 and 2/3; M=3: both hit
    assert m["power_ratio"] == [pytest.approx((0.5 + 1 / 3) / 2), pytest.approx((1 + 2 / 3) / 2), 1.0]


def test_forward_pass_by_hand():
    ckpt = {
        "spec": {"conv_blocks": [{"out_channels": 1, "kernel": 3, "pool": 2}], "dense_widths": [2]},
        "tensors": {
            "conv0.weight": [[[1.0, 0.0, -1.0]]],
            "conv0.bias": [0.0],
            "dense0.weight": [[1.0], [-1.0]],
            "dense0.bias": [0.0, 0.0],
        },
    }
    # padded input [0, 1, 2, 0] -> conv [-2, 1] -> ReLU [0, 1] -> pool [1] -> logits [1, -1]
    probs = ref.forward(ckpt, np.array([[[1.0, 2.0]]]))
    np.testing.assert_allclose(probs, [[1 / (1 + math.exp(-2)), 1 / (1 + math.exp(2))]], rtol=1e-14)


def test_ceiling_pool_keeps_the_partial_window():
    ckpt = {
        "spec": {"conv_blocks": [{"out_channels": 1, "kernel": 1, "pool": 2}], "dense_widths": [2]},
        "tensors": {
            "conv0.weight": [[[1.0]]],
            "conv0.bias": [0.0],
            "dense0.weight": [[1.0, 0.0], [0.0, 1.0]],
            "dense0.bias": [0.0, 0.0],
        },
    }
    # length 3 pools to [max(1, 3), 2]
    probs = ref.forward(ckpt, np.array([[[1.0, 3.0, 2.0]]]))
    np.testing.assert_allclose(probs, [[1 / (1 + math.exp(-1)), 1 / (1 + math.exp(1))]], rtol=1e-14)


def test_self_time_subtracts_children():
    trace = [("root", 0, 100, -1, "r", None), ("a", 10, 30, 0, "r", None), ("b", 40, 50, 0, "r", None), ("c", 12, 20, 1, "r", None)]
    assert spans.self_time_ns(trace, 0) == 70
    assert spans.self_time_ns(trace, 1) == 12


def test_step_counts_of_default_spec():
    counts = spans.step_counts()
    # forward matrix products of the default spec at batch 128, times 3 for backward
    forward = 2 * 128 * (32 * 2 * 1 * 3 + 64 * 1 * 32 * 3 + 128 * 1 * 64 * 3 + 128 * 256 + 256 * 64)
    assert counts["neuralbeam.step_flops"] == 3 * forward + spans.ADAM_FLOPS_PER_PARAM * 80_512


def test_benchmark_json_lists_every_metric():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.PER_LAYER_UNITS

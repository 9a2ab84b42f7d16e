import math

import numpy as np
import pytest

from v2vbeam.errors import (
    ConfigError,
    GeometryOutOfSectorError,
    InvalidGeometryError,
)
from v2vbeam.geodata import GeoPosition
from v2vbeam.synthchan import (
    ArrayConfig,
    SyntheticChannelConfig,
    TrajectoryConfig,
    array_response,
    beam_gains,
    beam_power_vector,
    dft_codebook,
    generate_scenario,
    local_to_geo,
    scenario_from_json,
)

ARR = ArrayConfig()  # 16 elements, half-wavelength spacing


class TestArrayResponse:
    def test_broadside_all_ones(self):
        a = array_response(ARR, 0.0)
        assert np.allclose(a, np.ones(16), atol=1e-15)

    def test_element_phase_at_30_degrees(self):
        # spacing 0.5, k=1, sin(pi/6)=0.5 -> phase pi/2
        a = array_response(ARR, math.pi / 6)
        assert np.angle(a[1]) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_conjugate_symmetry(self):
        theta = 0.7
        assert np.allclose(array_response(ARR, -theta), np.conj(array_response(ARR, theta)))

    def test_unit_magnitude_elements(self):
        a = array_response(ARR, 1.1)
        assert np.allclose(np.abs(a), 1.0, atol=1e-12)

    def test_rejects_back_halfplane(self):
        with pytest.raises(GeometryOutOfSectorError):
            array_response(ARR, math.pi / 2 + 0.01)


class TestDftCodebook:
    def test_sizes_and_unit_norms(self):
        cb = dft_codebook(ARR, 64)
        assert cb.size == 64
        assert cb.weights.shape == (64, 16)
        assert np.allclose(np.linalg.norm(cb.weights, axis=1), 1.0, atol=1e-12)

    def test_center_beam_is_uniform(self):
        # psi_32 = -1 + 2*32/64 = 0 -> weights exp(0)/sqrt(16) = 1/4
        cb = dft_codebook(ARR, 64)
        assert np.allclose(cb.weights[32], 0.25, atol=1e-15)

    def test_beams_not_collinear(self):
        cb = dft_codebook(ARR, 64)
        gram = np.abs(cb.weights @ cb.weights.conj().T)
        np.fill_diagonal(gram, 0.0)
        assert gram.max() < 1.0 - 1e-9

    def test_size_below_elements_rejected(self):
        with pytest.raises(ValueError):
            dft_codebook(ARR, 8)


class TestBeamPower:
    CH = SyntheticChannelConfig(n_subcarriers=1, noise_power=0.0)

    def test_broadside_matched_power_is_n_elements(self):
        cb = dft_codebook(ARR, 64)
        p = beam_power_vector(ARR, cb, self.CH, theta=0.0, distance=1.0)
        assert p.max() == pytest.approx(16.0, abs=1e-9)
        assert np.argmax(p) == 32

    def test_pathloss_law(self):
        cb = dft_codebook(ARR, 64)
        near = beam_power_vector(ARR, cb, self.CH, 0.3, distance=2.0)
        far = beam_power_vector(ARR, cb, self.CH, 0.3, distance=4.0)
        assert np.allclose(far, near / 4.0, rtol=1e-12)

    def test_subcarrier_sum_scales(self):
        cb = dft_codebook(ARR, 64)
        ch4 = SyntheticChannelConfig(n_subcarriers=4, noise_power=0.0)
        p1 = beam_power_vector(ARR, cb, self.CH, 0.5, 3.0)
        p4 = beam_power_vector(ARR, cb, ch4, 0.5, 3.0)
        assert np.allclose(p4, 4.0 * p1, rtol=1e-12)

    def test_tx_power_scaling_keeps_argmax(self):
        cb = dft_codebook(ARR, 64)
        boosted = SyntheticChannelConfig(n_subcarriers=1, tx_power=7.5, noise_power=0.0)
        p1 = beam_power_vector(ARR, cb, self.CH, -0.4, 5.0)
        p2 = beam_power_vector(ARR, cb, boosted, -0.4, 5.0)
        assert np.allclose(p2, 7.5 * p1, rtol=1e-12)
        assert np.argmax(p1) == np.argmax(p2)

    def test_distance_below_reference_rejected(self):
        cb = dft_codebook(ARR, 64)
        with pytest.raises(InvalidGeometryError):
            beam_power_vector(ARR, cb, self.CH, 0.0, distance=0.5)

    def test_noise_is_seeded_and_non_negative(self):
        cb = dft_codebook(ARR, 64)
        noisy = SyntheticChannelConfig(n_subcarriers=1, noise_power=0.01, seed=42)
        p_a = beam_power_vector(ARR, cb, noisy, 0.0, 10.0)
        p_b = beam_power_vector(ARR, cb, noisy, 0.0, 10.0)
        assert np.array_equal(p_a, p_b)
        clean = beam_power_vector(ARR, cb, self.CH, 0.0, 10.0)
        assert np.all(p_a >= clean)  # noise is additive and non-negative

    def test_noise_mean_matches_noise_power(self):
        cb = dft_codebook(ARR, 64)
        noisy = SyntheticChannelConfig(
            n_subcarriers=1, tx_power=0.0, noise_power=0.5, seed=3
        )
        rng = np.random.default_rng(3)
        draws = [
            beam_power_vector(ARR, cb, noisy, 0.0, 10.0, rng=rng).mean()
            for _ in range(200)
        ]
        assert np.mean(draws) == pytest.approx(0.5, rel=0.05)


class TestInvariants:
    def test_matched_beam_tracks_steering_angle(self):
        # argmax beam's grid frequency stays within one step of sin(theta);
        # psi is 2-periodic, so distance wraps at the grid edges
        cb = dft_codebook(ARR, 64)
        psis = -1.0 + 2.0 * np.arange(64) / 64
        for theta in np.linspace(-math.pi / 2 * 0.999, math.pi / 2 * 0.999, 401):
            gains = beam_gains(ARR, cb, theta)
            d = abs(psis[int(np.argmax(gains))] - math.sin(theta))
            assert min(d, 2.0 - d) <= 2.0 / 64 + 1e-12

    def test_critically_sampled_gains_sum_to_n_elements(self):
        cb = dft_codebook(ARR, 16)
        for theta in (-1.3, -0.2, 0.0, 0.4, 1.5):
            assert beam_gains(ARR, cb, theta).sum() == pytest.approx(16.0, abs=1e-9)

    def test_generator_powers_non_negative_finite(self):
        traj = TrajectoryConfig(
            duration=2.0,
            origin=GeoPosition(33.0, -112.0),
            tx_waypoints=((-20.0, 40.0), (20.0, 40.0)),
            rx_waypoints=((0.0, 0.0),),
            rx_heading=math.pi / 2,
        )
        ch = SyntheticChannelConfig(noise_power=0.001, seed=5)
        ds = generate_scenario(traj, ARR, ch)
        pm = ds.powers
        assert np.all(np.isfinite(pm)) and np.all(pm >= 0)


class TestGenerateScenario:
    def _traj(self, **kw):
        defaults = dict(
            duration=1.0,
            sample_period=0.1,
            origin=GeoPosition(33.42, -111.93),
            tx_waypoints=((0.0, 30.0),),
            rx_waypoints=((0.0, 0.0),),
            rx_heading=math.pi / 2,
        )
        defaults.update(kw)
        return TrajectoryConfig(**defaults)

    def test_sample_count(self):
        ds = generate_scenario(self._traj(), ARR, SyntheticChannelConfig())
        assert len(ds) == 10
        assert ds.sampling_period == 0.1

    def test_stationary_broadside_always_beam_32(self):
        ds = generate_scenario(self._traj(), ARR, SyntheticChannelConfig(noise_power=0.0))
        assert all(s.optimal_index == 32 for s in ds.samples)

    def test_deterministic_under_seed(self):
        traj = self._traj(tx_waypoints=((-10.0, 30.0), (10.0, 30.0)))
        ch = SyntheticChannelConfig(noise_power=0.01, seed=9)
        a = generate_scenario(traj, ARR, ch)
        b = generate_scenario(traj, ARR, ch)
        assert a == b

    def test_out_of_sector_rejected(self):
        traj = self._traj(tx_waypoints=((0.0, -30.0),))  # behind the array
        with pytest.raises(GeometryOutOfSectorError):
            generate_scenario(traj, ARR, SyntheticChannelConfig())

    def test_positions_anchor_to_origin(self):
        ds = generate_scenario(self._traj(), ARR, SyntheticChannelConfig())
        rx = ds.samples[0].rx_pos
        assert rx == GeoPosition(33.42, -111.93)
        tx = ds.samples[0].tx_pos
        assert tx.lat_deg > 33.42 and tx.lon_deg == pytest.approx(-111.93)

    def test_local_to_geo_northward(self):
        origin = GeoPosition(0.0, 0.0)
        p = local_to_geo(origin, 0.0, 111_320.0)
        assert p.lat_deg == pytest.approx(1.0)


class TestScenarioJson:
    DOC = {
        "codebook_size": 64,
        "trajectory": {
            "duration": 1.0,
            "sample_period": 0.1,
            "rx_heading": 1.5707963267948966,
            "origin": {"lat": 33.42, "lon": -111.93},
            "tx_waypoints": [[-10.0, 30.0], [10.0, 30.0]],
            "rx_waypoints": [[0.0, 0.0]],
        },
        "array": {"n_elements": 16, "element_spacing": 0.5},
        "channel": {"n_subcarriers": 16, "noise_power": 0.001, "seed": 7},
    }

    def test_round_trip(self):
        traj, arr, ch, size = scenario_from_json(self.DOC)
        assert size == 64
        assert arr.n_elements == 16
        assert ch.seed == 7
        assert traj.tx_waypoints == ((-10.0, 30.0), (10.0, 30.0))
        ds = generate_scenario(traj, arr, ch, size)
        assert len(ds) == 10

    def test_missing_duration_names_field(self):
        doc = {k: v for k, v in self.DOC.items()}
        doc["trajectory"] = {
            k: v for k, v in self.DOC["trajectory"].items() if k != "duration"
        }
        with pytest.raises(ConfigError) as exc:
            scenario_from_json(doc)
        assert "trajectory.duration" in str(exc.value)

    def test_bad_waypoints_named(self):
        doc = dict(self.DOC)
        doc["trajectory"] = dict(self.DOC["trajectory"], tx_waypoints=[1, 2])
        with pytest.raises(ConfigError) as exc:
            scenario_from_json(doc)
        assert "tx_waypoints" in str(exc.value)

import math
import tracemalloc

import numpy as np
import pytest

from v2vbeam import ingest, parallel, synthchan
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
        assert ds.t.tolist() == [i * 0.1 for i in range(10)]

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

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("array", "n_elements", 16.7),
            ("array", "n_elements", 16.0),
            ("channel", "seed", 7.0),
            ("channel", "tx_power", "1"),
            ("trajectory", "duration", None),
        ],
    )
    def test_wrong_type_named_with_its_section(self, section, key, value):
        doc = dict(self.DOC, **{section: dict(self.DOC[section], **{key: value})})
        with pytest.raises(ConfigError) as exc:
            scenario_from_json(doc)
        assert exc.value.field == f"{section}.{key}"

    def test_left_out_fields_take_dataclass_defaults(self):
        required = ("duration", "tx_waypoints", "rx_waypoints")
        doc = {"trajectory": {k: self.DOC["trajectory"][k] for k in required}}
        traj, arr, ch, size = scenario_from_json(doc)
        defaults = TrajectoryConfig(duration=1.0, tx_waypoints=traj.tx_waypoints, rx_waypoints=traj.rx_waypoints)
        assert (traj, arr, ch, size) == (defaults, ArrayConfig(), SyntheticChannelConfig(), 64)

    @pytest.mark.parametrize("key", ["duration", "tx_waypoints", "rx_waypoints"])
    def test_missing_required_field_named(self, key):
        trajectory = {k: v for k, v in self.DOC["trajectory"].items() if k != key}
        with pytest.raises(ConfigError) as exc:
            scenario_from_json(dict(self.DOC, trajectory=trajectory))
        assert str(exc.value) == f"config field 'trajectory.{key}': missing"

    def test_bad_dataclass_value_named(self):
        doc = dict(self.DOC, channel={"noise_power": -1.0})
        with pytest.raises(ConfigError) as exc:
            scenario_from_json(doc)
        assert exc.value.field == "channel.noise_power"

    def test_bad_waypoints_named(self):
        doc = dict(self.DOC)
        doc["trajectory"] = dict(self.DOC["trajectory"], tx_waypoints=[1, 2])
        with pytest.raises(ConfigError) as exc:
            scenario_from_json(doc)
        assert "tx_waypoints" in str(exc.value)


# --- chunked synthesis on several CPUs -------------------------------------------------


@pytest.fixture(params=[1, 2, 3], ids=["1cpu", "2cpu", "3cpu"])
def cpus(request, monkeypatch):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: request.param)
    return request.param


def per_sample_oracle(traj, arr, ch, codebook_size=64):
    """The per-sample loop: each sample's own response, gains and spawned substream."""
    cb = dft_codebook(arr, codebook_size)
    n = int(round(traj.duration / traj.sample_period))
    streams = np.random.SeedSequence(ch.seed).spawn(n)
    t, tx_geo, rx_geo, powers = [], [], [], []
    for i in range(n):
        time = i * traj.sample_period
        tx = synthchan._path_position(traj.tx_waypoints, time / traj.duration)
        rx = synthchan._path_position(traj.rx_waypoints, time / traj.duration)
        dx, dy = tx[0] - rx[0], tx[1] - rx[1]
        theta = synthchan._wrap_angle(math.atan2(dy, dx) - traj.rx_heading)
        if not -math.pi / 2 < theta < math.pi / 2:
            raise GeometryOutOfSectorError(
                f"sample {i}: transmitter angle {theta:.4f} rad outside (-pi/2, pi/2)"
            )
        g = (ch.reference_distance / math.hypot(dx, dy)) ** ch.pathloss_exponent
        k = np.arange(arr.n_elements)
        a = np.exp(2j * math.pi * arr.element_spacing * k * math.sin(theta))
        p = ch.n_subcarriers * g * ch.tx_power * np.abs(cb.weights @ a) ** 2
        if ch.noise_power > 0.0:
            sigma = ch.noise_power * math.sqrt(math.pi / 2.0)
            rng = np.random.default_rng(streams[i])
            p = p + np.abs(rng.normal(0.0, sigma, size=cb.size))
        t.append(time)
        for fixes, (east, north) in ((tx_geo, tx), (rx_geo, rx)):
            pos = local_to_geo(traj.origin, east, north)
            fixes.append((pos.lat_deg, pos.lon_deg))
        powers.append(p)
    return np.array(t), np.array(tx_geo), np.array(rx_geo), np.array(powers)


def weaving_drive(n_samples, **kw):
    defaults = dict(
        duration=n_samples * 0.1,
        sample_period=0.1,
        origin=GeoPosition(47.6, -122.3),
        tx_waypoints=((-40.0, 30.0), (10.0, 55.0), (60.0, 25.0)),
        rx_waypoints=((0.0, 0.0), (5.0, 2.0)),
        rx_heading=math.pi / 2,
    )
    defaults.update(kw)
    return TrajectoryConfig(**defaults)


def column_bytes(ds):
    columns = (ds.t, ds.tx, ds.rx, ds.powers, ds.best)
    return [np.ascontiguousarray(c).tobytes() for c in columns]


class TestChunkedSynthesis:
    CH = SyntheticChannelConfig(
        n_subcarriers=3, tx_power=2.5, noise_power=0.3, pathloss_exponent=2.7,
        reference_distance=0.7, seed=11,
    )

    @pytest.mark.parametrize("n", [ingest._CHUNK_ROWS * 2 + 77, ingest._CHUNK_ROWS - 5])
    def test_columns_equal_the_per_sample_loop(self, n, cpus):
        arr = ArrayConfig(8, 0.4)
        ds = generate_scenario(weaving_drive(n), arr, self.CH, 32)
        assert len(ds) == n
        oracle = per_sample_oracle(weaving_drive(n), arr, self.CH, 32)
        for got, want in zip((ds.t, ds.tx, ds.rx, ds.powers), oracle):
            assert got.tobytes() == want.tobytes()
        assert ds.best.tolist() == oracle[3].argmax(axis=1).tolist()

    def test_same_bytes_for_any_cpu_count(self, monkeypatch):
        traj = weaving_drive(ingest._CHUNK_ROWS * 3 + 1)
        ch = SyntheticChannelConfig(noise_power=1e-4, seed=3)
        columns = []
        for k in (1, 2, 3):
            monkeypatch.setattr(parallel, "_usable_cpus", lambda k=k: k)
            columns.append(column_bytes(generate_scenario(traj, ARR, ch)))
        assert columns[0] == columns[1] == columns[2]

    @pytest.mark.parametrize("k", [2, 3])
    def test_chunks_write_the_shared_columns_and_send_nothing_back(self, monkeypatch, k):
        # the last chunk is a partial one
        traj = weaving_drive(ingest._CHUNK_ROWS * 3 + 77)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
        serial = column_bytes(generate_scenario(traj, ARR, self.CH))
        yielded = []

        def recording_map(fn, items):
            for value in parallel.ordered_map(fn, items):
                yielded.append(value)
                yield value

        monkeypatch.setattr(synthchan, "ordered_map", recording_map)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: k)
        assert column_bytes(generate_scenario(traj, ARR, self.CH)) == serial
        assert yielded == [None] * 4

    def test_noise_rows_come_from_spawned_substreams(self, cpus):
        n = ingest._CHUNK_ROWS + 9
        noisy, clean = (
            generate_scenario(weaving_drive(n), ARR, SyntheticChannelConfig(noise_power=p, seed=21))
            for p in (0.5, 0.0)
        )
        sigma = 0.5 * math.sqrt(math.pi / 2.0)
        for i, stream in enumerate(np.random.SeedSequence(21).spawn(n)):
            draw = np.random.default_rng(stream).normal(0.0, sigma, size=64)
            assert (noisy.powers[i] == clean.powers[i] + np.abs(draw)).all()

    def test_sector_exit_in_a_worker_chunk_names_the_first_sample(self, cpus):
        # the transmitter crosses behind the array inside the second chunk
        n = ingest._CHUNK_ROWS * 3
        traj = weaving_drive(
            n, tx_waypoints=((-30.0, 40.0), (30.0, 40.0 - 40.0 * n / 700.0)),
            rx_waypoints=((0.0, 0.0),),
        )
        with pytest.raises(GeometryOutOfSectorError) as oracle:
            per_sample_oracle(traj, ARR, self.CH)
        first_bad = int(str(oracle.value).split()[1][:-1])  # "sample 700: ..."
        assert ingest._CHUNK_ROWS < first_bad < 2 * ingest._CHUNK_ROWS
        with pytest.raises(GeometryOutOfSectorError) as exc:
            generate_scenario(traj, ARR, self.CH)
        assert str(exc.value) == str(oracle.value)

    def test_heap_peak_near_the_columns(self):
        traj = weaving_drive(30_000, tx_waypoints=((-400.0, 30.0), (400.0, 45.0)))
        ch = SyntheticChannelConfig(noise_power=1e-4, seed=7)
        generate_scenario(weaving_drive(2), ARR, ch)  # warm-up: imports and caches
        tracemalloc.start()
        try:
            ds = generate_scenario(traj, ARR, ch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns = sum(c.nbytes for c in (ds.t, ds.tx, ds.rx, ds.powers, ds.best))
        # the per-sample loop held every spawned SeedSequence: 1.7x the columns
        assert peak < 1.3 * columns

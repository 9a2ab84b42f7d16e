import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from v2vbeam import ingest, parallel, synthchan
from v2vbeam.errors import (
    ConfigError,
    GeometryOutOfSectorError,
    InvalidGeometryError,
)
from v2vbeam.geodata import GeoPosition
from v2vbeam.synthchan import (
    ArrayConfig,
    ScenarioConfig,
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
        ds = generate_scenario(ScenarioConfig(traj, ARR, ch)).rows(slice(None))
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
        scenario = ScenarioConfig(self._traj(), ARR, SyntheticChannelConfig())
        ds = generate_scenario(scenario).rows(slice(None))
        assert len(ds) == 10
        assert ds.t.tolist() == [i * 0.1 for i in range(10)]

    def test_stationary_broadside_always_beam_32(self):
        quiet = SyntheticChannelConfig(noise_power=0.0)
        ds = generate_scenario(ScenarioConfig(self._traj(), ARR, quiet)).rows(slice(None))
        assert ds.best.tolist() == [32] * 10

    def test_deterministic_under_seed(self):
        traj = self._traj(tx_waypoints=((-10.0, 30.0), (10.0, 30.0)))
        ch = SyntheticChannelConfig(noise_power=0.01, seed=9)
        a = generate_scenario(ScenarioConfig(traj, ARR, ch)).rows(slice(None))
        b = generate_scenario(ScenarioConfig(traj, ARR, ch)).rows(slice(None))
        assert a == b

    def test_noise_mean_matches_noise_power(self):
        noisy = SyntheticChannelConfig(n_subcarriers=1, tx_power=0.0, noise_power=0.5, seed=3)
        scenario = ScenarioConfig(self._traj(duration=20.0), ARR, noisy)
        ds = generate_scenario(scenario).rows(slice(None))
        assert ds.powers.mean() == pytest.approx(0.5, rel=0.05)

    def test_out_of_sector_rejected(self):
        traj = self._traj(tx_waypoints=((0.0, -30.0),))  # behind the array
        drive = generate_scenario(ScenarioConfig(traj, ARR, SyntheticChannelConfig()))
        with pytest.raises(GeometryOutOfSectorError):
            drive.rows(slice(None))

    def test_positions_anchor_to_origin(self):
        scenario = ScenarioConfig(self._traj(), ARR, SyntheticChannelConfig())
        ds = generate_scenario(scenario).rows(slice(None))
        assert ds.rx[0].tolist() == [33.42, -111.93]
        assert ds.tx[0, 0] > 33.42 and ds.tx[0, 1] == pytest.approx(-111.93)

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
        scenario = scenario_from_json(self.DOC)
        assert scenario.codebook_size == 64
        assert scenario.array.n_elements == 16
        assert scenario.channel.seed == 7
        assert scenario.trajectory.tx_waypoints == ((-10.0, 30.0), (10.0, 30.0))
        ds = generate_scenario(scenario).rows(slice(None))
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
        scenario = scenario_from_json(doc)
        traj = scenario.trajectory
        defaults = TrajectoryConfig(duration=1.0, tx_waypoints=traj.tx_waypoints, rx_waypoints=traj.rx_waypoints)
        assert scenario == ScenarioConfig(defaults, ArrayConfig(), SyntheticChannelConfig(), 64)

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


# one-word seeds, and seeds of two and three uint32 words
SEEDS = [0, 11, 2**32 + 3, 2**70]


class TestChunkedSynthesis:
    CH = SyntheticChannelConfig(
        n_subcarriers=3, tx_power=2.5, noise_power=0.3, pathloss_exponent=2.7,
        reference_distance=0.7, seed=11,
    )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [ingest._CHUNK_ROWS * 2 + 77, ingest._CHUNK_ROWS - 5])
    def test_columns_equal_the_per_sample_loop(self, n, seed, cpus):
        arr = ArrayConfig(8, 0.4)
        ch = dataclasses.replace(self.CH, seed=seed)
        ds = generate_scenario(ScenarioConfig(weaving_drive(n), arr, ch, 32)).rows(slice(None))
        assert len(ds) == n
        oracle = per_sample_oracle(weaving_drive(n), arr, ch, 32)
        for got, want in zip((ds.t, ds.tx, ds.rx, ds.powers), oracle):
            assert got.tobytes() == want.tobytes()
        assert ds.best.tolist() == oracle[3].argmax(axis=1).tolist()

    def test_noise_free_rows_are_beam_power_vector(self, cpus):
        # criterion 3 checks beam_power_vector's formula; this ties it to the rows
        # that generate writes
        traj = weaving_drive(ingest._CHUNK_ROWS + 77)
        arr = ArrayConfig(8, 0.4)
        ch = dataclasses.replace(self.CH, noise_power=0.0)
        ds = generate_scenario(ScenarioConfig(traj, arr, ch, 32)).rows(slice(None))
        cb = dft_codebook(arr, 32)
        for i, powers in enumerate(ds.powers):
            fraction = i * traj.sample_period / traj.duration
            tx = synthchan._path_position(traj.tx_waypoints, fraction)
            rx = synthchan._path_position(traj.rx_waypoints, fraction)
            dx, dy = tx[0] - rx[0], tx[1] - rx[1]
            theta = synthchan._wrap_angle(math.atan2(dy, dx) - traj.rx_heading)
            want = beam_power_vector(arr, cb, ch, theta, math.hypot(dx, dy))
            assert powers.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_bytes_for_any_cpu_count(self, monkeypatch, seed):
        traj = weaving_drive(ingest._CHUNK_ROWS * 3 + 1)
        ch = SyntheticChannelConfig(noise_power=1e-4, seed=seed)
        columns = []
        for k in (1, 2, 3):
            monkeypatch.setattr(parallel, "_usable_cpus", lambda k=k: k)
            drive = generate_scenario(ScenarioConfig(traj, ARR, ch))
            columns.append(column_bytes(drive.rows(slice(None))))
        assert columns[0] == columns[1] == columns[2]

    @pytest.mark.parametrize("k", [2, 3])
    def test_chunks_write_the_shared_columns_and_send_nothing_back(self, monkeypatch, k):
        # the last chunk is a partial one
        traj = weaving_drive(ingest._CHUNK_ROWS * 3 + 77)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
        drive = generate_scenario(ScenarioConfig(traj, ARR, self.CH))
        serial = column_bytes(drive.rows(slice(None)))
        yielded = []

        def recording_map(fn, items):
            for value in parallel.ordered_map(fn, items):
                yielded.append(value)
                yield value

        monkeypatch.setattr(synthchan, "ordered_map", recording_map)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: k)
        assert column_bytes(drive.rows(slice(None))) == serial
        assert yielded == [None] * 4

    def test_noise_rows_come_from_spawned_substreams(self, cpus):
        n = ingest._CHUNK_ROWS + 9
        noisy, clean = (
            generate_scenario(
                ScenarioConfig(weaving_drive(n), ARR, SyntheticChannelConfig(noise_power=p, seed=21))
            ).rows(slice(None))
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
            generate_scenario(ScenarioConfig(traj, ARR, self.CH)).rows(slice(None))
        assert str(exc.value) == str(oracle.value)

    def test_heap_peak_near_the_columns(self):
        traj = weaving_drive(30_000, tx_waypoints=((-400.0, 30.0), (400.0, 45.0)))
        ch = SyntheticChannelConfig(noise_power=1e-4, seed=7)
        # warm-up: imports and caches
        generate_scenario(ScenarioConfig(weaving_drive(2), ARR, ch)).rows(slice(None))
        tracemalloc.start()
        try:
            ds = generate_scenario(ScenarioConfig(traj, ARR, ch)).rows(slice(None))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns = sum(c.nbytes for c in (ds.t, ds.tx, ds.rx, ds.powers, ds.best))
        # the per-sample loop held every spawned SeedSequence: 1.7x the columns
        assert peak < 1.3 * columns


CHUNK = ingest._CHUNK_ROWS


class TestStreamedDrive:
    CH = SyntheticChannelConfig(noise_power=1e-4, seed=3)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_streamed_write_equals_the_write_of_the_whole_rows(self, tmp_path, monkeypatch, n, k):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: k)
        scenario = ScenarioConfig(weaving_drive(n), ARR, self.CH)
        streamed = ingest.write_dataset(generate_scenario(scenario), tmp_path / "streamed.csv")
        whole = generate_scenario(scenario).rows(slice(None))
        assert len(whole) == n
        written = ingest.write_dataset(whole, tmp_path / "whole.csv")
        assert streamed.read_bytes() == written.read_bytes()

    @pytest.mark.parametrize(
        "sel",
        [slice(0, 5), slice(CHUNK - 3, CHUNK + 3), slice(300, 2 * CHUNK + 40), slice(-7, None)],
    )
    def test_rows_of_a_slice_are_those_rows_of_the_whole_drive(self, sel, cpus):
        drive = generate_scenario(ScenarioConfig(weaving_drive(2 * CHUNK + 77), ARR, self.CH))
        assert drive.rows(sel) == drive.rows(slice(None)).rows(sel)

    @pytest.mark.parametrize("sel", [slice(100, 100), slice(0, 0), slice(60, 40)])
    def test_an_empty_slice_gives_an_empty_dataset(self, sel):
        # slice(100, 100) used to fail with OSError [Errno 22]: a mapping of 0 bytes
        drive = generate_scenario(ScenarioConfig(weaving_drive(100), ARR, self.CH))
        whole = drive.rows(slice(None))
        for rows in (drive.rows(sel), whole.rows(sel)):
            assert len(rows) == 0 and rows.powers.shape == (0, 64)
        assert drive.rows(sel) == whole.rows(sel)

    def test_rows_take_a_slice_of_step_1(self):
        drive = generate_scenario(ScenarioConfig(weaving_drive(10), ARR, self.CH))
        assert (len(drive), drive.codebook_size) == (10, 64)
        with pytest.raises(ValueError, match="step 1"):
            drive.rows(slice(0, 10, 2))


class TestSubstreamStates:
    """``_pcg64_states`` repeats numpy's seeding: if numpy's changes, these fail."""

    @staticmethod
    def numpy_state(seed, key):
        return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(key,))).state["state"]

    @pytest.mark.parametrize(
        "seed, key",
        itertools.product(
            [0, 77, 2**32 - 1, 2**32 + 3, 2**70, 2**128 + 5],
            [0, 1, 12_345, 2**32 - 1, 2**32, 2**40 + 7],
        ),
    )
    def test_pinned_seeds_and_keys(self, seed, key):
        keys = np.array([key], dtype=np.uint64)
        assert list(synthchan._pcg64_states(seed, keys)) == [self.numpy_state(seed, key)]

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**200),
        keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
    )
    @example(seed=2**70, keys=[2**32 - 1, 2**32, 0, 2**64 - 1])  # one- and two-word keys mixed
    def test_states_equal_numpy_seeding(self, seed, keys):
        got = list(synthchan._pcg64_states(seed, np.array(keys, dtype=np.uint64)))
        assert got == [self.numpy_state(seed, key) for key in keys]

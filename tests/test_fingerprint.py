import json
import tracemalloc

import numpy as np
import pytest
from conftest import make_dataset

from v2vbeam.errors import EmptyDatasetError
from v2vbeam.fingerprint import (
    BinGrid,
    FingerprintDatabase,
    BinStats,
    build_database,
    evaluate_baseline,
    query_candidates,
    save_database,
)
from v2vbeam.ingest import SplitSpec, split
from v2vbeam.geodata import (
    GeoPosition,
    NormalizationParams,
    NormalizedPosition,
    normalize,
)

NORM = NormalizationParams(0.0, 1.0, 0.0, 1.0)


class TestBuildDatabase:
    def test_single_sample_single_bin(self):
        ds = make_dataset([[1.0, 3.0, 2.0]], tx=(0.1, 0.1))
        db = build_database(ds, BinGrid.unit_square(4), NORM)
        assert len(db) == 1
        ((key, stats),) = db.bins.items()
        assert stats.count == 1
        assert np.array_equal(stats.mean_power, [1.0, 3.0, 2.0])

    def test_two_samples_one_bin_mean(self):
        ds = make_dataset([[1.0, 3.0, 2.0], [3.0, 1.0, 2.0]], tx=[(0.1, 0.1), (0.12, 0.12)])
        db = build_database(ds, BinGrid.unit_square(4), NORM)
        assert len(db) == 1
        ((_, stats),) = db.bins.items()
        assert stats.count == 2
        assert np.allclose(stats.mean_power, [2.0, 2.0, 2.0])

    def test_distant_bins_independent(self):
        ds = make_dataset([[9.0, 1.0], [1.0, 9.0]], tx=[(0.1, 0.1), (0.9, 0.9)])
        db = build_database(ds, BinGrid.unit_square(4), NORM)
        assert len(db) == 2
        means = sorted(tuple(b.mean_power) for b in db.bins.values())
        assert means == [(1.0, 9.0), (9.0, 1.0)]

    def test_empty_dataset_rejected(self):
        with pytest.raises(EmptyDatasetError):
            build_database(make_dataset(np.empty((0, 2))), BinGrid.unit_square(4), NORM)

    def test_order_independent_means(self):
        rng = np.random.default_rng(11)
        lats, powers = zip(*[(0.3 + 1e-4 * rng.random(), rng.uniform(0, 1, 8)) for _ in range(500)])
        ds_fwd = make_dataset(powers, tx=[(lat, 0.3) for lat in lats])
        ds_rev = ds_fwd.rows(slice(None, None, -1))
        fwd = build_database(ds_fwd, BinGrid.unit_square(4), NORM)
        rev = build_database(ds_rev, BinGrid.unit_square(4), NORM)
        assert fwd.bins.keys() == rev.bins.keys()
        for key in fwd.bins:
            a, b = fwd.bins[key].mean_power, rev.bins[key].mean_power
            assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(np.abs(a), 1.0))

    def test_heap_peak_near_the_sums(self):
        # a drive north with a random lateral spread: 3,200 rows of 256 powers in 209
        # bins of a 16 x 16 grid, so one (bins x beams) array of sums is 0.43 MB
        n = 3200
        lon = 0.5 + 0.146 * np.random.default_rng(0).normal(size=n)
        tx = np.column_stack([np.arange(n) / n, lon])
        ds = make_dataset(np.random.default_rng(1).uniform(0.0, 1.0, (n, 256)), tx=tx)
        grid = BinGrid.unit_square(16)
        build_database(ds, grid, NORM)  # warm-up: imports and caches
        tracemalloc.start()
        try:
            db = build_database(ds, grid, NORM)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(db) == 209
        # the sums, their compensations and one gather buffer (3.5 times the sums);
        # gathering and scattering each bin rank's rows peaked at 8 times the sums
        assert peak < 4.5 * len(db) * ds.codebook_size * 8


class TestQueryCandidates:
    def _db(self):
        grid = BinGrid.unit_square(4)
        bins = {
            (0, 0): BinStats(2, np.array([0.1, 0.5, 0.4, 0.2])),
            (2, 2): BinStats(1, np.array([0.9, 0.1, 0.2, 0.3])),
        }
        return FingerprintDatabase(grid=grid, codebook_size=4, bins=bins)

    def test_top_1(self):
        db = self._db()
        assert query_candidates(db, NormalizedPosition(0.6, 0.6), 1) == [0]

    def test_top_3_sorted(self):
        db = self._db()
        assert query_candidates(db, NormalizedPosition(0.1, 0.1), 3) == [1, 2, 3]

    def test_tie_breaks_low_index(self):
        grid = BinGrid.unit_square(2)
        db = FingerprintDatabase(
            grid=grid,
            codebook_size=3,
            bins={(0, 0): BinStats(1, np.array([0.5, 0.5, 0.1]))},
        )
        assert query_candidates(db, NormalizedPosition(0.1, 0.1), 2) == [0, 1]

    def test_empty_bin_falls_back_to_nearest(self):
        db = self._db()
        # (3, 3) is empty; nearest stored bin is (2, 2)
        assert query_candidates(db, NormalizedPosition(0.95, 0.95), 1) == [0]

    def test_fallback_tie_breaks_lowest_row_col(self):
        grid = BinGrid.unit_square(4)
        db = FingerprintDatabase(
            grid=grid,
            codebook_size=2,
            bins={
                (0, 2): BinStats(1, np.array([0.0, 1.0])),
                (2, 0): BinStats(1, np.array([1.0, 0.0])),
            },
        )
        # query bin (1, 1) is equidistant from both; (0, 2) wins the tie
        assert query_candidates(db, NormalizedPosition(0.3, 0.3), 1) == [1]

    def test_m_capped_at_codebook(self):
        db = self._db()
        cands = query_candidates(db, NormalizedPosition(0.1, 0.1), 99)
        assert sorted(cands) == [0, 1, 2, 3]

    def test_prefix_monotone_in_m(self):
        db = self._db()
        pos = NormalizedPosition(0.1, 0.1)
        for m in range(1, 4):
            assert query_candidates(db, pos, m) == query_candidates(db, pos, m + 1)[:m]

    def test_duplicate_free(self):
        db = self._db()
        cands = query_candidates(db, NormalizedPosition(0.1, 0.1), 4)
        assert len(cands) == len(set(cands))


class TestEvaluateBaseline:
    def test_memorization_limit(self):
        # one sample per bin, replayed as test -> perfect top-1
        powers = np.random.default_rng(5).uniform(0, 1, (10, 6))
        ds = make_dataset(powers, tx=[(i / 10 + 0.05,) * 2 for i in range(10)])
        db = build_database(ds, BinGrid.unit_square(10), NORM)
        cands = evaluate_baseline(db, ds, NORM, 1)
        assert cands.shape == (10, 1) and cands.dtype.kind == "i"
        assert cands[:, 0].tolist() == powers.argmax(axis=1).tolist()

    def test_m_full_is_permutation(self):
        ds = make_dataset([[0.3, 0.1, 0.2, 0.9]], tx=(0.5, 0.5))
        db = build_database(ds, BinGrid.unit_square(4), NORM)
        (cands,) = evaluate_baseline(db, ds, NORM, 4)
        assert sorted(cands.tolist()) == [0, 1, 2, 3]

    def test_empty_test_set(self):
        ds = make_dataset([[1.0, 2.0]], tx=(0.5, 0.5))
        db = build_database(ds, BinGrid.unit_square(4), NORM)
        assert evaluate_baseline(db, make_dataset(np.empty((0, 2))), NORM, 1).shape == (0, 1)


def oracle_query(db, pos, m):
    """Reference: the own bin, else a min over every occupied bin's center distance."""
    key = db.grid.bin_of(pos)
    if key not in db.bins:
        center = db.grid.center_of(key)
        key = min(
            db.bins,
            key=lambda k: (
                (db.grid.center_of(k)[0] - center[0]) ** 2
                + (db.grid.center_of(k)[1] - center[1]) ** 2,
                k,
            ),
        )
    order = np.argsort(-db.bins[key].mean_power, kind="stable")
    return [int(i) for i in order[:m]]


def oracle_build(train, grid, norm):
    """Reference: one Kahan step per sample, in dataset order, into a dict of bins."""
    sums, comps, counts = {}, {}, {}
    for tx, powers in zip(train.tx.tolist(), train.powers):
        key = grid.bin_of(normalize(GeoPosition(*tx), norm))
        if key not in sums:
            sums[key] = np.zeros(train.codebook_size)
            comps[key] = np.zeros(train.codebook_size)
            counts[key] = 0
        y = powers - comps[key]
        t = sums[key] + y
        comps[key] = (t - sums[key]) - y
        sums[key] = t
        counts[key] += 1
    return {key: (counts[key], sums[key] / counts[key]) for key in sums}


class TestVectorisedAgainstReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_evaluate_baseline_matches_per_query_min(self, seed):
        rng = np.random.default_rng(seed)
        # non-square bins on a shifted origin; queries also land outside the grid
        grid = BinGrid(NormalizedPosition(0.05, -0.1), 0.13, 0.07)
        q = 6
        occupied = {
            (int(r), int(c)) for r, c in rng.integers(0, 8, size=(rng.integers(1, 12), 2))
        }
        bins = {
            key: BinStats(int(rng.integers(1, 5)), rng.integers(0, 3, q).astype(float))
            for key in occupied
        }
        db = FingerprintDatabase(grid=grid, codebook_size=q, bins=bins)
        # bin centers plus jitter, so many queries sit equidistant from two bins
        centers = [grid.center_of((int(r), int(c))) for r, c in rng.integers(-3, 12, (300, 2))]
        jitter = rng.uniform(-0.4, 0.4, (300, 2)) * [0.13, 0.07] * rng.integers(0, 2, (300, 1))
        uv = np.array(centers) + jitter
        uv[:20] = rng.uniform(-1.0, 2.0, (20, 2))
        test = make_dataset(rng.uniform(0.1, 1.0, (len(uv), q)), tx=uv)
        for m in (1, 3, q, q + 2):
            want = [
                oracle_query(db, normalize(GeoPosition(*tx), NORM), m) for tx in test.tx.tolist()
            ]
            assert evaluate_baseline(db, test, NORM, m).tolist() == want

    def test_outside_grid_queries_fall_back(self):
        grid = BinGrid.unit_square(32)
        db = FingerprintDatabase(
            grid=grid,
            codebook_size=2,
            bins={(0, 0): BinStats(1, np.array([1.0, 0.0])), (31, 31): BinStats(1, np.array([0.0, 1.0]))},
        )
        # u or v below 0, or at 1.0 and above (key 32), are outside the grid
        points = [(-0.2, 0.1), (0.1, -0.01), (1.0, 0.99), (0.99, 1.0), (1.5, 1.5), (-0.5, 1.2)]
        test = make_dataset([[1.0, 2.0]] * len(points), t=np.zeros(len(points)), tx=points)
        want = [oracle_query(db, NormalizedPosition(u, v), 1) for u, v in points]
        assert want == [[0], [0], [1], [1], [1], [0]]
        assert evaluate_baseline(db, test, NORM, 1).tolist() == want

    @pytest.mark.parametrize("mode", ["shuffle", "sequential"])
    @pytest.mark.parametrize("seed", range(3))
    def test_rows_give_the_bytes_of_the_gathered_rows(self, tmp_path, mode, seed):
        # the train+val rows of a split: the first 80% of its order
        rng = np.random.default_rng(seed)
        n = 203
        uv = np.where(
            rng.random((n, 1)) < 0.6, rng.normal(0.5, 0.03, (n, 2)), rng.uniform(0, 1, (n, 2))
        )
        ds = make_dataset(rng.lognormal(0.0, 2.0, (n, 9)), tx=uv)
        tr, va, _ = split(n, SplitSpec(seed=seed), mode=mode)
        rows = slice(tr.start, va.stop) if mode == "sequential" else np.concatenate([tr, va])
        grid = BinGrid.unit_square(8)
        by_rows = save_database(build_database(ds, grid, NORM, rows), tmp_path / "rows.json")
        gathered = save_database(build_database(ds.rows(rows), grid, NORM), tmp_path / "part.json")
        assert by_rows.read_bytes() == gathered.read_bytes()

    def test_no_rows_rejected(self):
        ds = make_dataset(np.ones((5, 3)))
        for rows in (np.array([], dtype=np.int64), slice(2, 2)):
            with pytest.raises(EmptyDatasetError):
                build_database(ds, BinGrid.unit_square(4), NORM, rows)

    @pytest.mark.parametrize("seed", range(4))
    def test_build_database_bit_identical_to_per_sample_kahan(self, seed):
        rng = np.random.default_rng(seed)
        grid = BinGrid(NormalizedPosition(0.02, -0.05), 0.21, 0.12)
        # uneven occupancy: a few crowded bins and many sparse ones
        n = 400
        uv = np.where(
            rng.random((n, 1)) < 0.6,
            rng.normal(0.5, 0.03, (n, 2)),
            rng.uniform(-0.1, 1.1, (n, 2)),
        )
        train = make_dataset(rng.lognormal(0.0, 2.0, (n, 7)), tx=uv)
        db = build_database(train, grid, NORM)
        want = oracle_build(train, grid, NORM)
        assert db.bins.keys() == want.keys()
        for key, (count, mean) in want.items():
            assert db.bins[key].count == count
            assert np.array_equal(db.bins[key].mean_power, mean)


class TestPersistence:
    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        rows = [(rng.uniform(0.1, 0.9, 2), rng.uniform(0, 1, 4)) for _ in range(20)]
        tx, powers = zip(*rows)
        db = build_database(make_dataset(powers, tx=tx), BinGrid.unit_square(8), NORM)
        doc = json.loads(save_database(db, tmp_path / "db.json").read_text())
        assert doc["codebook_size"] == db.codebook_size
        assert doc["grid"] == {
            "origin_u": 0.0, "origin_v": 0.0, "bin_width_u": 0.125, "bin_width_v": 0.125
        }
        assert [(b["row"], b["col"]) for b in doc["bins"]] == sorted(db.bins)
        for b in doc["bins"]:
            stats = db.bins[b["row"], b["col"]]
            assert b["count"] == stats.count
            assert np.array_equal(b["mean_power"], stats.mean_power)

    def test_deterministic_bytes(self, tmp_path):
        ds = make_dataset([[1.0, 2.0, 3.0]], tx=(0.2, 0.7))
        db = build_database(ds, BinGrid.unit_square(4), NORM)
        a = save_database(db, tmp_path / "a.json").read_bytes()
        b = save_database(db, tmp_path / "b.json").read_bytes()
        assert a == b

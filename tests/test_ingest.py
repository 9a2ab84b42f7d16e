import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from v2vbeam import ingest, parallel
from v2vbeam.errors import (
    IndexMismatchError,
    RowParseError,
    SchemaMismatchError,
    V2VBeamError,
)
from v2vbeam.geodata import GeoPosition, validate_position
from v2vbeam.ingest import (
    Dataset,
    Sample,
    SplitSpec,
    concat,
    parse_dataset,
    split,
    write_dataset,
)


def make_sample(t, powers, lat=33.0, lon=-112.0, rx=None):
    powers = np.asarray(powers, dtype=float)
    return Sample(
        t=t,
        tx_pos=GeoPosition(lat, lon),
        rx_pos=rx,
        powers=powers,
        optimal_index=int(np.argmax(powers)),
    )


def make_dataset(n, q=4, period=0.1, seed=0):
    rng = np.random.default_rng(seed)
    samples = tuple(
        make_sample(
            i * period,
            rng.uniform(0.1, 2.0, q),
            lat=33.0 + 0.001 * i,
            lon=-112.0 + 0.0005 * i,
            rx=GeoPosition(33.0, -112.0),
        )
        for i in range(n)
    )
    return Dataset(samples=samples, codebook_size=q)


class TestSample:
    def test_argmax_invariant_enforced(self):
        with pytest.raises(ValueError):
            Sample(
                t=0.0,
                tx_pos=GeoPosition(0.0, 1.0),
                rx_pos=None,
                powers=np.array([1.0, 2.0]),
                optimal_index=0,
            )

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            make_sample(0.0, [-1.0, 2.0])

    def test_powers_frozen(self):
        s = make_sample(0.0, [1.0, 2.0])
        with pytest.raises(ValueError):
            s.powers[0] = 5.0

    def test_codebook_size_checked_by_dataset(self):
        with pytest.raises(ValueError):
            Dataset(samples=(make_sample(0.0, [1.0, 2.0]),), codebook_size=3)


class TestDatasetSamples:
    @pytest.mark.parametrize(
        "samples",
        [
            (),
            (make_sample(3, [1.0, 2.0]),),
            (make_sample(0, [2.0, 1.0], rx=GeoPosition(33.0, -112.0)), make_sample(1, [0.5, 1.5])),
        ],
        ids=["zero-rows", "one-row-int-t-no-rx", "two-rows-mixed-rx"],
    )
    def test_samples_are_rebuilt_equal(self, samples):
        ds = Dataset(samples=samples, codebook_size=2)
        assert ds.samples == samples
        # the dataset keeps its columns, not the caller's objects
        assert all(got is not given for got, given in zip(ds.samples, samples))
        assert Dataset(samples=ds.samples, codebook_size=2) == ds


class TestParseWrite:
    def test_three_row_round_trip(self, tmp_path):
        ds = make_dataset(3)
        path = write_dataset(ds, tmp_path / "d.csv")
        assert parse_dataset(path) == ds

    def test_empty_dataset_round_trip(self, tmp_path):
        ds = Dataset(samples=(), codebook_size=4)
        path = write_dataset(ds, tmp_path / "d.csv")
        back = parse_dataset(path)
        assert back == ds
        assert len(back) == 0

    def test_missing_rx_columns_round_trip(self, tmp_path):
        ds = Dataset(
            samples=(make_sample(0.0, [1.0, 2.0, 0.5]), make_sample(0.1, [2.0, 1.0, 0.5])),
            codebook_size=3,
        )
        path = write_dataset(ds, tmp_path / "d.csv")
        back = parse_dataset(path)
        assert back.samples[0].rx_pos is None
        assert back == ds

    def test_header_without_best_beam_is_accepted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "t,tx_lat,tx_lon,rx_lat,rx_lon,p0,p1\n0.0,33.0,-112.0,,,1.0,2.0\n"
        )
        ds = parse_dataset(path)
        assert ds.samples[0].optimal_index == 1
        assert ds.codebook_size == 2

    def test_wrong_power_column_count_in_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "t,tx_lat,tx_lon,rx_lat,rx_lon,best_beam,p0,p1\n"
            "0.0,33.0,-112.0,,,1,1.0\n"  # one power short
        )
        with pytest.raises(SchemaMismatchError):
            parse_dataset(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,tx_lat,tx_lon,rx_lat,rx_lon,best_beam,p0\n")
        with pytest.raises(SchemaMismatchError):
            parse_dataset(path)

    def test_misnumbered_power_columns_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,tx_lat,tx_lon,rx_lat,rx_lon,best_beam,p0,p2\n")
        with pytest.raises(SchemaMismatchError):
            parse_dataset(path)

    def test_stored_index_mismatch(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "t,tx_lat,tx_lon,rx_lat,rx_lon,best_beam,p0,p1\n"
            "0.0,33.0,-112.0,,,0,1.0,2.0\n"
        )
        with pytest.raises(IndexMismatchError) as exc:
            parse_dataset(path)
        assert exc.value.line == 2

    def test_unparseable_value_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "t,tx_lat,tx_lon,rx_lat,rx_lon,best_beam,p0,p1\n"
            "0.0,33.0,-112.0,,,1,1.0,2.0\n"
            "xx,33.0,-112.0,,,1,1.0,2.0\n"
        )
        with pytest.raises(RowParseError) as exc:
            parse_dataset(path)
        assert exc.value.line == 3

    def test_out_of_range_position_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "t,tx_lat,tx_lon,rx_lat,rx_lon,best_beam,p0,p1\n"
            "0.0,95.0,-112.0,,,1,1.0,2.0\n"
        )
        with pytest.raises(RowParseError):
            parse_dataset(path)

    def test_unwritable_path(self):
        ds = make_dataset(1)
        with pytest.raises(OSError):
            write_dataset(ds, "/nonexistent-dir/d.csv")

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(0, 40),
        q=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_property(self, tmp_path_factory, n, q, seed):
        ds = make_dataset(n, q=q, seed=seed)
        path = tmp_path_factory.mktemp("rt") / "d.csv"
        assert parse_dataset(write_dataset(ds, path)) == ds

    def test_generator_output_round_trips(self, tmp_path):
        import math

        from v2vbeam.synthchan import (
            ArrayConfig,
            SyntheticChannelConfig,
            TrajectoryConfig,
            generate_scenario,
        )

        traj = TrajectoryConfig(
            duration=3.0,
            sample_period=0.1,
            origin=GeoPosition(33.42, -111.93),
            tx_waypoints=((-20.0, 30.0), (20.0, 40.0)),
            rx_waypoints=((0.0, 0.0),),
            rx_heading=math.pi / 2,
        )
        ds = generate_scenario(
            traj, ArrayConfig(), SyntheticChannelConfig(noise_power=1e-4, seed=8)
        )
        path = write_dataset(ds, tmp_path / "scenario.csv")
        assert parse_dataset(path) == ds


class TestSplit:
    def test_sizes_1000(self):
        ds = make_dataset(1000, q=2)
        tr, va, te = split(ds, SplitSpec(seed=1))
        assert (len(tr), len(va), len(te)) == (600, 200, 200)

    def test_sizes_10(self):
        ds = make_dataset(10, q=2)
        tr, va, te = split(ds, SplitSpec(seed=1))
        assert (len(tr), len(va), len(te)) == (6, 2, 2)

    def test_remainder_goes_to_train(self):
        ds = make_dataset(7, q=2)
        tr, va, te = split(ds, SplitSpec(seed=1))
        assert (len(tr), len(va), len(te)) == (5, 1, 1)

    def test_same_seed_same_partition(self):
        ds = make_dataset(50, q=2)
        a = split(ds, SplitSpec(seed=7))
        b = split(ds, SplitSpec(seed=7))
        for x, y in zip(a, b):
            assert x == y

    def test_different_seeds_differ(self):
        ds = make_dataset(200, q=2)
        a = split(ds, SplitSpec(seed=1))
        b = split(ds, SplitSpec(seed=2))
        assert a[0] != b[0]

    def test_partition_property(self):
        ds = make_dataset(101, q=3)
        tr, va, te = split(ds, SplitSpec(seed=3))
        assert len(tr) + len(va) + len(te) == len(ds)
        seen = [s.t for part in (tr, va, te) for s in part.samples]
        assert sorted(seen) == [s.t for s in ds.samples]

    def test_sequential_mode_preserves_order(self):
        ds = make_dataset(10, q=2)
        tr, va, te = split(ds, SplitSpec(seed=9), mode="sequential")
        assert [s.t for s in tr.samples] == [pytest.approx(0.1 * i) for i in range(6)]
        assert [s.t for s in te.samples] == [pytest.approx(0.1 * i) for i in (8, 9)]

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.2, 0.2, seed=0)
        with pytest.raises(ValueError):
            SplitSpec(-0.1, 0.6, 0.5, seed=0)

    def test_shuffle_parts_are_the_permuted_rows(self):
        ds = make_dataset(103, q=3)
        order = np.random.default_rng(4).permutation(103)
        parts = split(ds, SplitSpec(seed=4))
        for part, rows in zip(parts, (order[:63], order[63:83], order[83:])):
            assert part == ds.rows(rows)

    @pytest.mark.parametrize("mode", ["shuffle", "sequential"])
    def test_train_val_concat_is_a_view(self, mode):
        ds = make_dataset(50, q=3)
        tr, va, te = split(ds, SplitSpec(seed=2), mode=mode)
        joined = concat([tr, va])
        assert joined == columns_concat([tr, va])
        for name in ("t", "tx", "rx", "powers", "best"):
            assert np.shares_memory(getattr(joined, name), getattr(tr, name))
            assert np.shares_memory(getattr(joined, name), getattr(va, name))

    def test_concat_of_parts_not_adjacent_raises(self):
        ds = make_dataset(50, q=3)
        tr, va, te = split(ds, SplitSpec(seed=2))
        other = split(make_dataset(50, q=3), SplitSpec(seed=2))
        for parts in ([tr, te], [va, tr], [tr, va, te, tr], [tr, other[1]], [ds], []):
            with pytest.raises(ValueError, match="adjacent row slices"):
                concat(parts)

    def test_split_and_train_val_peak_memory(self):
        # 20k rows of 64 powers, about 11 MB: the parts were three gathers and
        # train+val a fourth copy (peak about 1.8x the dataset); now the
        # permuted rows are gathered once and train+val is a view of them
        n, q = 20_000, 64
        rng = np.random.default_rng(5)
        powers = rng.uniform(0.1, 2.0, (n, q))
        ds = Dataset.from_columns(
            np.arange(n) * 0.1, rng.uniform(33.0, 33.1, (n, 2)),
            np.full((n, 2), np.nan), powers, powers.argmax(axis=1),
        )
        size = sum(getattr(ds, name).nbytes for name in ("t", "tx", "rx", "powers", "best"))
        tracemalloc.start()
        try:
            tr, va, _ = split(ds, SplitSpec(seed=6))
            concat([tr, va])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * size


def columns_concat(parts):
    """Reference concat: a copy of every column."""
    return Dataset.from_columns(
        *(np.concatenate([getattr(d, name) for d in parts])
          for name in ("t", "tx", "rx", "powers", "best"))
    )


# --- block I/O against the per-row reference ------------------------------------------


def oracle_write(d, path):
    """Reference writer: one csv.writer row per Sample."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["t", "tx_lat", "tx_lon", "rx_lat", "rx_lon", "best_beam"]
            + [f"p{i}" for i in range(d.codebook_size)]
        )
        for s in d.samples:
            writer.writerow(
                [
                    repr(float(s.t)),
                    repr(float(s.tx_pos.lat_deg)),
                    repr(float(s.tx_pos.lon_deg)),
                    repr(float(s.rx_pos.lat_deg)) if s.rx_pos else "",
                    repr(float(s.rx_pos.lon_deg)) if s.rx_pos else "",
                    str(s.optimal_index),
                ]
                + [repr(float(p)) for p in s.powers]
            )
    return path


def oracle_row(row, line_no, has_best_beam):
    def as_float(text, what):
        try:
            value = float(text)
        except ValueError:
            raise RowParseError(line_no, f"bad {what}: {text!r}") from None
        if not math.isfinite(value):
            raise RowParseError(line_no, f"non-finite {what}: {text!r}")
        return value

    t = as_float(row[0], "t")
    try:
        tx_pos = validate_position(
            GeoPosition(as_float(row[1], "tx_lat"), as_float(row[2], "tx_lon"))
        )
        rx_pos = None
        if row[3] or row[4]:
            rx_pos = validate_position(
                GeoPosition(as_float(row[3], "rx_lat"), as_float(row[4], "rx_lon"))
            )
    except RowParseError:
        raise
    except Exception as exc:
        raise RowParseError(line_no, str(exc)) from exc
    offset = 6 if has_best_beam else 5
    powers = np.array([as_float(cell, "power") for cell in row[offset:]])
    if np.any(powers < 0):
        raise RowParseError(line_no, "negative power value")
    computed = int(np.argmax(powers))
    if has_best_beam and row[5]:
        try:
            stored = int(row[5])
        except ValueError:
            raise RowParseError(line_no, f"bad best_beam: {row[5]!r}") from None
        if stored != computed:
            raise IndexMismatchError(line_no, stored, computed)
    return Sample(t=t, tx_pos=tx_pos, rx_pos=rx_pos, powers=powers, optimal_index=computed)


def oracle_parse(path):
    """Reference parser: csv.reader, one validated Sample per record."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        has_best_beam = header[5] == "best_beam"
        samples = []
        line_no = 2
        for row in reader:
            if len(row) != len(header):
                raise SchemaMismatchError(
                    f"line {line_no}: expected {len(header)} fields, got {len(row)}"
                )
            samples.append(oracle_row(row, line_no, has_best_beam))
            line_no = reader.line_num + 1
    return Dataset(
        samples=tuple(samples),
        codebook_size=len(header) - (6 if has_best_beam else 5),
    )


@pytest.fixture(params=[4, None], ids=["block4", "default-block"])
def block_rows(request, monkeypatch):
    """Run a test with tiny blocks and write chunks (so rows land in first, middle
    and last ones) and with the default sizes."""
    if request.param is not None:
        monkeypatch.setattr(ingest, "_BLOCK_ROWS", request.param)
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", request.param)


def scenario_dataset(n_seconds=1.2):
    from v2vbeam.synthchan import (
        ArrayConfig,
        SyntheticChannelConfig,
        TrajectoryConfig,
        generate_scenario,
    )

    traj = TrajectoryConfig(
        duration=n_seconds,
        sample_period=0.1,
        origin=GeoPosition(33.42, -111.93),
        tx_waypoints=((-20.0, 30.0), (20.0, 40.0)),
        rx_waypoints=((0.0, 0.0), (3.0, 1.0)),
        rx_heading=math.pi / 2,
    )
    return generate_scenario(
        traj, ArrayConfig(), SyntheticChannelConfig(noise_power=1e-4, seed=8)
    )


class TestBlockWrite:
    def test_generated_drive_matches_csv_writer(self, tmp_path, block_rows):
        ds = scenario_dataset()
        got = write_dataset(ds, tmp_path / "a.csv").read_bytes()
        assert got == oracle_write(ds, tmp_path / "b.csv").read_bytes()

    def test_rows_without_rx_match_csv_writer(self, tmp_path, block_rows):
        rng = np.random.default_rng(4)
        samples = tuple(
            make_sample(
                0.1 * i,
                rng.uniform(0.0, 3.0, 5),
                lat=-33.0 - 1e-3 * i,
                lon=151.0 + 1e-3 * i,
                rx=GeoPosition(-33.5, 151.5) if i % 3 == 0 else None,
            )
            for i in range(11)
        )
        ds = Dataset(samples=samples, codebook_size=5)
        got = write_dataset(ds, tmp_path / "a.csv").read_bytes()
        assert got == oracle_write(ds, tmp_path / "b.csv").read_bytes()


@pytest.fixture(params=[1, 2, 3], ids=["1cpu", "2cpu", "3cpu"])
def cpus(request, monkeypatch):
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: request.param)
    return request.param


def mixed_rx_dataset(n):
    rng = np.random.default_rng(5)
    samples = tuple(
        make_sample(
            0.1 * i,
            rng.uniform(0.0, 3.0, 6),
            lat=47.0 + 1e-4 * i,
            lon=-122.0 - 1e-4 * i,
            rx=GeoPosition(47.5, -122.5 + 1e-5 * i) if i % 4 < 2 else None,
        )
        for i in range(n)
    )
    return Dataset(samples=samples, codebook_size=6)


class TestChunkedWrite:
    @pytest.mark.parametrize("n", [0, 1, 13])
    def test_matches_csv_writer_on_any_cpu_count(self, tmp_path, monkeypatch, cpus, n):
        # 13 rows: three full chunks and one row
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", 4)
        ds = mixed_rx_dataset(n)
        got = write_dataset(ds, tmp_path / "a.csv").read_bytes()
        assert got == oracle_write(ds, tmp_path / "b.csv").read_bytes()
        assert parse_dataset(tmp_path / "a.csv") == ds
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv"]

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(ingest, "_CHUNK_ROWS", 4)
        target = tmp_path / "a.csv"
        target.write_bytes(b"old bytes")
        real_format_rows = ingest._format_rows

        def format_rows(d, start):
            if start == 4:  # a worker's chunk on 2 or more CPUs
                raise OSError("disk full")
            return real_format_rows(d, start)

        monkeypatch.setattr(ingest, "_format_rows", format_rows)
        with pytest.raises(OSError, match="disk full"):
            write_dataset(mixed_rx_dataset(13), target)
        assert target.read_bytes() == b"old bytes"
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]


HEADER = "t,tx_lat,tx_lon,rx_lat,rx_lon,best_beam,p0,p1,p2\n"


def good_row(i):
    return f"{0.1 * i!r},33.0,{-112.0 + 1e-3 * i!r},,,2,0.5,1.5,{2.0 + i!r}\n"


class TestBlockParse:
    def check_same(self, path):
        want = oracle_parse(path)
        got = parse_dataset(path)
        assert got == want
        assert got.samples == want.samples

    def test_generated_drive(self, tmp_path, block_rows):
        self.check_same(write_dataset(scenario_dataset(), tmp_path / "d.csv"))

    def test_quoted_fields(self, tmp_path, block_rows):
        rows = [good_row(i) for i in range(10)]
        rows[5] = '"0.5","33.0","-112.0",,,"2","0.5","1.5","7.0"\n'
        # a quoted cell holding a line break that crosses a block boundary
        rows[3] = '0.3,33.0,-112.0,,,2,0.5,"1.5\n",9.0\n'
        path = tmp_path / "d.csv"
        path.write_text(HEADER + "".join(rows), encoding="utf-8")
        self.check_same(path)

    def test_crlf_line_endings(self, tmp_path, block_rows):
        path = tmp_path / "d.csv"
        text = HEADER + "".join(good_row(i) for i in range(9))
        path.write_bytes(text.replace("\n", "\r\n").encode())
        self.check_same(path)

    def test_header_without_best_beam(self, tmp_path, block_rows):
        path = tmp_path / "d.csv"
        rows = [f"{0.1 * i!r},33.0,-112.0,,,{1.0 + i!r},2.5\n" for i in range(9)]
        path.write_text("t,tx_lat,tx_lon,rx_lat,rx_lon,p0,p1\n" + "".join(rows))
        self.check_same(path)

    def test_empty_best_beam_cells(self, tmp_path, block_rows):
        rows = [good_row(i) for i in range(9)]
        for i in (0, 4, 8):
            rows[i] = rows[i].replace(",,,2,", ",,,,")
        path = tmp_path / "d.csv"
        path.write_text(HEADER + "".join(rows))
        self.check_same(path)

    def test_mixed_rx_present_and_absent(self, tmp_path, block_rows):
        rows = [good_row(i) for i in range(9)]
        for i in (1, 4, 5, 8):
            rows[i] = rows[i].replace(",,,2,", ",33.1,-112.1,2,")
        path = tmp_path / "d.csv"
        path.write_text(HEADER + "".join(rows))
        self.check_same(path)

    def test_plain_rows_skip_the_per_row_path(self, tmp_path, block_rows, monkeypatch):
        rows = [good_row(i) for i in range(9)]
        for i in (1, 4, 5, 8):
            rows[i] = rows[i].replace(",,,2,", ",33.1,-112.1,,")
        path = tmp_path / "d.csv"
        path.write_text(HEADER + "".join(rows))
        want = oracle_parse(path)

        def read_rows(*args):
            raise AssertionError("a plain block went through csv.reader")

        monkeypatch.setattr(ingest, "_read_rows", read_rows)
        assert parse_dataset(path) == want

    def test_no_final_newline(self, tmp_path, block_rows):
        path = tmp_path / "d.csv"
        path.write_text(HEADER + "".join(good_row(i) for i in range(8)).rstrip("\n"))
        self.check_same(path)


BAD_ROWS = {
    "field count": "0.0,33.0,-112.0,,,2,0.5,1.5\n",
    "blank line": "\n",
    "bad t": "xx,33.0,-112.0,,,2,0.5,1.5,2.0\n",
    "non-finite t": "nan,33.0,-112.0,,,2,0.5,1.5,2.0\n",
    "bad tx": "0.0,33.0,east,,,2,0.5,1.5,2.0\n",
    "lat out of range": "0.0,95.0,-112.0,,,2,0.5,1.5,2.0\n",
    "rx lon out of range": "0.0,33.0,-112.0,33.0,190.0,2,0.5,1.5,2.0\n",
    "half an rx fix": "0.0,33.0,-112.0,33.0,,2,0.5,1.5,2.0\n",
    "non-finite power": "0.0,33.0,-112.0,,,2,0.5,1.5,inf\n",
    "negative power": "0.0,33.0,-112.0,,,2,-0.5,1.5,2.0\n",
    "bad best_beam": "0.0,33.0,-112.0,,,two,0.5,1.5,2.0\n",
    "best_beam mismatch": "0.0,33.0,-112.0,,,0,0.5,1.5,2.0\n",
    # the argmax written as a float: int() rejects it, a float column would not
    "best_beam as a float": "0.0,33.0,-112.0,,,2.0,0.5,1.5,2.0\n",
    # an int past int64, which numpy would hold only in an object array
    "best_beam past int64": "0.0,33.0,-112.0,,,18446744073709551616,0.5,1.5,2.0\n",
    # a comment-stripping reader would keep "2.0"
    "# in a power": "0.0,33.0,-112.0,,,2,0.5,1.5,2.0#\n",
    # an empty line between two rows, which a reader skipping empty lines would drop
    "blank line before a row": "\n0.0,33.0,-112.0,,,2,0.5,1.5,2.0\n",
    # float() rejects \x1c-\x1f where numpy's number reader strips them as space
    "\\x1c after a power": "0.0,33.0,-112.0,,,2,0.5,1.5,2.0\x1c\n",
    # NaN is also how an empty rx cell reads
    "nan rx fix": "0.0,33.0,-112.0,nan,nan,2,0.5,1.5,2.0\n",
}


class TestBlockParseErrors:
    @pytest.mark.parametrize("kind", sorted(BAD_ROWS))
    @pytest.mark.parametrize("index", [0, 6, 10], ids=["first-block", "middle-block", "last-line"])
    def test_error_and_line_match_per_row_parser(self, tmp_path, block_rows, kind, index):
        rows = [good_row(i) for i in range(11)]
        rows[index] = BAD_ROWS[kind]
        path = tmp_path / "d.csv"
        path.write_text(HEADER + "".join(rows))
        with pytest.raises(V2VBeamError) as want:
            oracle_parse(path)
        with pytest.raises(type(want.value)) as got:
            parse_dataset(path)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"line {index + 2}:")

    def test_line_after_a_quoted_line_break_is_the_physical_line(self, tmp_path, block_rows):
        rows = [good_row(i) for i in range(10)]
        rows[3] = '0.3,33.0,-112.0,,,2,0.5,"1.5\n",9.0\n'  # lines 5 and 6
        rows[5] = "0.5,33.0,east,,,2,0.5,1.5,2.0\n"
        path = tmp_path / "d.csv"
        path.write_text(HEADER + "".join(rows))
        assert str(assert_same_error(path)) == "line 8: bad tx_lon: 'east'"

    @pytest.mark.parametrize("index", [0, 6, 10])
    def test_all_zero_powers_rejected_with_line(self, tmp_path, block_rows, index):
        rows = [good_row(i) for i in range(11)]
        rows[index] = "0.0,33.0,-112.0,,,0,0.0,0.0,0.0\n"
        path = tmp_path / "d.csv"
        path.write_text(HEADER + "".join(rows))
        with pytest.raises(RowParseError) as exc:
            parse_dataset(path)
        assert exc.value.line == index + 2
        assert "all powers are zero" in str(exc.value)


# --- row chunks parsed on the pool ------------------------------------------------------


@pytest.fixture
def blocks_of_4(monkeypatch):
    """11 rows make chunks of rows 0-3, 4-7 and 8-10 (lines 2-5, 6-9, 10-12)."""
    monkeypatch.setattr(ingest, "_BLOCK_ROWS", 4)


def assert_same_bytes(got, want):
    for name in ("t", "tx", "rx", "powers", "best"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def assert_same_error(path):
    with pytest.raises(Exception) as want:
        oracle_parse(path)
    with pytest.raises(type(want.value)) as got:
        parse_dataset(path)
    assert str(got.value) == str(want.value)
    return got.value


class TestPooledParse:
    def test_columns_are_the_oracles_bytes(self, tmp_path, block_rows, cpus):
        path = write_dataset(mixed_rx_dataset(1101), tmp_path / "d.csv")
        assert_same_bytes(parse_dataset(path), oracle_parse(path))
        # float reads 1_0 as 10 where loadtxt fails: the last span fails after the
        # earlier spans have filled the columns, and csv.reader reads the file again
        *lines, last = path.read_text().splitlines(keepends=True)
        cells = last.split(",")
        cells[5], cells[-1] = "5", "1_0\n"
        path.write_text("".join(lines) + ",".join(cells))
        assert_same_bytes(parse_dataset(path), oracle_parse(path))

    @pytest.mark.parametrize("kind", sorted(BAD_ROWS))
    @pytest.mark.parametrize("index", [0, 6, 10], ids=["first-chunk", "middle-chunk", "last-chunk"])
    def test_error_and_line_in_any_chunk(self, tmp_path, blocks_of_4, cpus, kind, index):
        rows = [good_row(i) for i in range(11)]
        rows[index] = BAD_ROWS[kind]
        path = tmp_path / "d.csv"
        path.write_text(HEADER + "".join(rows))
        error = assert_same_error(path)
        assert str(error).startswith(f"line {index + 2}:")

    @pytest.mark.parametrize("where", ["quote", "cr"])
    def test_quote_or_cr_past_the_first_chunk_parses_serially(
        self, tmp_path, blocks_of_4, cpus, monkeypatch, where
    ):
        rows = [good_row(i) for i in range(11)]
        if where == "quote":
            # a quoted cell with a line break, running from the second chunk into the third
            rows[7] = '0.7,33.0,-112.0,,,2,0.5,"1.5\n",9.0\n'
        else:
            # a bare CR, which csv.reader reads as a line end and loadtxt would not
            rows[9] = rows[9].replace("\n", "\r")
        path = tmp_path / "d.csv"
        path.write_text(HEADER + "".join(rows), newline="")

        def parse_span(*args):
            raise AssertionError("a file with a quote or CR reached the chunked parse")

        monkeypatch.setattr(ingest, "_parse_span", parse_span)
        assert_same_bytes(parse_dataset(path), oracle_parse(path))

    @pytest.mark.parametrize("crlf", [range(12), [10], [0]], ids=["every-line", "one-line", "header"])
    def test_crlf_line_ends_parse_on_the_pool(self, tmp_path, blocks_of_4, cpus, monkeypatch, crlf):
        lines = [HEADER] + [good_row(i) for i in range(11)]
        for i in crlf:
            lines[i] = lines[i].replace("\n", "\r\n")
        path = tmp_path / "d.csv"
        path.write_text("".join(lines), newline="")

        def read_rows(*args):
            raise AssertionError("a file whose every CR ends a line reached csv.reader")

        monkeypatch.setattr(ingest, "_read_rows", read_rows)
        assert_same_bytes(parse_dataset(path), oracle_parse(path))

    @pytest.mark.parametrize("line_end", ["\r\n", "\r"])
    def test_cr_at_the_end_of_a_64kb_piece(self, tmp_path, cpus, monkeypatch, line_end):
        # _scan reads 64 KB pieces: a CR that ends one is paired with an LF that starts
        # the next, and a CR without its LF still sends the file to csv.reader
        text = HEADER + "".join(good_row(i) for i in range(1400))
        text = text[: text.rindex("\n", 0, 65000) + 1]
        row = good_row(9999).rstrip("\n")
        row = row.replace(",0.5,", ",0.5" + "0" * (65535 - len(text) - len(row)) + ",")
        text += row + line_end + "".join(good_row(i) for i in range(9))
        assert text.index("\r") == 65535
        path = tmp_path / "d.csv"
        path.write_text(text, newline="")
        calls, read_rows = [], ingest._read_rows
        monkeypatch.setattr(ingest, "_read_rows", lambda *args: calls.append(1) or read_rows(*args))
        assert_same_bytes(parse_dataset(path), oracle_parse(path))
        assert len(calls) == (line_end == "\r")

    @pytest.mark.parametrize("index", [0, 2999])
    def test_stray_quote_fails_with_the_line_of_its_record(self, tmp_path, cpus, index):
        # the quote runs its field on past csv's field size limit (128 KB)
        rows = [good_row(i) for i in range(7000)]
        rows[index] = '"' + rows[index]
        path = tmp_path / "d.csv"
        path.write_text(HEADER + "".join(rows))
        with pytest.raises(RowParseError) as exc:
            parse_dataset(path)
        assert exc.value.line == index + 2
        assert "field larger than field limit" in str(exc.value)

    @pytest.mark.parametrize("index", [5, 250, 399])
    def test_non_utf8_byte_in_a_later_chunk(self, tmp_path, blocks_of_4, cpus, index):
        # 400 rows are about 18 KB; the text layer decodes 8 KB at a time, and the
        # message holds the byte's position in the piece being decoded
        rows = [good_row(i).encode() for i in range(400)]
        rows[index] = rows[index].replace(b"33.0", b"33.\xff")
        path = tmp_path / "d.csv"
        path.write_bytes(HEADER.encode() + b"".join(rows))
        assert path.stat().st_size > 16384
        assert isinstance(assert_same_error(path), UnicodeDecodeError)

    @pytest.mark.parametrize("n", [8, 12])
    @pytest.mark.parametrize("final_newline", [True, False])
    def test_row_count_a_multiple_of_the_chunk(self, tmp_path, blocks_of_4, cpus, n, final_newline):
        text = HEADER + "".join(good_row(i) for i in range(n))
        path = tmp_path / "d.csv"
        path.write_text(text if final_newline else text.rstrip("\n"))
        got = parse_dataset(path)
        assert len(got) == n
        assert_same_bytes(got, oracle_parse(path))

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_trailing_blank_line_fails_as_serially(self, tmp_path, blocks_of_4, cpus, n):
        path = tmp_path / "d.csv"
        path.write_text(HEADER + "".join(good_row(i) for i in range(n)) + "\n")
        error = assert_same_error(path)
        assert isinstance(error, SchemaMismatchError)
        assert str(error).startswith(f"line {n + 2}:")

    def test_header_only(self, tmp_path, blocks_of_4, cpus):
        for text in (HEADER, HEADER.rstrip("\n")):
            path = tmp_path / "d.csv"
            path.write_text(text)
            assert len(parse_dataset(path)) == 0


@pytest.mark.parametrize(
    "text",
    [HEADER, HEADER.rstrip("\n"), HEADER + good_row(0), HEADER + good_row(0).rstrip("\n")]
    + [HEADER + "".join(good_row(i) for i in range(9)).rstrip("\n")],
    ids=["header-only", "header-only-no-newline", "one-row", "one-row-no-newline", "no-final-newline"],
)
def test_short_files_parse_without_warnings(tmp_path, block_rows, cpus, text):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = parse_dataset(path)
    assert_same_bytes(got, oracle_parse(path))


def test_trailing_blank_line_fails_without_warnings(tmp_path, blocks_of_4, cpus):
    # 8 rows end the second block; the blank line is a block of its own
    path = tmp_path / "d.csv"
    path.write_text(HEADER + "".join(good_row(i) for i in range(8)) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert isinstance(assert_same_error(path), SchemaMismatchError)


# --- cells that float() and a C number reader may read differently ----------------------

# cells that float() reads as a number or rejects, some of which a C number reader reads otherwise
ODD_NUMBERS = [
    "1_0", "\u0661\u0662", " 1.5", "1.5 ", "\xa01.5", "+1", ".5", "1e5", "-0.0",
    "nan", "inf", "-inf", "1\x1c", "1#", "",
    # a number, but one that breaks a row rule: bounds, sign, or a finite value
    "95.0", "-200.0", "-0.5", "0.0", "7", "1e999",
]


@st.composite
def odd_row(draw, i):
    """A row of three powers, often with one or two cells written oddly; its
    best_beam is the argmax where the powers read as numbers, so most rows are
    good ones, and a row with two faults pins which of its errors comes first."""
    rx = [["", ""]] * 3 + [["33.5", "-112.5"]] * 3 + [["nan", "nan"]]
    cells = [f"{0.1 * i!r}", "33.0", "-112.0", *draw(st.sampled_from(rx))]
    powers = draw(st.lists(st.sampled_from(["0.5", "1.5", "2.25", "3e-3"]), min_size=3, max_size=3))
    columns = draw(st.lists(st.integers(0, 24), min_size=2, max_size=2))
    for column in columns:
        if column < 5:
            cells[column] = draw(st.sampled_from(ODD_NUMBERS))
        elif column < 8:
            powers[column - 5] = draw(st.sampled_from(ODD_NUMBERS))
    try:
        best = int(np.argmax([float(p) for p in powers]))
    except ValueError:
        best = 0
    label = str(best)
    if 8 in columns:
        label = draw(st.sampled_from(
            [f" {best}", f"{best} ", f"+{best}", f"{best}.0", "\u0660\u0661\u0662"[best], "", f"{best}_0"]
        ))
    return ",".join([*cells, label, *powers]) + "\n"


class TestParseMatchesFloatReading:
    @pytest.mark.parametrize("n_cpus", [1, 2])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 11), final_newline=st.booleans())
    def test_columns_or_error_of_the_oracle(self, tmp_path_factory, n_cpus, data, n, final_newline):
        text = HEADER + "".join(data.draw(odd_row(i)) for i in range(n))
        path = tmp_path_factory.mktemp("odd") / "d.csv"
        path.write_text(text if final_newline else text.rstrip("\n"), encoding="utf-8")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel, "_usable_cpus", lambda: n_cpus)
            mp.setattr(ingest, "_BLOCK_ROWS", 4)
            try:
                want = oracle_parse(path)
            except V2VBeamError as exc:
                with pytest.raises(type(exc)) as got:
                    parse_dataset(path)
                assert str(got.value) == str(exc)
            else:
                assert_same_bytes(parse_dataset(path), want)

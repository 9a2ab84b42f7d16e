import csv
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import make_dataset
from hypothesis import given, settings, strategies as st

from v2vbeam import floatrepr, ingest, parallel
from v2vbeam.errors import (
    IndexMismatchError,
    RowParseError,
    SchemaMismatchError,
    V2VBeamError,
)
from v2vbeam.geodata import GeoPosition, validate_position
from v2vbeam.ingest import (
    Dataset,
    SplitSpec,
    parse_dataset,
    split,
    write_dataset,
)


def drive(n, q=4, seed=0):
    """n rows of uniform powers, the transmitter moving away from a parked receiver."""
    i = np.arange(n)
    tx = np.column_stack([33.0 + 0.001 * i, -112.0 + 0.0005 * i])
    powers = np.random.default_rng(seed).uniform(0.1, 2.0, (n, q))
    return make_dataset(powers, tx=tx, rx=(33.0, -112.0))


class TestParseWrite:
    def test_three_row_round_trip(self, tmp_path):
        ds = drive(3)
        path = write_dataset(ds, tmp_path / "d.csv")
        assert parse_dataset(path) == ds

    def test_empty_dataset_round_trip(self, tmp_path):
        ds = make_dataset(np.empty((0, 4)))
        path = write_dataset(ds, tmp_path / "d.csv")
        back = parse_dataset(path)
        assert back == ds
        assert len(back) == 0

    def test_missing_rx_columns_round_trip(self, tmp_path):
        ds = make_dataset([[1.0, 2.0, 0.5], [2.0, 1.0, 0.5]], tx=(33.0, -112.0))
        path = write_dataset(ds, tmp_path / "d.csv")
        back = parse_dataset(path)
        assert np.isnan(back.rx[0]).all()
        assert back == ds

    def test_header_without_best_beam_is_accepted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "t,tx_lat,tx_lon,rx_lat,rx_lon,p0,p1\n0.0,33.0,-112.0,,,1.0,2.0\n"
        )
        ds = parse_dataset(path)
        assert ds.best[0] == 1
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
        ds = drive(1)
        with pytest.raises(OSError):
            write_dataset(ds, "/nonexistent-dir/d.csv")

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(0, 40),
        q=st.integers(2, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_property(self, tmp_path_factory, n, q, seed):
        ds = drive(n, q=q, seed=seed)
        path = tmp_path_factory.mktemp("rt") / "d.csv"
        assert parse_dataset(write_dataset(ds, path)) == ds

    def test_generator_output_round_trips(self, tmp_path):
        import math

        from v2vbeam.synthchan import (
            ArrayConfig,
            ScenarioConfig,
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
            ScenarioConfig(traj, ArrayConfig(), SyntheticChannelConfig(noise_power=1e-4, seed=8))
        ).rows(slice(None))
        path = write_dataset(ds, tmp_path / "scenario.csv")
        assert parse_dataset(path) == ds


class TestSplit:
    def test_sizes_1000(self):
        tr, va, te = split(1000, SplitSpec(seed=1))
        assert (len(tr), len(va), len(te)) == (600, 200, 200)

    def test_sizes_10(self):
        tr, va, te = split(10, SplitSpec(seed=1))
        assert (len(tr), len(va), len(te)) == (6, 2, 2)

    def test_remainder_goes_to_train(self):
        tr, va, te = split(7, SplitSpec(seed=1))
        assert (len(tr), len(va), len(te)) == (5, 1, 1)

    def test_same_seed_same_partition(self):
        ds = drive(50, q=2)
        a = split(len(ds), SplitSpec(seed=7))
        b = split(len(ds), SplitSpec(seed=7))
        for x, y in zip(a, b):
            assert ds.rows(x) == ds.rows(y)

    def test_different_seeds_differ(self):
        ds = drive(200, q=2)
        a = split(len(ds), SplitSpec(seed=1))
        b = split(len(ds), SplitSpec(seed=2))
        assert ds.rows(a[0]) != ds.rows(b[0])

    def test_partition_property(self):
        ds = drive(101, q=3)
        parts = [ds.rows(rows) for rows in split(len(ds), SplitSpec(seed=3))]
        assert sum(map(len, parts)) == len(ds)
        seen = np.concatenate([part.t for part in parts])
        assert sorted(seen.tolist()) == ds.t.tolist()

    def test_sequential_mode_preserves_order(self):
        ds = drive(10, q=2)
        tr, va, te = split(len(ds), SplitSpec(seed=9), mode="sequential")
        assert ds.rows(tr).t.tolist() == [pytest.approx(0.1 * i) for i in range(6)]
        assert ds.rows(te).t.tolist() == [pytest.approx(0.1 * i) for i in (8, 9)]

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.2, 0.2, seed=0)
        with pytest.raises(ValueError, match="must be >= 0"):
            SplitSpec(-0.1, 0.6, 0.5, seed=0)
        # NaN compares false both ways, so it used to pass both checks above
        with pytest.raises(ValueError, match=r"must be finite, got \[nan, 0.2, 0.2\]"):
            SplitSpec(math.nan, 0.2, 0.2, seed=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown split mode"):
            split(10, SplitSpec(), mode="random")

    def test_shuffle_parts_are_the_permuted_rows(self):
        ds = drive(103, q=3)
        order = np.random.default_rng(4).permutation(103)
        parts = split(len(ds), SplitSpec(seed=4))
        for part, rows in zip(parts, (order[:63], order[63:83], order[83:])):
            assert ds.rows(part) == ds.rows(rows)

    @pytest.mark.parametrize("n, seed", [(1000, 0), (103, 4), (7, 1), (20_000, 901), (2, 3)])
    def test_shuffle_selectors_cut_the_seeded_permutation(self, n, seed):
        # 103 and 7 rows leave a remainder, which goes to train
        order = np.random.default_rng(seed).permutation(n)
        n_val = n_test = int(n * 0.2)
        cuts = (0, n - n_val - n_test, n - n_test, n)
        parts = split(n, SplitSpec(seed=seed))
        for part, lo, hi in zip(parts, cuts, cuts[1:]):
            assert isinstance(part, np.ndarray) and np.array_equal(part, order[lo:hi])
        assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(n))

    @pytest.mark.parametrize("n", [1000, 103, 7, 0])
    def test_sequential_selectors_are_slices_of_views(self, n):
        ds = drive(n, q=3)
        parts = split(n, SplitSpec(seed=5), mode="sequential")
        assert all(isinstance(part, slice) for part in parts)
        assert np.array_equal(np.concatenate([np.arange(n)[p] for p in parts]), np.arange(n))
        test = ds.rows(parts[2])
        for name in ("t", "tx", "rx", "powers", "best"):
            assert np.shares_memory(getattr(test, name), getattr(ds, name)) or not len(test)

    def test_split_allocates_only_row_indices(self):
        # 20k rows of 64 powers, about 11 MB: a split is three index arrays of
        # 8 bytes per row, where a gathered part copies 560 bytes per row
        n, q = 20_000, 64
        size = n * (8 + 16 + 16 + 8 * q + 8)
        tracemalloc.start()
        try:
            split(n, SplitSpec(seed=6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * size


class TestImmutable:
    def test_every_way_of_making_a_dataset_is_read_only(self, tmp_path):
        generated = scenario_dataset()
        plain = write_dataset(generated, tmp_path / "plain.csv")
        header, first, rest = plain.read_text().split("\n", 2)
        quoted = tmp_path / "quoted.csv"
        quoted.write_text(header + '\n"' + first.replace(",", '","') + '"\n' + rest)
        parsed = parse_dataset(plain)
        train, val, test = (parsed.rows(rows) for rows in split(len(parsed), SplitSpec(seed=1)))
        made = {
            "parsed plain file": parse_dataset(plain),
            "parsed quoted file": parse_dataset(quoted),
            "generate_scenario": generated,
            "rows of a slice": generated.rows(slice(2, 9)),
            "rows of an index array": generated.rows(np.array([5, 1, 1])),
            "train": train,
            "val": val,
            "test": test,
        }
        assert made["parsed quoted file"] == generated
        for how, d in made.items():
            for name in ("t", "tx", "rx", "powers", "best"):
                assert not getattr(d, name).flags.writeable, (how, name)
            for name in ("t", "tx", "rx", "powers", "best", "codebook_size", "other"):
                with pytest.raises(AttributeError):
                    setattr(d, name, None)


# --- block I/O against the per-row reference ------------------------------------------


def oracle_write(d, path):
    """Reference writer: one csv.writer row per dataset row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["t", "tx_lat", "tx_lon", "rx_lat", "rx_lon", "best_beam"]
            + [f"p{i}" for i in range(d.codebook_size)]
        )
        rows = zip(d.t.tolist(), d.tx.tolist(), d.rx.tolist(), d.best.tolist(), d.powers.tolist())
        for t, tx, rx, best, powers in rows:
            rx = [] if math.isnan(rx[0]) else rx
            writer.writerow(
                [repr(t), repr(tx[0]), repr(tx[1])]
                + ([repr(rx[0]), repr(rx[1])] if rx else ["", ""])
                + [str(best)]
                + [repr(p) for p in powers]
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
    rx = (math.nan, math.nan) if rx_pos is None else (rx_pos.lat_deg, rx_pos.lon_deg)
    return t, (tx_pos.lat_deg, tx_pos.lon_deg), rx, powers, computed


def oracle_parse(path):
    """Reference parser: csv.reader, one validated row per record; a record that
    csv.reader cannot read fails as a RowParseError on the line it starts."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        has_best_beam = header[5] == "best_beam"
        rows = []
        line_no = 2
        try:
            for row in reader:
                if len(row) != len(header):
                    raise SchemaMismatchError(
                        f"line {line_no}: expected {len(header)} fields, got {len(row)}"
                    )
                rows.append(oracle_row(row, line_no, has_best_beam))
                line_no = reader.line_num + 1
        except csv.Error as exc:
            raise RowParseError(line_no, str(exc)) from None
    q = len(header) - (6 if has_best_beam else 5)
    t, tx, rx, powers, best = zip(*rows) if rows else ((),) * 5
    return Dataset(
        np.array(t, dtype=np.float64),
        np.array(tx, dtype=np.float64).reshape(-1, 2),
        np.array(rx, dtype=np.float64).reshape(-1, 2),
        np.array(powers, dtype=np.float64).reshape(-1, q),
        np.array(best, dtype=np.int64),
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
        ScenarioConfig,
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
        ScenarioConfig(traj, ArrayConfig(), SyntheticChannelConfig(noise_power=1e-4, seed=8))
    ).rows(slice(None))


class TestBlockWrite:
    def test_generated_drive_matches_csv_writer(self, tmp_path, block_rows):
        ds = scenario_dataset()
        got = write_dataset(ds, tmp_path / "a.csv").read_bytes()
        assert got == oracle_write(ds, tmp_path / "b.csv").read_bytes()

    def test_rows_without_rx_match_csv_writer(self, tmp_path, block_rows):
        i = np.arange(11)
        ds = make_dataset(
            np.random.default_rng(4).uniform(0.0, 3.0, (11, 5)),
            tx=np.column_stack([-33.0 - 1e-3 * i, 151.0 + 1e-3 * i]),
            rx=np.where((i % 3 == 0)[:, None], (-33.5, 151.5), np.nan),
        )
        got = write_dataset(ds, tmp_path / "a.csv").read_bytes()
        assert got == oracle_write(ds, tmp_path / "b.csv").read_bytes()


    @pytest.mark.parametrize("block", [None, 50], ids=["default-block", "block50"])
    def test_rows_across_format_blocks_match_csv_writer(self, tmp_path, monkeypatch, block):
        # 64 beams: a format_floats call takes BLOCK // 69 rows, so one chunk of
        # 300 rows takes three calls; with a BLOCK of 50, each row's 69 values (67
        # without an rx fix) straddle two blocks of one call
        if block is not None:
            monkeypatch.setattr(floatrepr, "BLOCK", block)
        n = 300
        i = np.arange(n)
        ds = make_dataset(
            np.random.default_rng(6).uniform(0.0, 1e-3, (n, 64)),
            tx=np.column_stack([33.42 + 1e-5 * i, -111.93 - 1e-5 * i]),
            rx=np.where((i % 5 < 2)[:, None], (33.4, -111.9), np.nan),
        )
        got = write_dataset(ds, tmp_path / "a.csv").read_bytes()
        assert got == oracle_write(ds, tmp_path / "b.csv").read_bytes()


def mixed_rx_dataset(n):
    i = np.arange(n)
    rx = np.column_stack([np.full(n, 47.5), -122.5 + 1e-5 * i])
    rx[i % 4 >= 2] = np.nan
    return make_dataset(
        np.random.default_rng(5).uniform(0.0, 3.0, (n, 6)),
        tx=np.column_stack([47.0 + 1e-4 * i, -122.0 - 1e-4 * i]),
        rx=rx,
    )


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
        assert_same_bytes(got, want)

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


@pytest.fixture
def read_rows_calls(tmp_path, monkeypatch):
    """Record the first row and lines of each call of ``_read_rows`` on a span, in
    whichever process of the pool makes it; returns a function that reads them."""
    log, read_rows = tmp_path / "read_rows.jsonl", ingest._read_rows
    log.touch()

    def recorded(source, *args):
        with log.open("a") as fh:
            fh.write(json.dumps([args[-1], source]) + "\n")
        return read_rows(source, *args)

    monkeypatch.setattr(ingest, "_read_rows", recorded)
    return lambda: [json.loads(line) for line in log.read_text().splitlines()]


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
        # earlier spans have filled the columns, and csv.reader reads that span again
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

    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
    @pytest.mark.parametrize("index", [0, 6, 10], ids=["first-span", "middle-span", "last-span"])
    def test_cell_past_the_field_size_limit(self, tmp_path, blocks_of_4, cpus, quoted, index):
        # csv.reader rejects a cell longer than its field size limit (131,072
        # characters), which also stops a stray quote from reading the rest of the
        # file into one cell; loadtxt has no such limit
        rows = [good_row(i) for i in range(11)]
        rows[index] = rows[index].replace(",0.5,", ",0." + "0" * 140_000 + "5,")
        if quoted:
            rows[3] = rows[3].replace(",33.0,", ',"33.0",')
        path = tmp_path / "d.csv"
        path.write_text(HEADER + "".join(rows))
        error = assert_same_error(path)
        assert str(error) == f"line {index + 2}: field larger than field limit (131072)"

    @pytest.mark.parametrize("index", [5, 250, 399])
    def test_non_utf8_byte_in_a_later_chunk(self, tmp_path, blocks_of_4, cpus, index):
        # 400 rows are about 18 KB, more than a text file decodes at once (8 KB)
        rows = [good_row(i).encode() for i in range(400)]
        rows[index] = rows[index].replace(b"33.0", b"33.\xff")
        path = tmp_path / "d.csv"
        path.write_bytes(HEADER.encode() + b"".join(rows))
        assert path.stat().st_size > 16384
        with pytest.raises(RowParseError) as exc:
            parse_dataset(path)
        assert str(exc.value) == f"line {index + 2}: bad tx_lat: '33.\\udcff'"

    @pytest.mark.parametrize("index", [5, 250, 399])
    def test_non_utf8_byte_in_a_quoted_file(self, tmp_path, blocks_of_4, cpus, index):
        # a quoted cell sends the whole file to csv.reader
        rows = [good_row(i).encode() for i in range(400)]
        rows[index] = rows[index].replace(b"33.0", b"33.\xff")
        rows[100] = rows[100].replace(b",33.0,", b',"33.0",')
        path = tmp_path / "d.csv"
        path.write_bytes(HEADER.encode() + b"".join(rows))
        with pytest.raises(RowParseError) as exc:
            parse_dataset(path)
        assert str(exc.value) == f"line {index + 2}: bad tx_lat: '33.\\udcff'"

    def test_bad_cell_in_the_last_span_rereads_that_span_alone(
        self, tmp_path, blocks_of_4, cpus, read_rows_calls
    ):
        rows = [good_row(i) for i in range(11)]
        rows[10] = rows[10].replace(",33.0,", ",east,")
        path = tmp_path / "d.csv"
        path.write_text(HEADER + "".join(rows))
        assert str(assert_same_error(path)) == "line 12: bad tx_lat: 'east'"
        assert read_rows_calls() == [[8, [row.rstrip("\n") for row in rows[8:]]]]

    def test_cell_only_float_reads_in_a_middle_span(
        self, tmp_path, blocks_of_4, cpus, read_rows_calls
    ):
        # float reads 1_999.9 as 1999.9 where loadtxt fails
        rows = [good_row(i) for i in range(11)]
        rows[6] = "1_999.9" + rows[6][rows[6].index(","):]
        path = tmp_path / "d.csv"
        path.write_text(HEADER + "".join(rows))
        got = parse_dataset(path)
        assert got.t[6] == 1999.9
        assert_same_bytes(got, oracle_parse(path))
        assert read_rows_calls() == [[4, [row.rstrip("\n") for row in rows[4:8]]]]

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

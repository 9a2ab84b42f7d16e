"""Dataset loading, splitting, and persistence.

One CSV schema serves both real exports and synthetic scenarios:

    t,tx_lat,tx_lon,rx_lat,rx_lon,best_beam,p0,p1,...,p{Q-1}

rx_lat/rx_lon may be empty, best_beam may be empty or absent (it is always
recomputed from the powers and cross-checked when present), and powers are
non-negative decimals in linear units, not all zero in one row. Floats are
written with their shortest round-trip representation, so write -> parse is
bit-exact: ``floatrepr.format_floats`` writes the bytes of ``repr`` for a
block of values at once.

A ``Dataset`` holds its rows as numpy columns (times, tx and rx fixes, the
power matrix and the best-beam labels), so splitting is index slicing and
callers work on whole arrays. The CSV is written in blocks of rows, never as
one string, on the usable CPUs (``parallel.ordered_map``). It is read by one
of two readers, ``np.loadtxt`` on spans of lines on the usable CPUs (LF or
CRLF line ends) or ``csv.reader`` (quotes, bare CRs and failing rows), which
check their rows against one table of rules (``_check_rows``).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
import mmap
import os
from dataclasses import dataclass
from itertools import chain, islice, takewhile
from pathlib import Path
from typing import Sequence

import numpy as np

from . import floatrepr
from .errors import IndexMismatchError, RowParseError, SchemaMismatchError
from .geodata import GeoPosition
from .parallel import ordered_map

_FIXED_COLUMNS = ("t", "tx_lat", "tx_lon", "rx_lat", "rx_lon")
_COLUMNS = ("t", "tx", "rx", "powers", "best")
# rows per block read or written at once, and per work item of a parse: big
# enough that per-block numpy calls are cheap, small enough that a block's text
# and strings (about 1 MB) do not leave the heap larger than the columns themselves
_BLOCK_ROWS = 256
# rows per work item when synthesis or the CSV write runs on several CPUs: few
# enough that a handful of chunks in flight keeps the writer's heap flat
_CHUNK_ROWS = 2 * _BLOCK_ROWS


@dataclass(frozen=True, eq=False)
class Sample:
    """One time instant: positions, per-beam received powers, ground-truth index."""

    t: float
    tx_pos: GeoPosition
    rx_pos: GeoPosition | None
    powers: np.ndarray
    optimal_index: int

    def __post_init__(self):
        p = np.array(self.powers, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("powers must be a non-empty 1-D vector")
        if not np.all(np.isfinite(p)) or np.any(p < 0):
            raise ValueError("powers must be finite and non-negative")
        p.setflags(write=False)
        object.__setattr__(self, "powers", p)
        if self.optimal_index != int(np.argmax(p)):
            raise ValueError(
                f"optimal_index {self.optimal_index} is not the argmax of powers"
            )

    def __eq__(self, other):
        if not isinstance(other, Sample):
            return NotImplemented
        return (
            self.t == other.t
            and self.tx_pos == other.tx_pos
            and self.rx_pos == other.rx_pos
            and self.optimal_index == other.optimal_index
            and np.array_equal(self.powers, other.powers)
        )


class Dataset:
    """An ordered, immutable collection of samples sharing one codebook, as five columns.

    ``t`` (n,) sample times, ``tx`` and ``rx`` (n, 2) [lat, lon] fixes in
    degrees (``rx`` is NaN where a row has no receiver fix), ``powers``
    (n, codebook_size) and ``best`` (n,) the argmax of each power row. Every
    column is read-only. Construct from ``Sample`` objects, or from columns
    with :meth:`from_columns`; ``samples`` rebuilds the objects on each access.
    """

    __slots__ = (*_COLUMNS, "_span")

    def __init__(self, samples: Sequence[Sample], codebook_size: int):
        for s in samples:
            if s.powers.size != codebook_size:
                raise ValueError(
                    f"sample at t={s.t} has {s.powers.size} powers, "
                    f"expected {codebook_size}"
                )
        n = len(samples)

        def fixes(positions) -> np.ndarray:
            rows = [(p.lat_deg, p.lon_deg) if p else (math.nan,) * 2 for p in positions]
            return np.array(rows, dtype=np.float64).reshape(n, 2)

        self._init(
            np.array([s.t for s in samples], dtype=np.float64),
            fixes(s.tx_pos for s in samples),
            fixes(s.rx_pos for s in samples),
            np.array([s.powers for s in samples]).reshape(n, codebook_size),
            np.array([s.optimal_index for s in samples], dtype=np.int64),
        )

    @classmethod
    def from_columns(
        cls,
        t: np.ndarray,
        tx: np.ndarray,
        rx: np.ndarray,
        powers: np.ndarray,
        best: np.ndarray,
    ) -> "Dataset":
        """Wrap the five columns without copying; ``best`` must be the argmax of ``powers``."""
        d = cls.__new__(cls)
        d._init(t, tx, rx, powers, best)
        return d

    def _init(self, *columns: np.ndarray) -> None:
        for name, column in zip(_COLUMNS, columns):
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        # (source, start, stop) when the columns are the row slice start:stop of
        # source's columns, so concat can rejoin adjacent slices without copying
        object.__setattr__(self, "_span", None)

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    @property
    def codebook_size(self) -> int:
        return self.powers.shape[1]

    @property
    def samples(self) -> tuple[Sample, ...]:
        """The rows as ``Sample`` objects, built anew on each access."""
        rows = zip(
            self.t.tolist(), self.tx.tolist(), self.rx.tolist(),
            self.powers, self.best.tolist(),
        )
        return tuple(
            Sample(
                t=t,
                tx_pos=GeoPosition(*tx),
                rx_pos=None if math.isnan(rx[0]) else GeoPosition(*rx),
                powers=powers,
                optimal_index=best,
            )
            for t, tx, rx, powers, best in rows
        )

    def __len__(self) -> int:
        return len(self.t)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.codebook_size == other.codebook_size
            and np.array_equal(self.t, other.t)
            and np.array_equal(self.tx, other.tx)
            and np.array_equal(self.rx, other.rx, equal_nan=True)
            and np.array_equal(self.powers, other.powers)
            and np.array_equal(self.best, other.best)
        )

    def __repr__(self) -> str:
        return f"Dataset(<{len(self)} samples>, codebook_size={self.codebook_size})"

    def rows(self, indices: np.ndarray | slice) -> "Dataset":
        """The rows at ``indices`` (an index array, or a slice giving views)."""
        part = Dataset.from_columns(*(getattr(self, name)[indices] for name in _COLUMNS))
        if isinstance(indices, slice):
            start, stop, step = indices.indices(len(self))
            if step == 1:
                object.__setattr__(part, "_span", (self, start, max(start, stop)))
        return part


def concat(parts: Sequence[Dataset]) -> Dataset:
    """The rows of ``parts`` one after another, as a view of the dataset they were cut from.

    ``parts`` must be adjacent row slices of one dataset, in order, such as the
    train and validation parts of a ``split``; any other parts are a ValueError.
    """
    spans = [d._span for d in parts]
    if not parts or None in spans or any(
        a[0] is not b[0] or a[2] != b[1] for a, b in zip(spans, spans[1:])
    ):
        raise ValueError("concat joins only adjacent row slices of one dataset")
    return spans[0][0].rows(slice(spans[0][1], spans[-1][2]))


@dataclass(frozen=True)
class SplitSpec:
    """Fractions for the train/validation/test partition plus the shuffle seed."""

    train_frac: float = 0.6
    val_frac: float = 0.2
    test_frac: float = 0.2
    seed: int = 0

    def __post_init__(self):
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if any(f < 0 for f in fracs):
            raise ValueError("split fractions must be >= 0")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"split fractions must sum to 1, got {sum(fracs)}")


def parse_dataset(path: str | Path) -> Dataset:
    """Load a dataset CSV, validating every row.

    Raises SchemaMismatchError for a bad header or a row whose field count
    disagrees with the header, RowParseError for unparseable values or records
    and for rows whose powers are all zero, and IndexMismatchError when a stored
    best-beam disagrees with the argmax of that row's powers. Errors name the
    physical line on which the row's record starts, counting the header as line 1.

    A file with no quote, and no CR but those directly before an LF, is parsed
    in spans of _BLOCK_ROWS lines on the usable CPUs: ``_parse_span`` converts
    each span's lines into columns that the pool's processes share
    (``_shared_columns``). Any other file, and a file with a span that fails a
    check (or is not UTF-8), is read by ``_read_rows``: ``csv.reader`` from
    line 2 on, which either reads every record or raises the first failing
    row's error.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise SchemaMismatchError("empty file, expected a header row") from None
        has_best_beam, codebook_size = _check_header(header)
        spans, capacity, plain = _scan(path, _BLOCK_ROWS)
        columns = _shared_columns(capacity, codebook_size)
        n = None
        if plain:
            parse_span = functools.partial(
                _parse_span, path, columns, len(header), has_best_beam
            )
            # the pool is shut down before _read_rows writes into the columns
            with contextlib.closing(ordered_map(parse_span, spans)) as results:
                counts = list(takewhile(lambda count: count is not None, results))
            n = sum(counts) if len(counts) == len(spans) else None
        if n is None:
            n = _read_rows(fh, columns, len(header), has_best_beam)
    return Dataset.from_columns(*(column[:n] for column in columns))


def _scan(path: Path, block_rows: int) -> tuple[list[tuple[int, int, int]], int, bool]:
    """One pass over a CSV file's bytes, in 64 KB pieces.

    Returns (first row, start byte, stop byte) of each block of ``block_rows``
    data lines (the last one runs to the end of the file), an upper bound on
    the data rows (the line breaks, plus one) and whether the file holds no
    quote and no carriage return but those directly before a line feed.
    """
    starts: list[int] = []
    newlines = bare = size = 0  # bare: CRs not directly followed by an LF
    plain = True
    with path.open("rb") as fh:
        for piece in iter(lambda: fh.read(1 << 16), b""):
            if piece.endswith(b"\r"):  # so that no CRLF is split between two pieces
                piece += fh.read(1)
            ends = np.flatnonzero(np.frombuffer(piece, np.uint8) == ord("\n"))
            # data line i starts after newline i; newline 0 ends the header
            starts += (size + 1 + ends[-newlines % block_rows :: block_rows]).tolist()
            newlines += len(ends)
            # `in` scans with memchr, about 14x faster than count on a piece with no CR
            if b"\r" in piece:
                bare += piece.count(b"\r") - piece.count(b"\r\n")
            plain = plain and b'"' not in piece
            size += len(piece)
    starts = [start for start in starts if start < size] + [size]
    first_rows = range(0, len(starts) * block_rows, block_rows)
    return list(zip(first_rows, starts, starts[1:])), newlines + bare + 1, plain and not bare


def _shared_columns(capacity: int, codebook_size: int) -> tuple[np.ndarray, ...]:
    """Empty t, tx, rx, powers and best columns of ``capacity`` rows.

    They live in one anonymous shared mapping, so a forked pool worker of the
    parse or of synthesis (``synthchan.generate_scenario``) writes its rows
    straight into the caller's columns: no rows are sent back through the pool,
    and the caller holds no block but its own.
    """
    shapes = (
        (capacity,), (capacity, 2), (capacity, 2), (capacity, codebook_size), (capacity,)
    )
    buffer = mmap.mmap(-1, 8 * sum(map(math.prod, shapes)))
    columns, offset = [], 0
    for shape, dtype in zip(shapes, (np.float64,) * 4 + (np.int64,)):
        count = math.prod(shape)
        columns.append(np.frombuffer(buffer, dtype, count, offset).reshape(shape))
        offset += 8 * count
    return tuple(columns)


def _parse_span(
    path: Path,
    columns: tuple[np.ndarray, ...],
    n_fields: int,
    has_best_beam: bool,
    span: tuple[int, int, int],
) -> int | None:
    """Parse the unquoted lines in bytes [start, stop) of the file into ``columns``
    from row ``first_row`` on; the number of rows, or None, leaving the columns as
    they were, if the lines are not UTF-8 or any row fails a check.

    A CR before an LF is dropped. ``np.loadtxt`` converts the cells in C, to the
    values ``float`` gives (the rx and best_beam cells by ``_converters``), and
    ``_check_rows`` checks them. A span is left to the row-by-row reader if it
    holds an n or N (such a cell is NaN, infinite or no number, so it fails
    anyway, and any NaN read is an empty cell), an empty line (loadtxt skips
    it, and warns if there is nothing else), any other CR (loadtxt ends a line
    there) or \\x1c-\\x1f (loadtxt reads them as space around a number; ``float`` fails).
    """
    first_row, start, stop = span
    with path.open("rb") as fh:
        fh.seek(start)
        data = fh.read(stop - start)
    try:  # a UnicodeDecodeError is a ValueError
        text = data.decode("utf-8")
        text = text.replace("\r\n", "\n") if "\r" in text else text  # `in` is the faster scan
        lines = text.removesuffix("\n").split("\n")
        if not all(lines) or any(map(text.__contains__, 'nN"\r\x1c\x1d\x1e\x1f')):
            return None
        converters = _converters(has_best_beam)
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, converters=converters)
    except ValueError:
        return None
    if values.shape != (len(lines), n_fields):
        return None
    block, failure = _check_rows(values, has_best_beam)
    if failure:
        return None
    for column, part in zip(columns, block):
        column[first_row : first_row + len(values)] = part
    return len(values)


def _converters(has_best_beam: bool) -> dict:
    """``np.loadtxt`` converters of the cells that may be empty: ``_read_cell`` with
    ``float`` for rx and with ``int`` for best_beam (so "5.0" fails)."""
    reads = (float, float, int)[: 2 + has_best_beam]
    return {column: functools.partial(_read_cell, read) for column, read in enumerate(reads, 3)}


def _read_cell(read, cell: str) -> float:
    """NaN for an empty cell, else ``read(cell)`` as a float, or inf if that fails or is
    not finite (so an int too large for int64 makes no object array)."""
    try:
        value = float(read(cell)) if cell else math.nan
        return value if math.isfinite(value) or not cell else math.inf
    except (ValueError, OverflowError):
        return math.inf


def _check_rows(values: np.ndarray, has_best_beam: bool) -> tuple[tuple, tuple | None]:
    """The t, tx, rx, powers and best columns of a block of cells read as
    ``_read_cell`` reads them, and its first failing (row, cell, reason) or None:
    ``reason`` is the message of a rule on all the powers (``cell`` is None), and
    None for a rule on one cell, whose message quotes the cell's text.
    """
    offset = 6 if has_best_beam else 5
    t, tx, rx, powers = values[:, 0], values[:, 1:3], values[:, 3:5], values[:, offset:]
    best = powers.argmax(axis=1)
    stored = values[:, 5] if has_best_beam else best
    bad, has_rx = ~np.isfinite(values), ~np.isnan(rx).all(axis=1, keepdims=True)
    outside = np.abs(values[:, :5]) > (math.inf, 90.0, 180.0, 90.0, 180.0)
    failed = np.column_stack([  # a column of failing rows per rule, in the order they are checked
        bad[:, :3], outside[:, 1:3], bad[:, 3:5] & has_rx, outside[:, 3:5] & has_rx,
        bad[:, offset:], (powers < 0).any(axis=1), powers.max(axis=1) <= 0,
        (stored != best) & ~np.isnan(stored),
    ])
    if not failed.any():
        return (t, tx, rx, powers, best), None
    rules = [(cell, None) for cell in (0, 1, 2, 1, 2, 3, 4, 3, 4, *range(offset, values.shape[1]))]
    rules += [(None, "negative power value")]
    rules += [(None, "all powers are zero, so the row has no ground-truth beam"), (5, None)]
    row, rule = divmod(int(failed.argmax()), len(rules))
    return (t, tx, rx, powers, best), (row, *rules[rule])


def _read_rows(fh, columns: tuple[np.ndarray, ...], n_fields: int, has_best_beam: bool) -> int:
    """Parse the records left in ``fh`` with ``csv.reader`` into ``columns`` from
    row 0, checking each _BLOCK_ROWS of them, and those before a record that fails
    to read, with ``_check_rows``; the number of rows. Raises the first failing
    row's error, naming the physical line its record starts on (the header is line 1).
    """
    reader = csv.reader(fh)
    converters = _converters(has_best_beam)
    reads = [converters.get(cell, converters[3]) for cell in range(n_fields)]
    names = (*_FIXED_COLUMNS, "best_beam")[: 5 + has_best_beam] + ("power",) * n_fields
    n, line = 0, 2
    while True:
        lines, rows, error = [], [], None
        try:
            for row in islice(reader, _BLOCK_ROWS):
                if len(row) != n_fields:
                    error = SchemaMismatchError(
                        f"line {line}: expected {n_fields} fields, got {len(row)}"
                    )
                    break
                lines.append(line)
                rows.append(row)
                # a quoted cell may hold line breaks, so a record can span lines
                line = reader.line_num + 2
        except csv.Error as exc:
            # such as a stray quote that runs a field to the field size limit
            error = RowParseError(line, str(exc))
        values = [[read(cell) for read, cell in zip(reads, row)] for row in rows]
        block, failure = _check_rows(np.array(values).reshape(-1, n_fields), has_best_beam)
        if failure:
            row, cell, reason = failure
            if reason:
                raise RowParseError(lines[row], reason)
            raise _cell_error(lines[row], rows[row][cell], names[cell], int(block[4][row]))
        for column, value in zip(columns, block):
            column[n : n + len(rows)] = value
        n += len(rows)
        if error is not None:
            raise error
        if len(rows) < _BLOCK_ROWS:
            return n


def _cell_error(line: int, text: str, what: str, best: int) -> Exception:
    """The error of a cell in column ``what`` that breaks its rule: ``text`` is no
    finite number, a fix out of bounds, or a best beam that is not the argmax ``best``."""
    try:
        value = (int if what == "best_beam" else float)(text)
    except ValueError:
        return RowParseError(line, f"bad {what}: {text!r}")
    if what == "best_beam":
        return IndexMismatchError(line, value, best)
    if not math.isfinite(value):
        return RowParseError(line, f"non-finite {what}: {text!r}")
    return RowParseError(line, f"{what[3:]} out of range: {value!r}")  # "lat" of tx_lat


def _check_header(header: list[str]) -> tuple[bool, int]:
    if tuple(header[:5]) != _FIXED_COLUMNS:
        raise SchemaMismatchError(
            f"header must start with {','.join(_FIXED_COLUMNS)}, got {header[:5]}"
        )
    rest = header[5:]
    has_best_beam = bool(rest) and rest[0] == "best_beam"
    power_cols = rest[1:] if has_best_beam else rest
    if not power_cols:
        raise SchemaMismatchError("header has no power columns")
    expected = [f"p{i}" for i in range(len(power_cols))]
    if power_cols != expected:
        raise SchemaMismatchError(
            f"power columns must be p0..p{len(power_cols) - 1}, got {power_cols}"
        )
    return has_best_beam, len(power_cols)


def write_dataset(d: Dataset, path: str | Path) -> Path:
    """Write a dataset in the CSV schema; round-trips bit-exactly through parse.

    Rows are formatted in chunks of _CHUNK_ROWS on the usable CPUs, each float
    as ``repr`` writes it (``floatrepr.format_floats``), and written in row
    order; the bytes are those of ``csv.writer`` with a "\\n" line terminator.
    The file appears whole or not at all: it is written beside ``path`` under a
    temporary name and renamed over ``path`` once complete.
    """
    path = Path(path)
    header = list(_FIXED_COLUMNS) + ["best_beam"] + [
        f"p{i}" for i in range(d.codebook_size)
    ]
    starts = range(0, len(d), _CHUNK_ROWS)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with partial.open("wb") as fh:
            fh.write(",".join(header).encode("utf-8") + b"\n")
            for text in ordered_map(functools.partial(_format_rows, d), starts):
                fh.write(text)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    return path


def _format_rows(d: Dataset, start: int) -> bytes:
    """CSV lines of rows start .. start + _CHUNK_ROWS - 1.

    The floats of a few rows at a time (one block of ``format_floats``) are
    formatted together; a "|" after each row's last fix marks where its best
    beam goes, and a row without an rx fix drops its rx cells there.
    """
    stop = min(start + _CHUNK_ROWS, len(d))
    step = max(1, floatrepr.BLOCK // (len(_FIXED_COLUMNS) + d.codebook_size))
    lines = []
    for first in range(start, stop, step):
        rows = slice(first, min(first + step, stop))
        values = np.column_stack([d.t[rows], d.tx[rows], d.rx[rows], d.powers[rows]])
        has_rx = ~np.isnan(values[:, 3])
        seps = np.full(values.shape, ord(","), np.uint8)
        seps[:, -1] = ord("\n")
        seps[np.arange(len(values)), np.where(has_rx, 4, 2)] = ord("|")
        keep = np.ones(values.shape, bool)
        keep[:, 3:5] = has_rx[:, None]
        text = floatrepr.format_floats(values[keep], seps[keep])
        gaps = [
            b",%d," % best if rx else b",,,%d," % best
            for best, rx in zip(d.best[rows].tolist(), has_rx.tolist())
        ]
        parts = text.split(b"|")
        lines += chain.from_iterable(zip(parts, gaps))
        lines.append(parts[-1])
    return b"".join(lines)


def split(
    d: Dataset, s: SplitSpec, mode: str = "shuffle"
) -> tuple[Dataset, Dataset, Dataset]:
    """Partition into train/val/test.

    ``mode`` "shuffle" permutes sample order with the spec's seed before
    cutting; "sequential" preserves time order. Sizes are floor(n * frac) for
    each part, with the remainder assigned to train. The three parts are
    disjoint and cover the input exactly. They are consecutive row slices of
    one dataset (the input, or its permuted rows gathered once), so ``concat``
    of train and validation is a view, not a copy.
    """
    if mode not in ("shuffle", "sequential"):
        raise ValueError(f"unknown split mode {mode!r}")
    n = len(d)
    if mode == "shuffle":
        d = d.rows(np.random.default_rng(s.seed).permutation(n))
    n_train = int(n * s.train_frac)
    n_val = int(n * s.val_frac)
    n_test = int(n * s.test_frac)
    n_train += n - (n_train + n_val + n_test)
    cuts = (0, n_train, n_train + n_val, n)
    return tuple(d.rows(slice(lo, hi)) for lo, hi in zip(cuts, cuts[1:]))

"""Location-binned fingerprint baseline.

A grid over normalized position space stores, per bin, the running mean of
every power vector observed there. A query maps a position to its bin (or the
nearest non-empty bin) and returns the m beam indices with the highest mean
power, which is the candidate list a receiver would hand back for beam
training.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EmptyDatasetError
from .geodata import NormalizationParams, NormalizedPosition, normalize_points
from .ingest import Dataset, Rows


@dataclass(frozen=True)
class BinGrid:
    """Uniform rectangular bins over normalized coordinates."""

    origin: NormalizedPosition = NormalizedPosition(0.0, 0.0)
    bin_width_u: float = 1.0 / 32.0
    bin_width_v: float = 1.0 / 32.0

    def __post_init__(self):
        if not (self.bin_width_u > 0 and self.bin_width_v > 0):
            raise ValueError("bin widths must be > 0")

    @classmethod
    def unit_square(cls, bins_per_axis: int = 32) -> "BinGrid":
        """Grid covering [0, 1]^2 (the span of any fitted training set)."""
        if bins_per_axis < 1:
            raise ValueError("bins_per_axis must be >= 1")
        width = 1.0 / bins_per_axis
        return cls(NormalizedPosition(0.0, 0.0), width, width)

    def bin_of(self, pos: NormalizedPosition) -> tuple[int, int]:
        (key,) = self.bins_of(np.array([[pos.u, pos.v]])).tolist()
        return tuple(key)

    def bins_of(self, uv: np.ndarray) -> np.ndarray:
        """(row, col) keys of an (n, 2) array of normalized [u, v] positions."""
        origin = np.array([self.origin.u, self.origin.v])
        width = np.array([self.bin_width_u, self.bin_width_v])
        return np.floor((uv - origin) / width).astype(np.int64)

    def center_of(self, key: tuple[int, int]) -> tuple[float, float]:
        row, col = key
        return (
            self.origin.u + (row + 0.5) * self.bin_width_u,
            self.origin.v + (col + 0.5) * self.bin_width_v,
        )


@dataclass(frozen=True)
class BinStats:
    """Per-bin sample count and mean power vector."""

    count: int
    mean_power: np.ndarray

    def __post_init__(self):
        mp = np.asarray(self.mean_power, dtype=np.float64)
        mp.setflags(write=False)
        object.__setattr__(self, "mean_power", mp)
        if self.count < 1:
            raise ValueError("stored bins must have count >= 1")


@dataclass(frozen=True)
class FingerprintDatabase:
    grid: BinGrid
    codebook_size: int
    bins: dict[tuple[int, int], BinStats]

    def __len__(self) -> int:
        return len(self.bins)


def build_database(
    dataset: Dataset, grid: BinGrid, norm: NormalizationParams,
    rows: Rows = slice(None),
) -> FingerprintDatabase:
    """Accumulate per-bin mean power vectors over ``dataset``'s ``rows`` (all by default).

    Sums are Kahan-compensated so the result is permutation-invariant to well
    below 1e-12 relative error. Each bin adds its rows in the order of
    ``rows``. The bins, held by descending count, advance together: the step of
    within-bin rank k gathers the k-th rows of the leading bins that have one into
    a reused buffer, and updates those bins' sums and compensations in place.
    """
    index = np.arange(len(dataset))[rows]
    if len(index) == 0:
        raise EmptyDatasetError("cannot build a fingerprint database from no samples")
    keys = grid.bins_of(normalize_points(dataset.tx[rows], norm))
    bin_keys, bin_of_row, counts = np.unique(
        keys, axis=0, return_inverse=True, return_counts=True
    )
    # dataset rows grouped by bin, in the order of ``rows`` within each bin
    grouped = index[np.argsort(bin_of_row.ravel(), kind="stable")]
    order = np.argsort(-counts, kind="stable")
    starts = (np.cumsum(counts) - counts)[order]
    sums = np.zeros((len(counts), dataset.codebook_size))
    comps, buf = np.zeros_like(sums), np.empty_like(sums)
    for k in range(int(counts.max())):
        n = np.count_nonzero(counts > k)  # the bins that have a k-th row
        s, c, y = sums[:n], comps[:n], buf[:n]
        # "clip" lets take write straight into y; every index is in range
        np.take(dataset.powers, grouped[starts[:n] + k], axis=0, out=y, mode="clip")
        y -= c  # y = x - c
        c[...] = s  # c keeps s while s becomes t
        s += y  # t = s + y
        np.subtract(s, c, out=c)
        c -= y  # c = (t - s) - y
    sums /= counts[order, None]  # the means, by descending count
    rank = np.argsort(order)  # each bin's row of ``sums``
    bins = {
        tuple(key): BinStats(count=count, mean_power=sums[r])
        for key, count, r in zip(bin_keys.tolist(), counts.tolist(), rank.tolist())
    }
    return FingerprintDatabase(grid=grid, codebook_size=dataset.codebook_size, bins=bins)


def _answering_bin(db: FingerprintDatabase, key: tuple[int, int]) -> tuple[int, int]:
    """``key`` itself if occupied, else the nearest occupied bin by distance
    between bin centers, ties toward the lowest (row, col)."""
    if key in db.bins:
        return key
    center = db.grid.center_of(key)
    return min(
        db.bins,
        key=lambda k: (
            (db.grid.center_of(k)[0] - center[0]) ** 2
            + (db.grid.center_of(k)[1] - center[1]) ** 2,
            k,
        ),
    )


def _check_query(db: FingerprintDatabase, m: int) -> None:
    if m < 1:
        raise ValueError("m must be >= 1")
    if not db.bins:
        raise EmptyDatasetError("fingerprint database has no bins")


def query_candidates(
    db: FingerprintDatabase, pos: NormalizedPosition, m: int
) -> list[int]:
    """The m beam indices with highest mean power in the queried bin.

    An empty bin falls back to the nearest non-empty bin by distance between
    bin centers (ties toward the lowest (row, col)), so a non-empty database
    always answers.
    """
    _check_query(db, m)
    key = _answering_bin(db, db.grid.bin_of(pos))
    # stable sort on the negated powers keeps the lowest index first among ties
    return np.argsort(-db.bins[key].mean_power, kind="stable")[:m].tolist()


def evaluate_baseline(
    db: FingerprintDatabase, test: Dataset, norm: NormalizationParams, m: int
) -> np.ndarray:
    """Ranked candidates for every test sample, shape (n, min(m, codebook size));
    row i equals :func:`query_candidates` for sample i.

    Each distinct queried bin is resolved and ranked once; the rows are taken
    from that one ranked array.
    """
    _check_query(db, m)
    keys, key_of_row = np.unique(
        db.grid.bins_of(normalize_points(test.tx, norm)), axis=0, return_inverse=True
    )
    means = np.array(
        [db.bins[_answering_bin(db, tuple(key))].mean_power for key in keys.tolist()]
    ).reshape(len(keys), db.codebook_size)
    ranked = np.argsort(-means, axis=1, kind="stable")[:, :m]
    return ranked[key_of_row.ravel()]


def save_database(db: FingerprintDatabase, path: str | Path) -> Path:
    """Export as JSON for reuse across runs; bins sorted for stable bytes."""
    doc = {
        "version": 1,
        "codebook_size": db.codebook_size,
        "grid": {
            "origin_u": db.grid.origin.u,
            "origin_v": db.grid.origin.v,
            "bin_width_u": db.grid.bin_width_u,
            "bin_width_v": db.grid.bin_width_v,
        },
        "bins": [
            {
                "row": key[0],
                "col": key[1],
                "count": stats.count,
                "mean_power": [float(x) for x in stats.mean_power],
            }
            for key, stats in sorted(db.bins.items())
        ],
    }
    path = Path(path)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="utf-8")
    return path

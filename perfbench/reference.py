"""Reference computations the benchmark checks the program's outputs against.

Everything here is written from the method's definitions with numpy alone and
imports nothing from ``v2vbeam``, so a fault in the program cannot hide in a
shared helper.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

METERS_PER_DEGREE = 111_320.0
FIXED_COLUMNS = ("t", "tx_lat", "tx_lon", "rx_lat", "rx_lon", "best_beam")


# --- line-of-sight channel -----------------------------------------------------


def dirichlet_gains(n_elements: int, spacing: float, codebook_size: int, theta) -> np.ndarray:
    """|a(theta)^T q_i|^2 for every beam of the oversampled DFT codebook.

    Beam i steers to psi_i = -1 + 2i/Q; with x = 2*pi*spacing*sin(theta) - pi*psi_i
    the array factor sum_k exp(jkx)/sqrt(N) has the closed form
    sin^2(N x / 2) / (N sin^2(x / 2)), which is N where sin(x / 2) = 0.
    ``theta`` may be an array; the result has shape theta.shape + (Q,).
    """
    theta = np.asarray(theta, dtype=np.float64)
    psi = -1.0 + 2.0 * np.arange(codebook_size) / codebook_size
    x = 2.0 * math.pi * spacing * np.sin(theta)[..., None] - math.pi * psi
    half = np.sin(x / 2.0)
    matched = np.abs(half) < 1e-12
    safe = np.where(matched, 1.0, half)
    return np.where(matched, float(n_elements), np.sin(n_elements * x / 2.0) ** 2 / (n_elements * safe**2))


def path_position(waypoints, fraction) -> np.ndarray:
    """Piecewise-linear position at ``fraction`` of a path whose segments take equal time."""
    pts = np.asarray(waypoints, dtype=np.float64)
    fraction = np.asarray(fraction, dtype=np.float64)
    if len(pts) == 1:
        return np.broadcast_to(pts[0], fraction.shape + (2,)).copy()
    n_seg = len(pts) - 1
    s = np.clip(fraction, 0.0, 1.0) * n_seg
    seg = np.minimum(np.floor(s).astype(np.int64), n_seg - 1)
    frac = (s - seg)[..., None]
    return pts[seg] + frac * (pts[seg + 1] - pts[seg])


def scenario_geometry(scenario: dict) -> dict:
    """Times, planar positions, GPS fixes, angle and distance of every sample."""
    traj = scenario["trajectory"]
    duration, period = float(traj["duration"]), float(traj["sample_period"])
    n = int(round(duration / period))
    t = np.arange(n) * period
    tx = path_position(traj["tx_waypoints"], t / duration)
    rx = path_position(traj["rx_waypoints"], t / duration)
    d = tx - rx
    theta = np.arctan2(d[:, 1], d[:, 0]) - float(traj["rx_heading"])
    theta = (theta + math.pi) % (2.0 * math.pi) - math.pi
    lat0, lon0 = float(traj["origin"]["lat"]), float(traj["origin"]["lon"])
    lon_scale = METERS_PER_DEGREE * math.cos(math.radians(lat0))

    def geo(p):
        return np.stack([lat0 + p[:, 1] / METERS_PER_DEGREE, lon0 + p[:, 0] / lon_scale], axis=1)

    return {
        "t": t,
        "tx_geo": geo(tx),
        "rx_geo": geo(rx),
        "theta": theta,
        "distance": np.hypot(d[:, 0], d[:, 1]),
    }


def los_powers(scenario: dict, theta, distance) -> np.ndarray:
    """Noise-free received power n_sub * P * (d0/d)^alpha * gain_i per sample and beam."""
    arr = scenario.get("array", {})
    ch = scenario.get("channel", {})
    gains = dirichlet_gains(
        int(arr.get("n_elements", 16)),
        float(arr.get("element_spacing", 0.5)),
        int(scenario.get("codebook_size", 64)),
        theta,
    )
    path_gain = (float(ch.get("reference_distance", 1.0)) / np.asarray(distance)) ** float(
        ch.get("pathloss_exponent", 2.0)
    )
    scale = int(ch.get("n_subcarriers", 16)) * float(ch.get("tx_power", 1.0)) * path_gain
    return np.asarray(scale)[..., None] * gains


def noise_tolerance(noise_power: float, draws: int, sigmas: float = 6.0) -> float:
    """Allowed gap between the mean excess power and ``noise_power``.

    Each excess is |N(0, s^2)| with s = noise_power * sqrt(pi/2): its mean is
    noise_power and its standard deviation noise_power * sqrt(pi/2 - 1). The
    mean of ``draws`` of them is allowed ``sigmas`` standard errors.
    """
    return sigmas * noise_power * math.sqrt(math.pi / 2.0 - 1.0) / math.sqrt(draws)


# --- dataset CSV ----------------------------------------------------------------


def read_dataset(path: str | Path) -> dict:
    """Parse a dataset CSV written with every column filled."""
    path = Path(path)
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if tuple(header[:6]) != FIXED_COLUMNS:
            raise ValueError(f"{path}: unexpected header {header[:6]}")
        q = len(header) - 6
        if header[6:] != [f"p{i}" for i in range(q)]:
            raise ValueError(f"{path}: power columns are not p0..p{q - 1}")
        table = np.loadtxt(fh, delimiter=",", dtype=np.float64, ndmin=2)
    if table.shape[1] != 6 + q:
        raise ValueError(f"{path}: rows have {table.shape[1]} fields, header {6 + q}")
    return {
        "t": table[:, 0],
        "tx": table[:, 1:3],
        "rx": table[:, 3:5],
        "best": table[:, 5].astype(np.int64),
        "powers": table[:, 6:],
    }


# --- split, normalisation, features ---------------------------------------------------


def split_indices(n: int, fractions, seed: int, mode: str):
    """Row indices of train, val and test.

    Shuffle mode cuts numpy's seeded PCG64 permutation; sequential mode keeps
    time order. Each part gets floor(n * fraction) rows and train also takes
    the remainder.
    """
    order = np.random.default_rng(seed).permutation(n) if mode == "shuffle" else np.arange(n)
    n_val = int(n * fractions[1])
    n_test = int(n * fractions[2])
    n_train = n - n_val - n_test
    return order[:n_train], order[n_train : n_train + n_val], order[n_train + n_val :]


def fit_minmax(tx: np.ndarray, rx: np.ndarray | None = None) -> tuple[float, float, float, float]:
    """(lat_min, lat_max, lon_min, lon_max) over tx fixes, pooled with rx fixes if given."""
    pts = tx if rx is None else np.concatenate([tx, rx])
    return (
        float(pts[:, 0].min()),
        float(pts[:, 0].max()),
        float(pts[:, 1].min()),
        float(pts[:, 1].max()),
    )


def normalise(pts: np.ndarray, norm) -> np.ndarray:
    lat_min, lat_max, lon_min, lon_max = norm
    return np.stack(
        [(pts[:, 0] - lat_min) / (lat_max - lat_min), (pts[:, 1] - lon_min) / (lon_max - lon_min)],
        axis=1,
    )


def features(tx: np.ndarray, rx: np.ndarray, norm, input_mode: str) -> np.ndarray:
    """Model input (n, 1, 2) for ``tx`` mode or (n, 1, 4) for ``both``."""
    cols = [normalise(tx, norm)]
    if input_mode == "both":
        cols.append(normalise(rx, norm))
    return np.concatenate(cols, axis=1)[:, None, :]


# --- fingerprint baseline --------------------------------------------------------------


def bin_keys(uv: np.ndarray, bins_per_axis: int) -> np.ndarray:
    """(row, col) bin of each normalised position on the unit-square grid."""
    width = 1.0 / bins_per_axis
    return np.floor(uv / width).astype(np.int64)


def bin_means(keys: np.ndarray, powers: np.ndarray):
    """Occupied bins in (row, col) order with their sample counts and mean powers."""
    uniq, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    sums = np.zeros((len(uniq), powers.shape[1]))
    np.add.at(sums, inverse.reshape(-1), powers)
    return uniq, counts, sums / counts[:, None]


def answering_bins(query_keys: np.ndarray, occupied: np.ndarray):
    """Index into ``occupied`` answering each query, and whether it fell back.

    A query in an occupied bin uses it; otherwise the nearest occupied bin by
    distance between centres, ties going to the lowest (row, col). Bins are
    square, so squared centre distance is an exact integer in bin units.
    """
    lookup = {(int(r), int(c)): i for i, (r, c) in enumerate(occupied)}
    answer = np.empty(len(query_keys), dtype=np.int64)
    fallback = np.zeros(len(query_keys), dtype=bool)
    for j, (r, c) in enumerate(query_keys):
        hit = lookup.get((int(r), int(c)))
        if hit is None:
            d2 = (occupied[:, 0] - r) ** 2 + (occupied[:, 1] - c) ** 2
            # occupied is sorted by (row, col), so argmin picks the lowest key on ties
            hit = int(np.argmin(d2))
            fallback[j] = True
        answer[j] = hit
    return answer, fallback


# --- ranking and metrics -----------------------------------------------------------------


def rank(scores: np.ndarray, m: int) -> np.ndarray:
    """Top-m indices per row, highest first, ties to the lowest index."""
    return np.argsort(-scores, axis=1, kind="stable")[:, :m]


def near_ties(scores: np.ndarray, m: int, rel: float = 1e-9) -> np.ndarray:
    """Rows whose ranking among the first m + 1 places hinges on a relative gap below ``rel``.

    Two correct implementations that sum in another order may order such a
    pair differently, so the checks allow one disagreement per flagged row.
    """
    top = np.take_along_axis(scores, rank(scores, m + 1), axis=1)
    gaps = top[:, :-1] - top[:, 1:]
    return np.any(gaps <= rel * np.abs(top[:, :-1]), axis=1)


def topm_metrics(cands: np.ndarray, powers: np.ndarray, m_values) -> dict:
    """Brute-force inclusion accuracy, literal accuracy and power ratio at each M."""
    truth = np.argmax(powers, axis=1)
    gt = powers[np.arange(len(truth)), truth]
    out = {"inclusion": [], "literal": [], "power_ratio": []}
    for m in m_values:
        c = cands[:, :m]
        hit = np.any(c == truth[:, None], axis=1)
        out["inclusion"].append(float(hit.mean()))
        out["literal"].append(float((hit / m).mean()))
        best = np.max(np.take_along_axis(powers, c, axis=1), axis=1)
        out["power_ratio"].append(float((best / gt).mean()))
    return out


# --- model forward pass ----------------------------------------------------------------------


def load_checkpoint(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def checkpoint_norm(ckpt: dict) -> tuple[float, float, float, float]:
    n = ckpt["normalization"]
    return (n["lat_min"], n["lat_max"], n["lon_min"], n["lon_max"])


def forward(ckpt: dict, x: np.ndarray) -> np.ndarray:
    """Class probabilities (n, classes) of a checkpoint for inputs (n, C, L).

    Conv blocks are zero-padded cross-correlation, ReLU and ceiling-mode max
    pooling; then flatten, dense layers with ReLU between them, and softmax.
    """
    spec, tensors = ckpt["spec"], ckpt["tensors"]
    h = np.asarray(x, dtype=np.float64)
    for i, block in enumerate(spec["conv_blocks"]):
        w = np.asarray(tensors[f"conv{i}.weight"])
        b = np.asarray(tensors[f"conv{i}.bias"])
        k, pool = block["kernel"], block["pool"]
        pad = k // 2
        hp = np.pad(h, ((0, 0), (0, 0), (pad, pad)))
        length = hp.shape[2] - k + 1
        h = sum(np.einsum("oc,bcl->bol", w[:, :, j], hp[:, :, j : j + length]) for j in range(k))
        h = np.maximum(h + b[None, :, None], 0.0)
        pooled = -(-length // pool)
        h = np.pad(h, ((0, 0), (0, 0), (0, pooled * pool - length)), constant_values=-np.inf)
        h = h.reshape(h.shape[0], h.shape[1], pooled, pool).max(axis=3)
    h = h.reshape(h.shape[0], -1)
    n_dense = len(spec["dense_widths"])
    for i in range(n_dense):
        h = h @ np.asarray(tensors[f"dense{i}.weight"]).T + np.asarray(tensors[f"dense{i}.bias"])
        if i < n_dense - 1:
            h = np.maximum(h, 0.0)
    e = np.exp(h - h.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)

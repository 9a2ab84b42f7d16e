"""ULA responses, an oversampled DFT codebook, per-beam received power, and
synthetic V2V scenario generation.

The channel is single-path line-of-sight: the per-subcarrier channel vector is
a real path gain times the array response at the transmitter's angle, flat
across subcarriers. Received power for beam i is then

    P_i = n_subcarriers * g(d) * |a(theta)^T q_i|^2 * tx_power,

with the power-law path gain g(d) = (reference_distance / d) ** exponent, and
a generated sample adds to each P_i the absolute value of a zero-mean normal
draw whose mean is noise_power.
The plain transpose product (no conjugation) keeps the matched beam at grid
frequency psi ~= sin(theta) for half-wavelength spacing.

A scenario (one ``ScenarioConfig``, as ``scenario_from_json`` reads it) moves a
transmitter and receiver along planar waypoint paths anchored at a GPS origin,
with one sample per period in the ingest CSV schema. ``generate_scenario`` gives
the drive as a ``SyntheticDrive``, a row source that synthesises only the rows
asked of it: ``ingest.write_dataset`` asks for one chunk of rows in each of its
work items, so no process holds the whole drive, and ``rows(slice(None))`` gives
it whole as a ``Dataset``. A selection of several chunks is synthesised on the
usable CPUs (``parallel.ordered_map``), each chunk straight into dataset columns
that the pool's processes share (``ingest._shared_columns``). Within a chunk,
each sample's geometry and path gain are Python floats, as for one sample alone,
while the array responses, gains and noise are computed for the whole chunk.
Sample i's noise comes from its own substream of the channel seed, so the
output does not depend on the chunking or the CPU count. ``_pcg64_states``
computes a chunk's substream states in one numpy pass, repeating the seeding of
numpy's ``SeedSequence`` and ``PCG64`` instead of building a generator per
sample; NEP 19 keeps that seeding stable, and a test compares the states with
numpy's.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    GeometryOutOfSectorError,
    InvalidGeometryError,
    OutOfRangeError,
    read_config,
    read_fields,
    read_object,
)
from .geodata import GeoPosition, validate_position
from .ingest import _CHUNK_ROWS, Dataset, _shared_columns
from .parallel import ordered_map

# Local planar frame scale: meters per degree of latitude (and of longitude
# at the equator). Scenario geometry only needs a consistent, monotone map.
METERS_PER_DEGREE = 111_320.0

DEFAULT_CODEBOOK_SIZE = 64


@dataclass(frozen=True)
class ArrayConfig:
    """Receive uniform linear array: element count and spacing in wavelengths."""

    n_elements: int = 16
    element_spacing: float = 0.5

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError("n_elements must be >= 1")
        if not (math.isfinite(self.element_spacing) and self.element_spacing > 0):
            raise ValueError(
                f"element_spacing must be finite and > 0, got {self.element_spacing!r}"
            )


@dataclass(frozen=True)
class Codebook:
    """A fixed set of unit-norm beamforming vectors, one per row."""

    weights: np.ndarray  # complex, shape (size, n_elements)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.complex128)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        norms = np.linalg.norm(w, axis=1)
        if not np.allclose(norms, 1.0, rtol=0.0, atol=1e-12):
            raise ValueError("codebook beams must have unit norm")

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    @property
    def n_elements(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class SyntheticChannelConfig:
    """Line-of-sight channel parameters, all in linear units."""

    n_subcarriers: int = 16
    tx_power: float = 1.0
    noise_power: float = 0.0
    pathloss_exponent: float = 2.0
    reference_distance: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # each message begins with a field's name, which config_section then names
        if self.n_subcarriers < 1:
            raise ValueError("n_subcarriers must be >= 1")
        for name in ("tx_power", "noise_power", "pathloss_exponent", "reference_distance"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if value < 0 and name in ("tx_power", "noise_power"):
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        if self.tx_power == self.noise_power == 0:
            raise ValueError("tx_power must be > 0 when noise_power is 0, or every power is 0")
        if not self.reference_distance > 0:
            raise ValueError("reference_distance must be > 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class TrajectoryConfig:
    """Planar waypoint paths for both vehicles, anchored at a GPS origin.

    Waypoints are (east, north) meters; each path is traversed at piecewise
    constant speed, its segments splitting the duration evenly. The receiver
    array boresight points at ``rx_heading`` radians from the +east axis,
    counter-clockwise.
    """

    duration: float
    tx_waypoints: tuple[tuple[float, float], ...]
    rx_waypoints: tuple[tuple[float, float], ...]
    sample_period: float = 0.1
    rx_heading: float = 0.0
    origin: GeoPosition = GeoPosition(0.0, 0.0)

    def __post_init__(self):
        for name in ("duration", "sample_period"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not math.isfinite(self.duration / self.sample_period):
            raise ValueError(
                f"duration {self.duration!r} holds too many sample periods of "
                f"{self.sample_period!r} to count"
            )
        if self.n_samples < 1:
            raise ValueError(
                f"sample_period {self.sample_period!r} gives no sample in "
                f"duration {self.duration!r}"
            )
        if not math.isfinite(self.rx_heading):
            raise ValueError(f"rx_heading must be finite, got {self.rx_heading!r}")
        for name in ("tx_waypoints", "rx_waypoints"):
            path = getattr(self, name)
            if not path or not np.isfinite(path).all():
                raise ValueError(f"{name} must be a non-empty path of finite points, got {path!r}")
        try:
            validate_position(self.origin)
        except OutOfRangeError as exc:
            raise ValueError(f"origin {exc}") from None
        # local_to_geo is affine and the paths piecewise linear, so the extreme fixes are waypoints
        for name in ("tx_waypoints", "rx_waypoints"):
            for east, north in getattr(self, name):
                try:
                    validate_position(local_to_geo(self.origin, east, north))
                except OutOfRangeError as exc:
                    raise ValueError(f"{name} point {[east, north]} is at {exc}") from None

    @property
    def n_samples(self) -> int:
        """One sample per period, the duration rounded to a whole number of periods."""
        return int(round(self.duration / self.sample_period))


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario document's sections and codebook size."""

    trajectory: TrajectoryConfig
    array: ArrayConfig = ArrayConfig()
    channel: SyntheticChannelConfig = SyntheticChannelConfig()
    codebook_size: int = DEFAULT_CODEBOOK_SIZE

    def __post_init__(self):
        if self.codebook_size < self.array.n_elements:
            raise ValueError(
                f"codebook_size {self.codebook_size} must be >= array.n_elements "
                f"{self.array.n_elements}"
            )
        # checked before any column is allocated: a shared mapping this large may be granted
        traj = self.trajectory
        memory = math.inf  # no sysconf on Windows
        if hasattr(os, "sysconf"):
            memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if traj.n_samples * (self.codebook_size + 6) * 8 > memory:
            raise ValueError(
                f"trajectory.duration {traj.duration!r} holds {traj.n_samples:.4g} samples of "
                f"{traj.sample_period!r}, whose columns take more than the {memory:.4g} bytes "
                "of physical memory"
            )


def array_response(cfg: ArrayConfig, theta: float) -> np.ndarray:
    """Array response at angle ``theta`` radians from boresight.

    Element k gets phase 2*pi*spacing*k*sin(theta); unit magnitude each.
    ``theta`` must lie in the front half-plane, |theta| <= pi/2.
    """
    if abs(theta) > math.pi / 2:
        raise GeometryOutOfSectorError(f"theta {theta} outside front half-plane")
    return _array_responses(cfg, np.array([math.sin(theta)]))[0]


def _array_responses(cfg: ArrayConfig, sin_theta: np.ndarray) -> np.ndarray:
    """Array responses, one row per entry of ``sin_theta``: shape (m, n_elements)."""
    k = np.arange(cfg.n_elements)
    return np.exp(2j * math.pi * cfg.element_spacing * k * sin_theta[:, None])


def dft_codebook(cfg: ArrayConfig, size: int = DEFAULT_CODEBOOK_SIZE) -> Codebook:
    """Oversampled DFT codebook on the uniform sin-space grid psi_i = -1 + 2i/size.

    Beam i has weights exp(-1j*pi*k*psi_i)/sqrt(n_elements); unit norm by
    construction. ``size`` must be >= n_elements.
    """
    if size < cfg.n_elements:
        raise ValueError("codebook size must be >= n_elements")
    psi = -1.0 + 2.0 * np.arange(size) / size
    k = np.arange(cfg.n_elements)
    weights = np.exp(-1j * math.pi * np.outer(psi, k)) / math.sqrt(cfg.n_elements)
    return Codebook(weights)


def beam_gains(cfg: ArrayConfig, cb: Codebook, theta: float) -> np.ndarray:
    """Per-beam array gains |a(theta)^T q_i|^2, length ``cb.size``."""
    return _gains(cb, array_response(cfg, theta)[None])[0]


def _gains(cb: Codebook, responses: np.ndarray) -> np.ndarray:
    """Per-beam gains of each row of ``responses``: shape (m, cb.size).

    One matrix-vector product per row: a single (m, n) x (n, Q) product sums
    in another order and changes the last bits.
    """
    return np.abs(np.matmul(cb.weights[None], responses[:, :, None])[:, :, 0]) ** 2


def path_gain(ch: SyntheticChannelConfig, distance: float) -> float:
    """Power-law path gain (reference_distance / distance) ** exponent."""
    if distance < ch.reference_distance:
        raise InvalidGeometryError(
            f"distance {distance} below reference {ch.reference_distance}"
        )
    return (ch.reference_distance / distance) ** ch.pathloss_exponent


def beam_power_vector(
    cfg: ArrayConfig, cb: Codebook, ch: SyntheticChannelConfig, theta: float, distance: float
) -> np.ndarray:
    """Noise-free received power per beam for a transmitter at (theta, distance).

    The channel is flat across subcarriers, so the subcarrier sum reduces to a
    factor n_subcarriers. ``ch.noise_power`` is not applied: only
    ``generate_scenario`` adds noise, each sample from its own substream.
    """
    g = path_gain(ch, distance)
    return ch.n_subcarriers * g * ch.tx_power * beam_gains(cfg, cb, theta)


def local_to_geo(origin: GeoPosition, east_m: float, north_m: float) -> GeoPosition:
    """Map planar (east, north) meters to a GPS position near ``origin``."""
    lat = origin.lat_deg + north_m / METERS_PER_DEGREE
    lon = origin.lon_deg + east_m / (
        METERS_PER_DEGREE * math.cos(math.radians(origin.lat_deg))
    )
    return GeoPosition(lat, lon)


def _path_position(
    waypoints: tuple[tuple[float, float], ...], fraction: float
) -> tuple[float, float]:
    """Piecewise-linear interpolation along a waypoint path at fraction in [0, 1]."""
    if len(waypoints) == 1:
        return waypoints[0]
    n_segments = len(waypoints) - 1
    s = min(max(fraction, 0.0), 1.0) * n_segments
    seg = min(int(s), n_segments - 1)
    frac = s - seg
    (x0, y0), (x1, y1) = waypoints[seg], waypoints[seg + 1]
    return (x0 + frac * (x1 - x0), y0 + frac * (y1 - y0))


def _wrap_angle(angle: float) -> float:
    """Wrap to (-pi, pi]."""
    wrapped = math.fmod(angle + math.pi, 2.0 * math.pi)
    if wrapped <= 0.0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


@dataclass(frozen=True, eq=False)
class SyntheticDrive:
    """One scenario's drive, whose rows are synthesised when they are asked for."""

    scenario: ScenarioConfig
    codebook: Codebook

    @property
    def codebook_size(self) -> int:
        return self.codebook.size

    def __len__(self) -> int:
        return self.scenario.trajectory.n_samples

    def rows(self, sel: slice) -> Dataset:
        """The rows of ``sel``, a slice of step 1, synthesised in chunks on the usable
        CPUs straight into columns the pool's processes share, so no rows come back
        through the pool. The earliest failing sample's error is raised.
        """
        start, stop, step = sel.indices(len(self))
        if step != 1:
            raise ValueError(f"a drive's rows are a slice of step 1, got {sel!r}")
        columns = _shared_columns(len(range(start, stop)), self.codebook_size)
        synthesize = functools.partial(_synthesize, self.scenario, self.codebook, columns, start)
        list(ordered_map(synthesize, range(start, stop, _CHUNK_ROWS)))
        return Dataset(*columns)


def generate_scenario(scenario: ScenarioConfig) -> SyntheticDrive:
    """Simulate one drive: a sample per period with positions, powers, and label.

    Only the codebook is built here; ``SyntheticDrive.rows`` synthesises rows.
    The transmitter must stay in the receiver's front half-plane; the angle is
    measured from the array boresight. Sample i draws its noise from
    ``SeedSequence(seed, spawn_key=(i,))``, the i-th spawned substream of the
    channel's ``seed``, so output is deterministic and independent of which
    rows are asked for together. A chunk computes its samples' PCG64 states at
    once with numpy's seeding algorithms, which NEP 19 keeps stable and a test
    checks against numpy, and one reused generator draws from each state.
    """
    return SyntheticDrive(scenario, dft_codebook(scenario.array, scenario.codebook_size))


def _synthesize(
    scenario: ScenarioConfig,
    cb: Codebook,
    columns: tuple[np.ndarray, ...],
    first: int,
    start: int,
) -> None:
    """Write samples start .. start + _CHUNK_ROWS - 1 (or to the columns' last) into
    the t, tx, rx, powers and best ``columns``, whose row 0 is sample ``first`` and
    which a pool worker shares with its caller.

    Each sample's geometry, path gain and scale are Python floats, exactly as
    for one sample alone; only the array responses, gains and noise states are
    computed for the whole chunk.
    """
    traj, ch = scenario.trajectory, scenario.channel
    part = slice(start - first, start - first + _CHUNK_ROWS)
    t, tx_geo, rx_geo, powers, best = (column[part] for column in columns)
    rows = []  # t, tx lat, tx lon, rx lat, rx lon, sin(theta), power scale
    for i in range(start, start + len(t)):
        time = i * traj.sample_period
        fraction = time / traj.duration
        tx = _path_position(traj.tx_waypoints, fraction)
        rx = _path_position(traj.rx_waypoints, fraction)
        dx, dy = tx[0] - rx[0], tx[1] - rx[1]
        theta = _wrap_angle(math.atan2(dy, dx) - traj.rx_heading)
        if not -math.pi / 2 < theta < math.pi / 2:
            raise GeometryOutOfSectorError(
                f"sample {i}: transmitter angle {theta:.4f} rad outside (-pi/2, pi/2)"
            )
        scale = ch.n_subcarriers * path_gain(ch, math.hypot(dx, dy)) * ch.tx_power
        tx_pos = local_to_geo(traj.origin, tx[0], tx[1])
        rx_pos = local_to_geo(traj.origin, rx[0], rx[1])
        rows.append((
            time, tx_pos.lat_deg, tx_pos.lon_deg, rx_pos.lat_deg, rx_pos.lon_deg,
            math.sin(theta), scale,
        ))
    values = np.array(rows)
    t[:], tx_geo[:], rx_geo[:] = values[:, 0], values[:, 1:3], values[:, 3:5]
    powers[:] = values[:, 6:] * _gains(cb, _array_responses(scenario.array, values[:, 5]))
    if ch.noise_power > 0.0:
        sigma = ch.noise_power * math.sqrt(math.pi / 2.0)
        bitgen = np.random.PCG64(0)  # every row sets its own state
        rng = np.random.Generator(bitgen)
        noise = np.empty_like(powers)
        keys = np.arange(start, start + len(rows), dtype=np.uint64)
        for row, state in enumerate(_pcg64_states(ch.seed, keys)):
            bitgen.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0,
                            "uinteger": 0}
            noise[row] = rng.normal(0.0, sigma, size=cb.size)
        powers += np.abs(noise)
    best[:] = powers.argmax(axis=1)


# numpy's SeedSequence hash constants and PCG64 multiplier, which NEP 19 keeps stable
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(h: int, mult: int):
    """SeedSequence's hashmix of uint32 words, with its hash constant running on from ``h``."""

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * mult & _MASK32
        value = value * h & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x, y):
    """SeedSequence's mix of two uint32 words."""
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return r ^ r >> 16


def _pcg64_states(seed: int, keys: np.ndarray) -> Iterator[dict[str, int]]:
    """Yield PCG64's {"state", "inc"} as seeded by ``SeedSequence(seed, spawn_key=(k,))``,
    for each k of the uint64 ``keys``.

    SeedSequence's entropy is the seed's uint32 words, zero-padded to its pool size of 4,
    then the key's one or two words; ``mix_entropy`` hashes it into the pool and
    ``generate_state(4, np.uint64)`` hashes the pool into 4 words. The seed's words are
    mixed once as Python ints and the keys' words for all keys at once, as uint32 words
    in uint64 columns. Each key's 4 words then seed PCG64 as ``pcg64_set_seed`` does.
    """
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in words[4:] + [keys & _MASK32]:
        pool = [_mix(p, hashmix(w)) for p in pool]
    high = keys >> 32  # a key of 2**32 or more has a second word
    pool = [np.where(high > 0, _mix(p, hashmix(high)), p) for p in pool]
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    out = [hashmix(pool[i % 4]) for i in range(8)]
    s0, s1, s2, s3 = ((out[i] | out[i + 1] << 32).tolist() for i in range(0, 8, 2))
    for a, b, c, d in zip(s0, s1, s2, s3):
        inc = ((c << 64 | d) << 1 | 1) & _MASK128
        yield {"state": ((a << 64 | b) + inc) * _PCG64_MULT + inc & _MASK128, "inc": inc}


def scenario_from_json(doc: dict) -> ScenarioConfig:
    """The scenario of a JSON document.

    The fields of ``ScenarioConfig`` and of each of its sections are read by
    ``errors.read_config`` as their declared types, and a field left out takes
    its dataclass default; the trajectory's origin is read from the keys
    ``lat`` and ``lon``. Raises ConfigError naming the offending field on any
    malformed entry or any key that names no field.
    """
    doc = dict(read_object(doc, ""))
    traj_doc = dict(read_object(doc.pop("trajectory", {}), "trajectory"))
    origin = read_fields(
        TrajectoryConfig.origin, traj_doc.pop("origin", {}), "trajectory.origin",
        lat_deg="lat", lon_deg="lon",
    )
    traj = read_config(TrajectoryConfig, traj_doc, "trajectory", origin=GeoPosition(**origin))
    return read_config(ScenarioConfig, doc, "", trajectory=traj)

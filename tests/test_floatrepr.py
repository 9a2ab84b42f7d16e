import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from v2vbeam.floatrepr import BLOCK, format_floats


def reference(values, seps) -> bytes:
    return b"".join(
        repr(v).encode("ascii") + bytes([sep])
        for v, sep in zip(np.asarray(values, np.float64).ravel().tolist(), np.ravel(seps))
    )


def check(values, sep=b","):
    values = np.asarray(values, np.float64)
    seps = np.full(values.shape, sep[0], np.uint8)
    assert format_floats(values, seps) == reference(values, seps)


def from_bits(bits) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
            st.integers(1, 255),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_every_finite_double_and_separator(pairs):
    values = np.array([v for v, _ in pairs], np.float64)
    seps = np.array([sep for _, sep in pairs], np.uint8)
    assert format_floats(values, seps) == reference(values, seps)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_any_bit_pattern(bits):
    check([from_bits(bits)])


def test_a_million_random_bit_patterns():
    rng = np.random.default_rng(2018)
    bits = rng.integers(0, 2**64, 1_000_000, np.uint64, endpoint=False)
    values = bits.view(np.float64)
    seps = np.full(len(values), ord("|"), np.uint8)
    expected = "".join([f"{v!r}|" for v in values.tolist()]).encode("ascii")
    assert format_floats(values, seps) == expected


def test_data_like_values():
    rng = np.random.default_rng(7)
    values = np.concatenate([
        rng.random(20_000) * 10.0 ** rng.integers(-12, 17, 20_000),
        np.arange(5_000) * 0.1,  # sample times: short digits, many dropped
        33.42 + rng.random(5_000) * 1e-3,  # latitudes and longitudes
        -111.93 + rng.random(5_000) * 1e-3,
        np.round(rng.random(5_000), 3),
    ])
    check(np.concatenate([values, -values]))


def neighbours(x, steps=3):
    out = [x]
    below = above = x
    for _ in range(steps):  # past the largest double lies infinity
        with np.errstate(over="ignore"):
            below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [below, above]
    return out


def test_boundaries():
    values = []
    # the switch to scientific notation (1e-05, 0.0001, 1e+16) and the fast
    # path's limits at 2^53 and 2^54, with powers of two and ten around them
    for centre in (1e-5, 1e-4, 1e16, 2.0**53, 2.0**54):
        exponent = math.floor(math.log2(centre))
        for k in range(-3, 4):
            values += neighbours(centre * 10.0**k, 2)
            values += neighbours(2.0 ** (exponent + k), 2)
    values += neighbours(5e-324)  # the smallest subnormal
    values += neighbours(2.2250738585072014e-308)  # the smallest normal
    values += neighbours(1.7976931348623157e308)  # the largest double
    values += [0.0, 1.0, 0.5, 3.0, 9.5, 100.0, 1e22, 1e23, 123456789012345680.0]
    values = np.array(values)
    check(np.concatenate([values, -values]))
    check([math.inf, -math.inf, math.nan, -0.0])


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_block_edges(n):
    rng = np.random.default_rng(n)
    values = rng.random(n) * 10.0 ** rng.integers(-8, 18, n) * rng.choice([-1.0, 1.0], n)
    values[::97] = 0.5  # repr writes these, in every block
    values[-1] = -1.7976931348623157e308  # the longest text, in the last block
    seps = rng.integers(1, 256, n).astype(np.uint8)
    assert format_floats(values, seps) == reference(values, seps)


def test_separators_and_empty_input():
    values = np.array([0.1, -2.5e-7, 1e300])
    seps = np.frombuffer(b",\n;", np.uint8)
    assert format_floats(values, seps) == b"0.1,-2.5e-07\n1e+300;"
    assert format_floats(np.empty(0), np.empty(0, np.uint8)) == b""
    # a 2-D block reads row by row
    grid = np.array([[1.5, 2.25], [0.1, 7e-9]])
    seps = np.array([[ord(",")] * 2] * 2, np.uint8)
    assert format_floats(grid, seps) == b"1.5,2.25,0.1,7e-09,"


def test_bad_separators_rejected():
    with pytest.raises(ValueError, match="2 values but 1 separators"):
        format_floats(np.array([1.0, 2.0]), np.array([44], np.uint8))
    with pytest.raises(ValueError, match="NUL"):
        format_floats(np.array([1.0, 2.0]), np.array([44, 0], np.uint8))


def test_chunk_memory_below_the_repr_path():
    # one CSV chunk: 512 rows of 64 powers and 5 fixes
    rng = np.random.default_rng(8)
    values = rng.random((512, 69)) * 1e-3
    seps = np.full(values.shape, ord(","), np.uint8)
    seps[:, -1] = ord("\n")

    def repr_path():
        rows = values.tolist()
        return "".join([",".join(map(repr, row)) + "\n" for row in rows]).encode()

    peaks = []
    for write in (repr_path, lambda: format_floats(values, seps)):
        write()  # the tables are built on first use
        tracemalloc.start()
        try:
            text = write()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert text == repr_path()
    assert peaks[1] <= peaks[0]


def test_block_memory_per_value():
    # a block held 335 B per value at its peak when its arrays were all kept to
    # the end; they are now dropped once used, which holds it near 81 B
    rng = np.random.default_rng(9)
    values = rng.normal(size=BLOCK) * 0.05
    seps = np.full(BLOCK, ord(","), np.uint8)
    format_floats(values[:1], seps[:1])  # the tables are built on first use
    tracemalloc.start()
    try:
        format_floats(values, seps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * BLOCK

"""The text of many float64 values at once, byte for byte as ``repr`` writes it.

``format_floats(values, seps)`` returns ``repr(v) + sep`` for every value,
concatenated. The shortest round-trip digits come from the fast path of Ryū's
``d2s`` (Ulf Adams, "Ryū: fast float-to-string conversion", PLDI 2018), which
picks the same digits as ``repr``: the fewest that read back as the value, the
nearest to it when several do. Every step is a numpy operation over a block of
values: a lookup of 5^i in a table, 64x128-bit products in 28-bit limbs, and
integer divisions by powers of ten. The digits are then laid out as ``repr``
lays them out, through a table of every layout.

``repr`` itself writes the values the fast path leaves out, one at a time:
zeros, subnormals, magnitudes from 2^54 up, non-finite values, and values
whose exact decimal expansion is short (Ryū's trailing-zero cases, such as
0.5 or 3.0).
"""

from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_LIMB = 28  # bits per limb of the 64x128-bit product
_LIMB_MASK = (1 << _LIMB) - 1
# Ryū's e2 is the exponent field minus this, the value being mv * 2^e2 with mv =
# 4 * m2; a field below it is a magnitude below 2^54, the only case the fast path takes
_E2_BIAS = 1023 + 52 + 2
_POW5_BITS = 125  # Ryū's DOUBLE_POW5_BITCOUNT: each 5^i is held as its top 125 bits
BLOCK = 2048  # values formatted at once: a few hundred KB of temporaries
_MAX_DIGITS = 17  # a shortest round-trip double has at most 17 significant digits
# 10^0 .. 10^19, and 2^64 - 1 in place of 10^20, which leaves every uint64 below it
_POW10 = np.array([10**k for k in range(20)] + [2**64 - 1], dtype=_U)
# Rows of a block's alphabet, one column per value: its digits, least significant
# first (rows 0 .. 17, as two halves of 9), then the characters below. A layout
# template lists the rows its text takes its characters from.
_ZERO, _POINT, _E, _EXP_SIGN, _EXP_DIGITS = range(18, 23)
_SEP = _EXP_DIGITS + 3  # after the three exponent digits
_MINUS = _SEP + 1
_PAD = _MINUS + 1  # NUL, deleted from the text once the block is laid out
# the longest text of a value and its separator: "-1.7976931348623157e+308,"
_WIDTH = 25
# layout classes: decimal point positions -3 .. 16 are positional, then two
# scientific classes with a 2- or a 3-digit exponent
_CLASSES = 20 + 2


def format_floats(values: np.ndarray, seps: np.ndarray) -> bytes:
    """``b"".join(repr(v).encode() + sep for v, sep in zip(values, seps))``.

    ``values`` is read as float64 and ``seps`` as one byte (uint8) per value;
    a separator may be any byte but NUL.
    """
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    seps = np.asarray(seps, dtype=np.uint8).ravel()
    if len(seps) != len(values):
        raise ValueError(f"{len(values)} values but {len(seps)} separators")
    if not seps.all():
        raise ValueError("a separator is the NUL byte")
    return b"".join([
        _format_block(values[start : start + BLOCK], seps[start : start + BLOCK])
        for start in range(0, len(values), BLOCK)
    ])


@functools.cache
def _exponent_tables() -> tuple[np.ndarray, ...]:
    """What Ryū's d2d derives from the exponent field alone, for each of the
    2048 fields: (limbs, shift, e10, zero_mask).

    limbs (5, 2048) holds DOUBLE_POW5_SPLIT[i], the top 125 bits of 5^i, as
    28-bit limbs, least significant first; a product with it is shifted right
    by 112 + shift; e10 is the decimal exponent of the digits; and mv & zero_mask
    is 0 exactly where the value goes to ``repr``: in Ryū's trailing-zero case
    (mv has q trailing zero bits, q <= 1 included) and for the fields the fast
    path does not take (zero and subnormal, from 2^54 up, non-finite), whose
    other entries are those of 1.0 to keep their arithmetic in range.
    """
    limbs = np.zeros((5, 2048), _U)
    shift = np.zeros(2048, _U)
    e10 = np.zeros(2048, np.int64)
    zero_mask = np.zeros(2048, _U)
    for field in range(2048):
        fast = 0 < field < _E2_BIAS
        neg_e2 = _E2_BIAS - (field if fast else 1023)
        q = ((neg_e2 * 732923) >> 20) - (neg_e2 > 1)  # log10(5^-e2), less one above 1
        i = neg_e2 - q
        k = (5**i).bit_length() - _POW5_BITS  # 5^i = top * 2^k, rounded down
        top = 5**i >> k if k >= 0 else 5**i << -k
        limbs[:, field] = [(top >> (_LIMB * b)) & _LIMB_MASK for b in range(5)]
        shift[field] = q - k - 4 * _LIMB  # Ryū's j = q - k, less 112: 6 .. 10
        e10[field] = q - neg_e2
        if fast and q > 1:
            zero_mask[field] = (1 << min(q, 64)) - 1
    for table in (limbs, shift, e10, zero_mask):
        table.setflags(write=False)  # one set for every caller
    return limbs, shift, e10, zero_mask


@functools.cache
def _templates() -> tuple[np.ndarray, np.ndarray]:
    """The layout of every (sign, digit count, class) as alphabet rows.

    Returns (templates, lengths): row ``(negative * 18 + digit count) * 22 +
    class`` of ``templates`` lists the alphabet rows that a text of that
    layout and its separator take their characters from, padded with NULs,
    and the same row of ``lengths`` its length. These are ``repr``'s rules:
    positional when the decimal point falls after digit -3 .. 16, else a
    mantissa and ``e-05`` or ``e+16``.
    """
    templates = np.full((2 * (_MAX_DIGITS + 1) * _CLASSES, _WIDTH), _PAD, np.intp)
    lengths = np.zeros(len(templates), np.int64)
    for negative in (0, 1):
        for n_digits in range(1, _MAX_DIGITS + 1):
            # row of the k-th most significant digit
            digits = [n_digits - 1 - k for k in range(n_digits)]
            for cls in range(_CLASSES):
                decpt = cls - 3
                if cls >= 20:  # d.ddd, then the exponent's sign and 2 or 3 digits
                    fraction = [_POINT] + digits[1:] if n_digits > 1 else []
                    mantissa = digits[:1] + fraction
                    exponent = [_EXP_DIGITS + k for k in range(21 - cls, 3)]
                    text = mantissa + [_E, _EXP_SIGN] + exponent
                elif decpt <= 0:
                    text = [_ZERO, _POINT] + [_ZERO] * -decpt + digits
                elif decpt < n_digits:
                    text = digits[:decpt] + [_POINT] + digits[decpt:]
                else:
                    text = digits + [_ZERO] * (decpt - n_digits) + [_POINT, _ZERO]
                text = [_MINUS] * negative + text + [_SEP]
                row = (negative * (_MAX_DIGITS + 1) + n_digits) * _CLASSES + cls
                templates[row, : len(text)] = text
                lengths[row] = len(text)
    templates.setflags(write=False)
    lengths.setflags(write=False)
    return templates, lengths


def _mul_shift(m: np.ndarray, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """floor(m * t / 2^(112 + s)) for m below 2^55, t the five 28-bit limbs of a
    125-bit number and 6 <= s <= 10, which keep the quotient below 2^63.

    With 28-bit limbs every product of two limbs and every sum of two such
    products fits in 64 bits (32-bit limbs would need each product split into
    halves), so each column is summed whole and only its carry moves on.
    """
    m0, m1 = m & _U(_LIMB_MASK), m >> _U(_LIMB)
    c = m0 * t[0]
    for k in range(1, 5):
        c = (c >> _U(_LIMB)) + m0 * t[k] + m1 * t[k - 1]
    return (c >> s) + ((m1 * t[4]) << (_U(_LIMB) - s))


def _format_block(x: np.ndarray, seps: np.ndarray) -> bytes:
    bits = x.view(_U)
    digits, n_digits, decpt, slow = _shortest(bits)
    texts = [
        repr(v).encode("ascii") + bytes([sep])
        for v, sep in zip(x[slow].tolist(), seps[slow].tolist())
    ]
    chars = _layout(bits, seps, digits, n_digits, decpt, max(map(len, texts), default=0))
    if texts:
        padded = b"".join([text.ljust(chars.shape[1], b"\0") for text in texts])
        chars[slow] = np.frombuffer(padded, np.uint8).reshape(len(texts), -1)
    return chars.tobytes().translate(None, b"\0")


def _shortest(bits: np.ndarray):
    """Ryū's d2d for the float64 values with these bits: the shortest digits
    (an integer), their count, the position of the decimal point relative to
    them (1 for 1.5, -4 for 1e-05) and the indices of the values that
    ``repr`` must write instead."""
    n = len(bits)
    field = ((bits >> _U(52)) & _U(0x7FF)).astype(np.intp)
    mantissa = bits & _U((1 << 52) - 1)
    limbs, shift, e10, zero_mask = _exponent_tables()
    mv = (mantissa | _U(1 << 52)) << _U(2)
    slow = (mv & zero_mask[field]) == 0
    mm_shift = ((mantissa != 0) | (field <= 1)).astype(_U)
    factors = np.stack([mv, mv + _U(2), mv - _U(1) - mm_shift])
    vr, vp, vm = _mul_shift(factors, limbs[:, field], shift[field])

    # Ryū drops digits while the interval's ends still differ above them: the
    # most digits r with vp // 10^r > vm // 10^r. A difference of at least 10^r
    # guarantees it for r. The next two powers are tried on the values still
    # going, and the few left (most with short digits, such as 0.1) are tried
    # against every power of ten at once
    removed = np.searchsorted(_POW10, vp - vm, side="right") - 1
    more = np.arange(n)
    for _ in range(2):
        scale = _POW10[removed[more] + 1]
        more = more[vp[more] // scale > vm[more] // scale]
        removed[more] += 1
    if more.size:
        differ = vp[more, None] // _POW10 > vm[more, None] // _POW10
        removed[more] = differ.sum(axis=1) - 1
    scale = _POW10[removed]
    kept = vr // scale
    last = vr // _POW10[np.maximum(removed - 1, 0)] - kept * _U(10)
    # Ryū takes the next number up when vr is the excluded lower end or rounds up
    up = (kept == vm // scale) | ((removed > 0) & (last >= _U(5)))
    digits = kept + up.astype(_U)
    n_digits = np.searchsorted(_POW10, digits, side="right")
    decpt = e10[field] + removed + n_digits
    return digits, n_digits, decpt, np.flatnonzero(slow)


def _layout(bits, seps, digits, n_digits, decpt, min_width: int) -> np.ndarray:
    """(n, width) uint8: each value's text and separator, padded with NULs."""
    n = len(bits)
    exponent = decpt - 1
    magnitude = np.abs(exponent)
    alphabet = np.empty((_PAD + 1, n), np.uint8)
    high = digits // _U(10**9)
    halves = np.empty((2, n), np.uint32)  # the last 9 digits and the ones above
    halves[0] = digits - high * _U(10**9)
    halves[1] = high
    for k in range(9):
        tens = halves // np.uint32(10)
        alphabet[k : 18 : 9] = halves - tens * np.uint32(10)
        halves = tens
    alphabet[_EXP_DIGITS] = magnitude // 100
    alphabet[_EXP_DIGITS + 1] = magnitude // 10 % 10
    alphabet[_EXP_DIGITS + 2] = magnitude % 10
    alphabet[:18] += ord("0")
    alphabet[_EXP_DIGITS:_SEP] += ord("0")
    alphabet[_ZERO] = ord("0")
    alphabet[_POINT] = ord(".")
    alphabet[_E] = ord("e")
    alphabet[_EXP_SIGN] = np.where(exponent < 0, ord("-"), ord("+"))
    alphabet[_SEP] = seps
    alphabet[_MINUS] = ord("-")
    alphabet[_PAD] = 0

    positional = (decpt > -4) & (decpt <= 16)
    cls = np.where(positional, decpt + 3, np.where(magnitude < 100, 20, 21))
    negative = (bits >> _U(63)).astype(np.int64)
    row = (negative * (_MAX_DIGITS + 1) + n_digits) * _CLASSES + cls
    templates, lengths = _templates()
    width = max(int(lengths[row].max()), min_width)
    where = templates[row, :width]  # a copy: alphabet rows, then flat indices
    where *= n
    where += np.arange(n)[:, None]
    return np.take(alphabet, where)

"""The text of many float64 values at once, byte for byte as ``repr`` writes it.

``format_floats(values, seps)`` returns ``repr(v) + sep`` for every value,
concatenated. The shortest round-trip digits come from the fast path of Ryū's
``d2s`` (Ulf Adams, "Ryū: fast float-to-string conversion", PLDI 2018), which
picks the same digits as ``repr``: the fewest that read back as the value, the
nearest to it when several do. Every step is a numpy operation over a block of
values: a lookup of 5^i in a table, 64x128-bit products in 28-bit limbs, and
integer divisions by powers of ten. The digits are then laid out as ``repr``
lays them out, through a table of every layout, one character column at a time.

A block is large, so that the cost of each numpy call is spread over many
values, and its arrays are few: each is dropped as soon as it is used, and the
block holds about 80 bytes per value at its peak.

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
BLOCK = 8192  # values formatted at once: about 660 KB of temporaries
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

    Returns (templates, lengths): column ``(negative * 18 + digit count) * 22
    + class`` of ``templates`` lists the alphabet rows that a text of that
    layout and its separator take their characters from, one row per
    character, padded with NULs, and the same entry of ``lengths`` its length.
    These are ``repr``'s rules: positional when the decimal point falls after
    digit -3 .. 16, else a mantissa and ``e-05`` or ``e+16``.
    """
    templates = np.full((_WIDTH, 2 * (_MAX_DIGITS + 1) * _CLASSES), _PAD, np.intp)
    lengths = np.zeros(templates.shape[1], np.int64)
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
                layout = (negative * (_MAX_DIGITS + 1) + n_digits) * _CLASSES + cls
                templates[: len(text), layout] = text
                lengths[layout] = len(text)
    templates.setflags(write=False)
    lengths.setflags(write=False)
    return templates, lengths


def _mul_shift(
    m: np.ndarray, limbs: np.ndarray, field: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """floor(m * t / 2^(112 + s)) for m below 2^55, t = limbs[:, field] the five
    28-bit limbs of a 125-bit number and 6 <= s <= 10, which keep the quotient
    below 2^63. ``m`` is overwritten.

    With 28-bit limbs every product of two limbs and every sum of two such
    products fits in 64 bits (32-bit limbs would need each product split into
    halves), so each column is summed whole and only its carry moves on. The
    limbs are gathered one at a time into one buffer.
    """
    m1 = m >> _U(_LIMB)
    m0 = np.bitwise_and(m, _U(_LIMB_MASK), out=m)
    t = limbs[0].take(field)
    c = m0 * t
    product = np.empty_like(c)
    for k in range(1, 5):
        c >>= _U(_LIMB)
        c += np.multiply(m1, t, out=product)
        c += np.multiply(m0, limbs[k].take(field, out=t, mode="clip"), out=product)
    c >>= s
    np.multiply(m1, t, out=product)
    product <<= _U(_LIMB) - s
    c += product
    return c


def _format_block(x: np.ndarray, seps: np.ndarray) -> bytes:
    bits = x.view(_U)
    slow, digits, n_digits, decpt = _shortest(bits)
    texts = [
        repr(v).encode("ascii") + bytes([sep])
        for v, sep in zip(x[slow].tolist(), seps[slow].tolist())
    ]
    alphabet = _alphabet(digits, decpt, seps)
    layout = _layout_index(bits, n_digits, decpt)
    del digits, n_digits, decpt
    chars = _layout(alphabet, layout, max(map(len, texts), default=0))
    del alphabet, layout
    if texts:
        padded = b"".join([text.ljust(chars.shape[1], b"\0") for text in texts])
        chars[slow] = np.frombuffer(padded, np.uint8).reshape(len(texts), -1)
    return chars.tobytes().translate(None, b"\0")


def _shortest(bits: np.ndarray):
    """Ryū's d2d for the float64 values with these bits: the indices of the
    values that ``repr`` must write instead, then the shortest digits (an
    integer), their count and the position of the decimal point relative to
    them (1 for 1.5, -4 for 1e-05)."""
    field = (bits >> _U(52)).view(np.intp)
    field &= 0x7FF
    limbs, shift, e10, zero_mask = _exponent_tables()
    mv = bits & _U((1 << 52) - 1)
    mm_shift = (mv != 0) | (field <= 1)
    mv |= _U(1 << 52)
    mv <<= _U(2)
    slow = np.flatnonzero((mv & zero_mask[field]) == 0)
    s = shift[field]
    vm = _mul_shift(mv - _U(1) - mm_shift, limbs, field, s)
    vp = _mul_shift(mv + _U(2), limbs, field, s)
    vr = _mul_shift(mv, limbs, field, s)
    del mv, s

    # Ryū drops digits while the interval's ends still differ above them: the
    # most digits r with vp // 10^r > vm // 10^r. A difference of at least 10^r
    # guarantees it for r, and the values still going try the next power up
    # until their ends agree (few go far: most with short digits, such as 0.1).
    # The 2^64 - 1 that ends _POW10 stops every value
    removed = np.searchsorted(_POW10, vp - vm, side="right") - 1
    scale = _POW10[removed + 1]
    more = np.flatnonzero(vp // scale > vm // scale)
    while more.size:
        removed[more] += 1
        scale = _POW10[removed[more] + 1]
        more = more[vp[more] // scale > vm[more] // scale]
    del vp, more
    scale = _POW10[removed]
    kept = vr // scale
    last = vr // _POW10[np.maximum(removed - 1, 0)] - kept * _U(10)
    # Ryū takes the next number up when vr is the excluded lower end or rounds up
    up = (kept == vm // scale) | ((removed > 0) & (last >= _U(5)))
    kept += up
    n_digits = np.searchsorted(_POW10, kept, side="right")
    decpt = e10.take(field)
    decpt += removed
    decpt += n_digits
    return slow, kept, n_digits, decpt


def _alphabet(digits, decpt, seps) -> np.ndarray:
    """(_PAD + 1, n) uint8: the rows every layout takes its characters from."""
    n = len(digits)
    alphabet = np.empty((_PAD + 1, n), np.uint8)
    halves = np.empty((2, n), np.uint32)  # the last 9 digits and the ones above
    np.remainder(digits, _U(10**9), out=halves[0])
    np.floor_divide(digits, _U(10**9), out=halves[1])
    tens = np.empty_like(halves)
    for k in range(9):
        np.floor_divide(halves, np.uint32(10), out=tens)
        halves -= tens * np.uint32(10)
        alphabet[k : 18 : 9] = halves
        halves, tens = tens, halves
    del halves, tens
    magnitude = np.abs(decpt - 1)
    alphabet[_EXP_DIGITS] = magnitude // 100
    alphabet[_EXP_DIGITS + 1] = magnitude // 10 % 10
    alphabet[_EXP_DIGITS + 2] = magnitude % 10
    alphabet[:18] += ord("0")
    alphabet[_EXP_DIGITS:_SEP] += ord("0")
    alphabet[_ZERO] = ord("0")
    alphabet[_POINT] = ord(".")
    alphabet[_E] = ord("e")
    alphabet[_EXP_SIGN] = np.where(decpt < 1, ord("-"), ord("+"))
    alphabet[_SEP] = seps
    alphabet[_MINUS] = ord("-")
    alphabet[_PAD] = 0
    return alphabet


def _layout_index(bits, n_digits, decpt) -> np.ndarray:
    """Each value's layout: its column of ``_templates``."""
    cls = decpt + 3
    scientific = np.flatnonzero((decpt <= -4) | (decpt > 16))
    cls[scientific] = 20 + (np.abs(decpt[scientific] - 1) >= 100)
    layout = (bits >> _U(63)).view(np.intp)  # the sign
    layout *= _MAX_DIGITS + 1
    layout += n_digits
    layout *= _CLASSES
    layout += cls
    return layout


def _layout(alphabet, layout, min_width: int) -> np.ndarray:
    """(n, width) uint8: each value's text and separator, padded with NULs.

    The text is built one character column at a time, each gathered from the
    alphabet through one reused vector of flat indices.
    """
    n = len(layout)
    templates, lengths = _templates()
    width = max(int(lengths.take(layout).max()), min_width)
    chars = np.empty((n, width), np.uint8)
    flat = alphabet.ravel()
    offsets = np.arange(n)
    where = np.empty(n, np.intp)
    for col in range(width):
        # the alphabet rows of this column, then their flat indices
        templates[col].take(layout, out=where, mode="clip")
        where *= n
        where += offsets
        flat.take(where, out=chars[:, col], mode="clip")
    return chars

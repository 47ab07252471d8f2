"""Numbers as JSON text, formatted a column at a time in numpy, for the run-log writer.

Each value's text is held in little-endian 8-byte words, padded with NUL
bytes that the writer drops.  An integer is written as ``str`` writes it,
by a loop of uint64 ``divmod`` by 10 into uint8 digit bytes.  A double is written as ``repr``, and so ``json.dumps``, writes it: the
shortest decimal that reads back to the same double (of two, the nearer;
of two as near, the one with an even last digit), laid out positionally
when its decimal exponent lies in [-4, 16) and as d.ddde+XX otherwise.
For normal doubles the digits come from the Schubfach algorithm
(Giulietti, "The Schubfach way to render doubles", 2020; Java's
``Double.toString``), run in uint64 arrays.  Zeros, subnormals, NaN and
the infinities go through ``repr`` itself, as ``json.dumps`` maps them:
for the smallest subnormals Schubfach keeps two digits (4.9e-324 for
5e-324).  Every numpy scalar here is typed, since numpy 1.24 turns uint64
mixed with a Python or int64 integer into float64.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

_K_MIN, _K_MAX = -324, 292  # the decimal exponents k the normal doubles need
_U64 = {bits: np.uint64(bits) for bits in (0, 1, 2, 10, 32, 52, 56, 63)}
_LOW_32 = np.uint64(0xFFFFFFFF)
_LOW_63 = np.uint64((1 << 63) - 1)
_FRACTION = np.uint64((1 << 52) - 1)
_EXPONENT = np.uint64(0x7FF)
_ONE_BITS = np.float64(1.0).view(np.uint64)


class _NumberTables(NamedTuple):
    g1: np.ndarray  # high 63 bits of g(k) = floor(10**-k / 2**r(k)) + 1, with 2**125 <= g < 2**126
    g0: np.ndarray  # low 63 bits of g(k)
    r: np.ndarray  # the binary exponent r(k)
    zeros4: np.ndarray  # [i] the trailing zeros of i's four digits
    pairs4: np.ndarray  # [i] i's four digits as the odd bytes of a word
    show: np.ndarray  # [j, n] masks word j's digits to the first n of d1..d17
    point: np.ndarray  # [j, n] a '.' in word j just after digit n of d1..d16, none for 0
    sign_lead: np.ndarray  # [5 * minus + z] "-" if minus, then "0." and z - 1 zeros if z
    exponent: np.ndarray  # [e + 308] a NUL, then "e-308" to "e+308"; then nothing


@functools.cache
def _number_tables() -> _NumberTables:
    """The formatters' lookup tables, built on first use; g(k) with Python integers."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            r = (10**-k).bit_length() - 126
            g.append(((10**-k >> r if r >= 0 else 10**-k << -r) + 1, r))
        else:
            r = -125 - (10**k).bit_length()
            g.append(((1 << -r) // 10**k + 1, r))
    i = np.arange(10**4)
    four = (i[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)  # i's four digits
    pairs = np.zeros((10**4, 8), np.uint8)
    pairs[:, 1::2] = four
    digit = np.arange(2, 18)  # the digit numbers of d2..d17, each the odd byte of a byte pair
    point = np.zeros((17, 16, 2), np.uint8)
    point[:, :, 0] = np.where(np.arange(17)[:, None] == digit - 1, ord("."), 0)
    show = np.zeros((18, 16, 2), np.uint8)
    show[:, :, 1] = np.where(np.arange(18)[:, None] >= digit, 0xFF, 0)
    point, show = (np.ascontiguousarray(t.reshape(len(t), 32).view("<u8").astype(np.uint64).T) for t in (point, show))
    return _NumberTables(
        g1=np.array([value >> 63 for value, _ in g], np.uint64),
        g0=np.array([value & (1 << 63) - 1 for value, _ in g], np.uint64),
        r=np.array([r for _, r in g], np.int64),
        zeros4=(i[:, None] % 10 ** np.arange(1, 5) == 0).sum(axis=1),
        pairs4=pairs.view("<u8")[:, 0].astype(np.uint64),
        show=show,
        point=point,
        sign_lead=text_words([sign + lead for sign in ("", "-") for lead in ("", "0.", "0.0", "0.00", "0.000")])[:, 0],
        exponent=text_words([f"\0e{e:+03d}" for e in range(-308, 309)] + [""])[:, 0],
    )


def _wide_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 128-bit products of uint64 arrays, as high and low words, from 32-bit halves."""
    a1, a0 = a >> _U64[32], a & _LOW_32
    b1, b0 = b >> _U64[32], b & _LOW_32
    low, cross, other = a0 * b0, a0 * b1, a1 * b0
    middle = (low >> _U64[32]) + (cross & _LOW_32) + (other & _LOW_32)
    high = a1 * b1 + (cross >> _U64[32]) + (other >> _U64[32]) + (middle >> _U64[32])
    return high, (middle << _U64[32]) | (low & _LOW_32)


def _round_to_odd(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """Schubfach's rop: g * cp / 2**127 rounded to odd, g = g1 * 2**63 + g0, as Java computes it."""
    x1, _ = _wide_product(g0, cp)
    y1, y0 = _wide_product(g1, cp)
    z = (y0 >> _U64[1]) + x1
    return y1 + (z >> _U64[63]) | ((z & _LOW_63) != 0).astype(np.uint64)


def _shortest_decimals(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest decimals ``f * 10**k`` that read back as the normal doubles ``bits``, sign aside.

    Of two shortest decimals the nearer is taken, and of two as near the
    one with an even last digit, as ``repr`` does.  ``f`` has 16 or 17
    digits, trailing zeros included.  Names follow Giulietti's paper: v is
    c * 2**q, and vbl, vb, vbr are its rounding interval's ends and itself,
    scaled by 4 * 10**-k and rounded to odd.
    """
    tables = _number_tables()
    fraction = bits & _FRACTION
    biased = ((bits >> _U64[52]) & _EXPONENT).astype(np.int64)
    q = biased - 1075
    c = fraction | np.uint64(1 << 52)
    irregular = (fraction == 0) & (biased > 1)  # a power of two: the gap below is half the gap above
    # k = floor(log10(2**q)), or floor(log10(3/4 * 2**q)) when irregular, in integers.
    k = (q * 661_971_961_083 - np.where(irregular, 274_743_187_321, 0)) >> 41
    g1, g0, r = (table.take(k - _K_MIN) for table in (tables.g1, tables.g0, tables.r))
    h = (q + r + 127).astype(np.uint64)  # so g * (x << h) / 2**127 is x * 2**q / 10**k, within g's rounding
    cb = c << _U64[2]
    ends = (cb - _U64[2] + irregular.astype(np.uint64), cb, cb + _U64[2])
    vbl, vb, vbr = (_round_to_odd(g1, g0, end << h) for end in ends)
    odd = c & _U64[1]  # an odd c leaves the interval's ends out
    s = vb >> _U64[2]
    t = s + _U64[1]
    sp10 = s // _U64[10] * _U64[10]
    tp10 = sp10 + _U64[10]
    upin = vbl + odd <= sp10 << _U64[2]
    wpin = (tp10 << _U64[2]) + odd <= vbr
    uin = vbl + odd <= s << _U64[2]
    win = (t << _U64[2]) + odd <= vbr
    middle = (s + t) << _U64[1]
    nearer_s = (vb < middle) | ((vb == middle) & ((s & _U64[1]) == 0))
    f = np.where(uin != win, np.where(uin, s, t), np.where(nearer_s, s, t))
    return np.where(upin != wpin, np.where(upin, sp10, tp10), f), k


def float_words(values: np.ndarray) -> np.ndarray:
    """(6, n) words holding ``json.dumps`` of each double.

    The text's places, in bytes: the sign and any "0." with zeros (0-5),
    d1 (7), then each '.' slot and digit pair P1 d2 ... P16 d17 (8-39), the
    '0' after a trailing point (40) and the exponent (41-45).
    """
    tables = _number_tables()
    values = np.asarray(values, np.float64)
    bits = values.view(np.uint64)
    biased = (bits >> _U64[52]) & _EXPONENT
    normal = (biased != 0) & (biased != _EXPONENT)
    f, k = _shortest_decimals(np.where(normal, bits, _ONE_BITS))
    long = f >= np.uint64(10**16)
    f = np.where(long, f, f * _U64[10]).astype(np.int64)  # 17 digits d1..d17
    point = k + 16 + long  # the digits before the decimal point
    head, low = np.divmod(f, 10**8)
    d1, high = np.divmod(head, 10**8)
    groups = (high // 10**4, high % 10**4, low // 10**4, low % 10**4)  # d2..d17 by fours
    places = np.zeros(f.size, np.int64)  # the digits d2..d17 up to the last nonzero one
    for j, group in enumerate(groups):
        places = np.where(group != 0, 4 * j + 4 - tables.zeros4.take(group), places)
    significant = places + 1
    positional = (point > -4) & (point <= 16)
    shown = np.where(positional, np.maximum(significant, point), significant)
    dot = np.where(positional, np.maximum(point, 0), significant > 1)

    words = np.empty((6, f.size), np.uint64)
    lead = np.where(positional & (point <= 0), 1 - point, 0) + 5 * (bits >> _U64[63]).astype(np.int64)
    words[0] = tables.sign_lead.take(lead) | (d1 + ord("0")).astype(np.uint64) << _U64[56]
    for j, group in enumerate(groups):
        words[1 + j] = tables.pairs4.take(group) & tables.show[j].take(shown) | tables.point[j].take(dot)
    zero = np.where(positional & (point >= significant), np.uint64(ord("0")), _U64[0])
    words[5] = tables.exponent.take(np.where(positional, -1, point + 307)) | zero
    special = np.flatnonzero(~normal)
    if special.size:
        texts = [_JSON_NONFINITE.get(text, text) for text in map(float.__repr__, values[special].tolist())]
        words[:, special] = text_words(texts, 6).T
    return words


def integer_words(values: np.ndarray) -> np.ndarray:
    """(words, n) words holding ``str`` of each int64: the sign in the first byte, the digits right-aligned."""
    values = np.asarray(values, np.int64)
    bits = values.view(np.uint64)
    rest = np.where(values < 0, ~bits + _U64[1], bits)  # the magnitude, 2**63 included
    digits = []  # lowest first, as text bytes, NUL once the value has run out of digits
    while not digits or rest.any():
        shown = rest != _U64[0] if digits else True
        rest, digit = np.divmod(rest, _U64[10])
        digits.append(np.where(shown, digit.astype(np.uint8) + np.uint8(ord("0")), np.uint8(0)))
    text = np.zeros((values.size, 8 * (len(digits) // 8 + 1)), np.uint8)
    text[:, 0] = np.where(values < 0, np.uint8(ord("-")), np.uint8(0))
    text[:, -len(digits):] = np.stack(digits[::-1], axis=1)
    return text.view("<u8").T


def text_words(texts, width: int = 1) -> np.ndarray:
    """ASCII texts NUL-padded to ``width`` words of 8 bytes: (len(texts), width) uint64 values, read little-endian."""
    data = b"".join(text.encode("ascii").ljust(8 * width, b"\0") for text in texts)
    return np.frombuffer(data, "<u8").reshape(-1, width).astype(np.uint64)

"""``repr(float(v))`` for a whole float64 array at once, byte for byte.

Python's ``repr`` of a float is the shortest decimal string that reads back
as the same float, the nearest such string to it if there are several, laid
out in fixed notation when -4 < decpt <= 16 and as ``d.ddde±XX`` otherwise
(decpt: the decimal exponent with the point before the first digit). For
binary exponents e2 < 0 the digits come from the common case of Ryu (U.
Adams, "Ryu: fast float-to-string conversion", PLDI 2018), in uint64 numpy
arithmetic:

- vr, vp and vm are floor(m 5^i / 2^121) for m = 4 m2, 4 m2 + 2 and
  4 m2 - 1 - mmShift: the value and the midpoints to its neighbours. 5^i is
  Ryu's 125-bit truncation, shifted left per e2 so that the shift is always
  121 (T below). vr is m2 T in 32-bit limbs; vp and vm add 2T and subtract
  (1 + mmShift) T, whose integer parts are tabled and whose fractions carry
  or borrow against the top 64 fraction bits of 4 m2 T.
- r is the number of k >= 1 with vp // 10^k > vm // 10^k. The digits are
  vr // 10^r, plus one if that equals vm // 10^r or if the removed part is at
  least half of 10^r.

Each value's text is laid out in four uint64 words (32 bytes), in which NUL
bytes are padding that is deleted at the end. All other values are passed to
``repr``: zero, nan, inf, e2 >= 0 (|v| >= 2^54), q < 2, every 4 m2 that is a
multiple of 2^(q-1) (Ryu's trailing-zero cases: the short binary fractions
such as 0.5, and with q <= 3 every |v| >= 2^47), and any carry or borrow that
64 fraction bits cannot decide. Every scalar in the uint64 arithmetic is a
typed ``np.uint64``, so it promotes the same way under numpy 1.x and under
NEP 50.
"""

from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_ONES = _U(0xFFFFFFFFFFFFFFFF)
_MANT = _U((1 << 52) - 1)
_SHIFT = 121  # the shift of every product, after the table's pre-shift
_POW5_BITS = 125  # Ryu's DOUBLE_POW5_BITCOUNT
_TOP_EXP = 1077  # biased exponents from here on (e2 >= 0, nan, inf) share an entry
_DMIN, _DMAX = -323, 17  # decpt of 5e-324 and of the largest value below 2^54
_FIXED = (-3, 16)  # decpt range of fixed notation; the layout clamps to one beyond


class _Tables:
    """Per-exponent multipliers and per-(decpt, digits) layout words."""

    #: Rows of ``by_exp``, one column per biased exponent E = 0.._TOP_EXP: the
    #: four 32-bit limbs of T, the hidden bit, the trailing-zero mask, I2, G2,
    #: DI, DG, e10 and POW2 (1 if a zero mantissa makes mmShift 0: E > 1).
    LIMB, HIDDEN, TZ_MASK, I2, G2, DI, DG, E10, POW2 = 0, 4, 5, 6, 7, 8, 9, 10, 11

    def __init__(self) -> None:
        # T = 5^i as Ryu truncates it, pre-shifted so that vr = m2 T / 2^119.
        # I2 and G2: the integer part and the top 64 fraction bits of 2T / 2^121;
        # DI and DG: what they lose from 2T to T. A zero trailing-zero mask
        # sends a value to ``repr``: q < 2, as for every E >= _TOP_EXP (e2 >= 0,
        # nan, inf), which share the last column.
        top = (1 << 64) - 1
        tab = np.zeros((12, _TOP_EXP + 1), dtype=_U)
        for e in range(_TOP_EXP + 1):
            e2 = max(e, 1) - 1077
            q = ((-e2 * 732923) >> 20) - (-e2 > 1)  # log10Pow5(-e2) - (-e2 > 1)
            t = tz_mask = 0
            if q >= 2:
                i = -e2 - q
                bits = ((i * 1217359) >> 19) + 1  # pow5bits(i)
                pow5 = 5**i
                split = pow5 >> (bits - _POW5_BITS) if bits > _POW5_BITS else pow5 << (_POW5_BITS - bits)
                t = split << (_SHIFT - q + bits - _POW5_BITS)  # Ryu's shift j = q - bits + 125
                tz_mask = (1 << min(q - 1, 64)) - 1
            tab[:, e] = [*((t >> (32 * k)) & 0xFFFFFFFF for k in range(4)), (e > 0) << 52, tz_mask,
                         (2 * t) >> _SHIFT, ((2 * t) >> 57) & top,
                         ((2 * t) >> _SHIFT) - (t >> _SHIFT), (((2 * t) >> 57) - (t >> 57)) & top,
                         (q + e2) & top, int(e > 1)]
        self.by_exp = tab
        self.pow10 = np.array([10**k for k in range(20)], dtype=_U)
        self.layout, self.suffix = self._layout()

    @staticmethod
    def _layout():
        """Seven words per (decpt, digits) class and a suffix word per decpt.

        Digit p of the 17 (left-aligned) sits at byte 7 of word 0 (p = 0), then
        in bytes 0..7 of word 1 (p = 1..8) and of word 2 (p = 9..16). Digits at
        p >= k2 are dropped; the point goes before digit k1 and moves the later
        bytes up by one, the last into byte 0 of word 3.
        Layout rows: the prefix of word 0 ("0.000" after the sign), then for
        words 1 and 2 the kept bytes before the point, the kept bytes from the
        point on, and the point. Class (decpt + 4) * 18 + digits, decpt clamped
        to -4..17: all classes beyond fixed notation lay out alike. The suffix
        ("e-05", in bytes 1..5 of word 3) is indexed by decpt - _DMIN.
        """
        lo, hi = _FIXED

        def below(k, first):  # bytes of the word from digit ``first`` on, below digit k
            return (1 << 8 * min(max(k - first, 0), 8)) - 1

        def dot(k, first):
            return 0x2E << 8 * (k - first) if 0 <= k - first < 8 else 0

        classes = []
        for d in range(lo - 1, hi + 2):
            fixed = lo <= d <= hi
            prefix = int.from_bytes(b"\0" + b"0." + b"0" * -d, "little") if fixed and d <= 0 else 0
            for ndig in range(18):
                if fixed and d > 0:
                    k1, k2 = d, max(ndig, d + 1)
                else:
                    k1, k2 = (1 if not fixed and ndig > 1 else 17), ndig
                classes.append([prefix, below(k2, 1) & below(k1, 1), below(k2, 1) & ~below(k1, 1), dot(k1, 1),
                                below(k2, 9) & below(k1, 9), below(k2, 9) & ~below(k1, 9), dot(k1, 9)])
        layout = np.ascontiguousarray(np.array(classes, dtype=_U).T)

        suffix = np.zeros(_DMAX - _DMIN + 1, dtype=_U)
        for d in range(_DMIN, _DMAX + 1):
            if not lo <= d <= hi:
                digits = f"{abs(d - 1):03d}"
                text = "e" + "+-"[d - 1 < 0] + (digits[0] if abs(d - 1) >= 100 else "\0") + digits[1:]
                suffix[d - _DMIN] = int.from_bytes(b"\0" + text.encode(), "little")
        return layout, suffix


@functools.cache
def _tables() -> _Tables:
    return _Tables()


def _product(m: np.ndarray, t: np.ndarray):
    """floor(m t / 2^119) and the 64 bits below it, for m < 2^53 and t < 2^128
    given as 32-bit limbs.

    Column by column from the lowest: ``acc`` holds the 32-bit column sum with
    the carry from below; ``lo`` and ``hi`` (the 32-bit halves of m) times a
    limb each add their low half to this column and their high half to the next.
    """
    s32 = _U(32)
    lo, hi = m & _M32, m >> s32
    acc = lo * t[0]
    acc >>= s32
    part = np.empty_like(acc)
    cols = []
    for k in range(1, 4):
        a, b = lo * t[k], hi * t[k - 1]
        acc += np.bitwise_and(a, _M32, out=part)
        acc += np.bitwise_and(b, _M32, out=part)
        cols.append(acc & _M32)
        acc >>= s32
        acc += a >> s32
        acc += b >> s32
    acc += hi * t[3]  # floor(m t / 2^128)
    c1, c2, c3 = cols
    return (c3 >> _U(23)) | (acc << _U(9)), (c1 >> _U(23)) | (c2 << _U(9)) | (c3 << _U(41))


def _ascii8(x: np.ndarray) -> np.ndarray:
    """Eight ASCII digits of x < 10^8, the first in the lowest byte."""
    hi = x // _U(10000)
    v = hi | ((x - hi * _U(10000)) << _U(32))
    q = ((v * _U(5243)) >> _U(19)) & _U(0x0000007F0000007F)  # // 100 per 32-bit lane
    v = q | ((v - q * _U(100)) << _U(16))
    q = ((v * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)  # // 10 per 16-bit lane
    return (q | ((v - q * _U(10)) << _U(8))) + _U(0x3030303030303030)


def _digits(bits: np.ndarray):
    """(digits, decpt, number of digits, to ``repr``) of N values given as
    uint64 bit patterns; the digits of values sent to ``repr`` are discarded."""
    tab = _tables()
    e = np.minimum((bits >> _U(52)) & _U(0x7FF), _U(_TOP_EXP)).astype(np.intp)

    def per_exp(row):
        return tab.by_exp[row].take(e)

    mant = bits & _MANT
    m2 = mant | per_exp(tab.HIDDEN)
    fallback = ((m2 << _U(2)) & per_exp(tab.TZ_MASK)) == _U(0)

    vr, frac = _product(m2, tab.by_exp[tab.LIMB:tab.LIMB + 4].take(e, axis=1))
    g2, i2 = per_exp(tab.G2), per_exp(tab.I2)
    total = frac + g2
    vp = vr + i2 + (total < frac)
    pow2 = (mant == _U(0)) * per_exp(tab.POW2)  # mmShift == 0: subtract T, not 2T
    g = g2 - pow2 * per_exp(tab.DG)
    vm = vr - (i2 - pow2 * per_exp(tab.DI)) - (frac < g)
    fallback |= (total == _ONES) | (frac == g)

    # The k that r counts run from 1 to the first at which vp and vm agree.
    # Past k = 3 they are counted only for the values that get there, in
    # float64: vp // 1000 < 2^62 / 1000, and a // b is floor(a / b) in float64
    # while a + b < 2^53.
    r = np.zeros(len(bits), dtype=np.int64)
    for k in (10, 100):
        r += vp // _U(k) > vm // _U(k)
    hi, lo = vp // _U(1000), vm // _U(1000)
    keep = np.flatnonzero(hi > lo)
    if len(keep):
        scale = tab.pow10[:16].astype(np.float64)
        hi, lo = hi[keep, None].astype(np.float64), lo[keep, None].astype(np.float64)
        r[keep] += (np.floor(hi / scale) > np.floor(lo / scale)).sum(axis=1)
    div = tab.pow10.take(r, mode="clip")
    out = vr // div
    out += (out == vm // div) | ((vr - out * div) * _U(2) >= div)
    ndig = np.searchsorted(tab.pow10[1:18], out, side="right") + 1
    return out, per_exp(tab.E10).view(np.int64) + r + ndig, ndig, fallback


def _words(bits: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """(N, 4) uint64 layout words of N values given as uint64 bit patterns,
    each text followed by its byte of ``ends`` (given in byte 7)."""
    tab = _tables()
    out, decpt, ndig, fallback = _digits(bits)
    left = out * tab.pow10.take(17 - ndig, mode="clip")
    d0 = left // _U(10**16)
    rest = left - d0 * _U(10**16)
    eight = np.empty((2, len(bits)), dtype=_U)
    np.floor_divide(rest, _U(10**8), out=eight[0])
    np.subtract(rest, eight[0] * _U(10**8), out=eight[1])
    w1, w2 = _ascii8(eight)
    lo, hi = _FIXED
    cls = (np.minimum(np.maximum(decpt, lo - 1), hi + 1) - (lo - 1)) * 18 + ndig
    pre, k1a, k1b, dot1, k2a, k2b, dot2 = tab.layout.take(cls, axis=1, mode="clip")

    words = np.empty((len(bits), 4), dtype=_U)
    words[:, 0] = pre | ((bits >> _U(63)) * _U(0x2D)) | ((d0 + _U(0x30)) << _U(56))
    moved = w1 & k1b
    words[:, 1] = (w1 & k1a) | (moved << _U(8)) | dot1
    carry = moved >> _U(56)
    moved = w2 & k2b
    words[:, 2] = (w2 & k2a) | (moved << _U(8)) | dot2 | carry
    words[:, 3] = (moved >> _U(56)) | tab.suffix.take(decpt - _DMIN, mode="clip") | ends

    slow = np.flatnonzero(fallback)
    if len(slow):
        values = bits[slow].view(np.float64).tolist()
        text = b"".join(repr(v).encode().ljust(24, b"\0") for v in values)
        words[slow, :3] = np.frombuffer(text, dtype=_U).reshape(-1, 3)
        words[slow, 3] = ends[slow]
    return words


def render(values: np.ndarray, ends: bytes) -> str:
    """Text of a (rows, cols) float64 array, row by row: each value as
    ``repr(float(v))`` followed by ``ends[col]``."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    rows, cols = values.shape
    if not values.size:
        return ""
    tail = np.frombuffer(ends, dtype=np.uint8).astype(_U) << _U(56)
    words = _words(values.view(_U).ravel(), np.tile(tail, rows))
    return words.tobytes().translate(None, b"\0").decode("ascii")

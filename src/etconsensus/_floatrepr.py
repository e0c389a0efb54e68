"""``repr(float(v))`` for a whole float64 array at once, byte for byte.

Python's ``repr`` of a float is the shortest decimal string that reads back
as the same float, the nearest such string to it if there are several, laid
out in fixed notation when -4 < decpt <= 16 and as ``d.ddde±XX`` otherwise
(decpt: the decimal exponent with the point before the first digit). For
binary exponents e2 < 0 the digits come from the common case of Ryu (U.
Adams, "Ryu: fast float-to-string conversion", PLDI 2018), in uint64 numpy
arithmetic:

- vr, vp and vm are floor(m 5^i / 2^121) for m = 4 m2, 4 m2 + 2 and
  4 m2 - 2: the value and the midpoints to its neighbours. 5^i is Ryu's
  125-bit truncation T, shifted left per e2 so that the shift is always 121.
  vr and the 64 fraction bits below it come from m2 (T >> 23) / 2^96 in
  32-bit columns, the lowest column dropped; vp and vm add and subtract 2T,
  whose integer part and top 64 fraction bits are tabled, with the carry or
  borrow that the fraction gives.
- r is the number of k >= 1 with vp // 10^k > vm // 10^k: counted for k <= 2
  on every value, then by a binary search over k on the values with k = 3.
  The digits are vr // 10^r, plus one if vm reaches that times 10^r or if
  the removed part is at least half of 10^r.

The dropped bits put the computed fraction less than 2^31 + 2^22 below the
exact one (and not at all above about 1e-13, where they are zero). So a
value whose fraction lies within 2^32 of a carry into vr, or whose carry
into vp or borrow from vm it could turn, is passed to ``repr``, as are zero,
nan, inf, subnormals, e2 >= 0 (|v| >= 2^54), q < 2, every m2 with a zero
mantissa, and every 4 m2 that is a multiple of 2^(q-1) (Ryu's trailing-zero
cases: the short binary fractions such as 0.5, and with q <= 3 every
|v| >= 2^47). The number of digits is read off the float64 exponent of the
digits, and they become ASCII four at a time, from a table of 0..9999. Each
value's text is laid out in four uint64 words (32 bytes), in which NUL bytes
are padding that is deleted at the end.

A call makes about 130 numpy operations whatever its size, and its
temporaries come to about thirty uint64 per value, whatever the values.
Every scalar in the uint64 arithmetic is a typed ``np.uint64``, so it
promotes the same way under numpy 1.x and under NEP 50.
"""

from __future__ import annotations

import functools

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_LOW = _U((1 << 23) - 1)  # m2 = hi 2^23 + lo
_CARRY = _U((1 << 64) - (1 << 32))  # a fraction above this may carry
_BAND = _U(1 << 32)  # a borrow this close to the fraction is not decided
_SHIFT = 121  # the shift of every product, after the table's pre-shift
_POW5_BITS = 125  # Ryu's DOUBLE_POW5_BITCOUNT
_TOP_EXP = 1077  # biased exponents from here on (e2 >= 0, nan, inf) share an entry
_DMIN, _DMAX = -323, 17  # decpt of 5e-324 and of the largest value below 2^54
_FIXED = (-3, 16)  # decpt range of fixed notation; the layout clamps to one beyond


class _Tables:
    """Per-exponent multipliers, and the layout words per (decpt, digits)."""

    #: Rows of ``by_exp``, one column per biased exponent:
    #: limbs 1..3 of T >> 23 and of (T >> 23) << 23, then I2, G2, the
    #: trailing-zero mask and decpt - r - digits - _DMIN.
    LIMBS, REST = slice(0, 6), slice(6, 10)

    def __init__(self) -> None:
        # T = 5^i as Ryu truncates it, pre-shifted so that vr = m2 T / 2^119.
        # I2 and G2: the integer part and the top 64 fraction bits of 2T / 2^121.
        # A zero trailing-zero mask sends a value to ``repr``: subnormals, q < 2,
        # and every E >= _TOP_EXP (e2 >= 0, nan, inf), which share one column.
        top = (1 << 64) - 1
        tab = np.zeros((10, _TOP_EXP + 1), dtype=_U)
        for e in range(1, _TOP_EXP + 1):
            e2 = e - 1077
            q = ((-e2 * 732923) >> 20) - (-e2 > 1)  # log10Pow5(-e2) - (-e2 > 1)
            t = tz_mask = 0
            if q >= 2:
                i = -e2 - q
                bits = ((i * 1217359) >> 19) + 1  # pow5bits(i)
                pow5 = 5**i
                split = pow5 >> (bits - _POW5_BITS) if bits > _POW5_BITS else pow5 << (_POW5_BITS - bits)
                t = split << (_SHIFT - q + bits - _POW5_BITS)  # Ryu's shift j = q - bits + 125
                # 4 m2 a multiple of 2^min(q - 1, 54): m2 of 2^(that - 2), in the mantissa bits
                tz_mask = (1 << max(min(q - 1, 54) - 2, 0)) - 1
            low = t >> 23
            assert low < 1 << 105
            tab[:, e] = [*((low >> (32 * k)) & 0xFFFFFFFF for k in range(1, 4)),
                         *(((low << 23) >> (32 * k)) & 0xFFFFFFFF for k in range(1, 4)),
                         (2 * t) >> _SHIFT, ((2 * t) >> 57) & top, tz_mask, (q + e2 - _DMIN) & top]
        self.by_exp = np.ascontiguousarray(tab[:, np.minimum(np.arange(2048), _TOP_EXP)])
        self.pow10 = np.array([10**k for k in range(20)], dtype=_U)
        self.pow10f = self.pow10.astype(np.float64)
        # Per biased exponent b of float(x), x >= 1: the digits of 2^(b - 1023)
        # and the power of ten above, which x reaches only with one digit more.
        # A float64 near 2^k rounds up to 2^k only, and no power of ten lies in
        # the 2^(k-53) below it.
        lengths = [len(str(1 << (b - 1023))) if b >= 1023 else 0 for b in range(2048)]
        self.length = np.array(lengths, dtype=np.intp)
        self.above = np.array([min(10**k, (1 << 64) - 1) for k in lengths], dtype=_U)
        # The four ASCII digits of 0..9999, the first in the lowest byte.
        k = np.arange(10000, dtype=_U)
        ascii4 = sum((((k // _U(10**p) % _U(10)) | _U(0x30)) << _U(8 * (3 - p)) for p in range(4)), _U(0))
        self.ascii4 = ascii4, ascii4 << _U(32)
        self.layout, self.by_decpt = self._layout()

    @staticmethod
    def _layout():
        """Seven words per (decpt, digits) class, and per decpt - _DMIN the
        first class of its decpt and the suffix word.

        Digit p of the 17 (left-aligned) sits at byte 7 of word 0 (p = 0), then
        in bytes 0..7 of word 1 (p = 1..8) and of word 2 (p = 9..16). Digits at
        p >= k2 are dropped; the point goes before digit k1 and moves the later
        bytes up by one, the last into byte 0 of word 3.
        Layout rows: word 0 ("0.000" after the sign, and the 0x30 of digit 0),
        then for words 1 and 2 the kept bytes before the point, the kept bytes
        from the point on, and the point. Class (decpt + 4) * 18 + digits,
        decpt clamped to -4..17: all classes beyond fixed notation lay out
        alike. ``by_decpt`` holds that class for digits = 0 and the suffix
        ("e-05", in bytes 1..5 of word 3).
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
                classes.append([prefix | 0x30 << 56, below(k2, 1) & below(k1, 1), below(k2, 1) & ~below(k1, 1),
                                dot(k1, 1), below(k2, 9) & below(k1, 9), below(k2, 9) & ~below(k1, 9), dot(k1, 9)])
        layout = np.ascontiguousarray(np.array(classes, dtype=_U).T)

        by_decpt = np.zeros((2, _DMAX - _DMIN + 1), dtype=_U)
        for d in range(_DMIN, _DMAX + 1):
            by_decpt[0, d - _DMIN] = (min(max(d, lo - 1), hi + 1) - (lo - 1)) * 18
            if not lo <= d <= hi:
                digits = f"{abs(d - 1):03d}"
                text = "e" + "+-"[d - 1 < 0] + (digits[0] if abs(d - 1) >= 100 else "\0") + digits[1:]
                by_decpt[1, d - _DMIN] = int.from_bytes(b"\0" + text.encode(), "little")
        return layout, by_decpt


@functools.cache
def _tables() -> _Tables:
    return _Tables()


def _product(m2: np.ndarray, limbs: np.ndarray):
    """floor(m2 L / 2^96) and the 64 bits below it, short of the column of
    2^0..2^31, for m2 < 2^53 and L < 2^105 given as limbs 1..3 of L and of
    L 2^23 (32 bits each).

    m2 = hi 2^23 + lo; column k holds lo l_k + hi u_k < 2^63 and the carry
    from the column below.
    """
    s32 = _U(32)
    lo, hi = m2 & _LOW, m2 >> _U(23)
    t1, t2, t3, u1, u2, u3 = limbs
    low = lo * t1
    low += hi * u1
    mid = lo * t2
    mid += hi * u2
    mid += low >> s32
    top = lo * t3
    top += hi * u3
    top += mid >> s32
    mid <<= s32
    mid |= low & _M32
    return top, mid


def _interval(bits: np.ndarray):
    """(vr, vp, vm, decpt - r - digits - _DMIN, to ``repr``) of N values
    given as uint64 bit patterns."""
    tab = _tables()
    e = ((bits >> _U(52)) & _U(0x7FF)).astype(np.intp)
    vr, frac = _product((bits & _U((1 << 52) - 1)) | _U(1 << 52), tab.by_exp[tab.LIMBS].take(e, axis=1))
    i2, g2, tz, decpt = tab.by_exp[tab.REST].take(e, axis=1)
    total = frac + g2
    vp = vr + i2 + (total < frac)
    vm = vr - i2 - (frac < g2)
    fallback = (bits & tz) == _U(0)
    fallback |= np.maximum(total, frac) > _CARRY
    fallback |= g2 - frac <= _BAND
    return vr, vp, vm, decpt.view(np.int64), fallback


def _digits(bits: np.ndarray):
    """(digits, decpt - _DMIN, number of digits, to ``repr``) of N values
    given as uint64 bit patterns; the digits of values sent to ``repr`` are
    discarded."""
    tab = _tables()
    vr, vp, vm, decpt, fallback = _interval(bits)
    # The k that r counts run from 1 to the first at which vp and vm agree:
    # k = 1 and 2 on every value, and the rest by halving on those with k = 3.
    # Past k = 3 they are counted in float64, where vp // 1000 < 2^53 and
    # floor(a / b) is exact for a < 2^53 and b a power of ten.
    r = np.add(vp // _U(10) > vm // _U(10), vp // _U(100) > vm // _U(100), dtype=np.intp)
    hi, lo = vp // _U(1000), vm // _U(1000)
    keep = np.flatnonzero(hi > lo)
    if len(keep):
        hi, lo = hi[keep].astype(np.float64), lo[keep].astype(np.float64)
        count = np.zeros(len(keep), dtype=np.intp)  # the k > 3
        for step in (8, 4, 2, 1):
            div = tab.pow10f[step:].take(count)
            np.add(count, step, out=count, where=np.floor(hi / div) * div > lo)
        r[keep] = count + 3
    div = tab.pow10.take(r)
    out = vr // div
    low = out * div
    out += (vm >= low) | ((vr - low) * _U(2) >= div)
    b = out.astype(np.float64).view(_U) >> _U(52)
    ndig = tab.length.take(b) + (out >= tab.above.take(b))
    decpt += r
    decpt += ndig
    return out, decpt, ndig, fallback


def _ascii(digits: np.ndarray, ndig: np.ndarray):
    """Digit 0 and the ASCII words of digits 1..8 and 9..16 of N values'
    digits, left-aligned to 17."""
    tab = _tables()
    digits = digits * tab.pow10.take(17 - ndig, mode="clip")
    d0 = digits // _U(10**16)
    digits -= d0 * _U(10**16)
    eight = np.empty((2, len(digits)), dtype=_U)
    np.floor_divide(digits, _U(10**8), out=eight[0])
    np.multiply(eight[0], _U(10**8), out=eight[1])
    np.subtract(digits, eight[1], out=eight[1])
    four = eight // _U(10000)
    eight -= four * _U(10000)
    first, last = tab.ascii4
    words = first.take(four)
    words |= last.take(eight)
    return d0, words


def _words(bits: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """(N, 4) uint64 layout words of N values given as uint64 bit patterns,
    in rows of len(ends) values: each text followed by the byte of ``ends``
    for its column (given in byte 7)."""
    tab = _tables()
    digits, decpt, ndig, fallback = _digits(bits)
    d0, (w1, w2) = _ascii(digits, ndig)
    base, suffix = tab.by_decpt.take(decpt, axis=1, mode="clip")
    pre, k1a, k1b, dot1, k2a, k2b, dot2 = tab.layout.take(base.view(np.int64) + ndig, axis=1, mode="clip")

    words = np.empty((len(bits), 4), dtype=_U)
    np.bitwise_or(pre | ((bits >> _U(63)) * _U(0x2D)), d0 << _U(56), out=words[:, 0])
    moved = w1 & k1b
    np.bitwise_or((w1 & k1a) | dot1, moved << _U(8), out=words[:, 1])
    carry = moved >> _U(56)
    moved = w2 & k2b
    np.bitwise_or((w2 & k2a) | (moved << _U(8)), dot2 | carry, out=words[:, 2])
    word3 = words[:, 3].reshape(-1, len(ends))
    np.bitwise_or(((moved >> _U(56)) | suffix).reshape(word3.shape), ends, out=word3)

    slow = np.flatnonzero(fallback)
    if len(slow):
        values = bits[slow].view(np.float64).tolist()
        text = b"".join(repr(v).encode().ljust(24, b"\0") for v in values)
        words[slow, :3] = np.frombuffer(text, dtype=_U).reshape(-1, 3)
        words[slow, 3] = ends[slow % len(ends)]
    return words


def render(values: np.ndarray, ends: bytes) -> str:
    """Text of a (rows, cols) float64 array, row by row: each value as
    ``repr(float(v))`` followed by ``ends[col]``."""
    return render_bytes(values, ends).decode("ascii")


def render_bytes(values: np.ndarray, ends: bytes) -> bytes:
    """``render``'s text as ASCII bytes."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if not values.size:
        return b""
    tail = np.frombuffer(ends, dtype=np.uint8).astype(_U) << _U(56)
    words = _words(values.view(_U).ravel(), tail)
    return words.tobytes().translate(None, b"\0")

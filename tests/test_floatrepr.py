"""The array formatter behind ``trace.csv`` against its oracle, ``repr``."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etconsensus._floatrepr import _interval, render


def assert_reprs(values):
    """render gives repr(float(v)) for every value, one per line."""
    values = np.asarray(values, dtype=np.float64).ravel()
    got = render(values.reshape(-1, 1), b"\n").split("\n")
    assert got.pop() == ""
    want = [repr(v) for v in values.tolist()]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not bad, bad[:10]


def neighbours(values):
    """Each value with the floats one ulp below and above it, and their negatives."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # the float above the largest is inf
        near = np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])
    return np.concatenate([near, -near])


def test_edge_values():
    tiny = 5e-324
    binary = [0.5, 0.25, 0.125, 0.75, 1.5, 3.0, 1.0, 2.0, 1 / 1024, 3 / 8, 1023.5, 2.0**52 + 0.5]
    assert_reprs([0.0, -0.0, math.nan, math.inf, -math.inf, tiny, -tiny, 2.225073858507201e-308,
                  sys.float_info.min, sys.float_info.max, -1.5, *binary, *(-b for b in binary)])
    assert_reprs(neighbours([tiny, 2.225073858507201e-308, sys.float_info.min, sys.float_info.max]))
    assert_reprs(neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))  # every power of two
    assert_reprs(neighbours([float(f"1e{k}") for k in range(-323, 309)]))  # every power of ten
    # fixed notation for 1e-4 <= |v| < 1e16, exponent notation outside
    assert_reprs(neighbours([1e-4, 9.999999999999999e-05, 1e-5, 1e15, 1e16, 9999999999999998.0,
                             1e17, 0.001, 0.01, 0.1, 1.0, 10.0]))
    assert_reprs(neighbours([2.0**53, 2.0**54, 2.0**53 - 1, 2.0**54 - 2]))
    assert_reprs([0.1, 0.2, 0.3, 1 / 3, 2 / 3, 123456.789, 1e-7, 1.5e-5, 0.00123, 12.5, 1e300, 1e-300])


def test_fixed_seed_bit_patterns():
    rng = np.random.default_rng(20181019)
    for _ in range(10):
        assert_reprs(rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64))


def test_values_of_a_trace():
    rng = np.random.default_rng(7)
    assert_reprs(rng.standard_normal(20_000))
    assert_reprs(np.exp(rng.uniform(-40.0, 40.0, 20_000)))
    assert_reprs(np.arange(20_000) * 1e-3)  # sample times: short decimals
    assert_reprs(rng.uniform(0.0, 1e-300, 2_000))  # subnormals and their neighbours


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_matches_repr_on_floats(values):
    assert_reprs(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_matches_repr_on_bit_patterns(patterns):
    assert_reprs(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_rows_and_column_ends():
    table = np.array([[0.5, -1e-7, 3.25], [1 / 3, 0.0, 1e16]])
    assert render(table, b",;\n") == "0.5,-1e-07;3.25\n0.3333333333333333,0.0;1e+16\n"
    assert render(np.empty((0, 3)), b",,\n") == ""


def test_neighbours_of_powers_of_ten_in_fixed_notation():
    """Both neighbours of 10^k for k = -5..17 have 16 or 17 digits, and so
    does 10^k's own, which has one: each side of every power of ten that the
    digit count tells apart."""
    tens = [float(f"1e{k}") for k in range(-5, 18)]
    assert_reprs(neighbours(tens))
    assert_reprs([float(f"{'9' * j}e{p}") for j in range(1, 16) for p in range(-22, 5)])


def test_sample_times_and_short_decimals():
    """Sample times k 1e-3 keep up to 16 of their 17 digits out of the text,
    and values of s significant digits drop 17 - s: each count of removed
    digits the search over k > 3 can end on."""
    assert_reprs(np.arange(200_000) * 1e-3)
    assert_reprs(np.arange(-50_000, 50_000) * 0.1)
    rng = np.random.default_rng(19)
    short = []
    for s in range(1, 18):
        mantissas = rng.integers(10 ** (s - 1), 10**s, size=400)
        short += [float(f"{m}e{p}") for m, p in zip(mantissas.tolist(), rng.integers(-40, 20, size=400).tolist())]
    lengths = {len(repr(v).split("e")[0].replace(".", "").strip("0")) for v in short}
    assert set(range(1, 15)) <= lengths  # 3 to 16 removable digits
    assert_reprs(short)


def test_one_value_and_one_row():
    """A single value, and a single row, take the paths of a block."""
    values = [0.1, -2.5e-8, 1e16, 5e-324, math.nan, 123456789.123, -0.0, 1 / 3]
    for v in values:
        assert render(np.array([[v]]), b"\n") == repr(v) + "\n"
    row = np.array([values])
    ends = b",;:,\t, |"
    assert render(row, ends) == "".join(repr(v) + chr(e) for v, e in zip(values, ends))
    assert render(row.T, b"\n") == "".join(repr(v) + "\n" for v in values)


def _pow5_table(e2: int):
    """(q, Ryu's 5^i for binary exponent e2 < 0, shifted so that the value's
    midpoints are (4 m2 + c) T / 2^121)."""
    q = ((-e2 * 732923) >> 20) - (-e2 > 1)
    i = -e2 - q
    bits = ((i * 1217359) >> 19) + 1
    split = 5**i >> (bits - 125) if bits > 125 else 5**i << (125 - bits)
    return q, split << (121 - q + bits - 125)


def _first_multiple_in(a: int, m: int, lo: int, hi: int):
    """The smallest x >= 0 with lo <= a x mod m <= hi (0 <= lo <= hi < m)."""
    a %= m
    if lo == 0:
        return 0
    if a == 0:
        return None
    x = -(-lo // a)
    if a * x <= hi:
        return x
    y = _first_multiple_in(m % a, a, (-hi) % a, (-lo) % a)  # the wraps past m
    return None if y is None else -(-(lo + m * y) // a)


@pytest.mark.parametrize("biased", [60, 300, 600, 880, 960])
def test_midpoints_next_to_an_integer(biased):
    """Values whose vr, vp or vm, (4 m2 + c) T / 2^121 for c = 0, 2, -2, lie
    within 2^-40 of an integer, above or below, and random values of the same
    exponent. The product drops T's lowest bits and column, which puts its
    64 fraction bits up to 2^-33 low (below about 1e-13; above, the dropped
    bits of T are zero); so every value the formatter keeps must get exactly
    the vr, vp and vm of Ryu's table, and the rest go to ``repr``."""
    e2 = biased - 1077
    q, t = _pow5_table(e2)
    m, width = 1 << 121, 1 << 81
    mantissas = np.random.default_rng(biased).integers(1 << 52, 1 << 53, size=2000).tolist()
    for c in (0, 2, -2):
        for lo in (0, m - width):  # just above, and just below, an integer
            start = (1 << 52) + 7 * c + (lo > 0)  # a distinct first candidate per case
            # 4 t x + (4 start + c) t lands in [lo, lo + width) mod 2^121
            low = (lo - (4 * start + c) * t) % m
            x = _first_multiple_in(4 * t, m, low, low + width - 1) if low + width <= m else None
            if x is not None and start + x < 1 << 53:
                assert lo <= ((4 * (start + x) + c) * t) % m < lo + width
                mantissas.append(start + x)
    assert len(mantissas) >= 2004
    bits = (np.array(mantissas, dtype=np.uint64) - np.uint64(1 << 52)) | np.uint64(biased << 52)
    vr, vp, vm, _, to_repr = _interval(bits)
    for k, m2 in enumerate(mantissas):
        exact = [((4 * m2 + c) * t) >> 121 for c in (0, 2, -2)]
        assert to_repr[k] or [int(vr[k]), int(vp[k]), int(vm[k])] == exact, m2
    assert_reprs(neighbours(bits.view(np.float64)))


@pytest.mark.parametrize("kind", ["uniform", "times", "rounded", "tiny"])
def test_render_peak_memory_is_a_few_arrays_per_value(kind):
    """The peak of one 4,000-value call is a few uint64 per value whatever
    the values: below 300 bytes a value (1.2 MB), where counting removable
    digits on (values, 16) float64 arrays took up to 2.15 MB."""
    rng = np.random.default_rng(4)
    values = {"uniform": rng.uniform(-1.0, 1.0, 4000), "times": np.arange(4000) * 1e-3,
              "rounded": np.round(rng.uniform(-1.0, 1.0, 4000), 3),
              "tiny": rng.uniform(-1.0, 1.0, 4000) * 1e-200}[kind].reshape(1, -1)
    ends = b"," * 3999 + b"\n"
    render(values, ends)  # the tables, built once
    tracemalloc.start()
    try:
        render(values, ends)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * 4000

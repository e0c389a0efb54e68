"""The array formatter behind ``trace.csv`` against its oracle, ``repr``."""

import math
import sys

import numpy as np
from hypothesis import given, settings, strategies as st

from etconsensus._floatrepr import render


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

"""The in-cell root solves of the ``linear_et`` scans.

A grid scan brackets a crossing of the gap (or a sign change of det M) in
one grid cell [a, a + h]. The root inside is solved on the cell's Taylor
model f(a + s) = sum_k s^k z_a^T W_k z_a / k!, read off the walk's own state
z_a at the cell's left end: by Newton steps for the gap, by regula falsi on
det M for the floor. Cells with 2 ||G|| h > 1/2 are split into sub-cells.
The results are judged by a 50-digit oracle (``helpers.decimal_gaps`` and
``helpers.decimal_det_signs``), whose roots lie within the tolerance
max(ROOT_TOL, 4 ulp(t)): an event time in [t* - tol, t*), where the gap is
negative, and t_min within tol of the root of det M.
"""

import os
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    decimal_det_signs, decimal_gaps, floor_with_window, random_linear_system, root_resolution,
    root_tol,
)
from test_linear_et_scan import check_floor, check_next, firing_plant, next_event_oracle, plant
from etconsensus import (
    NoRootFound,
    design,
    gap_matrix,
    linear_et,
    matrix_exponential,
    min_inter_event_time,
    next_event_time,
    trigger_gap,
)
from etconsensus.linear_et import (
    GRID_POINTS, ROOT_TOL, _first_crossing, _gap_walk, _pair_products, _pairs, _start,
    _state_gap, _taylor_forms,
)


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(linear_et, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(linear_et, name, counted)
    return calls


def assert_event_below_root(lyap, x_ell, t):
    """In 50 digits, the gap after an update at x_ell is negative at t and
    nonnegative a tolerance later: t lies in [t* - tol, t*), give or take
    the root's resolution in double precision (root_resolution)."""
    z0 = _start(x_ell)
    res = root_resolution(lyap, z0, t)
    below, above = decimal_gaps(lyap, z0, [t - res, t + root_tol(t) + res])
    assert below < 0 <= above, (t, res, float(below), float(above))


def assert_floor_at_root(lyap, t_min):
    """In 50 digits, det M changes sign within a tolerance of t_min, give
    or take the root's resolution in double precision: where M's other
    eigenvalues are 1e10 times its crossing rate, rounding alone moves the
    root by 1e-5."""
    res = root_tol(t_min) + root_resolution(lyap, _start(np.eye(lyap.n)), t_min)
    before, after = decimal_det_signs(lyap, [t_min - res, t_min + res])
    assert before != after, (t_min, res)


@pytest.mark.parametrize("seed", range(6))
def test_taylor_model_matches_matrix_exponential(seed):
    """The packed W_k / k! give the gap over a cell, and over each sub-cell
    of a wide one, within 1e-12 of V + S; a cell with 2 ||G|| h = 0.02 takes
    degree 7, and a split cell's sub-cells at most degree 20."""
    _, lyap, x_ell = plant(2 + seed % 5, seed)
    rate = 2.0 * float(np.linalg.norm(lyap.g, 2))
    n = lyap.n
    ia, ib = _pairs(n)
    z = matrix_exponential(lyap.g, 0.3 / rate) @ _start(x_ell)
    for width, degree in ((0.02 / rate, 7), (6.0 / rate, None)):
        forms, m, hop = _taylor_forms(lyap, width)
        h = width / m
        if degree is None:
            assert m > 1 and len(forms) - 1 <= 20
            assert np.allclose(hop, matrix_exponential(lyap.g, h), rtol=0.0, atol=1e-14)
        else:
            assert m == 1 and hop is None and len(forms) - 1 == degree
        c = forms @ _pair_products(z, ia, ib)
        for s in (0.0, h / 3, h):
            w = matrix_exponential(lyap.g, s) @ z
            scale = w[:n] @ lyap.p @ w[:n] + w[2 * n:] @ lyap.p @ w[2 * n:]
            model = sum(ck * s ** k for k, ck in enumerate(c))
            assert abs(model - _state_gap(lyap, w)) <= 1e-12 * scale, (s, m)


def test_taylor_forms_are_kept_per_step():
    _, lyap, _ = plant(3, 11)
    first = _taylor_forms(lyap, 0.01)
    assert _taylor_forms(lyap, 0.01) is first
    assert _taylor_forms(lyap, 0.02) is not first


def test_repeated_calls_reuse_step_powers_and_taylor_forms(monkeypatch):
    sys_, lyap, x_ell, t_event = firing_plant(3, 5)
    t_max = 4.0 * t_event
    first = next_event_time(sys_, lyap, x_ell, t_max)
    assert first is not None
    expm = count_calls(monkeypatch, "matrix_exponential")
    expm1 = count_calls(monkeypatch, "_expm1")
    # The cell's state comes from the kept step powers and its model from
    # the kept Taylor forms: a repeated scan takes no exponential at all.
    assert next_event_time(sys_, lyap, x_ell, t_max) == first
    assert not expm and not expm1
    # The floor scan on the same grid shares both caches.
    min_inter_event_time(sys_, lyap, t_max)
    assert not expm and not expm1
    # A fresh grid costs one exponential of G step, built from e^{G step} - I;
    # without a crossing that is all, and the same grid again costs nothing.
    assert next_event_time(sys_, lyap, x_ell, 0.5 * t_event, 40) is None
    assert len(expm1) == 1 and not expm
    expm1.clear()
    assert next_event_time(sys_, lyap, x_ell, 0.5 * t_event, 40) is None
    assert not expm1 and not expm


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("grid_points", [1, 7, GRID_POINTS])
def test_first_cell_crossing_matches_sequential_oracle(seed, grid_points):
    """A crossing in grid cell 1, where f(0) = 0, is solved on f(s) / s,
    whose constant term -x^T (Q - R) x is negative; cells this wide are
    split into sub-cells. The sequential scan puts the crossing in cell 1,
    and the result lies below the 50-digit root by at most the tolerance."""
    sys_, lyap, x_ell, t_event = firing_plant(2 + seed, 10 + seed)
    step = 1.5 * t_event
    while trigger_gap(sys_, lyap, step, x_ell) < 0.0:
        step *= 1.5
    t_max = step * grid_points
    assert next_event_oracle(sys_, lyap, x_ell, t_max, grid_points) == 1
    t = next_event_time(sys_, lyap, x_ell, t_max, grid_points)
    assert 0.0 < t < step
    assert _taylor_forms(lyap, step)[1] > 1
    assert_event_below_root(lyap, x_ell, t)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_in_cell_roots_match_decimal_oracle(n, seed):
    """Seeded plants on the default grid: the event time in [t* - tol, t*)
    and t_min within tol of the 50-digit roots."""
    sys_, lyap, x_ell, t_event = firing_plant(n, 40 + seed)
    assert_event_below_root(lyap, x_ell, t_event)
    t_min, _ = floor_with_window(sys_, lyap)
    assert_floor_at_root(lyap, t_min)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1.0, 60.0),
    grid_points=st.sampled_from([1, 5, 7, 37, GRID_POINTS]),
)
def test_roots_on_coarse_and_fine_grids_match_decimal_oracle(n, seed, scale, grid_points):
    """On any grid, including cells wide enough to be split into sub-cells,
    the scans make the sequential scan's grid decision and their in-cell
    roots pass the 50-digit oracle."""
    sys_, lyap, x_ell = plant(n, seed)
    t_max = scale / float(np.linalg.norm(lyap.f, 2))
    t = check_next(sys_, lyap, x_ell, t_max, grid_points)
    if t is not None:
        assert_event_below_root(lyap, x_ell, t)
    t_min = check_floor(sys_, lyap, t_max, grid_points)
    if t_min is not None:
        assert_floor_at_root(lyap, t_min)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("grid_points", [5, 37, GRID_POINTS])
def test_bisection_brackets_the_root(seed, grid_points):
    """Each result sits within ROOT_TOL of a sign change of the gap (of
    det M for the floor), judged by trigger_gap and gap_matrix from t = 0:
    a solve whose state lagged behind its cell's left end would not."""
    sys_, lyap, x_ell, t_event = firing_plant(2 + seed % 5, 20 + seed)
    t = next_event_time(sys_, lyap, x_ell, 3.0 * t_event, grid_points)
    assert t is not None
    assert trigger_gap(sys_, lyap, t - ROOT_TOL, x_ell) < 0.0
    assert trigger_gap(sys_, lyap, t + 2 * ROOT_TOL, x_ell) >= 0.0

    # t_min <= t_event; a wider window reaches times where ||M|| is so large
    # that the sign of det M is rounding noise.
    try:
        t_min = min_inter_event_time(sys_, lyap, 2.0 * t_event, grid_points)
    except NoRootFound:
        return
    before = np.linalg.slogdet(gap_matrix(lyap, t_min - ROOT_TOL))[0]
    after = np.linalg.slogdet(gap_matrix(lyap, t_min + ROOT_TOL))[0]
    assert before != after


@pytest.mark.parametrize("seed", [0, 4, 5])
def test_bisection_stops_at_one_ulp_brackets(seed):
    """Slowing a plant by c = 1e-6 scales its event times and its floor by
    1e6, past t = 2^19, where one ulp of t exceeds ROOT_TOL: the tolerance
    there is four ulps of t, and the scaled results still agree."""
    rng = np.random.default_rng(seed)
    sys_, lyap = random_linear_system(rng, 3)
    x_ell = rng.normal(size=3)
    t_max = 400.0 / float(np.linalg.norm(lyap.f, 2))
    c = 1e-6
    slow_sys, slow_lyap = design(sys_.a * c, sys_.b * c, sys_.k, sys_.q, sys_.r)
    t_event = next_event_time(sys_, lyap, x_ell, t_max)
    slow_event = next_event_time(slow_sys, slow_lyap, x_ell, t_max / c)
    assert abs(slow_event * c - t_event) <= 2 * ROOT_TOL
    t_min = min_inter_event_time(sys_, lyap, t_max)
    slow_min = min_inter_event_time(slow_sys, slow_lyap, t_max / c)
    assert abs(slow_min * c - t_min) <= 2 * ROOT_TOL
    assert max(slow_event, slow_min) > 2.0 ** 19


SLOW_PLANT = """
import numpy as np
from helpers import random_linear_system
from etconsensus import design, min_inter_event_time, next_event_time
rng = np.random.default_rng(0)
sys_, lyap = random_linear_system(rng, 3)
x_ell = rng.normal(size=3)
slow_sys, slow_lyap = design(sys_.a * 1e-5, sys_.b * 1e-5, sys_.k, sys_.q, sys_.r)
t_max = 400.0 / float(np.linalg.norm(lyap.f, 2)) / 1e-5
print(repr(next_event_time(slow_sys, slow_lyap, x_ell, t_max)))
print(repr(min_inter_event_time(slow_sys, slow_lyap, t_max)))
"""


@pytest.mark.parametrize("c", [1e-5, 1e-6])
@pytest.mark.parametrize("seed", range(12))
def test_slowed_plant_event_lies_below_its_model_root(seed, c):
    """Plants slowed by 1e-5 or 1e-6 fire at t from 5.7e4 to 9.4e7, 15 of
    16 past 2^17, where four ulps of t exceed ROOT_TOL: an absolute offset
    below the root would round away (7 of these 16 events would sit at or
    past the root). The tolerance there is four ulps, and the event lies half of it
    below the root of its cell's model, judged in 50 digits from the model's
    double coefficients. (The gap itself is only defined to about a tolerance
    here: for seed 0 at 1e-5, V + S is near 1e6, and its rounding, 2e-10,
    over its slope, 0.9, moves the root by 2.5e-10.)"""
    rng = np.random.default_rng(seed)
    sys_, lyap = random_linear_system(rng, 3)
    x_ell = rng.normal(size=3)
    slow_sys, slow_lyap = design(sys_.a * c, sys_.b * c, sys_.k, sys_.q, sys_.r)
    t_max = 400.0 / float(np.linalg.norm(lyap.f, 2)) / c
    t = next_event_time(slow_sys, slow_lyap, x_ell, t_max)
    if t is None:
        return
    step, f_prev = t_max / GRID_POINTS, 0.0
    for k0, f, cell in _gap_walk(slow_lyap, _start(x_ell), step, GRID_POINTS):
        i = _first_crossing(f, f_prev, k0)
        if i >= 0:
            break
        f_prev = f[-1]
    a = (k0 + i - 1) * step
    assert a / 2 <= t < a + step  # so t - a is exact (Sterbenz)
    forms, m, _ = _taylor_forms(slow_lyap, step)
    assert m == 1
    coefficients = [Decimal(v) for v in forms @ _pair_products(cell(i), *_pairs(3))]
    with localcontext() as ctx:
        ctx.prec = 60
        below, above = (sum(v * Decimal(s) ** k for k, v in enumerate(coefficients))
                        for s in (t - a, t - a + root_tol(t)))
    assert below < 0 <= above


def test_slowed_plant_results_are_the_same_at_one_and_two_blas_threads():
    """The event time and t_min of a plant slowed by 1e-5 (t = 4.25e5), each
    printed by a fresh interpreter at one and at two BLAS threads."""
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(linear_et.__file__).resolve().parent.parent)
    out = []
    for threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join([src, tests]))
        proc = subprocess.run([sys.executable, "-c", SLOW_PLANT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout)
    assert out[0] == out[1] and 4e5 < float(out[0].split()[0]) < 4.5e5

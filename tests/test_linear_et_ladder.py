"""The roots of the ``linear_et`` cell walk.

The walk clears cells [a, a + h], h = 1 / (4 ||G||_2), on their degree-15
Taylor models f(a + s h) = sum_k s^k z_a^T V_k z_a, V_k = W_k h^k / k!, read
off the walk's own state z_a at the cell's left end, and refines the first
root by regula falsi: on the gap for an event, on the largest eigenvalue of
M for the floor. The results are judged by a 50-digit oracle
(``helpers.decimal_gaps`` and ``helpers.decimal_det_signs``), whose roots lie
within the tolerance max(ROOT_TOL, 4 ulp(t)): an event time in [t* - tol,
t*), where the gap is negative, and t_min within tol of the root of det M.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    assert_event_below_root, assert_floor_at_root, decimal_gaps, floor_with_window,
    random_linear_system, root_resolution, root_tol,
)
from test_linear_et_scan import first_cell_plant, firing_plant, plant
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
    _BERNSTEIN, _DEGREE, ROOT_TOL, _coefficients, _event_delay, _start, _state_gap,
)


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(linear_et, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(linear_et, name, counted)
    return calls


@pytest.mark.parametrize("seed", range(6))
def test_taylor_model_matches_matrix_exponential(seed):
    """At the one cell width h = 1 / (4 ||G||_2) and degree 15, the Taylor
    forms give the gap over a cell within 1e-12 of V + S, summed in power
    and in Bernstein form (through _BERNSTEIN)."""
    _, lyap, x_ell = plant(2 + seed % 5, seed)
    h, _, forms = lyap._cells
    assert h == 0.25 / float(np.linalg.norm(lyap.g, 2))
    n = lyap.n
    z = matrix_exponential(lyap.g, 1.3 * h) @ _start(x_ell)
    a = _coefficients(z[None, :, None], forms)[0, 0, :, 0]
    assert len(a) == _DEGREE + 1
    b = _BERNSTEIN @ a
    for s in (0.0, 1.0 / 3.0, 1.0):
        w = matrix_exponential(lyap.g, s * h) @ z
        scale = w[:n] @ lyap.p @ w[:n] + w[2 * n:] @ lyap.p @ w[2 * n:]
        for model in (sum(ak * s ** k for k, ak in enumerate(a)),
                      sum(bk * math.comb(_DEGREE, k) * s ** k * (1 - s) ** (_DEGREE - k)
                          for k, bk in enumerate(b))):
            assert abs(model - _state_gap(lyap, w)) <= 1e-12 * scale, s


def test_repeated_calls_reuse_step_powers_and_taylor_forms(monkeypatch):
    """The cells do not depend on t_max: their step exponential, built from
    e^{G h} - I, is taken once per LyapunovData, and no scan takes another
    exponential, whatever its window."""
    sys_, _, x_ell, t_event = firing_plant(3, 5)
    sys_, lyap = design(sys_.a, sys_.b, sys_.k, sys_.q, sys_.r, sys_.a_s)  # no cells yet
    expm = count_calls(monkeypatch, "matrix_exponential")
    expm1 = count_calls(monkeypatch, "_expm1")
    first = next_event_time(sys_, lyap, x_ell, 4.0 * t_event)
    assert first is not None
    assert len(expm1) == 1 and not expm
    for t_max in (4.0 * t_event, 40.0 * t_event, 1.5 * t_event):
        assert next_event_time(sys_, lyap, x_ell, t_max) == first
        min_inter_event_time(sys_, lyap, t_max)
    assert next_event_time(sys_, lyap, x_ell, 0.5 * t_event) is None
    assert len(expm1) == 1 and not expm


def test_narrow_crossing_between_grid_points_is_found():
    """The gap of this plant from x_ell = (cos theta, sin theta) rises to
    +1e-13 near t = 2.75076 for about 7e-5, under one cell of a 10,000-point
    grid over 100 / ||F|| (1.84e-3), which saw no sign change there and
    returned 4.564973844963484. theta is the direction whose gap peaks
    there at 1e-13, found by bisection; the walk's Bernstein hull does not
    clear that cell and the event lies below the 50-digit root."""
    sys_, lyap = random_linear_system(np.random.default_rng(43), 2)
    theta = 1.516061178318126
    x_ell = np.array([math.cos(theta), math.sin(theta)])
    t = next_event_time(sys_, lyap, x_ell, 100.0 / float(np.linalg.norm(lyap.f, 2)))
    assert 2.7507 < t < 2.7508
    assert_event_below_root(lyap, x_ell, t)
    assert decimal_gaps(lyap, _start(x_ell), [2.75076])[0] > 0


def next_event_oracle(lyap, x_ell, t_max, grid_points):
    """The sequential grid scan: the first grid cell k of grid_points over
    t_max whose right end has a nonnegative gap, after a negative one or as
    the first, stepping the joint state by one exponential per grid point;
    None if there is none."""
    step = t_max / grid_points
    phi = matrix_exponential(lyap.g, step)
    z, f_prev = _start(np.asarray(x_ell, dtype=float)), 0.0
    for k in range(1, grid_points + 1):
        z = phi @ z
        f_k = _state_gap(lyap, z)
        if f_k >= 0.0 and (f_prev < 0.0 or k == 1):
            return k
        f_prev = f_k
    return None


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("grid_points", [1, 7, 10_000])
def test_first_cell_crossing_matches_sequential_oracle(seed, grid_points, monkeypatch):
    """A crossing in the walk's first cell, where f(0) = 0, is solved on
    f(s) / s, whose constant term -x^T (Q - R) x is negative. In windows of
    1, 7 and 10,000 grid steps of h / 2, the sequential scan puts the
    crossing in its first grid cell, and the walk solves it in its first
    cell: the event lies in (0, h / 2), below the 50-digit root by at most
    the tolerance."""
    sys_, lyap, x_ell = first_cell_plant(seed)
    step = 0.5 * lyap._cells[0]
    t_max = step * grid_points
    assert next_event_oracle(lyap, x_ell, t_max, grid_points) == 1
    solves = count_calls(monkeypatch, "_illinois")
    t = next_event_time(sys_, lyap, x_ell, t_max)
    assert 0.0 < t < step
    assert len(solves) == 1 and solves[0][-1] == 0.0  # base: the first cell
    assert_event_below_root(lyap, x_ell, t)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_in_cell_roots_match_decimal_oracle(n, seed):
    """Seeded plants: the event time in [t* - tol, t*)
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
)
def test_roots_on_coarse_and_fine_grids_match_decimal_oracle(n, seed, scale):
    """In windows of 1 to 60 / ||F||, the roots found pass the 50-digit
    oracle; without a root the gap is negative, and M negative definite, at
    the window's end."""
    sys_, lyap, x_ell = plant(n, seed)
    t_max = scale / float(np.linalg.norm(lyap.f, 2))
    t = next_event_time(sys_, lyap, x_ell, t_max)
    if t is None:
        assert trigger_gap(sys_, lyap, t_max, x_ell) < 0.0
    else:
        assert t <= t_max
        assert_event_below_root(lyap, x_ell, t)
    try:
        t_min = min_inter_event_time(sys_, lyap, t_max)
    except NoRootFound:
        assert np.linalg.eigvalsh(gap_matrix(lyap, t_max))[-1] < 0.0
    else:
        assert t_min <= t_max
        assert_floor_at_root(lyap, t_min)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("window", [5, 37, 10_000])
def test_bisection_brackets_the_root(seed, window):
    """Each result sits within ROOT_TOL of a sign change of the gap (of
    det M for the floor), judged by trigger_gap and gap_matrix from t = 0:
    a solve whose state lagged behind its cell's left end would not. The
    walk stops at the first root, so windows of 5 to 10,000 event times
    give the same results."""
    sys_, lyap, x_ell, t_event = firing_plant(2 + seed % 5, 20 + seed)
    t = next_event_time(sys_, lyap, x_ell, window * t_event)
    assert t == t_event
    assert trigger_gap(sys_, lyap, t - ROOT_TOL, x_ell) < 0.0
    assert trigger_gap(sys_, lyap, t + 2 * ROOT_TOL, x_ell) >= 0.0
    t_min = min_inter_event_time(sys_, lyap, window * t_event)
    assert t_min == min_inter_event_time(sys_, lyap, t_event)
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
def test_slowed_plant_event_lies_below_its_model_root(seed, c, monkeypatch):
    """Plants slowed by 1e-5 or 1e-6 fire at t from 5.7e4 to 9.4e7, 15 of
    16 past 2^17. There V + S reaches 1e6 while the gap rises at about 1,
    so rounding moves the root by more than four ulps of t: the event lies
    below the root by 64 eps (V + S) / |f'| there. The model the root was
    solved on is negative at the event, and so is the 50-digit gap from
    t = 0, with no slack (at half a tolerance below the root, 7 of the 16
    were not); the root lies within that offset and the root's resolution
    after it (root_resolution, also 64 eps (V + S) / |f'|)."""
    rng = np.random.default_rng(seed)
    sys_, lyap = random_linear_system(rng, 3)
    x_ell = rng.normal(size=3)
    slow_sys, slow_lyap = design(sys_.a * c, sys_.b * c, sys_.k, sys_.q, sys_.r)
    t_max = 400.0 / float(np.linalg.norm(lyap.f, 2)) / c
    solves = count_calls(monkeypatch, "_illinois")
    t = next_event_time(slow_sys, slow_lyap, x_ell, t_max)
    if t is None:
        return
    model, _, _, h, base = solves[-1]
    assert model((t - base) / h) < 0.0
    z0 = _start(x_ell)
    res = root_resolution(slow_lyap, z0, t)
    at, above = decimal_gaps(slow_lyap, z0, [t, t + root_tol(t) + 2 * res])
    assert at < 0 <= above, (t, res, float(at), float(above))


@pytest.mark.parametrize("seed, c", [(0, 1e-5), (5, 1e-5), (0, 1e-6), (10, 1e-6)])
def test_slowed_plant_scan_from_a_held_state_in_the_roots_cell(seed, c):
    """A scan from the joint state half a cell before a slowed plant's
    event, as at the end of a window with no crossing: the root is in its
    first cell, where its spread 64 eps (V + S) / |f'| is rated on the plain
    gap, so the event lies below the 50-digit root by no more than the
    spread and the root's resolution. Rated as if on M(s) / s, the spread
    put each of these four events further below the root than that."""
    rng = np.random.default_rng(seed)
    sys_, lyap = random_linear_system(rng, 3)
    x_ell = rng.normal(size=3)
    slow_sys, slow_lyap = design(sys_.a * c, sys_.b * c, sys_.k, sys_.q, sys_.r)
    t_max = 400.0 / float(np.linalg.norm(lyap.f, 2)) / c
    start = next_event_time(slow_sys, slow_lyap, x_ell, t_max) - 0.5 * slow_lyap._cells[0]
    z0 = _start(x_ell)
    t = start + _event_delay(slow_lyap, matrix_exponential(slow_lyap.g, start) @ z0, t_max,
                             at_update=False)
    res = root_resolution(slow_lyap, z0, t)
    at, above = decimal_gaps(slow_lyap, z0, [t, t + root_tol(t) + 2 * res])
    assert at < 0 <= above, (t, res, float(at), float(above))


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

"""The cell walk of ``linear_et`` and the sample-and-hold loop.

The scans clear cells of width h = 1 / (4 ||G||_2) on their Taylor models
(by the convex hull of their Bernstein coefficients) and refine the first
root; its accuracy is judged by a 50-digit oracle here and in
``test_linear_et_ladder.py``. This file covers where the walk's runs and
blocks meet, windows without a root, the memory of long walks, and the two
kernels of the clearing test against independent oracles.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    assert_event_below_root, assert_floor_at_root, floor_with_window, random_linear_system,
    root_tol,
)
from etconsensus import (
    NoRootFound,
    design,
    gap_matrix,
    matrix_exponential,
    min_inter_event_time,
    next_event_time,
    simulate_sample_hold,
)
from etconsensus.linear_et import (
    _BERNSTEIN, _BLOCK, _DEGREE, _event_delay, _halves, _negative_definite, _start,
)


def plant(n, seed):
    rng = np.random.default_rng(seed)
    sys_, lyap = random_linear_system(rng, n)
    return sys_, lyap, rng.normal(size=n)


def firing_plant(n, seed, window=400.0):
    """The first plant from seed, seed + 1000, ... whose state fires an event
    within window / ||F||; many plants never fire from a given state."""
    while True:
        sys_, lyap, x_ell = plant(n, seed)
        t_event = next_event_time(sys_, lyap, x_ell, window / float(np.linalg.norm(lyap.f, 2)))
        if t_event is not None:
            return sys_, lyap, x_ell, t_event
        seed += 1000


# ---------------------------------------------------------------------------
# Windows, runs and blocks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_no_crossing_and_missing_root(seed):
    """A window that ends before the root finds none; one that ends inside
    the root's cell gives the same bits as a wide one, as the cells do not
    depend on t_max."""
    sys_, lyap, x_ell, t_event = firing_plant(3 + seed % 3, seed)
    assert next_event_time(sys_, lyap, x_ell, 0.5 * t_event) is None
    assert next_event_time(sys_, lyap, x_ell, t_event + 2 * root_tol(t_event)) == t_event
    t_min, t_max = floor_with_window(sys_, lyap)
    with pytest.raises(NoRootFound):
        min_inter_event_time(sys_, lyap, 0.5 * t_min)
    assert min_inter_event_time(sys_, lyap, t_min + root_tol(t_min)) == t_min


def first_cell_plant(seed):
    """With R = Q - delta I, M'(0) = -(Q - R) = -delta I is small, and M
    stops being negative definite within half a cell: a plant and the top
    eigenvector of M(h / 2), along which the gap is positive at h / 2."""
    rng = np.random.default_rng(seed)
    n = 2 + seed % 2
    sys_, _ = random_linear_system(rng, n)
    delta = 1e-4 * float(np.linalg.eigvalsh(sys_.q)[0])
    sys_, lyap = design(sys_.a, sys_.b, sys_.k, sys_.q, sys_.q - delta * np.eye(n))
    values, vectors = np.linalg.eigh(gap_matrix(lyap, 0.5 * lyap._cells[0]))
    assert values[-1] > 0.0
    return sys_, lyap, vectors[:, -1]


@pytest.mark.parametrize("seed", range(4))
def test_crossing_in_first_cell(seed):
    """The state fires within half a cell along the top eigenvector of
    M(h / 2) (first_cell_plant). The first cell is judged on M(s) / s
    (M(0) = 0); the event and the floor pass the 50-digit oracle."""
    sys_, lyap, x_ell = first_cell_plant(seed)
    h = lyap._cells[0]
    t = next_event_time(sys_, lyap, x_ell, 100 * h)
    assert t is not None and 0.0 < t < 0.5 * h
    assert_event_below_root(lyap, x_ell, t)
    t_min = min_inter_event_time(sys_, lyap, 100 * h)
    assert 0.0 < t_min <= t
    assert_floor_at_root(lyap, t_min)


def paced_plant(n, seed):
    """A plant redesigned with R = rho P (rho half the least eigenvalue of
    P^-1 Q, so Q - R stays positive definite) whose state fires within
    6 / ||F||, so in one of the first 25 cells. Then S(t) = e^{-rho t} S(0)
    for every comparison A_s = P^-1 (omega J - R / 2), J skew: spinning the
    comparison state leaves the gap, M(t) and their roots as they are."""
    while True:
        rng = np.random.default_rng(seed)
        sys_, lyap = random_linear_system(rng, n)
        x_ell = rng.normal(size=n)
        rho = 0.5 * float(np.linalg.eigvals(np.linalg.solve(lyap.p, sys_.q)).real.min())
        sys_, lyap = design(sys_.a, sys_.b, sys_.k, sys_.q, rho * lyap.p)
        t_event = next_event_time(sys_, lyap, x_ell, 6.0 / float(np.linalg.norm(lyap.f, 2)))
        if t_event is not None:
            return sys_, lyap, x_ell, t_event
        seed += 1000


def spun(sys_, lyap, t, cell):
    """The paced plant with its comparison state spun just fast enough that
    ||G||_2 puts t in the middle of the given cell of the scans' walk."""
    n = lyap.n
    skew = np.zeros((n, n))
    skew[0, 1], skew[1, 0] = 1.0, -1.0

    def a_s(omega):
        return np.linalg.solve(lyap.p, omega * skew - 0.5 * sys_.r)

    target = (cell - 0.5) / (4.0 * t)  # ||G||_2 with t / h = cell - 0.5
    assert target > np.linalg.norm(lyap.f, 2)
    lo, hi = 0.0, 1.0
    while np.linalg.norm(a_s(hi), 2) < target:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if np.linalg.norm(a_s(mid), 2) < target else (lo, mid)
    spun_sys, spun_lyap = design(sys_.a, sys_.b, sys_.k, sys_.q, sys_.r, a_s(hi))
    assert math.floor(t / spun_lyap._cells[0]) == cell - 1
    return spun_sys, spun_lyap


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("cell", [_BLOCK - 1, _BLOCK, 8 * _BLOCK, 8 * _BLOCK + 1, 16 * _BLOCK + 1])
def test_root_next_to_block_boundary(seed, cell):
    """Roots in the last cell of the first run and the first cell of the
    second (cells _BLOCK - 1 and _BLOCK, counting from 1), and on either side of
    block boundaries inside later runs, where the walk's state carries over
    between blocks and runs: a spun plant has the root of the plain one."""
    sys_, lyap, x_ell, t_event = paced_plant(2 + seed, seed)
    t_min = min_inter_event_time(sys_, lyap, t_event)
    for t, scan in ((t_event, lambda s, l: next_event_time(s, l, x_ell, 2.0 * t_event)),
                    (t_min, lambda s, l: min_inter_event_time(s, l, 2.0 * t_event))):
        spun_sys, spun_lyap = spun(sys_, lyap, t, cell)
        got = scan(spun_sys, spun_lyap)
        assert abs(got - t) <= 2 * root_tol(t), (got, t)


def slow_rotation(epsilon=1e-4):
    """x' = A x with A = [[-eps, 1], [-1, -eps]] (K = 0), Q = I, R = I / 2:
    V decays as e^{-2 eps t} and S as e^{-eps t}, so no event ever fires and
    M(t) stays negative definite, while ||G||_2 is about 1.4."""
    a = np.array([[-epsilon, 1.0], [-1.0, -epsilon]])
    return design(a, [[1.0], [0.0]], [[0.0, 0.0]], np.eye(2), 0.5 * np.eye(2))


def test_long_walks_take_bounded_memory():
    """A window of 2e4, about 1.1e5 cells, with no root: the walk's runs stop
    doubling at 1,024 cells, so its peak allocation is a few MB (uncapped,
    its last run would hold about 5.6e4 cells and some 90 MB of products)."""
    sys_, lyap = slow_rotation()
    lyap._cells
    tracemalloc.start()
    try:
        assert next_event_time(sys_, lyap, [1.0, 0.5], 2e4) is None
        with pytest.raises(NoRootFound):
            min_inter_event_time(sys_, lyap, 2e4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


# ---------------------------------------------------------------------------
# The clearing test's kernels against independent oracles
# ---------------------------------------------------------------------------

symmetric_stacks = st.tuples(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(symmetric_stacks, st.floats(-3.0, 3.0))
def test_negative_definite_matches_eigvalsh(shape, shift):
    """The pivot test against the largest eigenvalue, on stacks (c, c, N) of
    symmetric matrices shifted across definiteness; a decision may differ
    only where that eigenvalue is within rounding of zero."""
    c, count, seed = shape
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(count, c, c))
    m = g @ np.swapaxes(g, 1, 2) / c - shift * np.eye(c)
    m = -m if seed % 2 else m
    got = _negative_definite(np.moveaxis(m, 0, -1))
    top = np.linalg.eigvalsh(m)[:, -1]
    scale = np.abs(m).max(axis=(1, 2))
    decided = np.abs(top) > 1e-12 * scale
    assert np.array_equal(got[decided], top[decided] < 0.0)


def bernstein_value(b, s):
    """sum_i b_i C(K, i) s^i (1 - s)^(K - i), summed in Python floats."""
    k = len(b) - 1
    return sum(v * math.comb(k, i) * s ** i * (1 - s) ** (k - i) for i, v in enumerate(b))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=_DEGREE + 1, max_size=_DEGREE + 1),
       st.floats(0.0, 1.0))
def test_halves_and_bernstein_form_evaluate_the_same_polynomial(a, s):
    """_BERNSTEIN takes power coefficients a on [0, 1] to Bernstein ones
    with the same values, and de Casteljau's halves of those give the same
    values on [0, 1/2] and [1/2, 1], within rounding."""
    power = sum(v * s ** k for k, v in enumerate(a))
    b = _BERNSTEIN @ np.array(a)
    assert abs(bernstein_value(b, s) - power) <= 1e-13
    left, right = _halves(b)
    half = bernstein_value(left, 2 * s) if s <= 0.5 else bernstein_value(right, 2 * s - 1)
    assert abs(half - power) <= 1e-13
    # The halves keep the leading axes of a stack of coefficients.
    stacked = _halves(np.stack([b, -b])[None])
    assert np.array_equal(stacked[0][0, 0], left) and np.array_equal(stacked[1][0, 1], -right)


@pytest.mark.parametrize("seed", range(3))
def test_a_scan_from_a_held_state_finds_the_root_from_its_update(seed):
    """From the joint state a hold has reached at s, where the gap is
    negative rather than 0, the scan judges its first cell on the gap
    itself, not on M(s) / s: it finds the crossing of the scan from the
    update, s earlier, and its event lies below the 50-digit root."""
    sys_, lyap, x_ell, t_event = firing_plant(3, seed)
    for part in (0.1, 0.6, 0.97):
        s = part * t_event
        z = matrix_exponential(lyap.g, s) @ _start(x_ell)
        later = _event_delay(lyap, z, 2.0 * t_event, at_update=False)
        assert abs(s + later - t_event) <= 1e-9 * t_event, (part, s + later - t_event)
        assert_event_below_root(lyap, x_ell, s + later)
        assert _event_delay(lyap, z, 0.9 * (t_event - s), at_update=False) is None


# ---------------------------------------------------------------------------
# The sample-and-hold loop against the one-sample-per-iteration loop it
# replaced: the chained states are the same products, and the stacked forms
# give V and S the bits of the per-row quadratic forms.
# ---------------------------------------------------------------------------

def sample_hold_oracle(sys_, lyap, x0, horizon, samples_per_interval, t_max):
    x = np.asarray(x0, dtype=float).copy()
    n = lyap.n
    p = lyap.p
    t = 0.0
    times, states, v_vals, s_vals = [], [], [], []
    event_times = [0.0]
    first_segment, underflow, z, dt_event = True, False, _start(x), 0.0
    while first_segment or t < horizon - 1e-12:
        underflow = underflow or float(x @ p @ x) < np.finfo(float).tiny
        if underflow:
            dt_event = None
        elif dt_event is not None:  # at an update
            dt_event = next_event_time(sys_, lyap, x, t_max)
        else:  # at the end of a window with no crossing
            dt_event = _event_delay(lyap, z, t_max, at_update=False)
        seg = min(t_max if dt_event is None else dt_event, horizon - t)
        tau_step = seg / samples_per_interval
        phi_tau = matrix_exponential(lyap.g, tau_step)
        if first_segment:
            times.append(t)
            states.append(x.copy())
            v_vals.append(float(x @ p @ x))
            s_vals.append(float(x @ p @ x))
            first_segment = False
        for j in range(1, samples_per_interval + 1):
            z = phi_tau @ z
            xj, xs = z[:n], z[2 * n:]
            times.append(t + j * tau_step)
            states.append(xj)
            v_vals.append(float(xj @ p @ xj))
            s_vals.append(float(xs @ p @ xs))
        t = t + seg
        x = z[:n].copy()
        if dt_event is not None and seg == dt_event:
            event_times.append(t)
            z = _start(x)
        else:
            dt_event = None
    return (np.array(times), np.array(states), np.array(v_vals), np.array(s_vals),
            tuple(event_times))


@pytest.mark.parametrize("samples", [1, 5, 20])
@pytest.mark.parametrize("n", range(1, 7))
def test_sample_hold_matches_per_sample_loop(n, samples):
    """Bit for bit, over a horizon of 8.5 first gaps, on a plant that fires
    within half the default window (50 / ||F||). A window of 1.5 first gaps
    fires events and, where the gaps grow past it, scans again at the
    window's end; a window of half the first gap finds no crossing, and the
    scans from the held state at the ends of its windows find the first
    event (to rounding)."""
    sys_, lyap, x0, t_event = firing_plant(n, 20 + n, window=50.0)
    for t_max in (1.5 * t_event, 0.5 * t_event):
        got = simulate_sample_hold(sys_, lyap, x0, 8.5 * t_event, samples, t_max)
        times, states, v_values, s_values, event_times = sample_hold_oracle(
            sys_, lyap, x0, 8.5 * t_event, samples, t_max)
        assert got.event_times == event_times
        assert len(event_times) > 1
        if t_max < t_event:
            assert event_times[1] == pytest.approx(t_event, rel=1e-9)
            assert len(got.times) - 1 > samples * len(event_times)  # windows with no update
        for name, want in (("times", times), ("states", states), ("v_values", v_values),
                           ("s_values", s_values)):
            value = getattr(got, name)
            assert value.shape == want.shape and value.dtype == want.dtype, name
            assert np.array_equal(value.view(np.int64), want.view(np.int64)), name


def test_sample_hold_below_the_horizon_slack_keeps_the_initial_sample():
    """A horizon within the loop's 1e-12 slack still runs the first segment:
    the trace holds the initial sample, at which V = S, and the samples of one
    hold up to the horizon, with no event."""
    sys_, lyap, x0 = plant(2, 0)
    got = simulate_sample_hold(sys_, lyap, x0, 1e-13, samples_per_interval=4)
    assert got.times.tolist() == [0.0, *(np.arange(1, 5) * 2.5e-14).tolist()]
    assert got.times[-1] == 1e-13
    assert got.event_times == (0.0,)
    assert got.states[0].tolist() == x0.tolist()
    assert got.v_values[0] == got.s_values[0] == float(x0 @ lyap.p @ x0)
    assert np.allclose(got.states, x0, rtol=0.0, atol=1e-12)

"""The block-wise grid scans of ``linear_et`` against the sequential scans.

The oracles below are the one-grid-point-per-iteration loops the block scans
replaced, with bisections that evaluate ``trigger_gap`` / ``gap_matrix`` from
t = 0. Both versions make the same decisions at the same grid points and
midpoints, so they return the same double. Their arithmetic differs in
rounding, so a decision can still flip where the gap (or det M) is within
rounding of zero: at a bisection midpoint about 1e-14 (relative) from the
root. The two results then lie on either side of that midpoint, each within
its final bracket, so they differ by at most 2 ROOT_TOL. ``assert_same``
allows exactly that case and nothing else.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import floor_with_window, random_linear_system
from etconsensus import (
    NoRootFound,
    gap_matrix,
    matrix_exponential,
    min_inter_event_time,
    next_event_time,
    trigger_gap,
)
from etconsensus.linear_et import GRID_POINTS, ROOT_TOL, _BLOCK, _first_crossing, _first_sign_change

#: A decision may differ from the oracle's only where the oracle's own value
#: is this close to zero, relative to its scale.
TIE = 1e-12

GRIDS = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7, GRID_POINTS)


# ---------------------------------------------------------------------------
# Oracles: the sequential loops, recording each bisection decision as
# (midpoint, went left, margin): the margin is |f| / V for the gap and the
# smallest singular value of M over ||Phi^T C^T P C Phi|| for det M.
# ---------------------------------------------------------------------------

def comparison_blocks(sys, lyap):
    """The comparison dynamics zero-padded to the extended state,
    f_s = diag(A_s, 0), and C^T P C for the selector C = [I 0]."""
    n = lyap.n
    zero = np.zeros((n, n))
    f_s = np.block([[sys.a_s, zero], [zero, zero]])
    c = np.hstack([np.eye(n), zero])
    return f_s, c.T @ lyap.p @ c


def negative_start_oracle(sys, lyap, x_ell, upper):
    t = 0.5 * upper
    for _ in range(60):
        if trigger_gap(sys, lyap, t, x_ell) < 0.0:
            return t
        t *= 0.5
    return None


def next_event_oracle(sys, lyap, x_ell, t_max, grid_points, path):
    x_ell = np.asarray(x_ell, dtype=float)
    n = lyap.n
    if float(np.linalg.norm(x_ell)) == 0.0:
        return None
    step = t_max / grid_points
    f_s, _ = comparison_blocks(sys, lyap)
    phi_step = matrix_exponential(lyap.f, step)
    phi_s_step = matrix_exponential(f_s, step)
    y = np.concatenate([x_ell, np.zeros(n)])
    v = y.copy()
    s = y.copy()
    p = lyap.p
    f_prev = 0.0
    t_prev = 0.0
    for kk in range(1, grid_points + 1):
        v = phi_step @ v
        s = phi_s_step @ s
        f_k = float(v[:n] @ p @ v[:n] - s[:n] @ p @ s[:n])
        t_k = kk * step
        if f_k >= 0.0 and (f_prev < 0.0 or kk == 1):
            lo, hi = t_prev, t_k
            if kk == 1:
                lo = negative_start_oracle(sys, lyap, x_ell, t_k)
                if lo is None:
                    return None
            while hi - lo > ROOT_TOL:
                mid = 0.5 * (lo + hi)
                gap = trigger_gap(sys, lyap, mid, x_ell)
                xv = (matrix_exponential(lyap.f, mid) @ y)[:n]
                path.append((mid, not gap >= 0.0, abs(gap) / float(xv @ p @ xv)))
                if gap >= 0.0:
                    hi = mid
                else:
                    lo = mid
            return lo
        f_prev, t_prev = f_k, t_k
    return None


def min_inter_event_oracle(sys, lyap, t_max, grid_points, path):
    n = lyap.n
    f_s, cpc = comparison_blocks(sys, lyap)
    step = t_max / grid_points
    phi_step = matrix_exponential(lyap.f, step)
    phi_s_step = matrix_exponential(f_s, step)
    phi = np.eye(2 * n)
    phi_s = np.eye(2 * n)

    def det_sign(mat):
        sign, _ = np.linalg.slogdet(mat)
        return float(sign)

    baseline = 0.0
    t_prev = 0.0
    for kk in range(1, grid_points + 1):
        phi = phi_step @ phi
        phi_s = phi_s_step @ phi_s
        m_k = (phi.T @ cpc @ phi - phi_s.T @ cpc @ phi_s)[:n, :n]
        sign_k = det_sign(m_k)
        t_k = kk * step
        if baseline == 0.0:
            baseline = sign_k
        elif sign_k != baseline:
            lo, hi = t_prev, t_k
            while hi - lo > ROOT_TOL:
                mid = 0.5 * (lo + hi)
                m_mid = gap_matrix(lyap, mid)
                phi_mid = matrix_exponential(lyap.f, mid)
                scale = np.linalg.norm((phi_mid.T @ cpc @ phi_mid)[:n, :n], 2)
                left = det_sign(m_mid) == baseline
                path.append((mid, left, np.linalg.svd(m_mid, compute_uv=False)[-1] / scale))
                if left:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
        t_prev = t_k
    raise NoRootFound(f"det M(t) does not change sign on (0, {t_max}]")


def assert_same(new, old, path):
    """new == old, except after a decision the oracle took at a tie."""
    if new == old:
        return
    assert new is not None and old is not None, (new, old)
    for mid, left, margin in path:
        if (new >= mid) != left:
            assert margin <= TIE, f"decision at t={mid!r} differs with margin {margin:.3g}"
            assert abs(new - old) <= 2 * ROOT_TOL
            return
    raise AssertionError(f"{new!r} != {old!r} with every oracle decision kept")


def check_next(sys_, lyap, x_ell, t_max, grid_points):
    path = []
    old = next_event_oracle(sys_, lyap, x_ell, t_max, grid_points, path)
    new = next_event_time(sys_, lyap, x_ell, t_max, grid_points)
    assert_same(new, old, path)
    return new


def check_floor(sys_, lyap, t_max, grid_points):
    path = []
    try:
        old = min_inter_event_oracle(sys_, lyap, t_max, grid_points, path)
    except NoRootFound:
        with pytest.raises(NoRootFound):
            min_inter_event_time(sys_, lyap, t_max, grid_points)
        return None
    new = min_inter_event_time(sys_, lyap, t_max, grid_points)
    assert_same(new, old, path)
    return new


def plant(n, seed):
    rng = np.random.default_rng(seed)
    sys_, lyap = random_linear_system(rng, n)
    return sys_, lyap, rng.normal(size=n)


def firing_plant(n, seed):
    """The first plant from seed, seed + 1000, ... whose state fires an event;
    many plants never fire from a given state."""
    while True:
        sys_, lyap, x_ell = plant(n, seed)
        t_event = next_event_time(sys_, lyap, x_ell, 400.0 / float(np.linalg.norm(lyap.f, 2)))
        if t_event is not None:
            return sys_, lyap, x_ell, t_event
        seed += 1000


# ---------------------------------------------------------------------------
# Random plants
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.2, 60.0),
    grid_points=st.sampled_from(GRIDS),
    zero_state=st.booleans(),
)
def test_scans_match_sequential_oracle(n, seed, scale, grid_points, zero_state):
    sys_, lyap, x_ell = plant(n, seed)
    if zero_state:
        x_ell = np.zeros(n)
    t_max = scale / float(np.linalg.norm(lyap.f, 2))
    event = check_next(sys_, lyap, x_ell, t_max, grid_points)
    if zero_state:
        assert event is None
    check_floor(sys_, lyap, t_max, grid_points)


@pytest.mark.parametrize("seed", range(4))
def test_crossing_in_first_cell(seed):
    sys_, lyap, x_ell, t_event = firing_plant(2 + seed, seed)
    # One grid point: any crossing is found in the first cell, after
    # _negative_start has walked in from t = 0.
    t_max = 1.5 * t_event
    while True:
        path = []
        old = next_event_oracle(sys_, lyap, x_ell, t_max, 1, path)
        if old is not None:
            break
        t_max *= 1.5
    assert_same(next_event_time(sys_, lyap, x_ell, t_max, 1), old, path)
    for grid_points in GRIDS[1:]:
        assert check_next(sys_, lyap, x_ell, t_max, grid_points) is not None


@pytest.mark.parametrize("seed", range(4))
def test_no_crossing_and_missing_root(seed):
    sys_, lyap, x_ell, t_event = firing_plant(3 + seed % 3, seed)
    for grid_points in GRIDS:
        assert check_next(sys_, lyap, x_ell, 0.5 * t_event, grid_points) is None
    t_min, _ = floor_with_window(sys_, lyap)
    for grid_points in GRIDS:
        assert check_floor(sys_, lyap, 0.5 * t_min, grid_points) is None


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("cell", [_BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_root_next_to_block_boundary(seed, cell):
    """Roots in the last cell of a block and in the first cell of the next,
    where the scan's state and last gap value carry over between blocks."""
    sys_, lyap, x_ell, t_event = firing_plant(2 + seed, seed)
    grid_points = 3 * _BLOCK + 7
    t_max = t_event / (cell - 0.5) * grid_points
    assert check_next(sys_, lyap, x_ell, t_max, grid_points) is not None
    t_min, _ = floor_with_window(sys_, lyap)
    t_max = t_min / (cell - 0.5) * grid_points
    assert check_floor(sys_, lyap, t_max, grid_points) is not None


# ---------------------------------------------------------------------------
# The block predicates against the sequential rules, on values with exact
# zeros (which random plants never produce).
# ---------------------------------------------------------------------------

values = st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0]), min_size=1, max_size=40)
blocks = st.integers(1, 9)


def split(seq, size):
    return [(k0, np.array(seq[k0 - 1:k0 - 1 + size])) for k0 in range(1, len(seq) + 1, size)]


@settings(max_examples=300)
@given(values, blocks)
def test_first_crossing_matches_sequential_predicate(f, size):
    expected = None
    f_prev = 0.0
    for kk, f_k in enumerate(f, start=1):
        if f_k >= 0.0 and (f_prev < 0.0 or kk == 1):
            expected = kk
            break
        f_prev = f_k
    found = None
    f_prev = 0.0
    for k0, block in split(f, size):
        j = _first_crossing(block, f_prev, k0)
        if j >= 0:
            found = k0 + j
            break
        f_prev = block[-1]
    assert found == expected


@settings(max_examples=300)
@given(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=1, max_size=40), blocks)
def test_first_sign_change_matches_sequential_rule(signs, size):
    expected = None
    baseline = 0.0
    for kk, sign_k in enumerate(signs, start=1):
        if baseline == 0.0:
            baseline = sign_k
        elif sign_k != baseline:
            expected = (kk, baseline)
            break
    found = None
    baseline = 0.0
    for k0, block in split(signs, size):
        j, baseline = _first_sign_change(block, baseline)
        if j >= 0:
            found = (k0 + j, baseline)
            break
    assert found == expected

"""The run-wise grid scans of ``linear_et`` against the sequential scans.

The oracles below are the one-grid-point-per-iteration loops the run scans
replaced. They return the grid cell whose right end first meets the
crossing (or baseline) rule, and the scans must make that same decision:
the same cell, None, or NoRootFound. The root inside the cell is solved on
the cell's Taylor model; its accuracy is checked against a 50-digit oracle
in ``test_linear_et_ladder.py``, so here a result need only lie in its cell,
give or take the root tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import floor_with_window, random_linear_system, root_tol
from etconsensus import (
    NoRootFound,
    matrix_exponential,
    min_inter_event_time,
    next_event_time,
    simulate_sample_hold,
)
from etconsensus.linear_et import (
    GRID_POINTS, _BLOCK, _first_crossing, _first_sign_change, _gap, _gap_forms, _gap_walk,
    _start, _state_gap, _step_powers,
)

#: A decision may differ from the oracle's only where the oracle's own value
#: is this close to zero, relative to its scale.
TIE = 1e-12

GRIDS = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7, GRID_POINTS)


# ---------------------------------------------------------------------------
# Oracles: the sequential loops, returning the bracketing grid cell.
# ---------------------------------------------------------------------------

def comparison_blocks(sys, lyap):
    """The comparison dynamics zero-padded to the extended state,
    f_s = diag(A_s, 0), and C^T P C for the selector C = [I 0]."""
    n = lyap.n
    zero = np.zeros((n, n))
    f_s = np.block([[sys.a_s, zero], [zero, zero]])
    c = np.hstack([np.eye(n), zero])
    return f_s, c.T @ lyap.p @ c


def next_event_oracle(sys, lyap, x_ell, t_max, grid_points):
    """Grid cell of the first crossing, or None."""
    x_ell = np.asarray(x_ell, dtype=float)
    n = lyap.n
    if float(np.linalg.norm(x_ell)) == 0.0:
        return None
    step = t_max / grid_points
    f_s, _ = comparison_blocks(sys, lyap)
    phi_step = matrix_exponential(lyap.f, step)
    phi_s_step = matrix_exponential(f_s, step)
    v = np.concatenate([x_ell, np.zeros(n)])
    s = v.copy()
    p = lyap.p
    f_prev = 0.0
    for kk in range(1, grid_points + 1):
        v = phi_step @ v
        s = phi_s_step @ s
        f_k = float(v[:n] @ p @ v[:n] - s[:n] @ p @ s[:n])
        if f_k >= 0.0 and (f_prev < 0.0 or kk == 1):
            return kk
        f_prev = f_k
    return None


def min_inter_event_oracle(sys, lyap, t_max, grid_points):
    """Grid cell of the first sign change of det M away from the baseline."""
    n = lyap.n
    f_s, cpc = comparison_blocks(sys, lyap)
    step = t_max / grid_points
    phi_step = matrix_exponential(lyap.f, step)
    phi_s_step = matrix_exponential(f_s, step)
    phi = np.eye(2 * n)
    phi_s = np.eye(2 * n)
    baseline = 0.0
    for kk in range(1, grid_points + 1):
        phi = phi_step @ phi
        phi_s = phi_s_step @ phi_s
        sign_k = float(np.linalg.slogdet((phi.T @ cpc @ phi - phi_s.T @ cpc @ phi_s)[:n, :n])[0])
        if baseline == 0.0:
            baseline = sign_k
        elif sign_k != baseline:
            return kk
    raise NoRootFound(f"det M(t) does not change sign on (0, {t_max}]")


def assert_in_cell(new, cell, step):
    """The scan chose the oracle's cell: its root lies in the cell, so its
    result does too, give or take the root tolerance."""
    assert (new is None) == (cell is None), (new, cell)
    if cell is not None:
        assert (cell - 1) * step - root_tol(new) <= new <= cell * step, (new, cell, step)


def check_next(sys_, lyap, x_ell, t_max, grid_points):
    new = next_event_time(sys_, lyap, x_ell, t_max, grid_points)
    assert_in_cell(new, next_event_oracle(sys_, lyap, x_ell, t_max, grid_points),
                   t_max / grid_points)
    return new


def check_floor(sys_, lyap, t_max, grid_points):
    try:
        cell = min_inter_event_oracle(sys_, lyap, t_max, grid_points)
    except NoRootFound:
        with pytest.raises(NoRootFound):
            min_inter_event_time(sys_, lyap, t_max, grid_points)
        return None
    new = min_inter_event_time(sys_, lyap, t_max, grid_points)
    assert_in_cell(new, cell, t_max / grid_points)
    return new


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
    # One grid point: any crossing is found in the first cell, where the
    # model is f(s) / s since f(0) = 0.
    t_max = 1.5 * t_event
    while next_event_oracle(sys_, lyap, x_ell, t_max, 1) is None:
        t_max *= 1.5
    assert check_next(sys_, lyap, x_ell, t_max, 1) is not None
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
@pytest.mark.parametrize("cell", [2 * _BLOCK, 2 * _BLOCK + 1, 4 * _BLOCK + 1])
def test_root_next_to_block_boundary(seed, cell):
    """Roots in the last cell of a block and in the first cell of the next,
    where the scan's state and last gap value carry over between blocks."""
    sys_, lyap, x_ell, t_event = firing_plant(2 + seed, seed)
    grid_points = 6 * _BLOCK + 7
    t_max = t_event / (cell - 0.5) * grid_points
    assert check_next(sys_, lyap, x_ell, t_max, grid_points) is not None
    t_min, _ = floor_with_window(sys_, lyap)
    t_max = t_min / (cell - 0.5) * grid_points
    assert check_floor(sys_, lyap, t_max, grid_points) is not None


def grid_states(lyap, z0, step, grid_points):
    """Joint states at the grid points k step, k = 1 ... grid_points, from z0
    at t = 0, a block at a time, as the scans' blocks fall: yields (k0, zs)
    with zs[j] the state at grid point k0 + j, a vector or a matrix as z0 is,
    and the dense forms (Phi^j)^T W Phi^j of the block. A block of states is
    the step powers times the state before it."""
    block = min(_BLOCK, grid_points)
    powers = _step_powers(lyap, step, block)
    forms = _gap(lyap, powers)
    z = z0
    for k0 in range(1, grid_points + 1, block):
        count = min(block, grid_points + 1 - k0)
        zs = powers[:count] @ z
        yield k0, zs, forms[:count]
        z = zs[-1]


def v_plus_s(lyap, z):
    """x^T P x + x_s^T P x_s of joint states, the terms whose difference is
    the gap: the scale of its rounding. For n columns, the matrix of these
    forms between columns."""
    n = lyap.n
    x, xs = z[..., :n, :], z[..., 2 * n:, :]
    return np.swapaxes(x, -1, -2) @ lyap.p @ x + np.swapaxes(xs, -1, -2) @ lyap.p @ xs


def walked(lyap, z0, step, grid_points):
    """The walk's gaps over all its runs, one per grid point, and its runs'
    first grid points and cell-state functions."""
    runs = list(_gap_walk(lyap, z0, step, grid_points))
    return np.concatenate([f for _, f, _ in runs]), runs


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("grid_points", [2 * _BLOCK - 1, 6 * _BLOCK + 7])
def test_gap_forms_match_gaps_of_the_grid_states(seed, grid_points):
    """The event scan's gaps z^T (Phi^j)^T W Phi^j z, with the state carried
    by Phi^block between blocks, against V - S of the grid states; runs
    double in blocks, and a run's cell(i) is the state at its grid point
    k0 + i - 1."""
    sys_, lyap, x_ell = plant(2 + seed, seed)
    z0 = _start(x_ell)
    step = 30.0 / float(np.linalg.norm(lyap.f, 2)) / grid_points
    gaps, runs = walked(lyap, z0, step, grid_points)
    block = min(_BLOCK, grid_points)
    assert len(gaps) == grid_points
    assert [k0 for k0, _, _ in runs] == [1 + block * (2 ** r - 1) for r in range(len(runs))]
    n = lyap.n
    states = [z0]
    for k0, zs, _ in grid_states(lyap, z0, step, grid_points):
        expected = np.array([_state_gap(lyap, z) for z in zs])
        # Rounding is relative to V + S, the terms whose difference is f.
        scale = np.array([z[:n] @ lyap.p @ z[:n] + z[2 * n:] @ lyap.p @ z[2 * n:] for z in zs])
        assert np.all(np.abs(gaps[k0 - 1:k0 - 1 + len(zs)] - expected) <= 1e-12 * scale)
        states.extend(zs)
    for k0, f, cell in runs:
        for i in (0, 1, len(f) - 1):
            want = states[k0 + i - 1]
            assert np.allclose(cell(i), want, rtol=0.0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("grid_points", [2 * _BLOCK - 1, 6 * _BLOCK + 7])
def test_packed_walk_matches_dense_forms(n, grid_points):
    """The packed walk against the dense forms of the grid steps applied to the
    state before each block: for a state vector the gaps agree within 1e-12
    (V + S); for the columns [I; 0; I] each entry of M agrees within 1e-12 of
    its Cauchy-Schwarz scale, and det M has the sign of the dense M's, except
    where the dense M is singular to within rounding."""
    sys_, lyap, x_ell = plant(n, 100 + n)
    step = 30.0 / float(np.linalg.norm(lyap.f, 2)) / grid_points
    for z0 in (_start(x_ell), _start(np.eye(n))):
        gaps, _ = walked(lyap, z0, step, grid_points)
        assert len(gaps) == grid_points
        z = z0
        for k0, zs, forms in grid_states(lyap, z0, step, grid_points):
            got = gaps[k0 - 1:k0 - 1 + len(zs)]
            if z0.ndim == 1:
                assert got.shape == (len(zs),)
                scale = v_plus_s(lyap, zs[:, :, None])[:, 0, 0]
                assert np.all(np.abs(got - (forms @ z) @ z) <= 1e-12 * scale)
            else:
                assert got.shape == (len(zs), n, n)
                want = z.T @ forms @ z
                scale = v_plus_s(lyap, zs)
                diag = np.sqrt(np.diagonal(scale, axis1=1, axis2=2))
                assert np.all(np.abs(got - want) <= 1e-12 * diag[:, :, None] * diag[:, None, :])
                signs, want_signs = np.linalg.slogdet(got)[0], np.linalg.slogdet(want)[0]
                for j in np.flatnonzero(signs != want_signs):
                    smallest = np.linalg.svd(want[j], compute_uv=False)[-1]
                    assert smallest <= TIE * np.linalg.norm(scale[j], 2)
            z = zs[-1]


@pytest.mark.parametrize("n", range(1, 7))
def test_packed_forms_hold_two_upper_triangles_per_grid_point(n):
    """Each grid point's packed form keeps the upper triangles of the 2n x 2n
    [x, e] block and of the n x n x_s block, and nothing of the zero blocks;
    the step powers behind the forms are kept with them."""
    _, lyap, _ = plant(n, n)
    forms, powers = _gap_forms(lyap, 0.01, _BLOCK)
    assert forms.shape == (_BLOCK, n * (2 * n + 1) + n * (n + 1) // 2)
    assert powers.shape == (_BLOCK, 3 * n, 3 * n)
    assert _gap_forms(lyap, 0.01, _BLOCK)[0] is forms


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
    first_segment, dt_event = True, 0.0
    while t < horizon - 1e-12:
        if dt_event is not None:
            z = _start(x)
            underflow = float(x @ p @ x) < np.finfo(float).tiny
            dt_event = None if underflow else next_event_time(sys_, lyap, x, t_max)
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
    return (np.array(times), np.array(states), np.array(v_vals), np.array(s_vals),
            tuple(event_times))


@pytest.mark.parametrize("samples", [1, 5, 20])
@pytest.mark.parametrize("n", range(1, 7))
def test_sample_hold_matches_per_sample_loop(n, samples):
    """Bit for bit, over a horizon of 8.5 first gaps, on a plant that fires
    within half the default window (50 / ||F||). A
    window of 1.5 first gaps fires events and, where the gaps grow past it,
    coasts; a window of half the first gap finds no crossing and coasts the
    whole horizon in windows."""
    sys_, lyap, x0, t_event = firing_plant(n, 20 + n, window=50.0)
    for t_max, fires in ((1.5 * t_event, True), (0.5 * t_event, False)):
        got = simulate_sample_hold(sys_, lyap, x0, 8.5 * t_event, samples, t_max)
        times, states, v_values, s_values, event_times = sample_hold_oracle(
            sys_, lyap, x0, 8.5 * t_event, samples, t_max)
        assert got.event_times == event_times
        if fires:
            assert len(event_times) > 1
        else:
            assert event_times == (0.0,) and len(got.times) - 1 > samples  # coast windows
        for name, want in (("times", times), ("states", states), ("v_values", v_values),
                           ("s_values", s_values)):
            value = getattr(got, name)
            assert value.shape == want.shape and value.dtype == want.dtype, name
            assert np.array_equal(value.view(np.int64), want.view(np.int64)), name


def test_sample_hold_below_the_horizon_slack_keeps_the_initial_sample():
    """A horizon within the loop's 1e-12 slack runs no segment; the trace
    still holds the initial sample, at which V = S."""
    sys_, lyap, x0 = plant(2, 0)
    got = simulate_sample_hold(sys_, lyap, x0, 1e-13)
    assert got.times.tolist() == [0.0] and got.event_times == (0.0,)
    assert got.states.tolist() == [x0.tolist()]
    assert got.v_values.tolist() == got.s_values.tolist() == [float(x0 @ lyap.p @ x0)]


# ---------------------------------------------------------------------------
# The block predicates against the sequential rules, on values with exact
# zeros and nans (which random plants never produce). Most blocks of a scan
# hold no crossing or sign change and return early; the explicit cases put
# such a block right before the first point that decides.
# ---------------------------------------------------------------------------

NAN = float("nan")
values = st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, NAN]), min_size=1, max_size=40)
sign_values = st.lists(st.sampled_from([-1.0, 0.0, 1.0, NAN]), min_size=1, max_size=40)
blocks = st.integers(1, 9)


def split(seq, size):
    return [(k0, np.array(seq[k0 - 1:k0 - 1 + size])) for k0 in range(1, len(seq) + 1, size)]


def block_crossing(f, size):
    f_prev = 0.0
    for k0, block in split(f, size):
        j = _first_crossing(block, f_prev, k0)
        if j >= 0:
            return k0 + j
        f_prev = block[-1]
    return None


def block_sign_change(signs, size):
    """(grid point, baseline as a string so that nan compares equal)."""
    baseline = 0.0
    for k0, block in split(signs, size):
        j, baseline = _first_sign_change(block, baseline)
        if j >= 0:
            return k0 + j, str(baseline)
    return None


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
    assert block_crossing(f, size) == expected


@settings(max_examples=300)
@given(sign_values, blocks)
def test_first_sign_change_matches_sequential_rule(signs, size):
    expected = None
    baseline = 0.0
    for kk, sign_k in enumerate(signs, start=1):
        if baseline == 0.0:
            baseline = sign_k
        elif sign_k != baseline:
            expected = (kk, str(float(baseline)))
            break
    assert block_sign_change(signs, size) == expected


@pytest.mark.parametrize("size", [1, 4])
def test_crossing_at_first_point_after_negative_block(size):
    assert block_crossing([-1.0] * size + [0.0, -1.0], size) == size + 1
    assert block_crossing([-1.0] * size + [NAN, 0.5], size) is None


@pytest.mark.parametrize("size", [1, 4])
def test_sign_change_at_first_point_after_steady_block(size):
    signs = [0.0] * size + [1.0] * size + [-1.0]
    assert block_sign_change(signs, size) == (2 * size + 1, "1.0")
    assert block_sign_change([-1.0] * size + [0.0], size) == (size + 1, "-1.0")

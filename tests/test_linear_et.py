import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from helpers import floor_with_window, random_linear_system

from etconsensus import (
    DimensionMismatch,
    InvalidParameter,
    NoRootFound,
    NotHurwitz,
    NotSPD,
    design,
    gap_matrix,
    laplacian,
    matrix_exponential,
    min_inter_event_time,
    next_event_time,
    random_balanced_digraph,
    simulate_sample_hold,
    solve_lyapunov,
    trigger_gap,
)


def scalar_toolkit():
    """A = 0, B = 1, K = -1, Q = 1, R = 1/2, A_s = -1/2; P = 1/2 by hand."""
    return design([[0.0]], [[1.0]], [[-1.0]], [[1.0]], [[0.5]], [[-0.5]])


# -- Lyapunov solve -------------------------------------------------------------

def test_solve_lyapunov_scalar():
    assert solve_lyapunov([[-1.0]], [[1.0]])[0, 0] == pytest.approx(0.5)


def test_solve_lyapunov_diagonal():
    p = solve_lyapunov(-np.eye(2), np.eye(2))
    assert np.allclose(p, 0.5 * np.eye(2))


def test_solve_lyapunov_residual_self_check():
    a = np.array([[0.0, 1.0], [-2.0, -3.0]])
    p = solve_lyapunov(a, np.eye(2))
    assert np.allclose(p, p.T)
    assert np.linalg.eigvalsh(p)[0] > 0
    assert np.linalg.norm(a.T @ p + p @ a + np.eye(2), "fro") <= 1e-9


def test_solve_lyapunov_matches_scipy(rng):
    for _ in range(20):
        n = int(rng.integers(1, 7))
        raw = rng.normal(size=(n, n))
        a = raw - (max(float(np.real(np.linalg.eigvals(raw)).max()), 0.0) + 1.0) * np.eye(n)
        gq = rng.normal(size=(n, n))
        q = gq @ gq.T + np.eye(n)
        p = solve_lyapunov(a, q)
        p_ref = scipy.linalg.solve_continuous_lyapunov(a.T, -q)
        assert np.allclose(p, p_ref, atol=1e-8)
        assert np.linalg.norm(a.T @ p + p @ a + q, "fro") <= 1e-9 * np.linalg.norm(q)


def test_solve_lyapunov_rejections():
    with pytest.raises(NotHurwitz):
        solve_lyapunov([[0.0]], [[1.0]])
    with pytest.raises(NotSPD):
        solve_lyapunov([[-1.0]], [[-1.0]])
    with pytest.raises(NotSPD):
        solve_lyapunov(-np.eye(2), [[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(DimensionMismatch):
        solve_lyapunov(-np.eye(2), np.eye(3))


# -- matrix exponential -----------------------------------------------------------

def test_expm_zero_is_identity():
    out = matrix_exponential(np.zeros((3, 3)), 1.0)
    assert np.array_equal(out, np.eye(3))


def test_expm_diagonal():
    out = matrix_exponential(np.diag([-1.0, -2.0]), 1.0)
    assert np.allclose(out, np.diag([math.exp(-1.0), math.exp(-2.0)]), rtol=1e-12)


def test_expm_nilpotent_exact():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    for t in (0.5, 1.0, 7.0):
        assert np.allclose(matrix_exponential(m, t), [[1.0, t], [0.0, 1.0]], rtol=1e-14)


def test_expm_matches_scipy(rng):
    for _ in range(25):
        n = int(rng.integers(1, 7))
        m = rng.normal(size=(n, n)) * rng.uniform(0.1, 10.0)
        t = float(rng.uniform(-2.0, 2.0))
        if np.linalg.norm(m * t, 1) > 50.0:
            m = m * (50.0 / np.linalg.norm(m * t, 1))
        ours = matrix_exponential(m, t)
        ref = scipy.linalg.expm(m * t)
        assert np.allclose(ours, ref, rtol=1e-10, atol=1e-12 * np.linalg.norm(ref))


def test_expm_matches_scipy_on_long_consensus_flows(rng):
    """exp(-L t) of balanced digraphs past the range above, as powers of
    exp(-L t / k): every entry is positive, and each is accurate relative
    to itself. The worst relative errors measured over 300 draws on each of
    four seeds were 9.4e-14 for 50 < ||L t||_1 <= 590 and 1.7e-12 for
    600 < ||L t||_1 <= 1e4, where k reaches 200."""
    for low, high, bound in ((50.0, 590.0, 1e-12), (600.0, 1e4, 4e-12)):
        for _ in range(60):
            lap = laplacian(random_balanced_digraph(int(rng.integers(2, 9)), rng))
            t = float(rng.uniform(low, high)) / np.linalg.norm(lap, 1)
            ours = matrix_exponential(-lap, t)
            ref = scipy.linalg.expm(-lap * t)
            assert np.max(np.abs(ours - ref) / ref) <= bound, (low, high)


@given(t=st.floats(-2.0, 2.0), s=st.floats(-2.0, 2.0), seed=st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_expm_semigroup_property(t, s, seed):
    m = np.random.default_rng(seed).normal(size=(3, 3))
    whole = matrix_exponential(m, t + s)
    split = matrix_exponential(m, t) @ matrix_exponential(m, s)
    assert np.allclose(whole, split, rtol=1e-9, atol=1e-9)


def test_expm_overflow_guard():
    with pytest.raises(OverflowError):
        matrix_exponential(np.eye(2) * 1000.0, 1.0)


def test_expm_takes_any_norm_whose_exponential_is_finite(rng):
    """Only an e^{M t} that is not finite raises, with no RuntimeWarning (an
    error under this suite's settings): e^{-1000 I} underflows to 0, and a
    consensus flow with ||L t||_1 = 1e6, 2e4 powers of its step, reaches the
    average 1 1^T / n (to 2.2e-10 of it, the worst measured over 200
    balanced digraphs; the error grows with the number of powers)."""
    np.testing.assert_array_equal(matrix_exponential(np.eye(2) * -1000.0, 1.0), np.zeros((2, 2)))
    for _ in range(20):
        n = int(rng.integers(2, 9))
        lap = laplacian(random_balanced_digraph(n, rng))
        flow = matrix_exponential(-lap, 1e6 / np.linalg.norm(lap, 1))
        assert np.max(np.abs(flow * n - 1.0)) <= 1e-9


# -- design -----------------------------------------------------------------------

def test_design_default_comparison_dynamics(rng):
    sys_, lyap = random_linear_system(rng)
    r = sys_.r
    residual = sys_.a_s.T @ lyap.p + lyap.p @ sys_.a_s + r
    assert np.linalg.norm(residual, "fro") <= 1e-9 * np.linalg.norm(r, "fro")
    assert np.real(np.linalg.eigvals(sys_.a_s)).max() < 0


def test_design_block_structure():
    sys_, lyap = scalar_toolkit()
    assert np.array_equal(lyap.f, [[-1.0, -1.0], [1.0, 1.0]])
    assert np.array_equal(lyap.g, [[-1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, -0.5]])
    assert lyap.p[0, 0] == pytest.approx(0.5)


def test_design_rejects_bad_setups():
    with pytest.raises(NotSPD):  # Q - R not positive definite
        design([[0.0]], [[1.0]], [[-1.0]], [[1.0]], [[1.0]])
    with pytest.raises(NotHurwitz):  # A + BK unstable
        design([[1.0]], [[1.0]], [[0.0]], [[1.0]], [[0.5]])
    with pytest.raises(InvalidParameter):  # supplied A_s solves nothing
        design([[0.0]], [[1.0]], [[-1.0]], [[1.0]], [[0.5]], [[-3.0]])


# -- gap function and event times ---------------------------------------------------

def test_trigger_gap_zero_at_reset(rng):
    sys_, lyap = random_linear_system(rng, n=3)
    for _ in range(5):
        assert trigger_gap(sys_, lyap, 0.0, rng.normal(size=3)) == 0.0


def test_scalar_event_time_matches_closed_form():
    """In one dimension f(t) = 0.5 x^2 ((1-t)^2 - e^{-t}); its positive root
    is found independently by bisecting the closed form."""
    sys_, lyap = scalar_toolkit()
    lo, hi = 1.0, 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if (1.0 - mid) ** 2 - math.exp(-mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    t1 = next_event_time(sys_, lyap, [1.0], t_max=5.0)
    assert t1 == pytest.approx(root, abs=1e-9)


def test_scalar_event_time_is_scale_invariant():
    sys_, lyap = scalar_toolkit()
    t1 = next_event_time(sys_, lyap, [1.0], t_max=5.0)
    t2 = next_event_time(sys_, lyap, [2.0], t_max=5.0)
    t3 = next_event_time(sys_, lyap, [-0.3], t_max=5.0)
    assert t1 == pytest.approx(t2, abs=1e-9)
    assert t1 == pytest.approx(t3, abs=1e-9)


def double_integrator():
    """The toolkit of configs/linear_et_2d.cfg."""
    return design([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[-2.0, -3.0]], np.eye(2),
                  0.5 * np.eye(2))


@pytest.mark.parametrize("kind", [np.float64, np.float32])
@pytest.mark.parametrize("toolkit", [scalar_toolkit, double_integrator])
def test_numpy_float_t_max_gives_the_float_results(toolkit, kind):
    """A numpy scalar t_max (5.0 and 3.0 are exact in float32) gives the
    results of the same Python float; next_event_time and so
    simulate_sample_hold used to raise TypeError on one."""
    sys_, lyap = toolkit()
    x = np.ones(lyap.n)
    t = next_event_time(sys_, lyap, x, 5.0)
    assert t is not None and next_event_time(sys_, lyap, x, kind(5.0)) == t
    assert min_inter_event_time(sys_, lyap, kind(5.0)) == min_inter_event_time(sys_, lyap, 5.0)
    want = simulate_sample_hold(sys_, lyap, x, 6.0, t_max=3.0)
    got = simulate_sample_hold(sys_, lyap, x, 6.0, t_max=kind(3.0))
    assert len(want.event_times) > 2 and got.event_times == want.event_times
    assert np.array_equal(got.times, want.times) and np.array_equal(got.v_values, want.v_values)


def test_next_event_time_zero_state_never_fires():
    sys_, lyap = scalar_toolkit()
    assert next_event_time(sys_, lyap, [0.0], t_max=5.0) is None


def test_gap_negative_before_floor(rng):
    sys_, lyap = random_linear_system(rng, n=2)
    t_min, _ = floor_with_window(sys_, lyap)
    for _ in range(20):
        x = rng.normal(size=2)
        t = float(rng.uniform(1e-6, 0.999)) * t_min
        assert trigger_gap(sys_, lyap, t, x) <= 0.0


def test_min_inter_event_time_scalar_equals_event_time():
    sys_, lyap = scalar_toolkit()
    t_min = min_inter_event_time(sys_, lyap, t_max=5.0)
    t_star = next_event_time(sys_, lyap, [1.0], t_max=5.0)
    assert t_min == pytest.approx(t_star, abs=1e-9)
    assert t_min > 0.0


def test_min_inter_event_time_residual(rng):
    for _ in range(5):
        sys_, lyap = random_linear_system(rng)
        t_min, _ = floor_with_window(sys_, lyap)
        m_matrix = gap_matrix(lyap, t_min)
        singular_values = np.linalg.svd(m_matrix, compute_uv=False)
        assert singular_values[-1] <= 1e-8 * max(1.0, singular_values[0])


def test_min_inter_event_time_reports_missing_root():
    sys_, lyap = scalar_toolkit()
    with pytest.raises(NoRootFound):
        min_inter_event_time(sys_, lyap, t_max=0.5)  # root is near 1.478


def test_event_times_respect_floor(rng):
    for _ in range(8):
        sys_, lyap = random_linear_system(rng)
        t_min, t_max = floor_with_window(sys_, lyap)
        n = lyap.n
        for _ in range(10):
            t_star = next_event_time(sys_, lyap, rng.normal(size=n), t_max)
            if t_star is not None:
                assert t_star >= t_min - 1e-8


# -- closed loop ----------------------------------------------------------------------

def test_sample_hold_performance_inequality(rng):
    for _ in range(5):
        sys_, lyap = random_linear_system(rng)
        t_min, t_max = floor_with_window(sys_, lyap)
        x0 = rng.normal(size=lyap.n)
        tr = simulate_sample_hold(sys_, lyap, x0, horizon=min(12 * t_min, 20.0), t_max=t_max)
        assert np.all(np.diff(tr.times) > 0)
        assert np.max(tr.v_values - tr.s_values) <= 1e-8
        if len(tr.gaps):
            assert tr.gaps.min() >= t_min - 1e-8


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sample_hold_rejects_non_finite_x0(bad):
    sys_, lyap = scalar_toolkit()
    with pytest.raises(InvalidParameter, match="x0 must be finite"):
        simulate_sample_hold(sys_, lyap, [bad], horizon=1.0)


#: The library entry points with valid defaults, so that one keyword at a
#: time can be made bad.
CALLS = {
    "simulate_sample_hold": lambda sys_, lyap, horizon=1.0, **kwargs: simulate_sample_hold(
        sys_, lyap, [1.0], horizon, **kwargs),
    "next_event_time": lambda sys_, lyap, t_max=10.0, **kwargs: next_event_time(
        sys_, lyap, [1.0], t_max, **kwargs),
    "min_inter_event_time": lambda sys_, lyap, t_max=10.0, **kwargs: min_inter_event_time(
        sys_, lyap, t_max, **kwargs),
}


@pytest.mark.parametrize("func, name, value", [
    # An infinite horizon used to coast in t_max windows forever, and a nan
    # one returned an empty trace.
    ("simulate_sample_hold", "horizon", math.inf),
    ("simulate_sample_hold", "horizon", math.nan),
    ("simulate_sample_hold", "samples_per_interval", 0),
    ("simulate_sample_hold", "samples_per_interval", 2.5),
    ("simulate_sample_hold", "t_max", math.inf),
    ("simulate_sample_hold", "t_max", math.nan),
    ("next_event_time", "t_max", math.inf),
    ("next_event_time", "t_max", math.nan),
    ("min_inter_event_time", "t_max", math.inf),
    ("min_inter_event_time", "t_max", math.nan),
])
def test_bad_numbers_raise_naming_the_parameter(func, name, value):
    sys_, lyap = scalar_toolkit()
    with pytest.raises(InvalidParameter, match=f"^{name} must be"):
        CALLS[func](sys_, lyap, **{name: value})


# -- joint propagation against the two flows taken separately -------------------

def separate_flows(sys_, lyap, t):
    """exp(F t) and exp(A_s t), each from scipy on its own."""
    return scipy.linalg.expm(lyap.f * t), scipy.linalg.expm(sys_.a_s * t)


def gap_scale(lyap, x, phi, phi_s):
    """Size of the two terms V and S that the gap cancels, for the state x
    carried by the flows phi and phi_s."""
    norms = np.linalg.norm(phi, 2) ** 2 + np.linalg.norm(phi_s, 2) ** 2
    return np.linalg.norm(lyap.p, 2) * float(x @ x) * norms


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), span=st.floats(0.01, 5.0))
def test_joint_flow_matches_separate_flows(n, seed, span):
    """trigger_gap, x^T M(t) x and the sampled V and S of
    simulate_sample_hold, all read off the joint state under diag(F, A_s),
    agree with exp(F t) and exp(A_s t) taken separately, to 1e-12 of the
    size of the terms."""
    rng = np.random.default_rng(seed)
    sys_, lyap = random_linear_system(rng, n)
    np.testing.assert_array_equal(lyap.g, scipy.linalg.block_diag(lyap.f, sys_.a_s))
    x_ell = rng.normal(size=n)
    p = lyap.p
    t = span / float(np.linalg.norm(lyap.f, 2))
    phi, phi_s = separate_flows(sys_, lyap, t)
    x, xs = phi[:n, :n] @ x_ell, phi_s @ x_ell
    want = float(x @ p @ x - xs @ p @ xs)
    tol = 1e-12 * gap_scale(lyap, x_ell, phi, phi_s)
    assert abs(trigger_gap(sys_, lyap, t, x_ell) - want) <= tol
    assert abs(float(x_ell @ gap_matrix(lyap, t) @ x_ell) - want) <= tol

    # Each segment restarts both flows at its first state and steps them by
    # exp(F tau) and exp(A_s tau), tau = segment / samples.
    samples = 5
    tr = simulate_sample_hold(sys_, lyap, x_ell, horizon=4.0 * t, samples_per_interval=samples)
    assert (len(tr.times) - 1) % samples == 0
    for first in range(0, len(tr.times) - 1, samples):
        x0 = tr.states[first]
        tau = (tr.times[first + samples] - tr.times[first]) / samples
        step, step_s = separate_flows(sys_, lyap, tau)
        phi, phi_s = np.eye(2 * n), np.eye(n)
        for j in range(1, samples + 1):
            phi, phi_s = step @ phi, step_s @ phi_s
            x, xs = phi[:n, :n] @ x0, phi_s @ x0
            tol = 1e-12 * gap_scale(lyap, x0, phi, phi_s)
            assert abs(tr.v_values[first + j] - float(x @ p @ x)) <= tol
            assert abs(tr.s_values[first + j] - float(xs @ p @ xs)) <= tol


def test_sample_hold_logs_an_update_at_once_when_a_rescan_starts_on_a_crossing(monkeypatch):
    """A scan from a held state can find the gap already nonnegative at its
    start (delay 0): the update is logged at the window's end, and no
    segment of zero length adds samples there. Scheduling is stubbed: the
    scans from updates find nothing in their window of 1, and the first
    rescan fires at once."""
    from etconsensus import linear_et

    sys_, lyap = random_linear_system(np.random.default_rng(3), 3)
    monkeypatch.setattr(linear_et, "next_event_time", lambda *args: None)
    delays = iter([0.0])
    monkeypatch.setattr(linear_et, "_event_delay", lambda *args, **kw: next(delays, None))
    tr = simulate_sample_hold(sys_, lyap, np.ones(3), horizon=2.5,
                              samples_per_interval=4, t_max=1.0)
    assert tr.event_times == (0.0, 1.0)
    assert np.all(np.diff(tr.times) > 0.0) and tr.times[-1] == 2.5
    assert len(tr.times) == 1 + 3 * 4


def test_sample_hold_takes_one_exponential_per_segment(monkeypatch):
    """Each segment propagates [x, e, x_s] by one exponential of G. Event
    scheduling is stubbed, so no other exponential is taken."""
    from etconsensus import linear_et

    sys_, lyap = random_linear_system(np.random.default_rng(3), 3)
    monkeypatch.setattr(linear_et, "next_event_time", lambda *args: 0.25)
    taken = []
    original = linear_et.matrix_exponential

    def counted(m, t=1.0):
        taken.append(m)
        return original(m, t)

    monkeypatch.setattr(linear_et, "matrix_exponential", counted)
    samples = 4
    tr = simulate_sample_hold(sys_, lyap, np.ones(3), horizon=1.1,
                              samples_per_interval=samples, t_max=1.0)
    segments = (len(tr.times) - 1) // samples
    assert segments == 5 and len(tr.event_times) == 5
    assert len(taken) == segments
    assert all(m is lyap.g for m in taken)

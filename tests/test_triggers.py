import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from etconsensus import (
    AgentView,
    CentralizedNorm,
    DecentralizedState,
    DimensionMismatch,
    DirectedStateDependent,
    InvalidParameter,
    IsolatedAgent,
    PeriodicStateDependent,
    StateDependent,
    TimeDependent,
    WeightedDigraph,
    eval_centralized,
    eval_decentralized_state,
    eval_directed_state_dependent,
    eval_state_dependent,
    eval_time_dependent,
    laplacian,
    max_admissible_period,
    validate_law,
)


def view_one_neighbor(x_i, xhat_i, xhat_j, w=1.0, t=0.0):
    return AgentView(
        i=0, x_i=x_i, xhat_i=xhat_i, xhat_neighbors=((1, w, xhat_j),),
        t=t, d_out_i=w, card_ni=1,
    )


# -- centralized --------------------------------------------------------------

def test_centralized_zero_error_never_fires(p2):
    lap = laplacian(p2)
    x = np.array([1.0, -1.0])
    assert not eval_centralized(0.5, x, x, lap, 2.0)


def test_centralized_threshold_on_p2(p2):
    # x = (1,-1): ||L x|| = 2 sqrt(2), threshold = 0.5 * 2 sqrt(2) / 2 = sqrt(2)/2.
    lap = laplacian(p2)
    x = np.array([1.0, -1.0])
    threshold = 0.5 * np.linalg.norm(lap @ x) / 2.0
    assert threshold == pytest.approx(math.sqrt(2.0) / 2.0)
    assert eval_centralized(0.5, x, x + np.array([1.1, -1.1]), lap, 2.0)
    small = x + np.array([0.3, -0.3])  # ||e|| ~ 0.42 < threshold
    assert not eval_centralized(0.5, x, small, lap, 2.0)


def test_centralized_boundary_fires(p2):
    lap = laplacian(p2)
    x = np.array([1.0, -1.0])
    threshold = 0.5 * np.linalg.norm(lap @ x) / 2.0
    e = threshold / math.sqrt(2.0) * np.array([1.0, -1.0])
    assert eval_centralized(0.5, x, x + e, lap, 2.0)


def test_centralized_validation(p2):
    lap = laplacian(p2)
    x = np.array([1.0, -1.0])
    with pytest.raises(DimensionMismatch):
        eval_centralized(0.5, x, np.zeros(3), lap, 2.0)
    with pytest.raises(InvalidParameter):
        eval_centralized(1.5, x, x, lap, 2.0)
    with pytest.raises(InvalidParameter):
        eval_centralized(0.5, x, x, lap, 0.0)


# -- decentralized (exact neighbor states) ------------------------------------

def test_decentralized_zero_error_no_fire():
    view = view_one_neighbor(x_i=1.0, xhat_i=1.0, xhat_j=0.0)
    assert not eval_decentralized_state(view, 0.5, 0.5, [(1, 0.0)])


def test_decentralized_threshold():
    # |N|=1, a=0.5, sigma=0.5, z=1: threshold = 0.5*0.5*0.5/1 = 0.125 on e^2.
    e = math.sqrt(0.2)
    view = view_one_neighbor(x_i=1.0, xhat_i=1.0 + e, xhat_j=0.0)
    assert eval_decentralized_state(view, 0.5, 0.5, [(1, 0.0)])
    e = math.sqrt(0.1)
    view = view_one_neighbor(x_i=1.0, xhat_i=1.0 + e, xhat_j=0.0)
    assert not eval_decentralized_state(view, 0.5, 0.5, [(1, 0.0)])


def test_decentralized_rejects_bad_a():
    view = view_one_neighbor(x_i=1.0, xhat_i=1.5, xhat_j=0.0)
    for a in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(InvalidParameter):
            eval_decentralized_state(view, 0.5, a, [(1, 0.0)])


# -- time-dependent ------------------------------------------------------------

def test_time_dependent_constant_threshold():
    assert not eval_time_dependent(0.05, 3.0, 0.1, 0.0, 1.0)
    assert eval_time_dependent(0.1, 3.0, 0.1, 0.0, 1.0)  # boundary fires


def test_time_dependent_decaying_threshold():
    # c0=0, c1=1, alpha=1, t=ln 2: threshold exp(-ln 2) = 0.5.
    assert eval_time_dependent(0.6, math.log(2.0), 0.0, 1.0, 1.0)
    assert not eval_time_dependent(0.4, math.log(2.0), 0.0, 1.0, 1.0)


def test_time_dependent_validation():
    with pytest.raises(InvalidParameter):
        eval_time_dependent(0.1, 1.0, 0.0, 0.0, 1.0)
    with pytest.raises(InvalidParameter):
        eval_time_dependent(0.1, 1.0, 0.1, 0.0, -1.0)
    with pytest.raises(InvalidParameter):
        eval_time_dependent(0.1, -1.0, 0.1, 0.0, 1.0)


# -- state-dependent (broadcast values only) -----------------------------------

def test_state_dependent_zero_threshold_fires_on_any_error():
    view = view_one_neighbor(x_i=0.9, xhat_i=1.0, xhat_j=1.0)
    assert eval_state_dependent(view, 0.5)


def test_state_dependent_threshold():
    # one neighbor, xhat_i=1, xhat_j=0, sigma=0.5: threshold = 0.125 on e^2.
    view = view_one_neighbor(x_i=1.0 - math.sqrt(0.1), xhat_i=1.0, xhat_j=0.0)
    assert not eval_state_dependent(view, 0.5)
    view = view_one_neighbor(x_i=1.0 - math.sqrt(0.13), xhat_i=1.0, xhat_j=0.0)
    assert eval_state_dependent(view, 0.5)


def test_state_dependent_never_fires_at_zero_error():
    # even at exact agreement, where the threshold is zero
    view = view_one_neighbor(x_i=1.0, xhat_i=1.0, xhat_j=1.0)
    assert not eval_state_dependent(view, 0.5)
    assert not eval_directed_state_dependent(view, 0.5)


def test_state_dependent_isolated_agent():
    view = AgentView(
        i=0, x_i=1.0, xhat_i=2.0, xhat_neighbors=(), t=0.0, d_out_i=0.0, card_ni=0
    )
    with pytest.raises(IsolatedAgent):
        eval_state_dependent(view, 0.5)
    with pytest.raises(IsolatedAgent):
        eval_directed_state_dependent(view, 0.5)


# -- directed state-dependent ---------------------------------------------------

def test_directed_threshold_with_weight():
    # w=2, xhat_i - xhat_j = 1, sigma=0.5: threshold = 0.5/(4*2) * 2 = 0.125.
    view = view_one_neighbor(x_i=1.0 - math.sqrt(0.2), xhat_i=1.0, xhat_j=0.0, w=2.0)
    assert eval_directed_state_dependent(view, 0.5)
    view = view_one_neighbor(x_i=1.0 - math.sqrt(0.1), xhat_i=1.0, xhat_j=0.0, w=2.0)
    assert not eval_directed_state_dependent(view, 0.5)


def test_directed_matches_undirected_on_unit_weights(rng):
    """With unit weights d_out = |N|, so both laws give identical verdicts."""
    for _ in range(1000):
        deg = int(rng.integers(1, 5))
        nbrs = tuple((j + 1, 1.0, float(rng.uniform(-2, 2))) for j in range(deg))
        view = AgentView(
            i=0,
            x_i=float(rng.uniform(-2, 2)),
            xhat_i=float(rng.uniform(-2, 2)),
            xhat_neighbors=nbrs,
            t=0.0,
            d_out_i=float(deg),
            card_ni=deg,
        )
        sigma = float(rng.uniform(0.05, 0.95))
        assert eval_state_dependent(view, sigma) == eval_directed_state_dependent(view, sigma)


# -- periodic admissible period --------------------------------------------------

def test_max_admissible_period_values():
    assert max_admissible_period(0.5, 1.0, 2) == pytest.approx(1.0 / 16.0)
    assert max_admissible_period(0.2, 0.5, 1) == pytest.approx(0.4)
    assert max_admissible_period(1.0 - 1e-9, 1.0, 1) < 1e-9  # sigma -> 1 collapses h*


def test_max_admissible_period_validation():
    with pytest.raises(InvalidParameter):
        max_admissible_period(1.0, 1.0, 1)
    with pytest.raises(InvalidParameter):
        max_admissible_period(0.5, 0.0, 1)
    with pytest.raises(InvalidParameter):
        max_admissible_period(0.5, 1.0, 0)


# -- law values and graph-level validation ---------------------------------------

def test_law_parameter_validation():
    with pytest.raises(InvalidParameter):
        CentralizedNorm(sigma=1.0)
    with pytest.raises(InvalidParameter):
        TimeDependent(c0=0.0, c1=0.0, alpha=1.0)
    with pytest.raises(InvalidParameter):
        PeriodicStateDependent(h=0.0)
    with pytest.raises(InvalidParameter):
        StateDependent(sigma_i=(0.5, 1.2))


@pytest.mark.parametrize("law", [StateDependent, DirectedStateDependent])
def test_zero_dimensional_sigma_is_a_scalar(law):
    assert law(sigma_i=np.array(0.5)).sigma_i == 0.5
    assert type(law(sigma_i=np.float64(0.25)).sigma_i) is float
    for bad in (np.array(1.5), np.array(0.0)):
        with pytest.raises(InvalidParameter):
            law(sigma_i=bad)
    assert DecentralizedState(a=0.2, sigma_i=np.array(0.3)).sigma_i == 0.3


def test_validate_law_against_graph(k3):
    validate_law(DecentralizedState(a=0.4), k3)  # max |N_i| = 2 -> a < 0.5
    with pytest.raises(InvalidParameter):
        validate_law(DecentralizedState(a=0.5), k3)
    with pytest.raises(InvalidParameter):
        validate_law(StateDependent(sigma_i=(0.5, 0.5)), k3)  # wrong length


def test_agent_view_invariants():
    with pytest.raises(DimensionMismatch):
        AgentView(i=0, x_i=0.0, xhat_i=0.0, xhat_neighbors=(), t=0.0,
                  d_out_i=1.0, card_ni=1)
    with pytest.raises(InvalidParameter):
        AgentView(i=0, x_i=0.0, xhat_i=0.0, xhat_neighbors=((1, 1.0, 0.0),),
                  t=0.0, d_out_i=2.0, card_ni=1)


# -- cross-cutting properties ------------------------------------------------------

@given(
    e_small=st.floats(0.0, 5.0),
    growth=st.floats(0.0, 5.0),
    xhat_i=st.floats(-3.0, 3.0),
    xhat_j=st.floats(-3.0, 3.0),
    sigma=st.floats(0.05, 0.95),
)
@settings(max_examples=200)
def test_error_growth_never_unfires_state_dependent(e_small, growth, xhat_i, xhat_j, sigma):
    """Enlarging |e_i| with broadcasts fixed can only turn the verdict on."""
    before = eval_state_dependent(
        view_one_neighbor(xhat_i - e_small, xhat_i, xhat_j), sigma
    )
    after = eval_state_dependent(
        view_one_neighbor(xhat_i - e_small - growth, xhat_i, xhat_j), sigma
    )
    if before:
        assert after or growth == 0.0


@given(
    e=st.floats(0.0, 2.0),
    extra=st.floats(0.0, 2.0),
    t=st.floats(0.0, 10.0),
    c0=st.floats(0.01, 1.0),
    c1=st.floats(0.0, 1.0),
    alpha=st.floats(0.1, 3.0),
)
@settings(max_examples=200)
def test_error_growth_never_unfires_time_dependent(e, extra, t, c0, c1, alpha):
    if eval_time_dependent(e, t, c0, c1, alpha):
        assert eval_time_dependent(e + extra, t, c0, c1, alpha) or extra == 0.0


@given(
    gamma=st.floats(0.01, 100.0),
    flip=st.booleans(),
    e=st.floats(-2.0, 2.0),
    xhat_i=st.floats(-2.0, 2.0),
    xhat_j=st.floats(-2.0, 2.0),
    sigma=st.floats(0.05, 0.95),
)
@settings(max_examples=200)
def test_joint_scaling_leaves_verdict_invariant(gamma, flip, e, xhat_i, xhat_j, sigma):
    """Both sides of the state-dependent tests are quadratic in the scale."""
    if flip:
        gamma = -gamma
    thr = sigma / 4.0 * (xhat_i - xhat_j) ** 2
    assume(abs(e * e - thr) > 1e-6 * max(1.0, abs(thr)))  # stay off the boundary
    base = view_one_neighbor(xhat_i - e, xhat_i, xhat_j)
    scaled = view_one_neighbor(gamma * (xhat_i - e), gamma * xhat_i, gamma * xhat_j)
    assert eval_state_dependent(base, sigma) == eval_state_dependent(scaled, sigma)


def test_evaluators_are_pure():
    view = view_one_neighbor(x_i=0.7, xhat_i=1.0, xhat_j=0.0)
    first = eval_state_dependent(view, 0.5)
    assert all(eval_state_dependent(view, 0.5) == first for _ in range(5))

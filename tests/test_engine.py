import math

import numpy as np
import pytest

from etconsensus import (
    ALL_AGENTS,
    CentralizedNorm,
    DecentralizedState,
    DirectedStateDependent,
    InvalidParameter,
    NotBalanced,
    NotConnected,
    PeriodicStateDependent,
    SimConfig,
    StateDependent,
    TimeDependent,
    Trace,
    WeightedDigraph,
    ZenoAbort,
    convergence_radius_time_trigger,
    events_to_csv,
    laplacian,
    min_inter_event_bound_centralized,
    random_balanced_digraph,
    random_connected_undirected,
    sim_config,
    simulate_ideal,
    simulate_triggered,
    spectral_info,
    trace_to_csv,
)
from etconsensus.engine import _CSV_BLOCK
from etconsensus.metrics import compute_run_metrics, inter_event_stats
from helpers import assert_same_csv


def gaps_of(events):
    times = {}
    for ev in events:
        ids = range(len(np.asarray(ev.value))) if ev.agent == ALL_AGENTS else [ev.agent]
        for i in ids:
            times.setdefault(i, []).append(ev.t)
    return [b - a for ts in times.values() for a, b in zip(ts, ts[1:])]


# -- ideal dynamics -----------------------------------------------------------

def test_ideal_p2_matches_closed_form(p2):
    # x(t) = (exp(-2t), -exp(-2t)) for x0 = (1, -1)
    tr = simulate_ideal(p2, [1.0, -1.0], sim_config(p2, horizon=1.0))
    assert tr.states[-1][0] == pytest.approx(math.exp(-2.0), abs=1e-6)
    assert tr.states[-1][1] == pytest.approx(-math.exp(-2.0), abs=1e-6)


def test_ideal_p2_is_exact(p2):
    """The exact propagator keeps x(t) = exp(-2t) (1, -1) to 1e-12, also
    over a truncated last step."""
    for horizon in (1.0, 1.0 + 1e-3 / 3.0):
        tr = simulate_ideal(p2, [1.0, -1.0], sim_config(p2, horizon=horizon, sample_every=7))
        expected = np.exp(-2.0 * tr.times)
        assert tr.times[-1] == horizon
        assert np.max(np.abs(tr.states[:, 0] - expected)) <= 1e-12
        assert np.max(np.abs(tr.states[:, 1] + expected)) <= 1e-12


def test_ideal_accepts_steps_beyond_the_exponential_range(k3):
    """||L dt|| = 800 exceeds what one Pade exponential accepts; the step
    is taken as a power of a shorter one, and still decays to the mean."""
    cfg = SimConfig(dt=200.0, horizon=1000.0)
    tr = simulate_ideal(k3, [1.0, 0.0, -1.0], cfg)
    assert np.max(np.abs(tr.states[1:])) <= 1e-10


@pytest.mark.parametrize("field", ["dt", "horizon"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sim_config_requires_finite_dt_and_horizon(field, bad):
    with pytest.raises(InvalidParameter, match=f"{field} must be positive and finite"):
        SimConfig(**{"dt": 0.01, "horizon": 1.0, field: bad})


def test_ideal_agreement_start_is_fixed_point(p2):
    tr = simulate_ideal(p2, [3.0, 3.0], sim_config(p2, horizon=2.0))
    assert np.all(tr.states == 3.0)


def test_ideal_conserves_state_sum(rng):
    for _ in range(5):
        g = random_connected_undirected(int(rng.integers(2, 7)), rng, w_lo=0.5, w_hi=2.0)
        x0 = rng.uniform(-2, 2, g.n)
        tr = simulate_ideal(g, x0, sim_config(g, horizon=5.0))
        sums = tr.states.sum(axis=1)
        assert np.max(np.abs(sums - sums[0])) <= 1e-9 * max(1.0, np.linalg.norm(x0))


def test_ideal_rejects_bad_graphs():
    with pytest.raises(NotBalanced):
        g = WeightedDigraph.from_edges(2, [(0, 1, 1.0)])
        simulate_ideal(g, [1.0, -1.0], SimConfig(dt=0.01, horizon=1.0))
    with pytest.raises(NotConnected):
        g = WeightedDigraph.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)], directed=False)
        simulate_ideal(g, [1.0, -1.0, 0.0, 0.0], SimConfig(dt=0.01, horizon=1.0))


# -- triggered runs ------------------------------------------------------------

def test_state_dependent_agreement_start_stays_silent(p2):
    """Zero threshold with zero error never fires, so only the t=0 bootstrap logs."""
    tr = simulate_triggered(p2, StateDependent(), [2.0, 2.0], sim_config(p2, horizon=5.0))
    assert all(ev.t == 0.0 for ev in tr.events)
    assert len(tr.events) == 2
    assert np.all(tr.states == 2.0)


def test_centralized_gap_floor_on_p2(p2):
    """On P2 the floor tau = sigma/(||L||(1+sigma)) = 1/6 is attained exactly."""
    cfg = sim_config(p2, horizon=5.0)
    tr = simulate_triggered(p2, CentralizedNorm(sigma=0.5), [1.0, -1.0], cfg)
    tau = min_inter_event_bound_centralized(p2, 0.5)
    assert tau == pytest.approx(1.0 / 6.0)
    gaps = gaps_of(tr.events)
    assert gaps and min(gaps) >= tau - cfg.dt * 1e-3
    assert min(gaps) == pytest.approx(tau, abs=1e-3)


def test_centralized_events_update_all_agents(k3):
    cfg = sim_config(k3, horizon=2.0)
    tr = simulate_triggered(k3, CentralizedNorm(sigma=0.5), [1.0, 0.0, -1.0], cfg)
    assert all(ev.agent == ALL_AGENTS for ev in tr.events)
    assert all(np.asarray(ev.value).shape == (3,) for ev in tr.events)


def test_centralized_gap_floor_random_graphs(rng):
    """Empirical floor check across random connected graphs and states."""
    for _ in range(20):
        n = int(rng.integers(2, 7))
        g = random_connected_undirected(n, rng, edge_prob=0.6, w_lo=0.5, w_hi=1.5)
        sigma = float(rng.uniform(0.1, 0.9))
        info = spectral_info(g)
        cfg = sim_config(g, horizon=8.0 / info.lambda2)
        tr = simulate_triggered(g, CentralizedNorm(sigma=sigma), rng.uniform(-1, 1, n), cfg)
        tau = min_inter_event_bound_centralized(g, sigma)
        gaps = gaps_of(tr.events)
        assert gaps and min(gaps) >= tau - cfg.dt * 1e-3


def test_time_dependent_radius_on_p2(p2):
    """c0=0.1, c1=0 on P2: disagreement settles inside r = 0.1 sqrt(2)."""
    cfg = sim_config(p2, horizon=20.0)
    tr = simulate_triggered(p2, TimeDependent(c0=0.1, c1=0.0, alpha=1.0), [1.0, -1.0], cfg)
    r = convergence_radius_time_trigger(p2, 0.1)
    assert r == pytest.approx(0.1 * math.sqrt(2.0))
    d = tr.states[-1] - tr.states[-1].mean()
    assert np.linalg.norm(d) <= r + 1e-6


def test_time_dependent_error_envelope(p2):
    """|e_i(t)| stays within the decaying threshold plus localization slack."""
    law = TimeDependent(c0=0.05, c1=0.5, alpha=1.0)
    cfg = sim_config(p2, horizon=10.0)
    tr = simulate_triggered(p2, law, [1.0, -1.0], cfg)
    rate_bound = np.max(np.abs(tr.xhats @ laplacian(p2).T))
    slack = cfg.dt * 1e-3 * rate_bound + 1e-12
    for k, t in enumerate(tr.times):
        threshold = law.c0 + law.c1 * math.exp(-law.alpha * t)
        errors = np.abs(tr.xhats[k] - tr.states[k])
        assert np.all(errors <= threshold + slack)


def test_lyapunov_nonincreasing_state_dependent(rng):
    for _ in range(5):
        g = random_connected_undirected(int(rng.integers(3, 7)), rng, edge_prob=0.7)
        tr = simulate_triggered(g, StateDependent(), rng.uniform(-1, 1, g.n),
                                sim_config(g, horizon=15.0))
        assert np.all(np.diff(tr.lyapunov) <= 1e-7)


def test_conservation_across_laws(cycle3, rng):
    laws = [
        CentralizedNorm(sigma=0.5),
        TimeDependent(c0=0.01, c1=0.2, alpha=0.5),
        StateDependent(),
        DirectedStateDependent(),
        PeriodicStateDependent(h=0.05),
        DecentralizedState(a=0.4),
    ]
    x0 = rng.uniform(-1, 1, 3)
    for law in laws:
        tr = simulate_triggered(cycle3, law, x0, sim_config(cycle3, horizon=10.0))
        sums = tr.states.sum(axis=1)
        assert np.max(np.abs(sums - sums[0])) <= 1e-8 * np.linalg.norm(x0)


def test_error_reset_after_events(p2):
    """Following each network-wide broadcast the error restarts from zero and
    grows no faster than the held control rate."""
    cfg = sim_config(p2, horizon=3.0)
    tr = simulate_triggered(p2, CentralizedNorm(sigma=0.5), [1.0, -1.0], cfg)
    rate = np.max(np.abs(tr.xhats @ laplacian(p2).T))
    for ev in tr.events:
        after = np.searchsorted(tr.times, ev.t, side="left")
        if after >= len(tr.times):
            continue
        elapsed = tr.times[after] - ev.t
        errors = np.abs(tr.xhats[after] - tr.states[after])
        assert np.all(errors <= elapsed * rate + 1e-12)


# -- periodic law ---------------------------------------------------------------

def test_periodic_events_on_grid_with_coerced_dt(cycle3):
    h = 0.0317  # deliberately not a multiple of the default dt
    cfg = sim_config(cycle3, horizon=20.0)
    tr = simulate_triggered(cycle3, PeriodicStateDependent(h=h), [1.0, 0.0, -1.0], cfg)
    fired = [ev for ev in tr.events if ev.t > 0.0]
    assert fired
    for ev in fired:
        ratio = ev.t / h
        assert abs(ratio - round(ratio)) < 1e-9
    assert min(gaps_of(tr.events)) >= h


def test_periodic_condition_holds_at_sample_instants(cycle3):
    """After each decision instant every agent satisfies the broadcast-error
    inequality with the post-decision values."""
    law = PeriodicStateDependent(h=0.05, sigma_i=0.5)
    cfg = sim_config(cycle3, horizon=10.0)
    tr = simulate_triggered(cycle3, law, [1.0, 0.0, -1.0], cfg)
    w = cycle3.weights
    d_out = w.sum(axis=1)
    for k, t in enumerate(tr.times):
        ratio = t / law.h
        if abs(ratio - round(ratio)) > 1e-9:
            continue
        x, xh = tr.states[k], tr.xhats[k]
        for i in range(3):
            nbrs = np.flatnonzero(w[i] > 0)
            thr = 0.5 / (4.0 * d_out[i]) * np.sum(w[i, nbrs] * (xh[i] - xh[nbrs]) ** 2)
            assert (xh[i] - x[i]) ** 2 <= thr + 1e-12


# -- zeno handling ----------------------------------------------------------------

def test_zeno_abort_carries_event_log(p2):
    law = DecentralizedState(a=1.0 - 1e-15, sigma_i=0.999)
    cfg = SimConfig(dt=5e-4, horizon=1e-3, zeno_floor=1e-7)
    with pytest.raises(ZenoAbort) as info:
        simulate_triggered(p2, law, [1.0, -1.0], cfg)
    assert len(info.value.events) > 10_000
    assert info.value.agent in (0, 1)


def test_zeno_flags_below_floor(p2):
    law = DecentralizedState(a=1.0 - 1e-15, sigma_i=0.999)
    cfg = SimConfig(dt=1e-4, horizon=2e-4, zeno_floor=1e-7)
    tr = simulate_triggered(p2, law, [1.0, -1.0], cfg)
    min_gap, _, suspect = inter_event_stats(tr.events, cfg.zeno_floor)
    assert suspect and min_gap < cfg.zeno_floor


# -- determinism and plumbing ------------------------------------------------------

def test_runs_are_reproducible(k3):
    cfg = sim_config(k3, horizon=5.0)
    a = simulate_triggered(k3, StateDependent(), [1.0, 0.0, -1.0], cfg)
    b = simulate_triggered(k3, StateDependent(), [1.0, 0.0, -1.0], cfg)
    assert [(e.t, e.agent, e.value) for e in a.events] == [
        (e.t, e.agent, e.value) for e in b.events
    ]
    assert np.array_equal(a.states, b.states)


def test_sim_config_validation(p2):
    with pytest.raises(InvalidParameter):
        SimConfig(dt=0.01, horizon=1.0, zeno_floor=0.5)
    with pytest.raises(InvalidParameter):
        SimConfig(dt=0.01, horizon=-1.0)
    with pytest.raises(InvalidParameter):
        simulate_triggered(p2, StateDependent(), [1.0, 2.0, 3.0], sim_config(p2, horizon=1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_x0_rejected(p2, bad):
    cfg = sim_config(p2, horizon=1.0)
    with pytest.raises(InvalidParameter, match="finite"):
        simulate_triggered(p2, StateDependent(), [bad, 1.0], cfg)
    with pytest.raises(InvalidParameter, match="finite"):
        simulate_ideal(p2, [1.0, bad], cfg)


def parent_trace_to_csv(trace):
    """The per-element formatter that ``trace_to_csv`` replaced."""
    def fmt(v):
        return repr(float(v))
    n = trace.n
    cols = ["t"] + [f"x_{i}" for i in range(n)] + [f"xhat_{i}" for i in range(n)] + ["V"]
    lines = [",".join(cols)]
    for k in range(len(trace.times)):
        row = ([fmt(trace.times[k])] + [fmt(v) for v in trace.states[k]]
               + [fmt(v) for v in trace.xhats[k]] + [fmt(trace.lyapunov[k])])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def synthetic_trace(xhats, states=None, seed=0):
    """A trace with the given xhat table (and states) and random other columns."""
    xhats = np.asarray(xhats, dtype=float)
    rng = np.random.default_rng(seed)
    rows = len(xhats)
    if states is None:
        states = rng.standard_normal(xhats.shape)
    return Trace(times=np.arange(rows) * 0.25, states=states,
                 xhats=xhats, events=(), lyapunov=rng.random(rows))


def held_rows(n, rows, changes, seed=0):
    """An xhat table that holds every entry except at ``changes``, a list of
    (row, agent) pairs at which that entry takes a new random value."""
    rng = np.random.default_rng(seed)
    xhats = np.empty((rows, n))
    xhats[0] = rng.standard_normal(n)
    fresh = np.zeros((rows, n), dtype=bool)
    for r, c in changes:
        fresh[r, c] = True
    for r in range(1, rows):
        xhats[r] = np.where(fresh[r], rng.standard_normal(n), xhats[r - 1])
    return xhats


def block_rows(n):
    """Rows per render block of an n-agent trace."""
    return max(1, _CSV_BLOCK // (2 * n + 2))


def test_trace_csv_matches_per_element_formatter(p2, k3):
    specials = [-0.0, 0.0, 1e-5, 1e16, 5e-324, -1.7976931348623157e308, 0.1, 1 / 3]
    rows = 700  # spans several render blocks of whole rows
    times = np.arange(rows) * 0.25
    states = np.resize(np.array(specials), (rows, 3))
    xhats = np.resize(np.array(specials[::-1]), (rows, 3))
    lyap = np.resize(np.array(specials[2:]), rows)
    tr = Trace(times=times, states=states, xhats=xhats, events=(), lyapunov=lyap)
    assert_same_csv(trace_to_csv(tr), parent_trace_to_csv(tr))
    run = simulate_triggered(p2, CentralizedNorm(sigma=0.5), [1.0, -1.0],
                             sim_config(p2, horizon=3.0, sample_every=7))
    assert_same_csv(trace_to_csv(run), parent_trace_to_csv(run))
    ideal = simulate_ideal(k3, [1.0, 0.0, -1.0], sim_config(k3, horizon=2.0, sample_every=3))
    assert_same_csv(trace_to_csv(ideal), parent_trace_to_csv(ideal))

    # xhat strings are cached across rows; every way the cache can go stale.
    n, b = 3, block_rows(3)
    rows = 3 * b + 5
    rng = np.random.default_rng(1)
    sparse = [(int(r), int(c)) for r, c in zip(rng.integers(1, rows, 40), rng.integers(0, n, 40))]
    signed = np.zeros((8, 4))
    signed[1::2, 2] = -0.0  # 0.0 -> -0.0 -> 0.0 -> ... in one column: == sees no change
    signed[5, 0] = -0.0
    edges = [(b - 1, 0), (b, 1), (2 * b - 1, 2), (2 * b, 0), (2 * b, 2), (3 * b, 1), (rows - 1, 0)]
    dense = rng.standard_normal((rows, n))
    flipped_zeros = np.zeros((3 * block_rows(1) + 1, 1))
    flipped_zeros[[block_rows(1) - 1, 2 * block_rows(1)], 0] = -0.0
    early = [(r, c) for r, c in sparse if r < 2 * b]
    dense_then_held = np.vstack((rng.standard_normal((b + 3, n)), held_rows(n, 2 * b, early)))
    cases = {
        "held": held_rows(n, rows, []),
        "sparse": held_rows(n, rows, sparse),
        "signed zeros": signed,
        "signed zeros across blocks": flipped_zeros,
        "block edges": held_rows(n, rows, edges),
        "one agent": held_rows(1, 3 * block_rows(1) + 2, [(5, 0), (block_rows(1), 0)]),
        "one row": rng.standard_normal((1, n)),
        "one row, one agent": np.array([[-0.0]]),
        "all change": dense,
        "all change, then held": dense_then_held,
        "held, all change, held": np.vstack((held_rows(n, b, [(3, 1)]), dense[:b],
                                            np.repeat(dense[b - 1:b], b, axis=0))),
        "one row per block": held_rows(3000, 5, [(1, 0), (2, 2999), (3, 7), (4, 7)]),
    }
    signed_state = dense.copy()
    signed_state[b + 2, 1] = 0.0
    signed_xhat = signed_state.copy()
    signed_xhat[b + 2, 1] = -0.0
    for name, table in cases.items():
        tr = synthetic_trace(table)
        assert_same_csv(trace_to_csv(tr), parent_trace_to_csv(tr), name)
    for name, xhat, state in (
        ("xhat is the state", dense, dense),
        ("xhat is the state but for a signed zero", signed_xhat, signed_state),
    ):
        tr = synthetic_trace(xhat, state)
        assert_same_csv(trace_to_csv(tr), parent_trace_to_csv(tr), name)


def balanced_run(n, seed, **kwargs):
    g = random_balanced_digraph(n, np.random.default_rng(seed), extra_cycles=2)
    x0 = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, n)
    return simulate_triggered(g, DirectedStateDependent(sigma_i=0.5), x0,
                              sim_config(g, horizon=1.0, dt=1e-3, **kwargs))


@pytest.mark.parametrize("make", [
    pytest.param(lambda k3: balanced_run(10, 3), id="directed-n10"),
    pytest.param(lambda k3: balanced_run(50, 4), id="directed-n50"),
    pytest.param(lambda k3: balanced_run(10, 5, sample_every=3), id="directed-every3"),
    pytest.param(lambda k3: balanced_run(50, 6, sample_every=7), id="directed-every7"),
    pytest.param(lambda k3: simulate_triggered(
        k3, CentralizedNorm(sigma=0.5), [0.3, -0.9, 0.5], sim_config(k3, horizon=5.0)),
        id="centralized-all"),
    pytest.param(lambda k3: simulate_ideal(
        k3, [1.0, 0.0, -1.0], sim_config(k3, horizon=5.0)), id="ideal"),
])
def test_trace_csv_matches_per_element_formatter_on_runs(make, k3):
    tr = make(k3)
    assert len(tr.times) > block_rows(tr.n)
    assert_same_csv(trace_to_csv(tr), parent_trace_to_csv(tr))


def test_csv_export_shapes(p2):
    cfg = sim_config(p2, horizon=1.0, sample_every=10)
    tr = simulate_triggered(p2, CentralizedNorm(sigma=0.5), [1.0, -1.0], cfg)
    csv = trace_to_csv(tr)
    lines = csv.strip().splitlines()
    assert lines[0] == "t,x_0,x_1,xhat_0,xhat_1,V"
    assert len(lines) == len(tr.times) + 1
    ev = events_to_csv(tr.events).strip().splitlines()
    assert ev[0] == "t,agent,value"
    assert ev[1].startswith("0.0,ALL,")

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etconsensus import (
    DimensionMismatch,
    EventRecord,
    InsufficientDecay,
    StateDependent,
    Trace,
    WeightedDigraph,
    disagreement,
    fit_decay_rate,
    inter_event_stats,
    laplacian,
    lyapunov_edge,
    random_connected_undirected,
    sim_config,
    simulate_ideal,
    simulate_triggered,
    spectral_info,
)
from etconsensus.config import random_x0
from etconsensus.engine import ALL_AGENTS
from etconsensus.metrics import (
    compute_run_metrics,
    metrics_csv_header,
    metrics_csv_row,
    metrics_kv_block,
    parse_metrics_csv,
)


def test_disagreement_values():
    assert disagreement([1.0, -1.0]) == pytest.approx(math.sqrt(2.0))
    assert disagreement([4.2, 4.2, 4.2]) == 0.0
    assert disagreement([1.0, 0.0, 0.0]) == pytest.approx(math.sqrt(6.0) / 3.0)


@given(
    x=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=8),
    c=st.floats(-50.0, 50.0),
)
@settings(max_examples=200)
def test_disagreement_shift_invariant(x, c):
    shifted = [v + c for v in x]
    assert disagreement(shifted) == pytest.approx(disagreement(x), abs=1e-9)


def test_lyapunov_edge_values(p2, k3):
    assert lyapunov_edge([1.0, -1.0], laplacian(p2)) == pytest.approx(4.0)
    assert lyapunov_edge([2.0, 2.0], laplacian(p2)) == pytest.approx(0.0, abs=1e-12)
    assert lyapunov_edge([1.0, 0.0, 0.0], laplacian(k3)) == pytest.approx(2.0)
    with pytest.raises(DimensionMismatch):
        lyapunov_edge([1.0, 0.0, 0.0], laplacian(p2))


def test_lyapunov_edge_dominates_spectral_gap(rng):
    for _ in range(10):
        g = random_connected_undirected(int(rng.integers(2, 8)), rng, w_lo=0.5, w_hi=2.0)
        lam2 = spectral_info(g).lambda2
        lap = laplacian(g)
        for _ in range(20):
            x = rng.uniform(-3, 3, g.n)
            assert lyapunov_edge(x, lap) >= lam2 * disagreement(x) ** 2 - 1e-9


def test_fit_decay_rate_ideal(p2, k3):
    tr = simulate_ideal(p2, [1.0, -1.0], sim_config(p2, horizon=10.0))
    assert fit_decay_rate(tr) == pytest.approx(2.0, rel=0.05)
    tr = simulate_ideal(k3, [1.0, 0.0, -1.0], sim_config(k3, horizon=7.0))
    assert fit_decay_rate(tr) == pytest.approx(3.0, rel=0.05)


def test_fit_decay_rate_ideal_one_mode_graphs(k3, cycle3):
    """On unit K3, unit K4 and the unit directed 3-cycle the disagreement
    decays as exactly one exponential, at lambda_2, so the fit over
    30 / lambda_2 recovers lambda_2 to the accuracy of the steps exp(-L dt),
    at the default dt and at 1e-3, 1e-2 and 0.05. x0 is that of
    configs/ideal_k3.cfg. The largest error measured is 2.3e-10 relative
    (K3 at dt = 0.05): the steps propagate the offset from the mean, so no
    O(1) consensus component's rounding floors the disagreement."""
    k4 = WeightedDigraph.from_edges(
        4, [(i, j, 1.0) for i, j in itertools.combinations(range(4), 2)], directed=False
    )
    for g in (k3, k4, cycle3):
        lam2 = spectral_info(g).lambda2
        for dt in (None, 1e-3, 1e-2, 0.05):
            tr = simulate_ideal(g, random_x0(7, -1.0, 1.0, g.n),
                                sim_config(g, horizon=30.0 / lam2, dt=dt))
            assert fit_decay_rate(tr) == pytest.approx(lam2, rel=1e-9, abs=0.0)


def test_fit_decay_rate_unit_directed_cycle_from_a_corner(cycle3):
    """From x0 = (1, 0, 0), whose mean is not a float, the fit over 20 s at
    dt = 1e-3 is within 1e-10 of lambda_2 = 1.5 (measured 1.6e-11)."""
    tr = simulate_ideal(cycle3, [1.0, 0.0, 0.0], sim_config(cycle3, horizon=20.0, dt=1e-3))
    assert fit_decay_rate(tr) == pytest.approx(1.5, rel=1e-10, abs=0.0)


def test_fit_decay_rate_requires_decay(p2):
    tr = simulate_ideal(p2, [1.0, 1.0], sim_config(p2, horizon=5.0))
    assert np.all(tr.states == 1.0)
    with pytest.raises(InsufficientDecay):
        fit_decay_rate(tr)


def test_ideal_agreement_states_stay_fixed_exactly(rng):
    """An agreement state is a fixed point bit for bit, also where the mean
    of x0 rounds away from its entries (0.1 on three agents)."""
    assert np.mean([0.1] * 3) != 0.1
    for n in (3, 5, 8):
        g = random_connected_undirected(n, rng)
        for c in (0.1, -7.3, 1e-300, 3e8, *rng.uniform(-10.0, 10.0, 5)):
            tr = simulate_ideal(g, np.full(n, c), sim_config(g, horizon=3.0, dt=0.05))
            assert np.all(tr.states == c)


def test_fit_decay_rate_within_spectral_bracket(rng):
    for _ in range(6):
        g = random_connected_undirected(int(rng.integers(2, 7)), rng, w_lo=0.5, w_hi=1.5)
        info = spectral_info(g)
        tr = simulate_ideal(g, rng.uniform(-1, 1, g.n), sim_config(g, horizon=20.0 / info.lambda2))
        rate = fit_decay_rate(tr)
        assert 0.9 * info.lambda2 <= rate <= 1.1 * info.lambda_n


def test_fit_decay_rate_matches_per_row_disagreement(rng):
    """The row-wise disagreement agrees with ``disagreement`` row by row, and
    the fitted rate with a fit on those per-row values."""
    for _ in range(5):
        g = random_connected_undirected(int(rng.integers(2, 7)), rng, edge_prob=0.6)
        tr = simulate_triggered(g, StateDependent(), rng.uniform(-1, 1, g.n),
                                sim_config(g, horizon=15.0, dt=3 * 0.01 / spectral_info(g).lambda_n))
        per_row = np.array([disagreement(row) for row in tr.states])
        rows = np.linalg.norm(tr.states - tr.states.mean(axis=1, keepdims=True), axis=1)
        assert np.allclose(rows, per_row, rtol=4e-16, atol=0.0)
        mask = (per_row >= 1e-10) & (per_row <= 0.5 * per_row[0])
        slope = np.polyfit(tr.times[mask], np.log(per_row[mask]), 1)[0]
        assert fit_decay_rate(tr) == pytest.approx(-slope, rel=1e-12)


def test_inter_event_stats_conventions():
    one_each = [EventRecord(0.0, 0, 1.0), EventRecord(0.0, 1, 2.0)]
    min_gap, mean_gap, suspect = inter_event_stats(one_each, 1e-6)
    assert min_gap == math.inf and mean_gap == math.inf and not suspect

    two = [EventRecord(0.0, 0, 1.0), EventRecord(0.2, 0, 1.0), EventRecord(0.5, 0, 1.0)]
    min_gap, mean_gap, suspect = inter_event_stats(two, 1e-6)
    assert min_gap == pytest.approx(0.2)
    assert mean_gap == pytest.approx(0.25)
    assert not suspect

    tight = [EventRecord(0.0, 0, 1.0), EventRecord(1e-9, 0, 1.0)]
    assert inter_event_stats(tight, 1e-6)[2] is True

    assert inter_event_stats([], 1e-6) == (math.inf, math.inf, False)


def test_inter_event_stats_expands_network_events():
    events = [
        EventRecord(0.0, ALL_AGENTS, np.array([1.0, 2.0])),
        EventRecord(0.3, ALL_AGENTS, np.array([1.0, 2.0])),
    ]
    min_gap, mean_gap, _ = inter_event_stats(events, 1e-6)
    assert min_gap == pytest.approx(0.3) and mean_gap == pytest.approx(0.3)


def test_compute_run_metrics_counts(p2):
    cfg = sim_config(p2, horizon=10.0)
    tr = simulate_triggered(p2, StateDependent(), [1.0, -1.0], cfg)
    m = compute_run_metrics(tr, cfg.zeno_floor)
    assert m.events_total == sum(m.events_per_agent)
    assert len(m.events_per_agent) == 2
    assert m.min_gap <= m.mean_gap
    assert m.final_disagreement < 1e-4
    assert not m.zeno_suspect


def test_events_per_agent_counts_network_events_once_per_agent():
    """An ALL event counts once for every agent, and an agent that never
    fires counts 0; the gap statistics are those of inter_event_stats."""
    all_three = np.array([1.0, 2.0, 3.0])
    logs = {
        (3, 2, 4): (EventRecord(0.0, ALL_AGENTS, all_three), EventRecord(0.25, 2, 2.5),
                    EventRecord(0.5, ALL_AGENTS, all_three), EventRecord(0.75, 2, 2.5),
                    EventRecord(1.0, 0, 1.5)),
        (2, 0, 1): (EventRecord(0.0, 0, 1.0), EventRecord(0.0, 2, 3.0),
                    EventRecord(0.5, 0, 1.5)),
        (0, 0, 0): (),
    }
    for counts, events in logs.items():
        tr = Trace(times=[0.0, 1.0], states=np.ones((2, 3)), events=events, lyapunov=[0.0, 0.0])
        m = compute_run_metrics(tr, 1e-6)
        assert m.events_per_agent == counts
        assert m.events_total == sum(counts)
        assert (m.min_gap, m.mean_gap, m.zeno_suspect) == inter_event_stats(events, 1e-6)


def test_metrics_serialization_roundtrip(p2):
    cfg = sim_config(p2, horizon=5.0)
    tr = simulate_triggered(p2, StateDependent(), [1.0, -1.0], cfg)
    m = compute_run_metrics(tr, cfg.zeno_floor)
    text = metrics_csv_header(("law.sigma",)) + "\n" + metrics_csv_row(m, ("0.5",)) + "\n"
    extra, rows = parse_metrics_csv(text)
    assert extra == ("law.sigma",)
    assert rows[0][0] == ("0.5",)
    assert rows[0][1] == m

    block = metrics_kv_block(m)
    assert f"events_total={m.events_total}" in block
    assert block.endswith("\n")

"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Tolerances are pinned here; random ensembles are seeded so repeated
runs are identical.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from helpers import floor_with_window, random_linear_system

from etconsensus import (
    CentralizedNorm,
    DecentralizedState,
    DirectedStateDependent,
    PeriodicStateDependent,
    SimConfig,
    StateDependent,
    TimeDependent,
    WeightedDigraph,
    convergence_radius_time_trigger,
    gap_matrix,
    max_admissible_period,
    min_inter_event_bound_centralized,
    next_event_time,
    random_balanced_digraph,
    random_connected_undirected,
    random_x0,
    sim_config,
    simulate_ideal,
    simulate_sample_hold,
    simulate_triggered,
    spectral_info,
)
from etconsensus.cli import main as cli_main
from etconsensus.metrics import compute_run_metrics

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {name}"


def p2_graph():
    return WeightedDigraph.from_edges(2, [(0, 1, 1.0)], directed=False)


def k3_graph():
    return WeightedDigraph.from_edges(
        3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)], directed=False
    )


def test_criterion_1_ideal_consensus():
    """20 random connected undirected graphs (n <= 6): disagreement <= 1e-6 by
    T = 20/lambda2, conservation <= 1e-8, fitted rate >= 0.9 lambda2."""
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(20):
        n = int(rng.integers(2, 7))
        g = random_connected_undirected(n, rng, edge_prob=0.5, w_lo=0.5, w_hi=1.5)
        info = spectral_info(g)
        cfg = sim_config(g, horizon=20.0 / info.lambda2)
        tr = simulate_ideal(g, rng.uniform(-1, 1, n), cfg)
        m = compute_run_metrics(tr, cfg.zeno_floor)
        ok &= m.final_disagreement <= 1e-6
        ok &= m.conservation_error <= 1e-8
        ok &= m.decay_rate >= 0.9 * info.lambda2
    report("1 ideal-consensus", ok)


def test_criterion_2_centralized_gap_floor():
    """sigma in {0.1, 0.5, 0.9} on P2, K3, and a random 5-node graph: every
    inter-event gap >= tau - dt / 1000 and consensus to 1e-4."""
    rng = np.random.default_rng(1205)
    graphs = [p2_graph(), k3_graph(),
              random_connected_undirected(5, rng, edge_prob=0.6)]
    ok = True
    for g in graphs:
        info = spectral_info(g)
        x0 = random_x0(42, -1, 1, g.n)
        for sigma in (0.1, 0.5, 0.9):
            cfg = sim_config(g, horizon=14.0 / info.lambda2)
            tr = simulate_triggered(g, CentralizedNorm(sigma=sigma), x0, cfg)
            m = compute_run_metrics(tr, cfg.zeno_floor)
            tau = min_inter_event_bound_centralized(g, sigma)
            ok &= m.min_gap >= tau - cfg.dt * 1e-3
            ok &= m.final_disagreement <= 1e-4
    report("2 centralized-gap-floor", ok)


def test_criterion_3_time_dependent_radius():
    """c0 = 0.1, c1 = 0.5, alpha = lambda2/2 on P2 and K3: disagreement at
    T = 50 within the radius; with c0 = 0: within 1e-3 and no Zeno flag."""
    ok = True
    for g in (p2_graph(), k3_graph()):
        info = spectral_info(g)
        x0 = random_x0(5, -1, 1, g.n)
        cfg = sim_config(g, horizon=50.0)
        alpha = 0.5 * info.lambda2
        tr = simulate_triggered(g, TimeDependent(c0=0.1, c1=0.5, alpha=alpha), x0, cfg)
        m = compute_run_metrics(tr, cfg.zeno_floor)
        ok &= m.final_disagreement <= convergence_radius_time_trigger(g, 0.1) + 1e-6
        tr0 = simulate_triggered(g, TimeDependent(c0=0.0, c1=0.5, alpha=alpha), x0, cfg)
        m0 = compute_run_metrics(tr0, cfg.zeno_floor)
        ok &= m0.final_disagreement <= 1e-3
        ok &= not m0.zeno_suspect
    report("3 time-dependent-radius", ok)


def test_criterion_4_state_dependent_descent():
    """10 random undirected graphs: the disagreement Lyapunov sequence never
    increases (per-step tolerance 1e-7) and consensus to 1e-4 by T = 30."""
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(10):
        n = int(rng.integers(3, 7))
        g = random_connected_undirected(n, rng, edge_prob=0.7)
        cfg = sim_config(g, horizon=30.0)
        tr = simulate_triggered(g, StateDependent(), rng.uniform(-1, 1, n), cfg)
        m = compute_run_metrics(tr, cfg.zeno_floor)
        ok &= bool(np.all(np.diff(tr.lyapunov) <= 1e-7))
        ok &= m.final_disagreement <= 1e-4
    report("4 state-dependent-descent", ok)


def test_criterion_5_directed_law():
    """10 random weight-balanced digraphs built from cycle superpositions:
    consensus to 1e-4 with conserved sum; on unit-weight undirected graphs the
    directed law reproduces the undirected law's event times."""
    rng = np.random.default_rng(505)
    ok = True
    for _ in range(10):
        n = int(rng.integers(3, 7))
        g = random_balanced_digraph(n, rng, extra_cycles=2)
        info = spectral_info(g)
        cfg = sim_config(g, horizon=max(30.0, 22.0 / info.lambda2))
        tr = simulate_triggered(g, DirectedStateDependent(), rng.uniform(-1, 1, n), cfg)
        m = compute_run_metrics(tr, cfg.zeno_floor)
        ok &= m.final_disagreement <= 1e-4
        ok &= m.conservation_error <= 1e-8
    for seed in (9, 10, 11):
        g = random_connected_undirected(4, np.random.default_rng(seed), edge_prob=0.7)
        x0 = random_x0(seed, -1, 1, 4)
        cfg = sim_config(g, horizon=10.0)
        directed = simulate_triggered(g, DirectedStateDependent(), x0, cfg)
        undirected = simulate_triggered(g, StateDependent(), x0, cfg)
        ok &= len(directed.events) == len(undirected.events)
        ok &= all(
            abs(a.t - b.t) <= cfg.dt * 1e-3 and a.agent == b.agent
            for a, b in zip(directed.events, undirected.events)
        )
    report("5 directed-law", ok)


def test_criterion_6_periodic_law():
    """h = h*/2: consensus to 1e-4 by T = 50, every event exactly on the
    h-grid, and the minimum gap at least h by construction."""
    rng = np.random.default_rng(606)
    ok = True
    for g in (k3_graph(), random_balanced_digraph(5, rng, extra_cycles=2)):
        h_star = max_admissible_period(0.5, g.max_weight, g.max_out_neighbors)
        law = PeriodicStateDependent(h=0.5 * h_star, sigma_i=0.5)
        cfg = sim_config(g, horizon=50.0)
        tr = simulate_triggered(g, law, rng.uniform(-1, 1, g.n), cfg)
        m = compute_run_metrics(tr, cfg.zeno_floor)
        ok &= m.final_disagreement <= 1e-4
        fired = [ev for ev in tr.events if ev.t > 0.0]
        ok &= bool(fired)
        ok &= all(abs(ev.t / law.h - round(ev.t / law.h)) < 1e-9 for ev in fired)
        ok &= m.min_gap >= law.h
    report("6 periodic-law", ok)


def test_criterion_7_linear_et_toolkit():
    """20 random stabilized plants (n <= 4), 20 initial states each: scheduled
    event times never undershoot the certified floor, M(t_min) is singular to
    1e-8 (relative), and the closed loop keeps V <= S + 1e-8."""
    rng = np.random.default_rng(707)
    ok = True
    for _ in range(20):
        sys_, lyap = random_linear_system(rng, n=int(rng.integers(1, 5)))
        t_min, t_max = floor_with_window(sys_, lyap)
        ok &= t_min > 0.0
        singular_values = np.linalg.svd(gap_matrix(lyap, t_min), compute_uv=False)
        ok &= singular_values[-1] <= 1e-8 * max(1.0, singular_values[0])
        for _ in range(20):
            t_star = next_event_time(sys_, lyap, rng.normal(size=lyap.n), t_max)
            if t_star is not None:
                ok &= t_star >= t_min - 1e-8
        tr = simulate_sample_hold(
            sys_, lyap, rng.normal(size=lyap.n), horizon=min(10 * t_min, 20.0), t_max=t_max
        )
        ok &= float(np.max(tr.v_values - tr.s_values)) <= 1e-8
    report("7 linear-et-toolkit", ok)


def test_criterion_8_decentralized_and_zeno_flag():
    """Exact-state law reaches consensus; the adversarial two-agent run with
    sigma_i = 0.999 and a at the edge of its interval drives gaps below the
    1e-7 floor and must come back flagged."""
    g = p2_graph()
    cfg = sim_config(g, horizon=12.0)
    tr = simulate_triggered(g, DecentralizedState(a=0.5, sigma_i=0.5), [1.0, -1.0], cfg)
    m = compute_run_metrics(tr, cfg.zeno_floor)
    ok = m.final_disagreement <= 1e-4
    ok &= m.zeno_suspect == (m.min_gap < cfg.zeno_floor)

    adversarial = DecentralizedState(a=1.0 - 1e-15, sigma_i=0.999)
    zcfg = SimConfig(dt=1e-4, horizon=2e-4, zeno_floor=1e-7)
    trz = simulate_triggered(g, adversarial, [1.0, -1.0], zcfg)
    mz = compute_run_metrics(trz, zcfg.zeno_floor)
    ok &= mz.min_gap < zcfg.zeno_floor
    ok &= mz.zeno_suspect
    report("8 decentralized-zeno-flag", ok)


@pytest.mark.parametrize(
    "config, output",
    [
        ("ideal_k3.cfg", "metrics.csv"),
        ("centralized_k3.cfg", "metrics.csv"),
        ("decentralized_p2.cfg", "metrics.csv"),
        ("time_dependent_p2.cfg", "metrics.csv"),
        ("state_dependent_p2.cfg", "metrics.csv"),
        ("directed_cycle5.cfg", "metrics.csv"),
        ("periodic_cycle5.cfg", "metrics.csv"),
        ("zeno_adversarial.cfg", "metrics.csv"),
        ("linear_et_2d.cfg", "linear_et_trace.csv"),
    ],
)
def test_criterion_9_deterministic_metrics(tmp_path, config, output):
    """Repeated runs of every criterion's config produce byte-identical metrics."""
    command = "linear-et" if config.startswith("linear_et") else "run"
    path = CONFIG_DIR / config
    code_a = cli_main([command, str(path), "--quiet", "--output-dir", str(tmp_path / "a")])
    code_b = cli_main([command, str(path), "--quiet", "--output-dir", str(tmp_path / "b")])
    ok = code_a == 0 and code_b == 0
    ok &= (tmp_path / "a" / output).read_bytes() == (tmp_path / "b" / output).read_bytes()
    report(f"9 determinism[{config}]", ok)

"""The engine's next-event kernels and event loop.

Each law's kernel returns an agent's delay to its next firing time from an
anchor at which its predicate does not hold. The scalar ``eval_*``
evaluators are the reference: they must fire the agent at the returned
delay, and at no delay before it that the state resolves. The event loop
is compared with 50-digit decimal runs of the directed and periodic laws.
"""

import itertools
import math
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_firing_rule import anchored, oracle_fired

from etconsensus import (
    ALL_AGENTS,
    CentralizedNorm,
    DecentralizedState,
    DirectedStateDependent,
    PeriodicStateDependent,
    StateDependent,
    TimeDependent,
    max_admissible_period,
    per_agent_sigmas,
    random_balanced_digraph,
    random_connected_undirected,
    sim_config,
    simulate_triggered,
    spectral_info,
)
from etconsensus import engine
from etconsensus.config import load_config
from etconsensus.engine import _law_rule


def random_graph(rng, n):
    if rng.random() < 0.5:
        return random_balanced_digraph(n, rng, extra_cycles=int(rng.integers(0, 4)))
    return random_connected_undirected(n, rng, edge_prob=float(rng.uniform(0.0, 1.0)))


def difference_velocity(g, xhat):
    """v_i = -sum_j w_ij (xhat_i - xhat_j), summed in ascending j."""
    v = np.zeros(g.n)
    for i in range(g.n):
        total = 0.0
        for j in np.flatnonzero(g.weights[i] > 0.0):
            total += g.weights[i, j] * (xhat[i] - xhat[j])
        v[i] = -total
    return v


def laws_for(rng, g):
    n = g.n
    sigma_i = tuple(rng.uniform(0.05, 0.95, n))
    max_card = int((g.weights > 0.0).sum(axis=1).max())
    return [
        CentralizedNorm(sigma=float(rng.uniform(0.05, 0.95))),
        DecentralizedState(a=float(rng.uniform(0.05, 0.95)) / max_card, sigma_i=sigma_i),
        TimeDependent(c0=float(rng.choice([0.0, rng.uniform(0.0, 0.1)])),
                      c1=float(rng.uniform(0.01, 0.5)),
                      alpha=float(rng.uniform(0.02, 1.0) * 5.0)),
        StateDependent(sigma_i=sigma_i),
        DirectedStateDependent(sigma_i=sigma_i),
    ]


def anchor(law, g, t, x, xhat):
    """Cascade to a fixpoint with the scalar oracle: fire the lowest agent
    whose predicate holds until none does."""
    xhat = xhat.copy()
    while True:
        ready = oracle_fired(law, g, t, x, xhat)
        if not ready:
            return xhat
        if ready[0] == ALL_AGENTS:
            xhat[:] = x
        else:
            xhat[ready[0]] = x[ready[0]]


def fires_at(law, g, t, x, xhat, v, agent, d):
    ready = oracle_fired(law, g, t + d, x + d * v, xhat)
    return (ALL_AGENTS if isinstance(law, CentralizedNorm) else agent) in ready


def ulp_time(x, xhat, v, network):
    """Delay over which an agent's error moves by one ulp of |x_i| + |xhat_i|
    (for the network-wide law, of the largest such sum at the largest |v_i|;
    0 for an agent at rest): finer instants than a few of these are not
    resolved by the state."""
    scale, speed = np.abs(x) + np.abs(xhat), np.abs(v)
    if network:
        scale, speed = scale.max(keepdims=True), speed.max(keepdims=True)
    out = np.zeros(len(speed))
    np.divide(np.spacing(scale), speed, out=out, where=speed > 0.0)
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7), t=st.floats(0.0, 5.0))
def test_kernels_give_first_firing_instant(seed, n, t):
    """At the returned delay the scalar evaluator fires the agent; it does
    not fire at any earlier delay, up to a relative 1e-9 or four ulps of
    state motion, whichever is larger."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n)
    x = rng.uniform(-1.0, 1.0, n)
    # Ordinary errors, zero errors, and (at random) an agreement state.
    xhat = x + rng.normal(0.0, 0.2, n) * (rng.random(n) < 0.7)
    if rng.random() < 0.1:
        xhat = x = np.full(n, x[0])
    for law in laws_for(rng, g):
        xh = anchor(law, g, t, x, xhat)
        v = difference_velocity(g, xh)
        rule = _law_rule(g, law)
        a = anchored(rule, t, x, xh)
        assert np.array_equal(a.v, v)
        delays = np.array([rule.delay(u, a) for u in range(len(rule.members))])
        assert np.all(delays >= 0.0)
        res = ulp_time(x, xh, v, isinstance(law, CentralizedNorm))
        for agent, s in enumerate(delays):
            if not math.isfinite(s):
                for d in (1e-3, 0.1, 1.0, 10.0):
                    assert not fires_at(law, g, t, x, xh, v, agent, d)
                continue
            assert fires_at(law, g, t, x, xh, v, agent, s), (law, agent, s)
            early = s - max(1e-9 * s, 4.0 * res[agent])
            if early > 0.0:
                assert not fires_at(law, g, t, x, xh, v, agent, early)
                for d in early * rng.uniform(0.0, 1.0, 8):
                    assert not fires_at(law, g, t, x, xh, v, agent, d)


def exact_directed_events(g, sigma, x0, horizon):
    """(t, agent, value, spread of x) of every broadcast after t = 0 under the
    directed state-dependent law, in 50-digit decimal arithmetic: the same
    event loop with exact roots, cascades in ascending agent id."""
    n = g.n
    with localcontext() as ctx:
        ctx.prec = 50
        w = [[Decimal(float(v)) for v in row] for row in g.weights]
        d_out = [sum(row) for row in w]
        sig = [Decimal(float(s)) for s in sigma]
        x = [Decimal(float(v)) for v in x0]
        xh = list(x)
        t, end = Decimal(0), Decimal(float(horizon))
        slack = 1 - Decimal(10) ** -30

        def thr(i):
            return sig[i] * sum(w[i][j] * (xh[i] - xh[j]) ** 2 for j in range(n)) / (4 * d_out[i])

        out = []
        while True:
            v = [-sum(w[i][j] * (xh[i] - xh[j]) for j in range(n)) for i in range(n)]
            # |e - s v| reaches sqrt(thr) at s = (sqrt(thr) + e sign(v)) / |v|.
            delays = [(thr(i).sqrt() + (xh[i] - x[i]) * (1 if v[i] > 0 else -1)) / abs(v[i])
                      for i in range(n) if v[i] != 0]
            if not delays or t + min(delays) > end:
                return out
            s = min(delays)
            t += s
            x = [x[j] + s * v[j] for j in range(n)]
            while True:
                ready = [j for j in range(n)
                         if xh[j] != x[j] and (xh[j] - x[j]) ** 2 >= thr(j) * slack]
                if not ready:
                    break
                xh[ready[0]] = x[ready[0]]
                out.append((float(t), ready[0], float(x[ready[0]]), float(max(x) - min(x))))


def exact_periodic_events(g, sigma, h, x0, horizon):
    """(multiple index k, agent, value, spread of x) of every broadcast after
    t = 0 under the periodic law, in 50-digit decimal arithmetic: the state
    steps by h from each multiple k h to the next, then the lowest agent whose
    predicate holds fires until none does (the cascade in ascending id)."""
    n = g.n
    with localcontext() as ctx:
        ctx.prec = 50
        w = [[Decimal(float(v)) for v in row] for row in g.weights]
        d_out = [sum(row) for row in w]
        sig = [Decimal(float(s)) for s in sigma]
        x = [Decimal(float(v)) for v in x0]
        xh = list(x)
        step, end = Decimal(float(h)), Decimal(float(horizon))

        def thr(i):
            return sig[i] * sum(w[i][j] * (xh[i] - xh[j]) ** 2 for j in range(n)) / (4 * d_out[i])

        out, k = [], 1
        while k * step <= end:
            v = [-sum(w[i][j] * (xh[i] - xh[j]) for j in range(n)) for i in range(n)]
            x = [x[i] + step * v[i] for i in range(n)]
            while True:
                ready = [j for j in range(n) if xh[j] != x[j] and (xh[j] - x[j]) ** 2 >= thr(j)]
                if not ready:
                    break
                xh[ready[0]] = x[ready[0]]
                out.append((k, ready[0], float(x[ready[0]]), float(max(x) - min(x))))
            k += 1
        return out


def periodic_pairs_checked(g, law, x0, horizon):
    """Compare a periodic run with ``exact_periodic_events`` while the spread
    of the states is at least 1e-10: the same multiple of h and agent for
    every event, with broadcast values within 1e-12. Returns the count."""
    exact = exact_periodic_events(g, per_agent_sigmas(law.sigma_i, g.n), law.h, x0, horizon)
    run = simulate_triggered(g, law, x0, sim_config(g, horizon=horizon))
    fired = [(round(ev.t / law.h), ev.agent, ev.value) for ev in run.events if ev.t > 0.0]
    pairs = list(itertools.takewhile(lambda p: p[0][3] >= 1e-10, zip(exact, fired)))
    assert pairs
    for (k, agent, value, _), (run_k, run_agent, run_value) in pairs:
        assert (run_k, run_agent) == (k, agent)
        assert abs(run_value - value) <= 1e-12
    return len(pairs)


def test_periodic_cycle5_matches_50_digit_solution():
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "periodic_cycle5.cfg")
    assert periodic_pairs_checked(cfg.graph, cfg.law, cfg.x0, cfg.sim.horizon) > 300


@pytest.mark.parametrize("seed", range(8))
def test_periodic_law_matches_50_digit_solution(seed):
    """Seeded balanced digraphs, n = 2..6, with h from 0.2 to 0.95 of h*."""
    rng = np.random.default_rng(seed)
    g = random_balanced_digraph(int(rng.integers(2, 7)), rng, extra_cycles=int(rng.integers(0, 3)))
    sigma = tuple(rng.uniform(0.1, 0.9, g.n))
    h_star = max_admissible_period(max(sigma), g.max_weight, g.max_out_neighbors)
    law = PeriodicStateDependent(h=float(rng.uniform(0.2, 0.95)) * h_star, sigma_i=sigma)
    periodic_pairs_checked(g, law, rng.uniform(-1.0, 1.0, g.n), 20.0)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
def test_event_times_match_50_digit_solution(seed, n):
    """The directed law against the same event loop run in 50-digit
    decimals: the same agents in the same order, with broadcast values
    within 1e-12, until the spread of the states reaches 1e-10, and event
    times within 1e-9 while it is above 1e-2. As the spread shrinks, an ulp
    of the state moves an event by an ulp over the agent's shrinking
    velocity, so times (not values) drift further."""
    rng = np.random.default_rng(seed)
    g = random_balanced_digraph(n, rng, extra_cycles=int(rng.integers(0, 3)))
    sigma = tuple(rng.uniform(0.1, 0.9, n))
    x0 = rng.uniform(-1.0, 1.0, n)
    info = spectral_info(g)
    horizon = 10.0 / info.lambda2
    exact = exact_directed_events(g, sigma, x0, horizon)
    run = simulate_triggered(g, DirectedStateDependent(sigma_i=sigma), x0,
                             sim_config(g, horizon=horizon))
    fired = [ev for ev in run.events if ev.t > 0.0]
    pairs = [(e, b) for e, b in zip(exact, fired) if e[3] >= 1e-10]
    assert pairs
    for (t, agent, value, spread), ev in pairs:
        assert ev.agent == agent
        assert abs(ev.value - value) <= 1e-12
        if spread >= 1e-2:
            assert abs(ev.t - t) <= 1e-9


def test_agreeing_neighbourhood_never_fires():
    """An agent that agrees with all its out-neighbours has a zero threshold,
    moves by exactly zero, and so never fires while its error is zero."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        g = random_balanced_digraph(int(rng.integers(3, 9)), rng, extra_cycles=3,
                                    w_lo=0.1, w_hi=0.7)
        i = int(rng.integers(0, g.n))
        xhat = rng.uniform(-1.0, 1.0, g.n)
        xhat[np.flatnonzero(g.weights[i] > 0.0)] = xhat[i]
        for law in (StateDependent(), DirectedStateDependent()):
            rule = _law_rule(g, law)
            a = anchored(rule, 1.0, xhat, xhat)
            assert a.thr[i] == 0.0
            assert a.v[i] == 0.0
            assert rule.delay(i, a) == math.inf


def criterion_5_ninth_graph():
    """The ninth draw of acceptance criterion 5: random_balanced_digraph with
    n = 3 from default_rng(505), and its x0."""
    rng = np.random.default_rng(505)
    for _ in range(9):
        n = int(rng.integers(3, 7))
        g = random_balanced_digraph(n, rng, extra_cycles=2)
        x0 = rng.uniform(-1, 1, n)
    return g, x0


@pytest.mark.parametrize("law", [DirectedStateDependent(), StateDependent()])
def test_zero_threshold_agent_does_not_stall(law):
    """Near t = 5.89 agent 0 of this graph agrees with its neighbourhood:
    zero threshold and zero error. With a velocity residue of -3.4e-17, as
    -(L @ xhat) gives, an unrefined root puts its next firing at delay 0 on
    every pass; the run must finish and reach consensus."""
    g, x0 = criterion_5_ninth_graph()
    assert g.n == 3
    info = spectral_info(g)
    cfg = sim_config(g, horizon=max(30.0, 22.0 / info.lambda2))
    tr = simulate_triggered(g, law, x0, cfg)
    assert len(tr.events) < 2000
    d = tr.states[-1] - tr.states[-1].mean()
    assert np.linalg.norm(d) <= 1e-4


def in_neighbours(g, k):
    return set(np.flatnonzero(g.weights[:, k] > 0.0).tolist())


@pytest.mark.parametrize("law, hops", [
    (StateDependent(), 1),
    (DirectedStateDependent(), 1),
    (TimeDependent(c0=0.0, c1=0.2, alpha=0.5), 1),
    (DecentralizedState(a=0.1), 2),
])
def test_a_broadcast_re_solves_only_the_agents_it_affects(monkeypatch, law, hops):
    """Per-event work, counted by wrapping the kernel: after agent k
    broadcasts, only k and its in-neighbours (agents i with w_ik > 0; their
    in-neighbours too for the decentralized law, whose z_i reads true
    neighbour states) are re-solved, 1 + in-degree(k) agents for a one-hop
    law, not all n; only k and its in-neighbours get a new velocity."""
    g = random_balanced_digraph(40, np.random.default_rng(11), extra_cycles=1)
    x0 = np.random.default_rng(12).uniform(-1.0, 1.0, g.n)
    log = []
    real_rule, real_event = engine._law_rule, engine.EventRecord

    def rule(*args):
        r = real_rule(*args)

        def delay(u, a):
            log.append(("solve", u))
            return r.delay(u, a)

        def refresh(i, xhat):
            log.append(("refresh", i))
            return r.refresh(i, xhat)
        return r._replace(delay=delay, refresh=refresh)

    def event(**kwargs):
        log.append(("event", kwargs["agent"]))
        return real_event(**kwargs)

    monkeypatch.setattr(engine, "_law_rule", rule)
    monkeypatch.setattr(engine, "EventRecord", event)
    simulate_triggered(g, law, x0, sim_config(g, horizon=1.5, dt=1e-3))

    def affected(k, hops=hops):
        out = {k} | in_neighbours(g, k)
        for _ in range(hops - 1):
            out |= {h for i in out for h in in_neighbours(g, i)}
        return out

    fired, solves = [], 0
    allowed, after_event = set(), False
    for kind, agent in log:
        if kind == "event":
            allowed = (allowed if after_event else set()) | affected(agent)
            after_event = True
            fired.append(agent)
        elif kind == "refresh":  # the n set-up refreshes come before any event
            assert not fired or agent in affected(fired[-1], hops=1)
        else:
            assert agent in allowed
            after_event, solves = False, solves + 1
    # The t = 0 bootstrap broadcasts and solves every agent once.
    fired = fired[g.n:]
    assert len(fired) > 50
    assert solves - g.n <= sum(len(affected(k)) for k in fired) < len(fired) * g.n / 4

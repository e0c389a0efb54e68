"""The engine's per-agent firing rules against the scalar evaluators.

The scalar ``eval_*`` functions and ``AgentView`` in ``triggers`` are the
reference: for every law, the engine's per-agent predicates must fire exactly
the agents they fire, and the cached thresholds of the state-dependent family
must equal the scalar thresholds bit for bit.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from etconsensus import (
    ALL_AGENTS,
    AgentView,
    CentralizedNorm,
    DecentralizedState,
    DirectedStateDependent,
    PeriodicStateDependent,
    StateDependent,
    TimeDependent,
    eval_centralized,
    eval_decentralized_state,
    eval_directed_state_dependent,
    eval_state_dependent,
    eval_time_dependent,
    laplacian,
    random_balanced_digraph,
    random_connected_undirected,
    spectral_info,
)
from etconsensus.engine import _Anchors, _law_rule
from etconsensus.triggers import directed_state_dependent_threshold, state_dependent_threshold


def views(g, t, x, xhat):
    w = g.weights
    out = []
    for i in range(g.n):
        js = np.flatnonzero(w[i] > 0.0)
        out.append(AgentView(
            i=i, x_i=float(x[i]), xhat_i=float(xhat[i]),
            xhat_neighbors=tuple((int(j), float(w[i, j]), float(xhat[j])) for j in js),
            t=t, d_out_i=float(w[i].sum()), card_ni=len(js),
        ))
    return out


def square_root_on_grid(thr):
    """A double e with e * e == thr when one lies within two ulps of sqrt(thr),
    otherwise sqrt(thr) itself (then the agent sits next to its threshold)."""
    e = math.sqrt(thr)
    for k in (0, 1, -1, 2, -2):
        cand = e
        for _ in range(abs(k)):
            cand = math.nextafter(cand, math.inf if k > 0 else -math.inf)
        if cand * cand == thr:
            return cand
    return e


def oracle_fired(law, g, t, x, xhat):
    """Agents the scalar evaluators fire, ascending; [ALL_AGENTS] for the
    network-wide law."""
    if isinstance(law, CentralizedNorm):
        norm_l = spectral_info(g).laplacian_norm
        return [ALL_AGENTS] if eval_centralized(law.sigma, x, xhat, laplacian(g), norm_l) else []
    if isinstance(law, TimeDependent):
        return [i for i in range(g.n)
                if eval_time_dependent(float(xhat[i] - x[i]), t, law.c0, law.c1, law.alpha)]
    vs = views(g, t, x, xhat)
    sig = law.sigma_i
    if isinstance(law, DecentralizedState):
        return [v.i for v in vs if eval_decentralized_state(
            v, sig[v.i], law.a, [(j, float(x[j])) for j, _, _ in v.xhat_neighbors])]
    if isinstance(law, StateDependent):
        return [v.i for v in vs if eval_state_dependent(v, sig[v.i])]
    return [v.i for v in vs if eval_directed_state_dependent(v, sig[v.i])]


def oracle_thresholds(law, g, xhat):
    fn = state_dependent_threshold if isinstance(law, StateDependent) \
        else directed_state_dependent_threshold
    return [fn(v, law.sigma_i[v.i]) for v in views(g, 0.0, xhat, xhat)]


def anchored(rule, t, x, xhat):
    """Anchors with every agent at x at time t, holding xhat, with the
    velocities and thresholds the rule derives from xhat."""
    n = len(x)
    a = _Anchors([t] * n, np.asarray(x, dtype=float).tolist(), [0.0] * n,
                 np.asarray(xhat, dtype=float).tolist(), [0.0] * n)
    for i in range(n):
        a.v[i], a.thr[i] = rule.refresh(i, a.xhat)
    return a


def engine_rule(law, g):
    """The engine's rule as (fired, refresh): ``fired(t, x, xhat)`` is the
    ascending array of agents whose predicate holds ([ALL_AGENTS] for the
    network-wide law), ``refresh(xhat)`` the list of cached thresholds."""
    rule = _law_rule(g, law)

    def fired(t, x, xhat):
        a = anchored(rule, t, x, xhat)
        if isinstance(law, CentralizedNorm):
            return np.array([ALL_AGENTS] if rule.holds(0, t, a.x, a) else [], dtype=int)
        return np.array([i for i in range(g.n) if rule.holds(i, t, a.x[i], a)], dtype=int)

    def refresh(xhat):
        return anchored(rule, 0.0, xhat, xhat).thr
    return fired, refresh


@settings(max_examples=250, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 20),
    directed=st.booleans(),
    t=st.floats(0.0, 5.0),
)
def test_firing_rules_match_scalar_evaluators(seed, n, directed, t):
    rng = np.random.default_rng(seed)
    if directed:
        g = random_balanced_digraph(n, rng, extra_cycles=int(rng.integers(0, 4)))
    else:
        g = random_connected_undirected(n, rng, edge_prob=float(rng.uniform(0.0, 1.0)))
    sigma_i = tuple(rng.uniform(0.05, 0.95, n))
    max_card = int((g.weights > 0.0).sum(axis=1).max())
    a = float(rng.uniform(0.05, 0.95)) / max_card
    # Each agent is ordinary, has zero error, or is put exactly on its threshold.
    role = rng.integers(0, 3, n)
    zero, edge = role == 1, role == 2
    x = rng.uniform(-1.0, 1.0, n)
    xhat = x + rng.normal(0.0, 0.2, n)
    xhat[zero] = x[zero]
    if rng.random() < 0.2:
        xhat = x.copy()

    # State family: thresholds depend on xhat only; with xhat_i = 0 the error
    # is -x_i exactly, so x_i = -sqrt(thr_i) puts agent i on its threshold.
    state_laws = (
        StateDependent(sigma_i=sigma_i),
        DirectedStateDependent(sigma_i=sigma_i),
        PeriodicStateDependent(h=0.1, sigma_i=sigma_i),
    )
    for law in state_laws:
        xh = xhat.copy()
        xh[edge] = 0.0
        expected_thr = oracle_thresholds(law, g, xh)
        xs = x.copy()
        for i in np.flatnonzero(edge):
            xs[i] = -square_root_on_grid(expected_thr[i])
        fired, refresh = engine_rule(law, g)
        assert list(refresh(xh)) == expected_thr
        assert fired(t, xs, xh).tolist() == oracle_fired(law, g, t, xs, xh)

    # Decentralized: the threshold depends on x; with x_i = 0 the error is
    # xhat_i exactly.
    law = DecentralizedState(a=a, sigma_i=sigma_i)
    xs = x.copy()
    xs[edge] = 0.0
    xh = xhat.copy()
    xh[zero] = xs[zero]
    card = (g.weights > 0.0).sum(axis=1)
    for i in np.flatnonzero(edge):
        z = 0.0
        for j in np.flatnonzero(g.weights[i] > 0.0):
            z += xs[i] - xs[j]
        thr = sigma_i[i] * a * (1.0 - a * card[i]) / card[i] * z * z
        xh[i] = square_root_on_grid(thr)
    fired, _ = engine_rule(law, g)
    assert fired(t, xs, xh).tolist() == oracle_fired(law, g, t, xs, xh)

    # Time-dependent: |e_i| equal to c0 + c1 exp(-alpha t) at x_i = 0.
    law = TimeDependent(c0=float(rng.uniform(0.0, 0.1)), c1=float(rng.uniform(0.01, 0.5)),
                        alpha=float(rng.uniform(0.1, 2.0)))
    xh = xhat.copy()
    xh[edge] = law.c0 + law.c1 * math.exp(-law.alpha * t)
    fired, _ = engine_rule(law, g)
    assert fired(t, xs, xh).tolist() == oracle_fired(law, g, t, xs, xh)

    # Centralized, including zero error at consensus, where the bound is 0.
    law = CentralizedNorm(sigma=float(rng.uniform(0.05, 0.95)))
    fired, _ = engine_rule(law, g)
    consensus = np.full(n, x[0])
    for xs, xh in ((x, xhat), (x, x), (consensus, consensus)):
        assert fired(t, xs, xh).tolist() == oracle_fired(law, g, t, xs, xh)

"""Closed-loop simulation of xdot = -L xhat with sample-and-hold broadcasts.

Between events the broadcast vector xhat is frozen, so the state moves along
a straight line x(t) = x(t0) + (t - t0) v with v = -L xhat. Each law
therefore has a next-event kernel: from the anchor (t, x, xhat, v) of the
last broadcast it returns every agent's delay to its next firing time in
closed form (linear or quadratic in the delay) or as one bracketed scalar
root, refined to the first instant at which the law's array predicate holds.
The simulation is an event loop: it jumps to the earliest of those instants,
fires, and re-anchors, so its cost grows with the number of broadcasts, not
with ``horizon / dt``; ``dt`` is only the spacing of the sampled trace. The
array predicates fire, bit for bit, the agents the scalar ``triggers.eval_*``
functions (the per-agent reference API) would fire. Broadcasts are received
instantaneously: an event may enable further events at the same instant,
which are processed in ascending agent-id order so runs are reproducible.
The ideal continuous controller (no events) is propagated with the exact
one-step matrix exponential exp(-L dt).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import InvalidParameter, ZenoAbort
from .graph import WeightedDigraph, laplacian, spectral_info
from .linear_et import matrix_exponential
from .triggers import (
    CentralizedNorm,
    DecentralizedState,
    PeriodicStateDependent,
    StateDependent,
    TimeDependent,
    TriggerLaw,
    per_agent_sigmas,
    validate_law,
)

#: Sentinel agent id for network-wide (simultaneous) updates.
ALL_AGENTS = -1

#: Abort threshold: events of a single agent within one sample interval.
MAX_EVENTS_PER_WINDOW = 10_000


@dataclass(frozen=True)
class EventRecord:
    """One broadcast: time, firing agent (or ALL_AGENTS), and the value sent."""

    t: float
    agent: int
    value: object  # float for per-agent events, ndarray for ALL_AGENTS


@dataclass(frozen=True)
class SimConfig:
    """Sampling and reporting settings.

    ``dt`` is the spacing of the sampled trace (and of the Zeno budget
    windows), ``zeno_floor`` the smallest believable inter-event spacing
    (smaller gaps are flagged), and ``sample_every`` the trace decimation
    stride.
    """

    dt: float
    horizon: float
    zeno_floor: float = 1e-7
    sample_every: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.dt < math.inf:
            raise InvalidParameter(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 < self.horizon < math.inf:
            raise InvalidParameter(f"horizon must be positive and finite, got {self.horizon}")
        if not 0.0 <= self.zeno_floor < self.dt:
            raise InvalidParameter(
                f"zeno_floor must lie in [0, dt={self.dt}), got {self.zeno_floor}"
            )
        if int(self.sample_every) < 1:
            raise InvalidParameter(f"sample_every must be >= 1, got {self.sample_every}")


def sim_config(
    g: WeightedDigraph,
    horizon: float,
    dt: Optional[float] = None,
    zeno_floor: float = 1e-7,
    sample_every: int = 1,
) -> SimConfig:
    """Build a SimConfig with graph-aware defaults.

    dt defaults to 0.01 / lambda_N (the trace resolves the fastest mode).
    """
    if dt is None:
        dt = 0.01 / spectral_info(g).lambda_n
    return SimConfig(
        dt=float(dt),
        horizon=float(horizon),
        zeno_floor=float(zeno_floor),
        sample_every=int(sample_every),
    )


@dataclass(frozen=True)
class Trace:
    """Sampled trajectory, event log, and Lyapunov series.

    ``lyapunov[k]`` is 0.5 ||x(t_k) - xbar 1||^2 with xbar the mean of the
    initial state. Inter-event statistics and the Zeno verdict are derived
    from the event log by ``metrics.inter_event_stats``.
    """

    times: np.ndarray
    states: np.ndarray
    xhats: np.ndarray
    events: tuple
    lyapunov: np.ndarray

    def __post_init__(self) -> None:
        for name in ("times", "states", "xhats", "lyapunov"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len(self.states) != len(self.times):
            raise InvalidParameter("states and times must have equal length")
        if np.any(np.diff(self.times) <= 0.0):
            raise InvalidParameter("sample times must be strictly increasing")

    @property
    def n(self) -> int:
        return self.states.shape[1]


def _check_x0(g: WeightedDigraph, x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (g.n,):
        raise InvalidParameter(f"x0 must have length {g.n}, got shape {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise InvalidParameter(f"x0 must be finite, got {x0.tolist()}")
    return x0.copy()


def _sample_grid(dt: float, horizon: float, sample_every: int):
    """(n_steps, times): the step count of the dt grid and the recorded sample
    times, t = 0 and min(k dt, horizon) for every ``sample_every``-th step k
    and the last one."""
    n_steps = int(math.ceil(horizon / dt - 1e-9))
    ks = np.arange(sample_every, n_steps + 1, sample_every)
    if not ks.size or ks[-1] != n_steps:
        ks = np.append(ks, n_steps)
    return n_steps, np.concatenate(([0.0], np.minimum(ks * dt, horizon)))


def _lyapunov(states: np.ndarray, xbar: float) -> np.ndarray:
    d = states - xbar
    return 0.5 * np.einsum("ij,ij->i", d, d)


# ---------------------------------------------------------------------------
# Ideal (continuous controller) dynamics
# ---------------------------------------------------------------------------

def _propagator(lap: np.ndarray, t: float) -> np.ndarray:
    """exp(-L t), as the power of exp(-L t / m) with ||L t / m||_1 <= 50, the
    range in which ``matrix_exponential`` is accurate to far below 1e-10."""
    m = max(1, math.ceil(float(np.linalg.norm(lap, 1)) * t / 50.0))
    return np.linalg.matrix_power(matrix_exponential(-lap, t / m), m)


def simulate_ideal(g: WeightedDigraph, x0, cfg: SimConfig) -> Trace:
    """Propagate xdot = -L x with the continuous controller; no events.

    Each step applies the exact propagator exp(-L dt); a truncated last step
    uses one more exponential over its own length.
    """
    spectral_info(g)  # raises NotConnected / NotBalanced
    x0 = _check_x0(g, x0)
    lap = laplacian(g)
    dt, horizon = cfg.dt, cfg.horizon
    n_steps, times = _sample_grid(dt, horizon, cfg.sample_every)
    # exp(-L t) fixes constant vectors, so propagate the offset from x0[0]:
    # an agreement state then stays fixed exactly.
    step = _propagator(lap, dt)
    base = x0[0]
    offset = x0 - base
    states = np.empty((len(times), g.n))
    states[0] = x0
    row = 1
    for k in range(1, n_steps + 1):
        if k == n_steps and k * dt > horizon:
            step = _propagator(lap, horizon - (k - 1) * dt)
        offset = step @ offset
        if k % cfg.sample_every == 0 or k == n_steps:
            states[row] = base + offset
            row += 1
    return Trace(
        times=times,
        states=states,
        xhats=states.copy(),
        events=(),
        lyapunov=_lyapunov(states, float(x0.mean())),
    )


# ---------------------------------------------------------------------------
# Firing rules and next-event kernels: one array form per law
# ---------------------------------------------------------------------------

_NONE = np.zeros(0, dtype=int)
_ALL = np.array([ALL_AGENTS])

#: Kernel refinement: a delay is settled once the predicate holds at it and
#: fails _ULPS ulps of state motion plus a relative _NEAR earlier, or a
#: relative _REL earlier if that is more. Walks grow their step by _GROW per
#: try (from at least _TINY); past _NEVER an agent never fires.
_ULPS = 2.0
_NEAR = 2.0 ** -50
_REL = 2.0 ** -30
_GROW = 16.0
_TINY = 2.0 ** -1022
_NEVER = 1e150

#: Newton iterations allowed for one time-dependent root.
_NEWTON_STEPS = 100


class _Rule(NamedTuple):
    """Array forms of one law on one graph (see ``_law_rule``)."""

    fired: Callable
    refresh: Callable
    velocity: Callable
    delays: Optional[Callable]


def _ulp_time(x: np.ndarray, xhat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Delay over which each error xhat_i - x_i - s v_i moves by one ulp of
    |x_i| + |xhat_i|, the scale of its rounding (0 where v_i = 0)."""
    out = np.zeros(len(x))
    np.divide(np.spacing(np.abs(x) + np.abs(xhat)), np.abs(v), out=out, where=v != 0.0)
    return out


def _first_instant(holds: Callable, s: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Refine estimated firing delays ``s`` to the first instants at which
    ``holds`` fires.

    ``holds(d)`` evaluates every agent's predicate at its own delay, the
    last axis of ``d`` running over agents, and is false at d = 0 (the
    anchor is a cascade fixpoint). ``res`` is the delay over which each
    agent's state moves by one ulp, the scale on which rounding moves the
    instant the predicate turns. Negative estimates are clamped to 0, so
    time never steps back. Probes _ULPS ``res`` plus a relative _NEAR below
    and above each estimate settle an accurate one. Otherwise a walk goes up
    while the predicate fails, or down while it holds, with steps growing by
    _GROW, and the bracket it leaves between a failing ``lo`` and a holding
    ``hi`` is bisected to that first step or a relative _REL, whichever is
    larger. Infinite delays (and estimates past _NEVER) mean "never".
    """
    hi = np.maximum(s, 0.0)
    live = hi < _NEVER

    def at(d):
        return holds(np.where(live, d, 0.0)) & live

    if live.all():
        step = hi * _NEAR + _ULPS * res + _TINY
        below = np.maximum(hi - step, 0.0)
        before, fires, after = holds(np.stack((below, hi, hi + step)))
    else:
        hi[~live] = np.inf
        step = np.where(live, hi * _NEAR + _ULPS * res + _TINY, 0.0)
        below = np.maximum(hi - step, 0.0)
        before, fires, after = at(np.stack((below, hi, hi + step)))
    if np.where(fires, ~before, after | ~live).all():
        return np.where(fires, hi, hi + step)
    tol = np.maximum(step, _REL * hi)

    down = fires & before
    up = live & ~fires & ~after
    lo = np.where(fires, np.where(before, 0.0, below), np.where(live & after, hi, hi + step))
    hi = np.where(down, below, np.where(fires | ~live, hi, hi + step))
    lo[~live] = 0.0
    while up.any() or down.any():
        step = step * _GROW
        probe = np.maximum(np.where(up, hi + step, hi - step), 0.0)
        fires = at(probe)
        walk = up | down
        hi = np.where(up | (down & fires), probe, hi)
        lo = np.where(walk & ~fires, probe, lo)
        up &= ~fires
        down &= fires
        gone = up & (hi >= _NEVER)
        hi[gone], step[gone] = np.inf, 0.0
        live &= ~gone
        up &= ~gone

    wide = live & (hi - lo > tol)
    while wide.any():
        mid = 0.5 * (lo + hi)
        wide &= (lo < mid) & (mid < hi)
        fires = at(mid)
        hi = np.where(wide & fires, mid, hi)
        lo = np.where(wide & ~fires, mid, lo)
        wide &= hi - lo > tol
    return hi


def _first_root(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Smallest s >= 0 with a s^2 + b s + c >= 0 (inf if none), elementwise.

    Written for c <= 0 (the predicate fails at s = 0); c > 0 gives 0. Uses
    the cancellation-free root forms.
    """
    disc = b * b - 4.0 * a * c
    real = disc >= 0.0
    sq = np.sqrt(np.where(real, disc, 0.0))
    root = np.full(a.shape, np.inf)
    rising = real & (b > 0.0)
    np.divide(2.0 * c, -b - sq, out=root, where=rising)
    upward = real & (b <= 0.0) & (a > 0.0)
    np.divide(-b + sq, 2.0 * a, out=root, where=upward)
    root[c > 0.0] = 0.0
    return np.maximum(root, 0.0)


def _law_rule(g: WeightedDigraph, law: TriggerLaw, lap: np.ndarray, norm_l: float) -> _Rule:
    """Array forms of ``law`` on ``g``.

    ``fired(t, x, xhat)`` is the ascending array of agents whose predicate
    holds (``[ALL_AGENTS]`` for the centralized law). ``refresh(xhat)``
    recomputes and returns the cached thresholds of the state-dependent
    family, which depend only on broadcast values; it returns None for the
    other laws. ``velocity(xhat)`` is v = -L xhat in difference form,
    v_i = -sum_j w_ij (xhat_i - xhat_j), so an agent whose neighbourhood
    agrees with it moves by exactly zero. ``delays(t, x, xhat, v)`` is the
    next-event kernel: each agent's delay s to the first instant at which its
    predicate holds on x + s v at time t + s (one entry for the centralized
    law; inf for never), for an anchor at which no predicate holds. It is
    None for the periodic law, whose decision instants are grid points.

    Neighbour sums run over a padded (slot, agent) table in ascending
    neighbour order, one slot at a time, so every threshold is the same
    float as the scalar evaluator's in ``triggers``. Padding slots point at
    the agent itself with weight 0 and so add exactly zero.
    """
    n, w = g.n, g.weights
    nbrs = [np.flatnonzero(w[i] > 0.0) for i in range(n)]
    card = np.array([len(js) for js in nbrs])
    idx = np.repeat(np.arange(n)[None, :], card.max(), axis=0)
    wts = np.zeros(idx.shape)
    for i, js in enumerate(nbrs):
        idx[: len(js), i] = js
        wts[: len(js), i] = w[i, js]

    def slot_sum(terms: np.ndarray) -> np.ndarray:
        return np.add.accumulate(terms, axis=-2)[..., -1, :]

    def velocity(xhat):
        return -slot_sum(wts * (xhat - xhat[idx]))

    def no_refresh(xhat):
        return None

    if isinstance(law, CentralizedNorm):
        beta2 = (law.sigma / norm_l) ** 2

        def fired(t, x, xhat):
            err = float(np.linalg.norm(xhat - x))
            bound = law.sigma * float(np.linalg.norm(lap @ x)) / norm_l
            return _ALL if err != 0.0 and err >= bound else _NONE

        def delays(t, x, xhat, v):
            # ||e - s v||^2 >= beta^2 ||L x + s L v||^2 is one quadratic in s.
            e, lx, lv = xhat - x, lap @ x, lap @ v
            a = v @ v - beta2 * (lv @ lv)
            b = -2.0 * (e @ v) - 2.0 * beta2 * (lx @ lv)
            c = e @ e - beta2 * (lx @ lx)
            s = _first_root(np.array([a]), np.array([b]), np.array([c]))
            scale = np.abs(x) + np.abs(xhat)
            res = _ulp_time(scale.max(keepdims=True), 0.0, np.abs(v).max(keepdims=True))

            def holds(d):
                return np.array([fired(t + u, x + u * v, xhat).size > 0
                                 for u in d.ravel()]).reshape(d.shape)
            return _first_instant(holds, s, res)
        return _Rule(fired, no_refresh, velocity, delays)

    if isinstance(law, TimeDependent):
        c0, c1, alpha = law.c0, law.c1, law.alpha

        def bounds(times):
            return np.array([c0 + c1 * math.exp(-alpha * u)
                             for u in times.ravel()]).reshape(times.shape)

        def fired(t, x, xhat):
            e = xhat - x
            bound = c0 + c1 * math.exp(-alpha * t)
            return np.flatnonzero((e != 0.0) & (np.abs(e) >= bound))

        def delays(t, x, xhat, v):
            # f(s) = |e - s v| - c0 - c1 exp(-alpha (t + s)) is concave on each
            # side of s0, where the V-shaped error touches zero. Before s0 the
            # error shrinks and f rises only up to its peak; after s0 f rises.
            # Newton from the left end of a rising stretch never overshoots.
            e = xhat - x
            ae, av = np.abs(e), np.abs(v)
            shrinking = e * v > 0.0
            s0 = np.zeros(n)
            np.divide(e, v, out=s0, where=shrinking)
            ratio = np.ones(n)
            np.divide(alpha * c1, av, out=ratio, where=shrinking & (c1 > 0.0))
            peak = np.clip(np.log(ratio) / alpha - t, 0.0, s0)
            early = shrinking & (ae - av * peak - c0 - c1 * np.exp(-alpha * (t + peak)) >= 0.0)
            start = np.where(early, 0.0, s0)
            side = np.where(early, -1.0, 1.0)
            s = np.where(v != 0.0, start, np.inf)
            # A constant error meets the decaying threshold in closed form.
            still = (v == 0.0) & (ae > c0) & (c1 > 0.0)
            s[still] = np.log(c1 / (ae[still] - c0)) / alpha - t
            active = v != 0.0
            for _ in range(_NEWTON_STEPS):
                if not active.any():
                    break
                decay = c1 * np.exp(-alpha * (t + s[active]))
                f = np.abs(e[active] - s[active] * v[active]) - c0 - decay
                df = side[active] * av[active] + alpha * decay
                step = -f / df
                s[active] += np.maximum(step, 0.0)
                active[active] = step > 2.0 ** -50 * s[active]

            def holds(d):
                ex = xhat - (x + d * v)
                return (ex != 0.0) & (np.abs(ex) >= bounds(t + d))
            return _first_instant(holds, s, _ulp_time(x, xhat, v))
        return _Rule(fired, no_refresh, velocity, delays)

    sigma = per_agent_sigmas(law.sigma_i, n)
    if isinstance(law, DecentralizedState):
        coef = sigma * law.a * (1.0 - law.a * card) / card

        def crossed(e, z):
            return (e != 0.0) & (e * e >= coef * z * z)

        def fired(t, x, xhat):
            return np.flatnonzero(crossed(xhat - x, slot_sum(x - x[idx])))

        def delays(t, x, xhat, v):
            # (e - s v)^2 >= coef (z + s u)^2 is one quadratic per agent.
            e, x_nb, v_nb = xhat - x, x[idx], v[idx]
            z = slot_sum(x - x_nb)
            u = slot_sum(v - v_nb)
            a = v * v - coef * u * u
            b = -2.0 * (e * v + coef * z * u)
            c = e * e - coef * z * z

            def holds(d):
                own = x + d * v
                z_own = slot_sum(own[..., None, :] - (x_nb + d[..., None, :] * v_nb))
                return crossed(xhat - own, z_own)
            return _first_instant(holds, _first_root(a, b, c), _ulp_time(x, xhat, v))
        return _Rule(fired, no_refresh, velocity, delays)

    if isinstance(law, StateDependent):
        def threshold(xhat):
            d = xhat - xhat[idx]
            return sigma * slot_sum(d * d) / (4.0 * card)
    else:  # directed and periodic state-dependent
        d_out = np.array([w[i].sum() for i in range(n)])

        def threshold(xhat):
            d = xhat - xhat[idx]
            return sigma * slot_sum(wts * d * d) / (4.0 * d_out)

    thr = np.zeros(n)
    radius = np.zeros(n)

    def refresh(xhat):
        thr[:] = threshold(xhat)
        radius[:] = np.sqrt(thr)
        return thr

    def crossed(e):
        return (e != 0.0) & (e * e >= thr)

    def fired(t, x, xhat):
        return np.flatnonzero(crossed(xhat - x))

    def delays(t, x, xhat, v):
        # |e - s v| reaches sqrt(thr) at s = (sqrt(thr) + e sign(v)) / |v|.
        av = np.abs(v)
        s = np.full(n, np.inf)
        np.divide(radius + (xhat - x) * np.sign(v), av, out=s, where=av > 0.0)

        def holds(d):
            return crossed(xhat - (x + d * v))
        return _first_instant(holds, s, _ulp_time(x, xhat, v))

    periodic = isinstance(law, PeriodicStateDependent)
    return _Rule(fired, refresh, velocity, None if periodic else delays)


# ---------------------------------------------------------------------------
# Event-triggered simulation
# ---------------------------------------------------------------------------

def simulate_triggered(
    g: WeightedDigraph, law: TriggerLaw, x0, cfg: SimConfig
) -> Trace:
    """Simulate the sample-and-hold closed loop under one trigger law.

    Continuous laws jump from event to event: the law's kernel gives every
    agent's next firing time from the current anchor, the earliest one is
    fired, and broadcasts that it enables at the same instant cascade in
    ascending agent id. The periodic law is evaluated only at multiples of
    its period h, with ``dt`` coerced so those instants land exactly on
    sample rows. Sample rows in between are filled from the affine motion.
    Every agent broadcasts at t = 0.

    Raises ZenoAbort when one agent fires more than MAX_EVENTS_PER_WINDOW
    times within a single sample interval of length ``dt``.
    """
    info = spectral_info(g)
    validate_law(law, g)
    x0 = _check_x0(g, x0)
    n = g.n

    dt, horizon = cfg.dt, cfg.horizon
    periodic = isinstance(law, PeriodicStateDependent)
    if periodic:
        # Align the trigger clock with the sample grid: dt -> h / ceil(h/dt).
        steps_per_h = int(math.ceil(law.h / dt - 1e-12))
        dt = law.h / steps_per_h
        if cfg.zeno_floor >= dt:
            raise InvalidParameter(
                f"zeno_floor {cfg.zeno_floor} not below coerced dt {dt}"
            )
    n_steps, times = _sample_grid(dt, horizon, cfg.sample_every)
    t_end = times[-1]

    rule = _law_rule(g, law, laplacian(g), info.laplacian_norm)

    # Closed-loop state: time, true states and last broadcasts. The error
    # e = xhat - x is always derived; right after agent i fires, xhat[i]
    # equals x[i] exactly, so e_i restarts at zero.
    t, x, xhat = 0.0, x0.copy(), x0.copy()
    events: list[EventRecord] = []

    # t = 0 bootstrap: every agent broadcasts so xhat(0) = x0.
    if isinstance(law, CentralizedNorm):
        events.append(EventRecord(t=0.0, agent=ALL_AGENTS, value=x0.copy()))
    else:
        for i in range(n):
            events.append(EventRecord(t=0.0, agent=i, value=float(x0[i])))
    rule.refresh(xhat)
    velocity = rule.velocity(xhat)

    states = np.empty((len(times), n))
    xhats = np.empty((len(times), n))
    row = 0
    window, window_count = 0, np.zeros(n, dtype=int)

    def fire_instant(t_star: float, x_at: np.ndarray) -> None:
        """Fire every predicate that holds at t_star, cascading to a fixpoint."""
        nonlocal window
        if math.ceil(t_star / dt) != window:
            window, window_count[:] = math.ceil(t_star / dt), 0
        while True:
            ready = rule.fired(t_star, x_at, xhat)
            if not ready.size:
                return
            i = int(ready[0])
            if i == ALL_AGENTS:
                xhat[:] = x_at
                events.append(EventRecord(t=t_star, agent=ALL_AGENTS, value=x_at.copy()))
                agents = range(n)
            else:
                xhat[i] = x_at[i]
                events.append(EventRecord(t=t_star, agent=i, value=float(x_at[i])))
                agents = (i,)
            for a in agents:
                window_count[a] += 1
                if window_count[a] > MAX_EVENTS_PER_WINDOW:
                    raise ZenoAbort(t_star, a, events)
            rule.refresh(xhat)

    decision = steps_per_h if periodic else 0
    while True:
        if periodic:
            on_grid = decision <= n_steps and decision * dt <= horizon
            t_next = decision * dt if on_grid else math.inf
            step = t_next - t
            decision += steps_per_h
        else:
            step = float(rule.delays(t, x, xhat, velocity).min())
            t_next = t + step
        stop = int(np.searchsorted(times, t_next))
        if stop > row:
            states[row:stop] = x + (times[row:stop] - t)[:, None] * velocity
            xhats[row:stop] = xhat
            row = stop
        if t_next > t_end:
            break
        x = x + step * velocity
        t = t_next
        fire_instant(t, x)
        velocity = rule.velocity(xhat)

    return Trace(
        times=times,
        states=states,
        xhats=xhats,
        events=tuple(events),
        lyapunov=_lyapunov(states, float(x0.mean())),
    )


# ---------------------------------------------------------------------------
# Closed-form bounds
# ---------------------------------------------------------------------------

def min_inter_event_bound_centralized(g: WeightedDigraph, sigma: float) -> float:
    """Guaranteed inter-event floor sigma / (||L|| (1 + sigma)) for the
    network-wide norm trigger."""
    if not 0.0 < sigma < 1.0:
        raise InvalidParameter(f"sigma must lie in (0, 1), got {sigma}")
    info = spectral_info(g)
    return sigma / (info.laplacian_norm * (1.0 + sigma))


def convergence_radius_time_trigger(g: WeightedDigraph, c0: float) -> float:
    """Asymptotic disagreement radius ||L|| sqrt(N) c0 / lambda_2 of the
    time-threshold law."""
    if c0 < 0.0:
        raise InvalidParameter(f"c0 must be nonnegative, got {c0}")
    info = spectral_info(g)
    return info.laplacian_norm * math.sqrt(g.n) * c0 / info.lambda2


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

#: Trace rows are rendered in blocks of whole rows (at least one) holding about
#: this many values: converting the whole table at once would hold every value
#: as a Python float. The xhat strings cached across rows carry over from one
#: block to the next.
_CSV_BLOCK = 4096


def _fmt(v: float) -> str:
    return repr(float(v))


def trace_to_csv(trace: Trace) -> str:
    """Render the sampled trajectory as CSV: t, x_0.., xhat_0.., V.

    Every value is written as ``repr(float)``. An xhat entry is frozen between
    its agent's broadcasts, so it is rendered only on rows where its bit
    pattern differs from the row before (bits, not ``==``: -0.0 and 0.0 print
    differently); the other rows reuse the cached per-agent strings and their
    joined segment. A block in which most xhat entries change is rendered
    whole, every value on its own.
    """
    n = trace.n
    cols = (
        ["t"]
        + [f"x_{i}" for i in range(n)]
        + [f"xhat_{i}" for i in range(n)]
        + ["V"]
    )
    times, states, xhats, lyap = trace.times, trace.states, trace.xhats, trace.lyapunov
    bits = xhats.view(np.int64)
    rows = max(1, _CSV_BLOCK // (2 * n + 2))
    lines = [",".join(cols)]
    strs = seg = None  # xhat strings and segment of the row before the block
    for start in range(0, len(times), rows):
        block = slice(start, start + rows)
        block_bits = bits[block]
        changed = np.empty(block_bits.shape, dtype=bool)
        changed[0] = block_bits[0] != bits[start - 1] if start else True
        np.not_equal(block_bits[1:], block_bits[:-1], out=changed[1:])
        # Once about 0.6 to 0.8 of a block's xhat entries change (depending
        # on n), the cache costs more than it saves; at one half it is still
        # the faster path for every n timed.
        if 2 * np.count_nonzero(changed) > changed.size:
            table = np.column_stack((times[block], states[block], xhats[block], lyap[block]))
            lines.extend(",".join(map(repr, row)) for row in table.tolist())
            strs = None
            continue
        if strs is None:  # first block, or the block before was rendered whole
            strs = list(map(repr, xhats[start - 1].tolist())) if start else [""] * n
            seg = ",".join(strs)
        at, agent = np.nonzero(changed)
        entries = zip(at.tolist(), agent.tolist(), map(repr, xhats[block][at, agent].tolist()))
        segs = {}
        for r, group in groupby(entries, key=itemgetter(0)):
            for _, c, s in group:
                strs[c] = s
            segs[r] = ",".join(strs)
        front = np.column_stack((times[block], states[block])).tolist()
        for r, (row, v) in enumerate(zip(front, lyap[block].tolist())):
            seg = segs.get(r, seg)
            lines.append(f"{','.join(map(repr, row))},{seg},{v!r}")
    return "\n".join(lines) + "\n"


def events_to_csv(events) -> str:
    """Render the event log as CSV: t, agent, value.

    Network-wide events use agent "ALL" with the broadcast vector
    semicolon-joined in the value column.
    """
    lines = ["t,agent,value"]
    for ev in events:
        if ev.agent == ALL_AGENTS:
            value = ";".join(_fmt(v) for v in np.asarray(ev.value))
            lines.append(f"{_fmt(ev.t)},ALL,{value}")
        else:
            lines.append(f"{_fmt(ev.t)},{ev.agent},{_fmt(ev.value)}")
    return "\n".join(lines) + "\n"

"""Closed-loop simulation of xdot = -L xhat with sample-and-hold broadcasts.

Between events the broadcast vector xhat is frozen, so the state moves along
a straight line x(t) = x(t0) - (t - t0) L xhat; triggered runs advance it as
x + s v with v = -L xhat, on a fixed step grid. Event times are located by
bisecting the firing predicate over the violating step. Firing is decided by
one array rule per law that returns, bit for bit, the agents the scalar
``triggers.eval_*`` functions (the per-agent reference API) would fire.
Broadcasts are received instantaneously: an event may enable further events
at the same instant, which are processed in ascending agent-id order so runs
are reproducible. The ideal continuous controller (no events) is integrated
with a classical fixed-step 4th-order scheme, which is accurate but not exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameter, ZenoAbort
from .graph import WeightedDigraph, laplacian, spectral_info
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

#: Abort threshold: events of a single agent within one integrator step.
MAX_EVENTS_PER_WINDOW = 10_000


@dataclass
class NetworkState:
    """Mutable closed-loop state: time, true states, last broadcasts, and
    per-agent last event times.

    The broadcast error e = xhat - x is always derived, never stored; right
    after agent i fires, xhat[i] equals x[i] exactly, so e_i restarts at zero.
    """

    t: float
    x: np.ndarray
    xhat: np.ndarray
    last_event: np.ndarray


@dataclass(frozen=True)
class EventRecord:
    """One broadcast: time, firing agent (or ALL_AGENTS), and the value sent."""

    t: float
    agent: int
    value: object  # float for per-agent events, ndarray for ALL_AGENTS


@dataclass(frozen=True)
class SimConfig:
    """Integrator and event-localization settings.

    ``event_tol`` is the bisection time tolerance, ``zeno_floor`` the smallest
    believable inter-event spacing (smaller gaps are flagged), and
    ``sample_every`` the trace decimation stride.
    """

    dt: float
    horizon: float
    event_tol: float
    zeno_floor: float = 1e-7
    sample_every: int = 1

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise InvalidParameter(f"dt must be positive, got {self.dt}")
        if self.horizon <= 0.0:
            raise InvalidParameter(f"horizon must be positive, got {self.horizon}")
        if not 0.0 < self.event_tol < self.dt:
            raise InvalidParameter(
                f"event_tol must lie in (0, dt={self.dt}), got {self.event_tol}"
            )
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
    event_tol: Optional[float] = None,
    zeno_floor: float = 1e-7,
    sample_every: int = 1,
) -> SimConfig:
    """Build a SimConfig with graph-aware defaults.

    dt defaults to 0.01 / lambda_N (local truncation error far below trigger
    thresholds); event_tol defaults to dt / 1000.
    """
    if dt is None:
        dt = 0.01 / spectral_info(g).lambda_n
    if event_tol is None:
        event_tol = dt * 1e-3
    return SimConfig(
        dt=float(dt),
        horizon=float(horizon),
        event_tol=float(event_tol),
        zeno_floor=float(zeno_floor),
        sample_every=int(sample_every),
    )


@dataclass(frozen=True)
class Trace:
    """Sampled trajectory, event log, Lyapunov series, and Zeno flags.

    ``lyapunov[k]`` is 0.5 ||x(t_k) - xbar 1||^2 with xbar the mean of the
    initial state; ``zeno_flags`` lists (agent, t) pairs whose inter-event
    spacing fell below the configured floor.
    """

    times: np.ndarray
    states: np.ndarray
    xhats: np.ndarray
    events: tuple
    lyapunov: np.ndarray
    zeno_flags: tuple

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


def _rk4_step(f: Callable, t: float, x: np.ndarray, dt: float) -> np.ndarray:
    k1 = f(t, x)
    k2 = f(t + 0.5 * dt, x + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, x + 0.5 * dt * k2)
    k4 = f(t + dt, x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_x0(g: WeightedDigraph, x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (g.n,):
        raise InvalidParameter(f"x0 must have length {g.n}, got shape {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise InvalidParameter(f"x0 must be finite, got {x0.tolist()}")
    return x0.copy()


# ---------------------------------------------------------------------------
# Ideal (continuous controller) dynamics
# ---------------------------------------------------------------------------

def simulate_ideal(g: WeightedDigraph, x0, cfg: SimConfig) -> Trace:
    """Integrate xdot = -L x with the continuous controller; no events."""
    spectral_info(g)  # raises NotConnected / NotBalanced
    x0 = _check_x0(g, x0)
    lap = laplacian(g)
    xbar = float(x0.mean())

    def field(_t: float, x: np.ndarray) -> np.ndarray:
        return -(lap @ x)

    t, x = 0.0, x0.copy()
    times, states, lyap = [0.0], [x.copy()], [_lyapunov(x, xbar)]
    n_steps = int(math.ceil(cfg.horizon / cfg.dt - 1e-9))
    for k in range(1, n_steps + 1):
        t_next = min(k * cfg.dt, cfg.horizon)
        x = _rk4_step(field, t, x, t_next - t)
        t = t_next
        if k % cfg.sample_every == 0 or k == n_steps:
            times.append(t)
            states.append(x.copy())
            lyap.append(_lyapunov(x, xbar))
    states_arr = np.array(states)
    return Trace(
        times=np.array(times),
        states=states_arr,
        xhats=states_arr.copy(),
        events=(),
        lyapunov=np.array(lyap),
        zeno_flags=(),
    )


def _lyapunov(x: np.ndarray, xbar: float) -> float:
    d = x - xbar
    return 0.5 * float(d @ d)


# ---------------------------------------------------------------------------
# Firing rules: one array predicate per law
# ---------------------------------------------------------------------------

_NONE = np.zeros(0, dtype=int)
_ALL = np.array([ALL_AGENTS])


def _firing_rule(g: WeightedDigraph, law: TriggerLaw, lap: np.ndarray, norm_l: float):
    """Vectorized firing predicate of ``law`` on ``g``.

    Returns ``(fired, refresh)``. ``fired(t, x, xhat)`` is the ascending array
    of agents whose predicate holds (``[ALL_AGENTS]`` for the centralized
    law). ``refresh(xhat)`` recomputes and returns the cached thresholds of
    the state-dependent family, which depend only on broadcast values; it
    returns None for the other laws.

    Neighbour sums run over a padded (agent, slot) table in ascending
    neighbour order, one slot at a time, so every threshold is the same
    float as the scalar evaluator's in ``triggers``. Padding slots point at
    the agent itself with weight 0 and so add exactly zero.
    """
    n, w = g.n, g.weights
    nbrs = [np.flatnonzero(w[i] > 0.0) for i in range(n)]
    card = np.array([len(js) for js in nbrs])
    idx = np.repeat(np.arange(n)[:, None], card.max(), axis=1)
    wts = np.zeros(idx.shape)
    for i, js in enumerate(nbrs):
        idx[i, : len(js)] = js
        wts[i, : len(js)] = w[i, js]

    def slot_sum(terms: np.ndarray) -> np.ndarray:
        total = np.zeros(n)
        for s in range(terms.shape[1]):
            total = total + terms[:, s]
        return total

    def no_refresh(xhat):
        return None

    if isinstance(law, CentralizedNorm):
        def fired(t, x, xhat):
            err = float(np.linalg.norm(xhat - x))
            bound = law.sigma * float(np.linalg.norm(lap @ x)) / norm_l
            return _ALL if err != 0.0 and err >= bound else _NONE
        return fired, no_refresh

    if isinstance(law, TimeDependent):
        def fired(t, x, xhat):
            e = xhat - x
            bound = law.c0 + law.c1 * math.exp(-law.alpha * t)
            return np.flatnonzero((e != 0.0) & (np.abs(e) >= bound))
        return fired, no_refresh

    sigma = per_agent_sigmas(law.sigma_i, n)
    if isinstance(law, DecentralizedState):
        coef = sigma * law.a * (1.0 - law.a * card) / card

        def fired(t, x, xhat):
            z = slot_sum(x[:, None] - x[idx])
            e = xhat - x
            return np.flatnonzero((e != 0.0) & (e * e >= coef * z * z))
        return fired, no_refresh

    if isinstance(law, StateDependent):
        def threshold(xhat):
            d = xhat[:, None] - xhat[idx]
            return sigma * slot_sum(d * d) / (4.0 * card)
    else:  # directed and periodic state-dependent
        d_out = np.array([w[i].sum() for i in range(n)])

        def threshold(xhat):
            d = xhat[:, None] - xhat[idx]
            return sigma * slot_sum(wts * d * d) / (4.0 * d_out)

    thr = np.zeros(n)

    def refresh(xhat):
        thr[:] = threshold(xhat)
        return thr

    def fired(t, x, xhat):
        e = xhat - x
        return np.flatnonzero((e != 0.0) & (e * e >= thr))
    return fired, refresh


# ---------------------------------------------------------------------------
# Event-triggered simulation
# ---------------------------------------------------------------------------

def simulate_triggered(
    g: WeightedDigraph, law: TriggerLaw, x0, cfg: SimConfig
) -> Trace:
    """Simulate the sample-and-hold closed loop under one trigger law.

    Continuous laws have their predicates checked after every step; a newly
    true predicate is located by bisection to within ``cfg.event_tol`` and the
    broadcast applied at the located time (cascades at the same instant are
    allowed). The periodic law is evaluated only at multiples of its period h,
    with ``dt`` coerced so those instants land exactly on the integration
    grid. Every agent broadcasts at t = 0.

    Raises ZenoAbort when one agent fires more than MAX_EVENTS_PER_WINDOW
    times within a single step.
    """
    info = spectral_info(g)
    validate_law(law, g)
    x0 = _check_x0(g, x0)
    lap = laplacian(g)
    n = g.n
    xbar = float(x0.mean())

    dt, horizon = cfg.dt, cfg.horizon
    periodic = isinstance(law, PeriodicStateDependent)
    if periodic:
        # Align the trigger clock with the integrator grid: dt -> h / ceil(h/dt).
        steps_per_h = int(math.ceil(law.h / dt - 1e-12))
        dt = law.h / steps_per_h
        event_tol = min(cfg.event_tol, dt * 1e-3)
        if cfg.zeno_floor >= dt:
            raise InvalidParameter(
                f"zeno_floor {cfg.zeno_floor} not below coerced dt {dt}"
            )
    else:
        event_tol = cfg.event_tol

    fired, refresh = _firing_rule(g, law, lap, info.laplacian_norm)

    state = NetworkState(t=0.0, x=x0.copy(), xhat=x0.copy(), last_event=np.zeros(n))
    events: list[EventRecord] = []
    zeno_flags: list[tuple[int, float]] = []

    # t = 0 bootstrap: every agent broadcasts so xhat(0) = x0.
    if isinstance(law, CentralizedNorm):
        events.append(EventRecord(t=0.0, agent=ALL_AGENTS, value=x0.copy()))
    else:
        for i in range(n):
            events.append(EventRecord(t=0.0, agent=i, value=float(x0[i])))
    refresh(state.xhat)

    velocity = -(lap @ state.xhat)
    times, states, xhats = [0.0], [state.x.copy()], [state.xhat.copy()]
    lyap = [_lyapunov(state.x, xbar)]
    window_count = np.zeros(n, dtype=int)

    def fire_instant(t_star: float, x_at: np.ndarray) -> None:
        """Fire every predicate that holds at t_star, cascading to a fixpoint."""
        while True:
            ready = fired(t_star, x_at, state.xhat)
            if not ready.size:
                return
            i = int(ready[0])
            if i == ALL_AGENTS:
                state.xhat[:] = x_at
                events.append(EventRecord(t=t_star, agent=ALL_AGENTS, value=x_at.copy()))
                agents = range(n)
            else:
                state.xhat[i] = x_at[i]
                events.append(EventRecord(t=t_star, agent=i, value=float(x_at[i])))
                agents = (i,)
            for a in agents:
                if t_star - state.last_event[a] < cfg.zeno_floor:
                    zeno_flags.append((a, t_star))
                state.last_event[a] = t_star
                window_count[a] += 1
                if window_count[a] > MAX_EVENTS_PER_WINDOW:
                    raise ZenoAbort(t_star, a, events)
            refresh(state.xhat)

    def bisect_crossing(t_lo: float, x_lo: np.ndarray, t_hi: float) -> float:
        """Earliest predicate crossing in (t_lo, t_hi]; predicate true at return."""
        lo, hi = t_lo, t_hi
        while hi - lo > event_tol:
            mid = 0.5 * (lo + hi)
            x_mid = x_lo + (mid - t_lo) * velocity
            if fired(mid, x_mid, state.xhat).size:
                hi = mid
            else:
                lo = mid
        return hi

    n_steps = int(math.ceil(horizon / dt - 1e-9))
    for k in range(1, n_steps + 1):
        t_target = min(k * dt, horizon)
        window_count[:] = 0
        if periodic:
            state.x = state.x + (t_target - state.t) * velocity
            state.t = t_target
            on_grid = t_target == k * dt  # truncated final step never hits the grid
            if on_grid and k % steps_per_h == 0:
                fire_instant(state.t, state.x)
                velocity = -(lap @ state.xhat)
        else:
            while state.t < t_target:
                x_end = state.x + (t_target - state.t) * velocity
                if not fired(t_target, x_end, state.xhat).size:
                    state.x, state.t = x_end, t_target
                    break
                t_star = bisect_crossing(state.t, state.x, t_target)
                state.x = state.x + (t_star - state.t) * velocity
                state.t = t_star
                fire_instant(state.t, state.x)
                velocity = -(lap @ state.xhat)
        if k % cfg.sample_every == 0 or k == n_steps:
            times.append(state.t)
            states.append(state.x.copy())
            xhats.append(state.xhat.copy())
            lyap.append(_lyapunov(state.x, xbar))

    return Trace(
        times=np.array(times),
        states=np.array(states),
        xhats=np.array(xhats),
        events=tuple(events),
        lyapunov=np.array(lyap),
        zeno_flags=tuple(zeno_flags),
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

def _fmt(v: float) -> str:
    return repr(float(v))


def trace_to_csv(trace: Trace) -> str:
    """Render the sampled trajectory as CSV: t, x_0.., xhat_0.., V."""
    n = trace.n
    cols = (
        ["t"]
        + [f"x_{i}" for i in range(n)]
        + [f"xhat_{i}" for i in range(n)]
        + ["V"]
    )
    lines = [",".join(cols)]
    for k in range(len(trace.times)):
        row = (
            [_fmt(trace.times[k])]
            + [_fmt(v) for v in trace.states[k]]
            + [_fmt(v) for v in trace.xhats[k]]
            + [_fmt(trace.lyapunov[k])]
        )
        lines.append(",".join(row))
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

"""The fixed-step engine that the event-driven one replaced, kept as a test
oracle.

It walks every ``dt`` step, checks the firing predicates at the step end and
bisects a crossing to ``event_tol``; broadcasts cascade at the located time
in ascending agent id, as in the package's engine. Its velocity is
-(L @ xhat). Only the firing rules are shared with the package.
"""

import math

import numpy as np

from etconsensus import laplacian, spectral_info, validate_law
from etconsensus.engine import (
    ALL_AGENTS,
    MAX_EVENTS_PER_WINDOW,
    EventRecord,
    NetworkState,
    Trace,
    _check_x0,
    _firing_rule,
)
from etconsensus.errors import InvalidParameter, ZenoAbort
from etconsensus.triggers import CentralizedNorm, PeriodicStateDependent


def _lyapunov(x, xbar):
    d = x - xbar
    return 0.5 * float(d @ d)


def simulate_triggered_reference(g, law, x0, cfg):
    """Bisecting fixed-step simulation of the sample-and-hold closed loop."""
    info = spectral_info(g)
    validate_law(law, g)
    x0 = _check_x0(g, x0)
    lap = laplacian(g)
    n = g.n
    xbar = float(x0.mean())

    dt, horizon = cfg.dt, cfg.horizon
    periodic = isinstance(law, PeriodicStateDependent)
    if periodic:
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
    events = []
    zeno_flags = []

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

    def fire_instant(t_star, x_at):
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

    def bisect_crossing(t_lo, x_lo, t_hi):
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
            on_grid = t_target == k * dt
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

"""Closed-loop simulation of xdot = -L xhat with sample-and-hold broadcasts.

Between its broadcasts an agent moves along a straight line: each keeps an
anchor (t_i, x_i, v_i), is at x_i + (t - t_i) v_i, and has v_i = -(L xhat)_i.
Each law has a scalar next-event kernel: from an agent's anchor it gives the
delay to its next firing time in closed form (linear or quadratic in the
delay) or as one bracketed scalar root, refined to the first instant at
which the agent's predicate holds. The event loop fires the earliest agent;
a broadcast by k changes only its affected set (k and its in-neighbours;
two hops for the decentralized law; all agents for the centralized one),
which alone is re-anchored and re-solved: O(degree) work per broadcast, and
none per ``dt``, only the spacing of the sampled trace. The periodic law
checks every agent at the multiples k h of its period. The predicates fire,
bit for bit, the agents the scalar ``triggers.eval_*`` functions would fire.
Broadcasts are received instantaneously: an event may enable further events
at the same instant, processed in ascending agent id. The ideal controller
(no events) is propagated with the exact matrix exponential exp(-L dt). A
trace keeps no xhat rows: its event log fixes them (``Trace.xhats``).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import InvalidParameter, ZenoAbort
from .graph import WeightedDigraph, laplacian, spectral_info, validate_graph
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
    windows), used as given for every law: it moves no event, the periodic
    law's included: the rows are t = 0 and min(k dt, horizon) for every step
    k. ``zeno_floor`` is the smallest believable inter-event spacing
    (smaller gaps are flagged).
    """

    dt: float
    horizon: float
    zeno_floor: float = 1e-7

    def __post_init__(self) -> None:
        if not 0.0 < self.dt < math.inf:
            raise InvalidParameter(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 < self.horizon < math.inf:
            raise InvalidParameter(f"horizon must be positive and finite, got {self.horizon}")
        if not 0.0 <= self.zeno_floor < self.dt:
            raise InvalidParameter(
                f"zeno_floor must lie in [0, dt={self.dt}), got {self.zeno_floor}"
            )


def sim_config(
    g: WeightedDigraph,
    horizon: float,
    dt: Optional[float] = None,
    zeno_floor: float = 1e-7,
) -> SimConfig:
    """Build a SimConfig with graph-aware defaults, every setting a float.

    dt, the row spacing, defaults to 0.01 / lambda_N (the trace resolves the
    fastest mode).
    """
    if dt is None:
        dt = 0.01 / spectral_info(g).lambda_n
    return SimConfig(dt=float(dt), horizon=float(horizon), zeno_floor=float(zeno_floor))


@dataclass(frozen=True)
class Trace:
    """Sampled trajectory, event log, and Lyapunov series.

    ``lyapunov[k]`` is 0.5 ||x(t_k) - xbar 1||^2 with xbar the mean of the
    initial state. ``xhats``, the inter-event statistics and the Zeno verdict
    (``metrics.inter_event_stats``) derive from the event log, in time order.
    """

    times: np.ndarray
    states: np.ndarray
    events: tuple
    lyapunov: np.ndarray

    def __post_init__(self) -> None:
        for name in ("times", "states", "lyapunov"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len(self.states) != len(self.times):
            raise InvalidParameter("states and times must have equal length")
        if np.any(np.diff(self.times) <= 0.0):
            raise InvalidParameter("sample times must be strictly increasing")
        if np.any(np.diff([ev.t for ev in self.events]) < 0.0):
            raise InvalidParameter("event times must be nondecreasing")

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @functools.cached_property
    def xhats(self) -> np.ndarray:
        """xhat(t_k) on every sample row, read-only, as ``_updates`` sets it:
        nan before an agent's first event, and the state if there are none."""
        if not self.events:
            return self.states
        out, xhat, row = np.empty_like(self.states), np.full(self.n, np.nan), 0
        for at, fresh in _updates(self):
            out[row:at], row = xhat, at
            xhat[list(fresh)] = list(fresh.values())
        out[row:] = xhat
        out.setflags(write=False)
        return out


def _updates(trace: Trace):
    """Yield (row, {agent: latest value}) for every sample row events reach, in
    order: an event shows from the first row at or after its time on."""
    rows = np.searchsorted(trace.times, [ev.t for ev in trace.events]).tolist() + [-1]
    fresh = {}
    for k, ev in enumerate(trace.events):
        if ev.agent == ALL_AGENTS:
            fresh.update(enumerate(np.asarray(ev.value).tolist()))
        else:
            fresh[ev.agent] = ev.value
        if rows[k + 1] != rows[k] < len(trace.times):
            yield rows[k], fresh
            fresh = {}


def _check_x0(g: WeightedDigraph, x0) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (g.n,):
        raise InvalidParameter(f"x0 must have length {g.n}, got shape {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise InvalidParameter(f"x0 must be finite, got {x0.tolist()}")
    return x0.copy()


def _sample_rows(dt: float, horizon: float, n: int) -> tuple:
    """The sample times, t = 0 and min(k dt, horizon) for every step k of the
    dt grid, of which there is at least one, and an empty (rows, n) array
    for the states at them. Raises InvalidParameter, naming horizon, dt and
    the row count, when they cannot be allocated."""
    steps = horizon / dt - 1e-9
    try:
        n_steps = max(1, math.ceil(steps))
        times = np.concatenate(([0.0], np.minimum(np.arange(1, n_steps + 1) * dt, horizon)))
        return times, np.empty((len(times), n))
    except (MemoryError, OverflowError, ValueError):
        raise InvalidParameter(
            f"horizon = {horizon!r} and dt = {dt!r} ask for {max(1.0, steps) + 1.0:.6g} "
            "sample rows, more than can be allocated; enlarge dt or shorten the horizon") from None


def _lyapunov(states: np.ndarray, xbar: float) -> np.ndarray:
    d = states - xbar
    return 0.5 * np.einsum("ij,ij->i", d, d)


# ---------------------------------------------------------------------------
# Ideal (continuous controller) dynamics
# ---------------------------------------------------------------------------

def simulate_ideal(g: WeightedDigraph, x0, cfg: SimConfig) -> Trace:
    """Propagate xdot = -L x with the continuous controller; no events.

    Each step applies the exact propagator exp(-L dt); a truncated last step
    uses one more exponential over its own length.
    """
    from .linear_et import matrix_exponential  # only the ideal controller uses it

    validate_graph(g)
    x0 = _check_x0(g, x0)
    lap = laplacian(g)
    dt, horizon = cfg.dt, cfg.horizon
    times, states = _sample_rows(dt, horizon, g.n)
    # exp(-L t) fixes constant vectors, so propagate the offset from the mean
    # of x0: no O(1) consensus component is stepped, whose rounding would
    # floor the disagreement. An agreement state's offset is a constant of
    # a few ulps, and the state stays fixed exactly.
    step = matrix_exponential(-lap, dt)
    base = float(x0.mean())
    offset = x0 - base
    states[0] = x0
    n_steps = len(times) - 1
    for k in range(1, n_steps + 1):
        if k == n_steps and k * dt > horizon:
            step = matrix_exponential(-lap, horizon - (k - 1) * dt)
        offset = step @ offset
        states[k] = base + offset
    return Trace(
        times=times,
        states=states,
        events=(),
        lyapunov=_lyapunov(states, float(x0.mean())),
    )


# ---------------------------------------------------------------------------
# Firing rules and next-event kernels: scalar forms per agent
# ---------------------------------------------------------------------------

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


class _Anchors(NamedTuple):
    """Per-agent floats: agent i is at x[i] + (s - t[i]) v[i] at time s, last
    broadcast xhat[i], and has cached threshold thr[i] (0 for some laws)."""

    t: list
    x: list
    v: list
    xhat: list
    thr: list


class _Rule(NamedTuple):
    """Scalar forms of one law on one graph (see ``_law_rule``)."""

    members: list
    affected: list
    moved: list
    reads: list
    refresh: Callable
    holds: Callable
    delay: Callable


def _ulp_time(x: float, xhat: float, v: float) -> float:
    """Delay over which the error xhat - x - s v moves by one ulp of
    |x| + |xhat|, the scale of its rounding (0 where v = 0)."""
    return math.ulp(abs(x) + abs(xhat)) / abs(v) if v else 0.0


def _first_instant(holds: Callable, s: float, res: float) -> float:
    """Refine an estimated firing delay ``s`` to the first instant at which
    ``holds(d)``, the predicate at delay d (false at d = 0), fires.

    ``res`` is the delay over which the state moves by one ulp, the scale on
    which rounding moves that instant. A negative estimate is clamped to 0,
    so time never steps back. Probes _ULPS ``res`` plus a relative _NEAR
    below and above the estimate settle an accurate one. Otherwise a walk
    goes up while the predicate fails, or down while it holds, with steps
    growing by _GROW, and the bracket it leaves between a failing ``lo`` and
    a holding ``hi`` is bisected to that first step or a relative _REL,
    whichever is larger. An infinite delay (or one past _NEVER) is "never".
    """
    if not s < _NEVER:
        return math.inf
    hi = s if s > 0.0 else 0.0
    step = hi * _NEAR + _ULPS * res + _TINY
    below = hi - step if hi > step else 0.0
    fires = holds(hi)
    if fires and not holds(below):
        return hi
    if not fires and holds(hi + step):
        return hi + step
    tol = max(step, _REL * hi)
    if fires:
        lo, hi = 0.0, below
        while hi > 0.0:
            step *= _GROW
            probe = max(hi - step, 0.0)
            if not holds(probe):
                lo = probe
                break
            hi = probe
    else:
        lo = hi = hi + step
        while True:
            step *= _GROW
            hi += step
            if holds(hi):
                break
            lo = hi
            if hi >= _NEVER:
                return math.inf
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _first_root(a: float, b: float, c: float) -> float:
    """Smallest s >= 0 with a s^2 + b s + c >= 0 (inf if none), by the
    cancellation-free root forms; written for c <= 0, c > 0 gives 0."""
    if c > 0.0:
        return 0.0
    disc = b * b - 4.0 * a * c
    if disc >= 0.0 and b > 0.0:
        return max(2.0 * c / (-b - math.sqrt(disc)), 0.0)
    if disc >= 0.0 and a > 0.0:
        return max((-b + math.sqrt(disc)) / (2.0 * a), 0.0)
    return math.inf


def _law_rule(g: WeightedDigraph, law: TriggerLaw) -> _Rule:
    """Scalar forms of ``law`` on ``g`` per unit: an agent, or the network
    (unit 0) for the centralized law, which broadcasts for ``members[u]``.

    A broadcast of u changes the velocity and threshold of the agents in
    ``moved[u]`` (u and its in-neighbours, i with w_iu > 0) and the firing
    time of ``affected[u]`` (theirs too for the decentralized law, whose z_i
    reads true neighbour states); ``reads[u]``, whose predicate reads it and
    may hold at once, are the in-neighbours for the state-dependent family.
    ``refresh(i, xhat)`` is (v_i, thr_i), v_i = -sum_j w_ij (xhat_i - xhat_j)
    in difference form (exactly 0 where the neighbourhood agrees).
    ``holds(u, t, x, a)`` is u's predicate at time t with its own state x
    (the network: all states), other agents read from anchors ``a``;
    ``delay(u, a)``, the next-event kernel, is the delay from u's anchor, at
    which it does not hold, to the first instant at which it does (inf for
    never). Neighbour sums run in ascending neighbour order, so every
    threshold and predicate is the scalar evaluator's float in ``triggers``.
    """
    n, (nbrs, wts, inn) = g.n, g.neighbors
    singles = [(i,) for i in range(n)]

    def refresh_velocity(i, xhat):
        xi, total = xhat[i], 0.0
        for j, wij in zip(nbrs[i], wts[i]):
            total += wij * (xi - xhat[j])
        return -total, 0.0

    if isinstance(law, CentralizedNorm):
        lap, norm_l = laplacian(g), spectral_info(g).laplacian_norm
        beta2 = (law.sigma / norm_l) ** 2

        def holds(u, t, x, a):
            x = np.asarray(x)
            err = float(np.linalg.norm(np.asarray(a.xhat) - x))
            return err != 0.0 and err >= law.sigma * float(np.linalg.norm(lap @ x)) / norm_l

        def delay(u, a):
            # ||e - s v||^2 >= beta^2 ||L x + s L v||^2 is one quadratic in s.
            t, x, v, xhat = a.t[0], np.array(a.x), np.array(a.v), np.array(a.xhat)
            e, lx, lv = xhat - x, lap @ x, lap @ v
            s = _first_root(float(v @ v - beta2 * (lv @ lv)),
                            float(-2.0 * (e @ v) - 2.0 * beta2 * (lx @ lv)),
                            float(e @ e - beta2 * (lx @ lx)))
            held = a._replace(xhat=xhat)  # converted once for every probe
            return _first_instant(lambda d: holds(u, t + d, x + d * v, held), s, _ulp_time(
                float((np.abs(x) + np.abs(xhat)).max()), 0.0, float(np.abs(v).max())))
        return _Rule([tuple(range(n))], [[0]], [range(n)], [[]], refresh_velocity, holds, delay)

    affected, alone = [sorted({k, *inn[k]}) for k in range(n)], [[]] * n
    if isinstance(law, TimeDependent):
        c0, c1, alpha = law.c0, law.c1, law.alpha

        def holds(i, t, xi, a):
            e = a.xhat[i] - xi
            return e != 0.0 and abs(e) >= c0 + c1 * math.exp(-alpha * t)

        def delay(i, a):
            # f(s) = |e - s v| - c0 - c1 exp(-alpha (t + s)) is concave on each
            # side of s0, where the V-shaped error touches zero. Before s0 the
            # error shrinks and f rises only up to its peak; after s0 f rises.
            # Newton from the left end of a rising stretch never overshoots.
            t, xi, vi, xh = a.t[i], a.x[i], a.v[i], a.xhat[i]
            e = xh - xi
            ae, av = abs(e), abs(vi)
            if vi == 0.0:
                # A constant error meets the decaying threshold in closed form.
                s = math.log(c1 / (ae - c0)) / alpha - t if ae > c0 and c1 > 0.0 else math.inf
            else:
                s, side = 0.0, 1.0
                if e * vi > 0.0:
                    s0 = e / vi
                    peak = min(max(math.log(alpha * c1 / av) / alpha - t if c1 > 0.0 else -t,
                                   0.0), s0)
                    early = ae - av * peak - c0 - c1 * math.exp(-alpha * (t + peak)) >= 0.0
                    s, side = (0.0, -1.0) if early else (s0, 1.0)
                for _ in range(_NEWTON_STEPS):
                    decay = c1 * math.exp(-alpha * (t + s))
                    f = abs(e - s * vi) - c0 - decay
                    df = side * av + alpha * decay
                    step = -f / df if df else (math.inf if f < 0.0 else 0.0)
                    s += max(step, 0.0)
                    if not step > 2.0 ** -50 * s:
                        break
            return _first_instant(lambda d: holds(i, t + d, xi + d * vi, a), s,
                                  _ulp_time(xi, xh, vi))
        return _Rule(singles, affected, affected, alone, refresh_velocity, holds, delay)

    sigma = per_agent_sigmas(law.sigma_i, n)
    if isinstance(law, DecentralizedState):
        card = np.array([len(js) for js in nbrs])
        coef = (sigma * law.a * (1.0 - law.a * card) / card).tolist()

        def holds(i, t, xi, a):
            at_t, at_x, at_v, z = a.t, a.x, a.v, 0.0
            for j in nbrs[i]:
                z += xi - (at_x[j] + (t - at_t[j]) * at_v[j])
            e = a.xhat[i] - xi
            return e != 0.0 and e * e >= coef[i] * z * z

        def delay(i, a):
            # (e - s v)^2 >= coef (z + s u)^2 is one quadratic in s.
            at_t, at_x, at_v = a.t, a.x, a.v
            t, xi, vi, xh = at_t[i], at_x[i], at_v[i], a.xhat[i]
            near = [(at_x[j] + (t - at_t[j]) * at_v[j], at_v[j]) for j in nbrs[i]]
            z = u = 0.0
            for xj, vj in near:
                z += xi - xj
                u += vi - vj
            e, k = xh - xi, coef[i]
            s = _first_root(vi * vi - k * u * u, -2.0 * (e * vi + k * z * u), e * e - k * z * z)

            def at(d):  # holds(i, t + d, xi + d * vi, a), inlined
                own, z = xi + d * vi, 0.0
                for xj, vj in near:
                    z += own - (xj + d * vj)
                e = xh - own
                return e != 0.0 and e * e >= k * z * z
            return _first_instant(at, s, _ulp_time(xi, xh, vi))
        two_hops = [sorted({*affected[k], *(h for i in inn[k] for h in inn[i])}) for k in range(n)]
        return _Rule(singles, two_hops, affected, alone, refresh_velocity, holds, delay)

    sigma, weigh = sigma.tolist(), not isinstance(law, StateDependent)  # directed, periodic
    scale = (4.0 * g.out_degrees).tolist() if weigh else [4.0 * len(js) for js in nbrs]

    def refresh(i, xhat):
        xi, total, spread = xhat[i], 0.0, 0.0
        for j, wij in zip(nbrs[i], wts[i]):
            d = xi - xhat[j]
            total += wij * d
            spread += wij * d * d if weigh else d * d
        return -total, sigma[i] * spread / scale[i]

    def holds(i, t, xi, a):
        e = a.xhat[i] - xi
        return e != 0.0 and e * e >= a.thr[i]

    def delay(i, a):
        # |e - s v| reaches sqrt(thr) at s = (sqrt(thr) + e sign(v)) / |v|.
        xi, vi, xh = a.x[i], a.v[i], a.xhat[i]
        if vi == 0.0:
            return math.inf
        e, thr = xh - xi, a.thr[i]
        r = math.sqrt(thr)
        s = (r + e) / vi if vi > 0.0 else (r - e) / -vi

        def at(d):  # holds(i, t + d, xi + d * vi, a), inlined
            e = xh - (xi + d * vi)
            return e != 0.0 and e * e >= thr
        return _first_instant(at, s, math.ulp(abs(xi) + abs(xh)) / abs(vi))
    return _Rule(singles, affected, affected, inn, refresh, holds, delay)


# ---------------------------------------------------------------------------
# Event-triggered simulation
# ---------------------------------------------------------------------------

def simulate_triggered(
    g: WeightedDigraph, law: TriggerLaw, x0, cfg: SimConfig
) -> Trace:
    """Simulate the sample-and-hold closed loop under one trigger law.

    Every agent keeps an anchor (time, state, velocity) and a firing time.
    Continuous laws fire the earliest; the agents whose predicate reads a
    broadcast are checked in ascending id and fired until none holds (a
    cascade); only the affected sets of the agents that fire are re-anchored
    and re-solved. The periodic law decides at the floats ``k * h``, the
    multiples of its period: every agent advances to the instant, those whose
    predicate holds fire, then the cascade runs. Rows are filled from the
    anchors at the spacing ``dt``, which moves no event of any law. Every
    agent broadcasts at t = 0.

    Raises ZenoAbort when one agent fires more than MAX_EVENTS_PER_WINDOW
    times within a single sample interval of length ``dt``.
    """
    validate_graph(g)
    validate_law(law, g)
    x0 = _check_x0(g, x0)
    n = g.n

    dt, periodic = cfg.dt, isinstance(law, PeriodicStateDependent)
    times, states = _sample_rows(dt, cfg.horizon, n)
    t_end = times[-1]

    members, affected, moved, reads, refresh, holds, delay = _law_rule(g, law)
    network = isinstance(law, CentralizedNorm)

    # e = xhat - x is derived, so e_i restarts at exactly zero when i fires.
    # Anchors and firing times are float buffers: the loop reads and writes
    # floats, zero-copy numpy views fill rows and find the earliest time.
    def floats(values):
        return memoryview(bytearray(np.asarray(values, dtype=float).tobytes())).cast("d")

    start, units = x0.tolist(), range(len(members))
    a = _Anchors(floats(np.zeros(n)), floats(x0), floats(np.zeros(n)), list(start), [0.0] * n)
    for i in range(n):
        a.v[i], a.thr[i] = refresh(i, a.xhat)
    due, own = floats(np.full(len(units), math.inf)), [0.0] * len(units)
    anchor_t, anchor_x, velocity, due_times = (np.frombuffer(b) for b in (a.t, a.x, a.v, due))

    # t = 0 bootstrap: every agent broadcasts so xhat(0) = x0.
    events = ([EventRecord(t=0.0, agent=ALL_AGENTS, value=x0.copy())] if network
              else [EventRecord(t=0.0, agent=i, value=x) for i, x in enumerate(start)])

    row, row_times = 0, times.tolist()
    window, window_count = 0, {}

    at_t, at_x, at_v, xhat, thr = a

    def join(us) -> None:
        # Re-anchor units at t once; a unit due now by the delay it checked.
        for u in us:
            if u not in cand:
                s = own[u] if due[u] == t else None
                for m in members[u]:
                    at_x[m] += (t - at_t[m] if s is None else s) * at_v[m]
                    at_t[m] = t
                cand.add(u)

    def fire(u: int) -> None:
        events.append(EventRecord(t=t, agent=ALL_AGENTS, value=np.array(at_x)) if network
                      else EventRecord(t=t, agent=u, value=at_x[u]))
        for m in members[u]:
            xhat[m] = at_x[m]
        window_count[u] = count = window_count.get(u, 0) + 1  # a unit's agents fire together
        if count > MAX_EVENTS_PER_WINDOW:
            raise ZenoAbort(t, members[u][0], events)
        join(affected[u])
        for m in moved[u]:
            at_v[m], thr[m] = refresh(m, xhat)
        verified.difference_update(reads[u])
        queue.extend(reads[u])
        queue.sort(reverse=True)

    t, multiple, cand = 0.0, 1, set(units)
    while True:
        for u in () if periodic else cand:  # re-solve what the last instant touched
            own[u] = s = delay(u, a)
            due[u] = t + s
        if periodic:
            t_next, multiple = multiple * law.h, multiple + 1
        else:
            t_next = due[int(due_times.argmin())]
        stop = bisect.bisect_left(row_times, t_next, row)
        if stop > row:
            block = np.subtract(times[row:stop, None], anchor_t, out=states[row:stop])
            block *= velocity  # in place: a block of rows holds no temporaries
            block += anchor_x
            row = stop
        if t_next > t_end:
            break
        t = t_next
        if math.ceil(t / dt) != window:
            window, window_count = math.ceil(t / dt), {}
        # Queue the units due now (kernel-verified until a broadcast they read)
        # or, at a multiple of h, after one step of all agents (cand stays all
        # of them), those that hold. Each broadcast queues its readers;
        # the lowest queued unit that holds fires next.
        if periodic:
            anchor_x += (t - anchor_t) * velocity
            anchor_t.fill(t)
            e = np.array(xhat) - anchor_x
            verified = set(np.flatnonzero((e != 0.0) & (e * e >= np.array(thr))).tolist())
        else:
            cand = set()
            join(np.flatnonzero(due_times == t).tolist())
            verified = set(cand)
        queue = sorted(verified, reverse=True)
        while queue:
            u = queue.pop()
            if u in verified or holds(u, t, at_x if network else at_x[u], a):
                fire(u)

    return Trace(
        times=times,
        states=states,
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

def trace_to_csv(trace: Trace, write: Optional[Callable[[str], object]] = None) -> Optional[str]:
    """Render the sampled trajectory as CSV: t, x_0.., xhat_0.., V.

    The text is rendered a block of rows at a time. Given ``write``, each
    block's text (the header with the first) is handed to it as soon as it is
    rendered and None is returned, so only one block's text is alive at a
    time; without it the join of the same blocks is returned.

    Every value is written as ``repr(float)``, by ``_floatrepr.render``: the t,
    x and V columns of a block, and the xhat values that the block's events
    set, in one call. The xhat columns (``Trace.xhats``) come from the event
    log: a row that events reach renders the latest value of each agent they
    name, and the rows up to the next such row share its xhat text. An ideal
    run renders its x columns twice.
    """
    blocks = _trace_blocks(trace)
    if write is None:
        return "".join(blocks)
    for text in blocks:
        write(text)
    return None


def _trace_blocks(trace: Trace):
    """Yield ``trace_to_csv``'s text, one block of rows at a time."""
    # On first use, so that importing this module does not load the formatter.
    from ._floatrepr import CSV_BLOCK, plain_blocks, render_bytes

    n = trace.n
    times, states, lyap = trace.times, trace.states, trace.lyapunov
    head = ",".join(["t", *(f"x_{i}" for i in range(n)), *(f"xhat_{i}" for i in range(n)), "V\n"])
    if not len(times):
        yield head
        return
    if not trace.events:
        yield from plain_blocks(head, (times, states, states, lyap))
        return
    # The rows events reach, the agents each sets, and their values in that
    # order; ``marks[k]:marks[k + 1]`` is reached[k]'s share of ``values``.
    reached, agents, values, marks = [], [], [], [0]
    for row, latest in _updates(trace):
        reached.append(row)
        agents.append(tuple(latest))
        values.extend(latest.values())
        marks.append(len(values))
    values = np.array(values, dtype=float)
    texts = [b"nan"] * n
    seg = b"," + b",".join(texts) + b","
    cols = n + 2
    rows = max(1, CSV_BLOCK // cols)
    # A block renders its xhat values first, each ending in a vertical tab,
    # then its rows, in which x_{n-1} ends in a tab: the row's xhat text goes
    # there, by one bytes formatting call for the block.
    row_ends = b"," * n + b"\t\n"
    head = head.encode()
    k = 0
    for start in range(0, len(times), rows):
        stop = min(start + rows, len(times))
        at, k = k, bisect.bisect_left(reached, stop, k)  # this block's rows reached[at:k]
        count = marks[k] - marks[at]
        flat = np.empty(count + (stop - start) * cols)
        flat[:count] = values[marks[at]:marks[k]]
        table = flat[count:].reshape(-1, cols)
        table[:, 0], table[:, -1] = times[start:stop], lyap[start:stop]
        table[:, 1:-1] = states[start:stop]
        *fresh, text = render_bytes(flat[None, :], b"\v" * count + row_ends * (stop - start)).split(b"\v", count)
        fresh = iter(fresh)
        segs, row = [], start  # each row's xhat text
        for r, who in zip(reached[at:k], agents[at:k]):
            segs += [seg] * (r - row)
            for i in who:
                texts[i] = next(fresh)
            seg, row = b"," + b",".join(texts) + b",", r
        segs += [seg] * (stop - row)
        yield (head + text.replace(b"\t", b"%s") % tuple(segs)).decode("ascii")
        head = b""


def events_to_csv(events) -> str:
    """Render the event log as CSV: t, agent, value.

    Network-wide events use agent "ALL" with the broadcast vector
    semicolon-joined in the value column. Every number is written as
    ``repr(float)``, the whole log by one ``_floatrepr.render_bytes`` call.
    """
    from ._floatrepr import render_bytes

    values, ends, agents = [], [], []  # each t ends in a tab, where ",agent," goes
    for ev in events:
        if ev.agent == ALL_AGENTS:
            vector = np.asarray(ev.value, dtype=float).ravel().tolist()
            values += (ev.t, *vector)
            ends.append(b"\t" + b";" * (len(vector) - 1) + b"\n")
            agents.append(b",ALL,")
        else:
            values += (ev.t, ev.value)
            ends.append(b"\t\n")
            agents.append(b",%d," % ev.agent)
    text = render_bytes(np.array(values, dtype=float)[None, :], b"".join(ends))
    return "t,agent,value\n" + (text.replace(b"\t", b"%s") % tuple(agents)).decode("ascii")

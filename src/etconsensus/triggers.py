"""Trigger laws and their firing predicates.

Each law is an immutable value; the evaluators are pure functions of the
local information an agent holds. Two conventions apply uniformly:

* Equality-form rules are implemented as ``>=`` predicates: the simulator
  detects the first time the gap becomes nonnegative, which is also the safe
  reading for thresholds that jump discontinuously at broadcasts.
* No law fires while the agent's own broadcast error is exactly zero.
  Rebroadcasting an unchanged state carries no information and would pile up
  events at equilibrium, where thresholds vanish together with the error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, IsolatedAgent
from .graph import WeightedDigraph

#: Uniform per-agent threshold fraction used when none is supplied.
DEFAULT_SIGMA = 0.5


def _check_sigma(value: float, name: str = "sigma") -> None:
    if not 0.0 < float(value) < 1.0:
        raise InvalidParameter(f"{name} must lie strictly inside (0, 1), got {value}")


def _normalize_sigma_i(sigma_i):
    if np.ndim(sigma_i) == 0:
        _check_sigma(float(sigma_i), "sigma_i")
        return float(sigma_i)
    values = tuple(float(s) for s in sigma_i)
    for s in values:
        _check_sigma(s, "sigma_i")
    return values


# ---------------------------------------------------------------------------
# Law values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CentralizedNorm:
    """Network-wide rule: fire when ||xhat - x|| >= sigma ||L x|| / ||L||."""

    sigma: float

    def __post_init__(self) -> None:
        _check_sigma(self.sigma)


@dataclass(frozen=True)
class DecentralizedState:
    """Per-agent rule on exact neighbor states.

    Fires when e_i^2 >= sigma_i a (1 - a |N_i|) / |N_i| * z_i^2 with
    z_i = sum_j (x_i - x_j). Requires 0 < a < 1/|N_i| for every agent.

    The threshold vanishes wherever some z_i passes zero, so the exact
    dynamics can accumulate events there (Zeno bursts). The event-driven
    engine resolves them: a burst may exhaust the per-agent event budget and
    end the run with ZenoAbort (exit code 3) on configs that a fixed-step
    integrator, which stepped over the burst, used to finish.
    """

    a: float
    sigma_i: object = DEFAULT_SIGMA

    def __post_init__(self) -> None:
        if not self.a > 0.0:
            raise InvalidParameter(f"a must be positive, got {self.a}")
        object.__setattr__(self, "sigma_i", _normalize_sigma_i(self.sigma_i))


@dataclass(frozen=True)
class TimeDependent:
    """Broadcast when |e_i| >= c0 + c1 exp(-alpha t)."""

    c0: float
    c1: float
    alpha: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.c0, self.c1, self.alpha)):
            raise InvalidParameter(
                f"c0, c1 and alpha must be finite, got {self.c0}, {self.c1}, {self.alpha}"
            )
        if self.c0 < 0.0 or self.c1 < 0.0:
            raise InvalidParameter("c0 and c1 must be nonnegative")
        if self.c0 + self.c1 <= 0.0:
            raise InvalidParameter("c0 + c1 must be positive")
        if self.alpha <= 0.0:
            raise InvalidParameter(f"alpha must be positive, got {self.alpha}")


@dataclass(frozen=True)
class StateDependent:
    """Broadcast-only rule: e_i^2 >= sigma_i / (4 |N_i|) * sum_j (xhat_i - xhat_j)^2."""

    sigma_i: object = DEFAULT_SIGMA

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma_i", _normalize_sigma_i(self.sigma_i))


@dataclass(frozen=True)
class DirectedStateDependent:
    """Weighted out-neighbor rule: e_i^2 >= sigma_i / (4 d_i_out) * sum_j w_ij (xhat_i - xhat_j)^2."""

    sigma_i: object = DEFAULT_SIGMA

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma_i", _normalize_sigma_i(self.sigma_i))


@dataclass(frozen=True)
class PeriodicStateDependent:
    """Directed state-dependent rule evaluated only at multiples of the period h."""

    h: float
    sigma_i: object = DEFAULT_SIGMA

    def __post_init__(self) -> None:
        if not 0.0 < self.h < math.inf:
            raise InvalidParameter(f"h must be positive and finite, got {self.h}")
        object.__setattr__(self, "sigma_i", _normalize_sigma_i(self.sigma_i))


TriggerLaw = Union[
    CentralizedNorm,
    DecentralizedState,
    TimeDependent,
    StateDependent,
    DirectedStateDependent,
    PeriodicStateDependent,
]


@dataclass(frozen=True)
class AgentView:
    """What agent ``i`` can see when deciding whether to fire.

    ``xhat_neighbors`` holds ``(j, w_ij, xhat_j)`` triples for the
    out-neighbors; ``d_out_i`` and ``card_ni`` are the weighted and unweighted
    out-degrees. The broadcast error e_i = xhat_i - x_i is derived, never
    stored.
    """

    i: int
    x_i: float
    xhat_i: float
    xhat_neighbors: tuple
    t: float
    d_out_i: float
    card_ni: int

    def __post_init__(self) -> None:
        if self.card_ni != len(self.xhat_neighbors):
            raise DimensionMismatch(
                f"card_ni={self.card_ni} but {len(self.xhat_neighbors)} neighbors listed"
            )
        total = sum(w for _, w, _ in self.xhat_neighbors)
        if abs(total - self.d_out_i) > 1e-9 * max(1.0, abs(self.d_out_i)):
            raise InvalidParameter(
                f"d_out_i={self.d_out_i} does not match listed weights (sum {total})"
            )

    @property
    def error(self) -> float:
        return self.xhat_i - self.x_i


# ---------------------------------------------------------------------------
# Per-agent sigma handling and graph-level validation
# ---------------------------------------------------------------------------

def per_agent_sigmas(sigma_i, n: int) -> np.ndarray:
    """Expand a scalar or per-agent sigma value to an array of length n."""
    sigma_i = _normalize_sigma_i(sigma_i)
    if isinstance(sigma_i, float):
        return np.full(n, sigma_i)
    values = np.array(sigma_i)
    if values.shape != (n,):
        raise InvalidParameter(
            f"sigma_i must be a scalar or length-{n} sequence, got shape {values.shape}"
        )
    return values


def validate_law(law: TriggerLaw, g: WeightedDigraph) -> None:
    """Check law parameters against the graph they will run on.

    Raises InvalidParameter on any violation; in particular the global ``a``
    of the decentralized law must satisfy 0 < a < 1/max_i |N_i|.
    """
    if isinstance(law, CentralizedNorm):
        return
    if isinstance(law, TimeDependent):
        return
    per_agent_sigmas(law.sigma_i, g.n)
    if isinstance(law, DecentralizedState):
        max_card = g.max_out_neighbors
        if max_card < 1:
            raise InvalidParameter("graph has an agent without neighbors")
        if not 0.0 < law.a < 1.0 / max_card:
            raise InvalidParameter(
                f"a must lie in (0, 1/{max_card}) for this graph, got {law.a}"
            )
    if min(map(len, g.neighbors.out)) < 1:
        raise InvalidParameter("graph has an agent without out-neighbors")


# ---------------------------------------------------------------------------
# Thresholds and evaluators
# ---------------------------------------------------------------------------

def state_dependent_threshold(view: AgentView, sigma_i: float) -> float:
    """Threshold on e_i^2 from broadcast values: sigma_i / (4 |N_i|) * sum (xhat_i - xhat_j)^2."""
    if view.card_ni == 0:
        raise IsolatedAgent(f"agent {view.i} has no neighbors")
    total = 0.0
    for _j, _w, xhat_j in view.xhat_neighbors:
        d = view.xhat_i - xhat_j
        total += d * d
    return sigma_i * total / (4.0 * view.card_ni)


def directed_state_dependent_threshold(view: AgentView, sigma_i: float) -> float:
    """Weighted threshold on e_i^2: sigma_i / (4 d_i_out) * sum w_ij (xhat_i - xhat_j)^2."""
    if view.d_out_i <= 0.0:
        raise IsolatedAgent(f"agent {view.i} has no out-neighbors")
    total = 0.0
    for _j, w, xhat_j in view.xhat_neighbors:
        d = view.xhat_i - xhat_j
        total += w * d * d
    return sigma_i * total / (4.0 * view.d_out_i)


def eval_centralized(
    sigma: float,
    x: np.ndarray,
    xhat: np.ndarray,
    laplacian_matrix: np.ndarray,
    norm_l: float,
) -> bool:
    """Network-wide predicate: fire iff ||xhat - x|| >= sigma ||L x|| / norm_l."""
    _check_sigma(sigma)
    if norm_l <= 0.0:
        raise InvalidParameter(f"norm_l must be positive, got {norm_l}")
    x = np.asarray(x, dtype=float)
    xhat = np.asarray(xhat, dtype=float)
    n = x.shape[0]
    if xhat.shape != (n,) or laplacian_matrix.shape != (n, n):
        raise DimensionMismatch(
            f"x has length {n} but xhat {xhat.shape} / L {laplacian_matrix.shape}"
        )
    err = float(np.linalg.norm(xhat - x))
    if err == 0.0:
        return False
    return err >= sigma * float(np.linalg.norm(laplacian_matrix @ x)) / norm_l


def eval_decentralized_state(
    view: AgentView, sigma_i: float, a: float, x_neighbors_exact
) -> bool:
    """Exact-state predicate: fire iff e_i^2 >= sigma_i a (1 - a|N_i|)/|N_i| * z_i^2.

    ``x_neighbors_exact`` supplies (j, x_j) pairs with the neighbors' true
    states; this law needs continuous neighbor information. The threshold is
    zero where z_i = 0, so as z_i passes zero the agent can fire in a burst
    of events with vanishing gaps (see DecentralizedState).
    """
    _check_sigma(sigma_i, "sigma_i")
    if view.card_ni == 0:
        raise IsolatedAgent(f"agent {view.i} has no neighbors")
    if not 0.0 < a < 1.0 / view.card_ni:
        raise InvalidParameter(
            f"a must lie in (0, 1/{view.card_ni}), got {a}"
        )
    if len(x_neighbors_exact) != view.card_ni:
        raise DimensionMismatch(
            f"expected {view.card_ni} exact neighbor states, got {len(x_neighbors_exact)}"
        )
    z = 0.0
    for _j, x_j in x_neighbors_exact:
        z += view.x_i - x_j
    e = view.error
    if e == 0.0:
        return False
    threshold = sigma_i * a * (1.0 - a * view.card_ni) / view.card_ni * z * z
    return e * e >= threshold


def eval_time_dependent(e_i: float, t: float, c0: float, c1: float, alpha: float) -> bool:
    """Time-threshold predicate: fire iff |e_i| >= c0 + c1 exp(-alpha t)."""
    if c0 < 0.0 or c1 < 0.0 or c0 + c1 <= 0.0:
        raise InvalidParameter("need c0, c1 >= 0 with c0 + c1 > 0")
    if alpha <= 0.0:
        raise InvalidParameter(f"alpha must be positive, got {alpha}")
    if t < 0.0:
        raise InvalidParameter(f"t must be nonnegative, got {t}")
    if e_i == 0.0:
        return False
    return abs(e_i) >= c0 + c1 * math.exp(-alpha * t)


def eval_state_dependent(view: AgentView, sigma_i: float) -> bool:
    """Broadcast-only predicate; uses last-broadcast values exclusively."""
    _check_sigma(sigma_i, "sigma_i")
    e = view.error
    threshold = state_dependent_threshold(view, sigma_i)
    return e != 0.0 and e * e >= threshold


def eval_directed_state_dependent(view: AgentView, sigma_i: float) -> bool:
    """Weighted out-neighbor predicate for weight-balanced digraphs."""
    _check_sigma(sigma_i, "sigma_i")
    e = view.error
    threshold = directed_state_dependent_threshold(view, sigma_i)
    return e != 0.0 and e * e >= threshold


def max_admissible_period(sigma_max: float, w_max: float, n_out_max: int) -> float:
    """Supremum h* of sampling periods compatible with periodic triggering.

    Any h < h* = (1 - sigma_max) / (4 w_max n_out_max) keeps
    sigma_max + 4 h w_max n_out_max strictly below 1.
    """
    _check_sigma(sigma_max, "sigma_max")
    if w_max <= 0.0:
        raise InvalidParameter(f"w_max must be positive, got {w_max}")
    if int(n_out_max) < 1:
        raise InvalidParameter(f"n_out_max must be >= 1, got {n_out_max}")
    return (1.0 - sigma_max) / (4.0 * w_max * int(n_out_max))

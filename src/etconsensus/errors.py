"""Exception types shared by the graph, trigger, engine, and solver layers."""

from __future__ import annotations


class EtConsensusError(Exception):
    """Base class for all package-specific failures."""


class NotConnected(EtConsensusError):
    """Graph is not strongly connected (the zero Laplacian eigenvalue is not simple)."""


class NotBalanced(EtConsensusError):
    """Digraph is not weight-balanced (some out-degree differs from its in-degree)."""


class DimensionMismatch(EtConsensusError, ValueError):
    """Vector or matrix operands disagree in shape."""


class InvalidParameter(EtConsensusError, ValueError):
    """A trigger or solver parameter lies outside its admissible range."""


class IsolatedAgent(EtConsensusError):
    """Trigger evaluation requested for an agent without out-neighbors."""


class NotHurwitz(EtConsensusError):
    """Matrix has an eigenvalue with real part >= -1e-10."""


class NotSPD(EtConsensusError):
    """Matrix is not symmetric positive definite."""


class NoRootFound(EtConsensusError):
    """The scanned interval contains no sign change of the determinant."""


class InsufficientDecay(EtConsensusError):
    """Trace shows too little disagreement decay to fit a rate."""


class ConfigError(EtConsensusError, ValueError):
    """Malformed experiment configuration; the message names the offending field."""


class ZenoAbort(EtConsensusError):
    """Suspected Zeno accumulation: one agent exhausted its event budget for one
    sample interval.

    Carries the event log recorded up to the abort so the run can be inspected
    post mortem.
    """

    def __init__(self, t: float, agent: int, events) -> None:
        super().__init__(
            f"agent {agent} exceeded the event budget within one sample interval "
            f"at t={t:.6g}"
        )
        self.t = t
        self.agent = agent
        self.events = tuple(events)

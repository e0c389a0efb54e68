"""Quantities the consensus theorems predict, measured on simulated traces.

Disagreement, edge-Lyapunov values, conservation error, per-agent inter-event
statistics, and a fitted exponential decay rate are collected into a flat
RunMetrics record that serializes to a key=value block or one CSV row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import ALL_AGENTS, Trace
from .errors import DimensionMismatch, InsufficientDecay


def disagreement(x) -> float:
    """Euclidean distance from x to the agreement subspace: ||x - mean(x) 1||."""
    x = np.asarray(x, dtype=float)
    return float(np.linalg.norm(x - x.mean()))


def lyapunov_edge(x, laplacian_matrix) -> float:
    """Quadratic form x^T L x (nonnegative on weight-balanced graphs)."""
    x = np.asarray(x, dtype=float)
    lap = np.asarray(laplacian_matrix, dtype=float)
    if lap.shape != (x.shape[0], x.shape[0]):
        raise DimensionMismatch(
            f"x has length {x.shape[0]} but L has shape {lap.shape}"
        )
    return float(x @ lap @ x)


def fit_decay_rate(trace: Trace) -> float:
    """Exponential decay rate of the disagreement, by least squares on the log.

    The fit window keeps samples whose disagreement lies in
    [1e-10, 0.5 * initial]: the early transient is skipped and the numerical
    noise floor excluded. Raises InsufficientDecay when fewer than 10 samples
    carry disagreement above 1e-12 or the window holds fewer than two points.
    """
    states = trace.states
    d = np.linalg.norm(states - states.mean(axis=1, keepdims=True), axis=1)
    if int(np.sum(d > 1e-12)) < 10:
        raise InsufficientDecay("fewer than 10 samples with disagreement above 1e-12")
    mask = (d >= 1e-10) & (d <= 0.5 * d[0])
    if int(mask.sum()) < 2:
        raise InsufficientDecay("decay window holds fewer than two samples")
    slope = np.polyfit(trace.times[mask], np.log(d[mask]), 1)[0]
    return float(-slope)


def _gaps_by_agent(events) -> dict:
    """Per-agent sorted event times -> list of consecutive gaps.

    Network-wide records (agent ALL) count as one simultaneous event per
    agent, inferred from the broadcast vector length.
    """
    times: dict[int, list[float]] = {}
    for ev in events:
        if ev.agent == ALL_AGENTS:
            for i in range(len(np.asarray(ev.value))):
                times.setdefault(i, []).append(ev.t)
        else:
            times.setdefault(ev.agent, []).append(ev.t)
    return {
        agent: [b - a for a, b in zip(ts, ts[1:])]
        for agent, ts in times.items()
    }


def inter_event_stats(events, zeno_floor: float):
    """(min_gap, mean_gap, zeno_suspect) over per-agent inter-event gaps.

    With no gaps at all (empty log or a single event per agent) both
    statistics are +inf by convention and the suspect flag stays False.
    """
    return _gap_stats(_gaps_by_agent(events), zeno_floor)


def _gap_stats(by_agent: dict, zeno_floor: float):
    """``inter_event_stats`` of the gaps ``_gaps_by_agent`` grouped, summed
    in its agent order."""
    gaps = [gap for agent_gaps in by_agent.values() for gap in agent_gaps]
    if not gaps:
        return math.inf, math.inf, False
    min_gap = min(gaps)
    return min_gap, sum(gaps) / len(gaps), min_gap < zeno_floor


@dataclass(frozen=True)
class RunMetrics:
    """Flat summary of one simulation run."""

    final_disagreement: float
    conservation_error: float
    events_total: int
    events_per_agent: tuple
    min_gap: float
    mean_gap: float
    decay_rate: float  # NaN when the trace decays too little to fit
    zeno_suspect: bool


def compute_run_metrics(trace: Trace, zeno_floor: float) -> RunMetrics:
    """Collect RunMetrics from a trace; decay rate is NaN when unfittable."""
    sums = trace.states.sum(axis=1)
    conservation = float(np.max(np.abs(sums - sums[0])))
    by_agent = _gaps_by_agent(trace.events)  # an agent's events are its gaps plus one
    counts = tuple(len(by_agent[i]) + 1 if i in by_agent else 0 for i in range(trace.n))
    min_gap, mean_gap, zeno = _gap_stats(by_agent, zeno_floor)
    try:
        rate = fit_decay_rate(trace)
    except InsufficientDecay:
        rate = math.nan
    return RunMetrics(
        final_disagreement=disagreement(trace.states[-1]),
        conservation_error=conservation,
        events_total=sum(counts),
        events_per_agent=counts,
        min_gap=min_gap,
        mean_gap=mean_gap,
        decay_rate=rate,
        zeno_suspect=bool(zeno),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

CSV_FIELDS = (
    "final_disagreement",
    "conservation_error",
    "events_total",
    "events_per_agent",
    "min_gap",
    "mean_gap",
    "decay_rate",
    "zeno_suspect",
)


def _fmt_value(name: str, value) -> str:
    if name == "events_per_agent":
        return ";".join(str(v) for v in value)
    if name == "events_total":
        return str(int(value))
    if name == "zeno_suspect":
        return "true" if value else "false"
    return repr(float(value))


def metrics_kv_block(m: RunMetrics) -> str:
    """Flat key=value text block, one field per line."""
    return "\n".join(f"{k}={_fmt_value(k, getattr(m, k))}" for k in CSV_FIELDS) + "\n"


def metrics_csv_header(extra_fields: tuple = ()) -> str:
    return ",".join(tuple(extra_fields) + CSV_FIELDS)


def metrics_csv_row(m: RunMetrics, extra_values: tuple = ()) -> str:
    """One CSV row; ``extra_values`` (already formatted) are prepended."""
    return ",".join(
        tuple(extra_values) + tuple(_fmt_value(k, getattr(m, k)) for k in CSV_FIELDS)
    )


#: How parse_metrics_csv reads each field that is not a float.
_PARSERS = {
    "events_total": int,
    "events_per_agent": lambda text: tuple(int(v) for v in text.split(";") if v),
    "zeno_suspect": lambda text: text == "true",
}


def _read_cell(row: int, column: str, text: str, parse=float):
    """parse(text) of a metrics CSV cell; an error names its row (1 is the
    first after the header) and column."""
    try:
        return parse(text)
    except ValueError:
        raise ValueError(
            f"metrics CSV row {row}, column {column!r}: cannot read {text!r}") from None


def parse_metrics_csv(text: str) -> tuple:
    """Read back metrics rows written by this module.

    Returns (extra_columns, [(extra_values, RunMetrics), ...]) where
    extra_columns are any sweep parameter columns preceding the standard
    fields.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("metrics CSV is empty")
    header = lines[0].split(",")
    if tuple(header[-len(CSV_FIELDS):]) != CSV_FIELDS:
        raise ValueError("metrics CSV header does not match the expected schema")
    extra = tuple(header[: len(header) - len(CSV_FIELDS)])
    rows = []
    for row, ln in enumerate(lines[1:], 1):
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ValueError(
                f"metrics CSV row {row}: expected {len(header)} columns, got {len(parts)}")
        extras = tuple(parts[: len(extra)])
        cells = zip(CSV_FIELDS, parts[len(extra):])
        m = RunMetrics(**{field: _read_cell(row, field, cell, _PARSERS.get(field, float))
                          for field, cell in cells})
        rows.append((extras, m))
    return extra, rows

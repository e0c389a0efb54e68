"""Experiment runner: parse a config, simulate, write CSVs, and print
theorem-vs-observation bound checks.

Exit codes: 0 success, 2 validation error (the message names the offending
field), 3 suspected Zeno abort. A sweep with an aborted point still runs the
remaining points and writes metrics.csv for those that finished; an aborted
point leaves only its partial events.csv.

Every run replaces its output files: an existing file is unlinked and a new
one written, so nothing an earlier run left at those names survives. Once
every point has resolved, and before it simulates any, ``run`` removes what
an earlier run left in its directory: ``metrics.csv`` and the run files at
the top and in every ``point_NNN/``. So a point or run that fails, or a run
of fewer points, leaves none of an earlier run's files. ``trace.csv`` and
``linear_et_trace.csv`` are written a block of rows at a time, as each is
rendered, through one handle. A failure on the way to any output file
removes it: no partial file is left.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ExperimentConfig,
    apply_overrides,
    load_config,
    load_linear_et_config,
    sweep_points,
)
from .engine import (
    _plain_blocks,
    events_to_csv,
    min_inter_event_bound_centralized,
    convergence_radius_time_trigger,
    simulate_ideal,
    simulate_triggered,
    trace_to_csv,
)
from .errors import EtConsensusError, ZenoAbort
from .graph import WeightedDigraph, spectral_info, validate_graph
from .linear_et import default_t_max, design, min_inter_event_time, simulate_sample_hold
from .metrics import (
    RunMetrics,
    _read_cell,
    compute_run_metrics,
    metrics_csv_header,
    metrics_csv_row,
    metrics_kv_block,
    parse_metrics_csv,
)
from .triggers import (
    CentralizedNorm,
    PeriodicStateDependent,
    TimeDependent,
    max_admissible_period,
)

CONSERVATION_BOUND = 1e-8


@dataclass(frozen=True)
class BoundCheck:
    """One theorem-vs-observation row: PASS iff the observed value respects
    the bound; slack is the margin by which it does."""

    name: str
    observed: float
    bound: float
    passed: bool
    slack: float


def check_bounds(m: RunMetrics, law, g: WeightedDigraph, dt: float) -> tuple:
    """Bound checks applicable to a finished run under the given law.

    law is None for runs of the ideal continuous controller; dt is the run's
    sample spacing, of which the centralized gap check allows 1e-3 as slack.
    Raises what ``validate_graph`` raises, as a run on g would; only the
    ideal, centralized and time-dependent lines compute the spectrum.
    """
    validate_graph(g)
    checks = []

    def at_most(name, observed, bound):
        checks.append(
            BoundCheck(name, observed, bound, bool(observed <= bound), bound - observed)
        )

    def at_least(name, observed, bound):
        checks.append(
            BoundCheck(name, observed, bound, bool(observed >= bound), observed - bound)
        )

    at_most("conservation_error", m.conservation_error, CONSERVATION_BOUND)
    if law is None:
        rate = m.decay_rate if not math.isnan(m.decay_rate) else -math.inf
        at_least("decay_rate", rate, 0.9 * spectral_info(g).lambda2)
    elif isinstance(law, CentralizedNorm):
        tau = min_inter_event_bound_centralized(g, law.sigma)
        at_least("min_inter_event_gap", m.min_gap, tau - dt * 1e-3)
    elif isinstance(law, TimeDependent):
        radius = convergence_radius_time_trigger(g, law.c0)
        at_most("final_disagreement", m.final_disagreement, radius + 1e-6)
    elif isinstance(law, PeriodicStateDependent):
        at_most("period_h", law.h, _admissible_period(law, g))
        at_least("min_inter_event_gap", m.min_gap, law.h)
    return tuple(checks)


def _admissible_period(law: PeriodicStateDependent, g: WeightedDigraph) -> float:
    """h* of the periodic law on g, for its largest sigma_i."""
    sigma_i = law.sigma_i
    sigma = float(sigma_i) if np.isscalar(sigma_i) else float(max(sigma_i))
    return max_admissible_period(sigma, g.max_weight, g.max_out_neighbors)


def format_bound_report(checks) -> str:
    if not checks:
        return "no closed-form bounds apply to this law\n"
    width = max(len(c.name) for c in checks)
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(
            f"{status}  {c.name:<{width}}  observed={c.observed:.6g}  "
            f"bound={c.bound:.6g}  slack={c.slack:.3g}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _warn_periodic(law, g) -> None:
    if not isinstance(law, PeriodicStateDependent):
        return
    h_star = _admissible_period(law, g)
    if law.h >= h_star:
        print(
            f"warning: law.h={law.h:.6g} is not below the admissible period "
            f"h*={h_star:.6g}; convergence is no longer guaranteed, run proceeds flagged",
            file=sys.stderr,
        )


def _simulate(cfg: ExperimentConfig, law, sim):
    if law is None:
        return simulate_ideal(cfg.graph, cfg.x0, sim)
    return simulate_triggered(cfg.graph, law, cfg.x0, sim)


def _create(path: Path):
    """A new file at path, open for text: any existing file is unlinked
    first, never truncated in place. On filesystems that flush a file
    truncated and rewritten at close (ext4's auto_da_alloc), rewriting into an
    existing output directory would wait on that flush, and a rename over the
    file triggers it too. A hard link or an open reader keeps the old bytes;
    a symlink at path is replaced by a regular file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
    return open(path, "x", newline="\n")


@contextlib.contextmanager
def _whole_or_none(path: Path):
    """Remove path if the body fails, for any reason, so no partial file
    (nor one an earlier run left) survives."""
    try:
        yield
    except BaseException:
        with contextlib.suppress(OSError):
            path.unlink(missing_ok=True)
        raise


def _write(path: Path, text: str, into=None) -> None:
    """Replace the file at path with text (``_create``), leaving no file if
    that fails; given ``into``, the handle ``_streaming`` holds open on path,
    add text to its end."""
    if into is not None:
        into.write(text)
        return
    with _whole_or_none(path), _create(path) as fh:
        fh.write(text)


@contextlib.contextmanager
def _streaming(path: Path):
    """Yield a function that writes each text it is given to path, as it
    comes, through one handle on a file that replaces any at path
    (``_create``). If the body fails, for any reason, path is removed."""
    with _whole_or_none(path), _create(path) as fh:
        yield functools.partial(_write, path, into=fh)


#: The files ``run`` writes for one run or sweep point, into its directory.
_RUN_FILES = ("trace.csv", "events.csv", "metrics.txt")


def _remove_earlier_run(out_dir: Path) -> None:
    """Remove the files an earlier run left in out_dir: ``metrics.csv``, and
    the names in _RUN_FILES at its top and in every ``point_NNN/`` directory
    (not a symlinked one), which goes too if that leaves it empty. Files and
    directories of other names stay."""
    if not out_dir.is_dir():
        return
    (out_dir / "metrics.csv").unlink(missing_ok=True)
    stale = [out_dir]
    for path in out_dir.glob("point_*"):
        index = path.name[len("point_"):]
        if (index.isdigit() and path.name == f"point_{int(index):03d}"
                and path.is_dir() and not path.is_symlink()):
            stale.append(path)
    for directory in stale:
        for name in _RUN_FILES:
            (directory / name).unlink(missing_ok=True)
        if directory != out_dir:
            with contextlib.suppress(OSError):  # not empty: other files are not ours
                directory.rmdir()


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.output_dir or cfg.output_dir)
    points = sweep_points(cfg)
    # Resolve every point before simulating any, so a bad one writes nothing.
    resolved = [apply_overrides(cfg, ov) if ov else (cfg.law, cfg.sim) for ov in points]
    sweep_keys = tuple(key for key, _ in cfg.sweep)
    rows = []
    aborted = False
    _remove_earlier_run(out_dir)
    for index, (overrides, (law, sim)) in enumerate(zip(points, resolved)):
        _warn_periodic(law, cfg.graph)
        point_dir = out_dir if len(points) == 1 else out_dir / f"point_{index:03d}"
        try:
            trace = _simulate(cfg, law, sim)
        except ZenoAbort as exc:
            # Keep the partial event log and go on with the remaining points.
            _write(point_dir / "events.csv", events_to_csv(exc.events))
            label = f" {overrides}" if overrides else ""
            print(f"zeno abort{label}: {exc}", file=sys.stderr)
            aborted = True
            continue
        m = compute_run_metrics(trace, sim.zeno_floor)
        with _streaming(point_dir / "trace.csv") as write:
            trace_to_csv(trace, write)
        _write(point_dir / "events.csv", events_to_csv(trace.events))
        _write(point_dir / "metrics.txt", metrics_kv_block(m))
        extras = tuple(repr(float(overrides[k])) for k in sweep_keys)
        rows.append(metrics_csv_row(m, extras))
        if not args.quiet:
            label = f" {overrides}" if overrides else ""
            print(f"run{label}: events={m.events_total} "
                  f"final_disagreement={m.final_disagreement:.6g}")
            print(format_bound_report(check_bounds(m, law, cfg.graph, sim.dt)), end="")
    if rows:
        header = metrics_csv_header(sweep_keys)
        _write(out_dir / "metrics.csv", header + "\n" + "\n".join(rows) + "\n")
    return 3 if aborted else 0


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def cmd_bounds(args) -> int:
    cfg = load_config(args.config)
    extra_cols, rows = parse_metrics_csv(Path(args.metrics).read_text())
    for row, (extras, m) in enumerate(rows, 1):
        overrides = {
            key: _read_cell(row, key, val) for key, val in zip(extra_cols, extras)
        }
        law, sim = (cfg.law, cfg.sim) if not overrides else apply_overrides(cfg, overrides)
        if overrides and not args.quiet:
            print(f"point {overrides}:")
        print(format_bound_report(check_bounds(m, law, cfg.graph, sim.dt)), end="")
    return 0


# ---------------------------------------------------------------------------
# linear-et
# ---------------------------------------------------------------------------

def cmd_linear_et(args) -> int:
    lcfg = load_linear_et_config(args.config)
    out_dir = Path(args.output_dir or lcfg.output_dir)
    # A failed rerun leaves neither file of an earlier run.
    for name in ("linear_et_trace.csv", "linear_et_events.csv"):
        (out_dir / name).unlink(missing_ok=True)
    sys_, lyap = design(lcfg.a, lcfg.b, lcfg.k, lcfg.q, lcfg.r, lcfg.a_s)
    t_max = default_t_max(lyap) if lcfg.t_max is None else lcfg.t_max
    t_min = min_inter_event_time(sys_, lyap, t_max)
    horizon = 20.0 * t_min if lcfg.horizon is None else lcfg.horizon
    trace = simulate_sample_hold(
        sys_, lyap, lcfg.x0, horizon,
        samples_per_interval=lcfg.samples_per_interval, t_max=t_max,
    )
    with _streaming(out_dir / "linear_et_trace.csv") as write:
        head = "t," + ",".join(f"x_{i}" for i in range(lyap.n)) + ",V,S\n"
        columns = (trace.times, trace.states, trace.v_values, trace.s_values)
        for text in _plain_blocks(head, columns):  # the first sample is t = 0
            write(text)
    ev_lines = ["l,t,gap"]
    for idx, t in enumerate(trace.event_times):
        gap = t - trace.event_times[idx - 1] if idx else math.nan
        ev_lines.append(f"{idx},{repr(float(t))},{repr(float(gap))}")
    _write(out_dir / "linear_et_events.csv", "\n".join(ev_lines) + "\n")
    if not args.quiet:
        gaps = trace.gaps
        min_gap = float(gaps.min()) if len(gaps) else math.inf
        worst = float(np.max(trace.v_values - trace.s_values))
        floor_ok = min_gap >= t_min - 1e-8
        perf_ok = worst <= 1e-8
        print(f"t_min={t_min:.6g}  events={len(trace.event_times) - 1}  "
              f"min_gap={min_gap:.6g}")
        print(f"{'PASS' if floor_ok else 'FAIL'}  min_gap >= t_min - 1e-8")
        print(f"{'PASS' if perf_ok else 'FAIL'}  V(t) <= S(t) + 1e-8 "
              f"(max V-S = {worst:.3g})")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; it holds no per-call state."""
    parser = argparse.ArgumentParser(
        prog="etconsensus",
        description="Event-triggered consensus experiment runner",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "linear-et"):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--output-dir", default=None)
        p.add_argument("--quiet", action="store_true")
    p = sub.add_parser("bounds")
    p.add_argument("metrics")
    p.add_argument("config")
    p.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # Looked up per call, not bound into the cached parser, so a command
    # function replaced on the module is the one that runs.
    commands = {"run": cmd_run, "linear-et": cmd_linear_et, "bounds": cmd_bounds}
    try:
        return commands[args.command](args)
    except ZenoAbort as exc:
        print(f"zeno abort: {exc}", file=sys.stderr)
        return 3
    except (EtConsensusError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Runs one workload's passes in a fresh interpreter and checks every output.

run.py starts this script with ``src`` on PYTHONPATH and the BLAS thread
count fixed. It reads the operation list run.py wrote into the work
directory, runs passes through ``etconsensus.cli.main`` until the time is
up, and prints one JSON line with the pass times and the check tallies.
With ``--setup-only`` it stops after importing the package and loading the
workload's inputs, and prints ``ready``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from tracer import Tracer, layer_metrics, patched_names


def parse_metrics_rows(path: Path) -> list:
    """(events_total, final_disagreement) for each row of a metrics.csv."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        rec = dict(zip(header, line.split(",")))
        rows.append((int(rec["events_total"]), float(rec["final_disagreement"])))
    return rows


def parse_linear_et_row(stdout: str) -> list:
    """[(events, t_min)] from the summary line ``linear-et`` prints."""
    for line in stdout.splitlines():
        if line.startswith("t_min="):
            fields = dict(part.split("=") for part in line.split())
            return [(int(fields["events"]), float(fields["t_min"]))]
    return []


#: Output that must be byte-identical across passes of one commit.
IDENTICAL = {"run": "metrics.csv", "linear-et": "linear_et_trace.csv"}


def load_inputs(ops, work: Path) -> None:
    """Parse every config (and its graph file) the workload will run."""
    from etconsensus import config

    for op in ops:
        path = work / op["config"]
        if op["command"] == "run":
            config.load_config(path)
        else:
            config.load_linear_et_config(path)


def run_op(cli, op, work: Path) -> dict:
    out_dir = work / "out" / op["name"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([op["command"], str(work / op["config"]), "--output-dir", str(out_dir)])
    return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


class Checker:
    """Checks each operation's output and counts operations and failures.

    One operation is one CLI run.
    """

    def __init__(self, work: Path) -> None:
        self.work = work
        self.first_bytes: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, op, result) -> tuple:
        """(broadcast events, bytes written) of one finished operation."""
        out_dir = self.work / "out" / op["name"]
        stdout = result["stdout"]
        lines = stdout.splitlines()
        problems = []
        if result["code"] != 0:
            problems.append(f"exit code {result['code']}: {result['stderr'].strip()}")
        if any(line.startswith("FAIL") for line in lines):
            problems.append("bound check FAIL")
        if sum(line.startswith("PASS") for line in lines) < len(op["reference"]):
            problems.append("missing bound report")
        identical = out_dir / IDENTICAL[op["command"]]
        rows = []
        if identical.is_file():
            content = identical.read_bytes()
            if self.first_bytes.setdefault(op["name"], content) != content:
                problems.append(f"{identical.name} differs between passes")
            rows = (parse_metrics_rows(identical) if op["command"] == "run"
                    else parse_linear_et_row(stdout))
        else:
            problems.append(f"{identical.name} not written")
        points = len(op["reference"])
        failed = points if problems else workloads.rows_out_of_band(rows, op["reference"])
        if failed and not problems:
            problems.append(f"outside reference band: {rows} vs {op['reference']}")
        self.attempted += points
        self.failed += failed
        if problems and len(self.problems) < 20:
            self.problems.append(f"{op['name']}: {'; '.join(problems)}")
        written = sum(f.stat().st_size for f in out_dir.rglob("*") if f.is_file())
        return sum(ev for ev, _ in rows), written


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def time_setup(work: Path) -> float:
    """Seconds from starting a fresh interpreter until it has imported the
    package and parsed every input of the workload."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, __file__, "--work", str(work), "--setup-only"],
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up run failed with exit code {proc.returncode}")
    return elapsed


def measure(ops, work: Path, seconds: float, trace: bool) -> dict:
    """Run at least two passes, and more while the next one is expected to
    end within ``seconds``; with ``trace``, every other pass runs with the
    shims installed. Without ``trace``, a set-up is timed after every pass,
    so set-up samples are spread over the whole run."""
    import etconsensus.cli as cli

    tracer = Tracer() if trace else None
    checker = Checker(work)
    passes = []
    setups = []
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        round_start = time.perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.install()
            begin = tracer.mark()
        region = tracer.region if traced else (lambda _label: contextlib.nullcontext())
        try:
            results, times = [], []
            for op in ops:
                with region(f"op.{op['name']}"):
                    start = time.perf_counter()
                    results.append(run_op(cli, op, work))
                    times.append(time.perf_counter() - start)
        finally:
            if traced:
                tracer.uninstall()
        events = written = 0
        for op, result in zip(ops, results):
            ev, nbytes = checker.check(op, result)
            events += ev
            written += nbytes
        record = {"ops": times, "traced": traced, "events": events, "bytes": written}
        if traced:
            record["layers"] = layer_metrics(tracer.aggregate(begin), tracer.take_extra())
        passes.append(record)
        if tracer is None:
            setups.append(time_setup(work))
        now = time.perf_counter()
        rounds.append(now - round_start)
        if len(passes) >= 2 and now + statistics.median(rounds) > deadline:
            break
    if tracer is not None:
        tracer.write(work / "spans.npz")
    leftover = patched_names()
    if leftover:
        checker.problems.append(f"shims left installed: {leftover}")
        checker.failed = checker.attempted
    return {
        "env": environment(),
        "passes": passes,
        "setups": setups,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    work = Path(args.work)
    ops = json.loads((work / "ops.json").read_text())
    load_inputs(ops, work)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    print(json.dumps(measure(ops, work, args.seconds, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

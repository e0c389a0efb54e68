"""Benchmark of the etconsensus simulator.

Run from the repository root:

    python3 perfbench/run.py --workload digraph_ladder --seed 1 --seconds 60 --trace 0

It writes the workload's inputs from ``--seed`` into ``.perfbench/<workload>``,
times set-up in fresh interpreters, then runs passes of the workload in a
worker process for ``--seconds`` and checks every output. The last line of
standard output is one JSON object: with ``--trace 0`` it holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a run in
which every other pass is traced. Lines before it, starting with ``#``,
record the environment and the spread of the pass times.
"""

from __future__ import annotations

import os

#: BLAS threads, fixed in this process and in every process it starts. With
#: the default two OpenBLAS threads on a 2-core machine, the first
#: spectral_info call at n=200 in a fresh process sometimes stalls for
#: 250 ms; with one thread every call takes 6 to 8 ms.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent

#: Seconds a worker may run past ``--seconds`` (one pass plus teardown).
WORKER_GRACE = 120


class BenchError(Exception):
    pass


def run_worker(work: Path, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--work", str(work),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + WORKER_GRACE)
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _joined(values) -> str:
    return ",".join(f"{v:.4f}" for v in values)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def median_pass(passes) -> float:
    """Median wall time of a pass, over the passes of a run."""
    return statistics.median(sum(p["ops"]) for p in passes)


def end_to_end(passes, result) -> dict:
    wall = median_pass(passes)
    return {
        "wall_s": metric(wall, "s"),
        "us_per_event": metric(wall / passes[0]["events"] * 1e6, "us"),
        "setup_s": metric(statistics.median(result["setups"]), "s"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        "output_mb": metric(statistics.median(p["bytes"] for p in passes) / 1e6, "MB"),
        "pass_rate": metric(1.0 - result["failed"] / result["attempted"], "ratio"),
    }


def per_layer(passes) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    out = {}
    for name in traced[0]["layers"]:
        value = statistics.median(p["layers"][name] for p in traced)
        unit = "s" if name.endswith("_s") else "us" if ".us_per_event." in name else "count"
        out[name] = metric(value, unit)
    out["tracing.overhead_ratio"] = metric(median_pass(traced) / median_pass(untraced), "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (Path("src") / "etconsensus" / "__init__.py").is_file():
        print("error: run from the repository root; src/etconsensus not found",
              file=sys.stderr)
        return 2
    work = Path(".perfbench") / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ops = workloads.build(args.workload, args.seed, work, args.tiny)
        (work / "ops.json").write_text(json.dumps(ops))
        result = run_worker(work, args.seconds, args.trace)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = [p for p in result["passes"] if p["traced"] == bool(args.trace)]
    if any(p["events"] == 0 for p in passes):
        print("error: a pass broadcast no events", file=sys.stderr)
        return 1
    walls = [sum(p["ops"]) for p in passes]
    print("# env " + json.dumps(result["env"]))
    print(f"# passes={len(passes)} wall_s={_joined(walls)}")
    if len(walls) > 1:
        print(f"# wall_s quartiles={_joined(statistics.quantiles(walls, n=4))}")
    if result["setups"]:
        print(f"# setup_s={_joined(result['setups'])}")
    for problem in result["problems"]:
        print(f"# check failed: {problem}")
    metrics = per_layer(result["passes"]) if args.trace else end_to_end(passes, result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

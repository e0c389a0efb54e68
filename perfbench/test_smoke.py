"""Smoke test of the benchmark itself: every workload at its smallest size.

Run from the repository root (the tier-1 suite does not collect it):

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_reported_with_unit(workload, trace, group):
    result = run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == expected


def test_shims_cover_every_importer_and_leave_nothing_behind():
    import etconsensus.cli as cli
    import etconsensus.engine as engine
    import etconsensus.graph as graph

    original = graph.spectral_info
    t = tracer.Tracer()
    t.install()
    try:
        for module in (graph, engine, cli):
            assert getattr(module.spectral_info, tracer.SHIM_MARK, False)
        assert getattr(cli.simulate_triggered, tracer.SHIM_MARK, False)
        assert getattr(cli.min_inter_event_time, tracer.SHIM_MARK, False)
        assert tracer.patched_names()
    finally:
        t.uninstall()
    assert tracer.patched_names() == []
    assert graph.spectral_info is original and cli.spectral_info is original

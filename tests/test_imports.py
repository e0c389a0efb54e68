"""Which modules each entry point loads, each checked in a fresh interpreter
(this one already holds every module the suite has imported)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import etconsensus

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC = str(Path(etconsensus.__file__).resolve().parent.parent)

#: What the package exported when it imported every module on load.
EXPORTS = {
    "errors": (
        "ConfigError", "DimensionMismatch", "EtConsensusError", "InsufficientDecay",
        "InvalidParameter", "IsolatedAgent", "NoRootFound", "NotBalanced", "NotConnected",
        "NotHurwitz", "NotSPD", "ZenoAbort",
    ),
    "graph": (
        "SpectralInfo", "WeightedDigraph", "is_strongly_connected", "is_weight_balanced",
        "laplacian", "load_graph", "parse_graph", "random_balanced_digraph",
        "random_connected_undirected", "spectral_info", "validate_graph",
    ),
    "triggers": (
        "AgentView", "CentralizedNorm", "DecentralizedState", "DirectedStateDependent",
        "PeriodicStateDependent", "StateDependent", "TimeDependent", "TriggerLaw",
        "eval_centralized", "eval_decentralized_state", "eval_directed_state_dependent",
        "eval_state_dependent", "eval_time_dependent", "max_admissible_period",
        "per_agent_sigmas", "validate_law",
    ),
    "engine": (
        "ALL_AGENTS", "EventRecord", "SimConfig", "Trace", "convergence_radius_time_trigger",
        "events_to_csv", "min_inter_event_bound_centralized", "sim_config", "simulate_ideal",
        "simulate_triggered", "trace_to_csv",
    ),
    "metrics": (
        "RunMetrics", "compute_run_metrics", "disagreement", "fit_decay_rate",
        "inter_event_stats", "lyapunov_edge", "metrics_csv_header", "metrics_csv_row",
        "metrics_kv_block",
    ),
    "linear_et": (
        "LinearEtSystem", "LyapunovData", "SampleHoldTrace", "default_t_max", "design",
        "gap_matrix", "matrix_exponential", "min_inter_event_time", "next_event_time",
        "simulate_sample_hold", "solve_lyapunov", "trigger_gap",
    ),
    "config": (
        "ExperimentConfig", "LinearEtConfig", "Xorshift64Star", "load_config",
        "load_linear_et_config", "random_x0",
    ),
}

#: Prints, as JSON, the modules loaded once the code before it has run.
REPORT = """
import json, sys
print(json.dumps(sorted(sys.modules)))
"""


def loaded_after(code: str, cwd: Path) -> set:
    """The modules a fresh interpreter holds after running code."""
    proc = subprocess.run(
        [sys.executable, "-c", code + REPORT], cwd=cwd, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def package_modules(modules: set) -> set:
    return {name for name in modules if name.split(".")[0] == "etconsensus"}


def cli_call(*argv) -> str:
    """Code that runs the command line's main on argv and checks its exit code."""
    return (
        "from etconsensus.cli import main\n"
        "try:\n"
        f"    code = main({list(argv)!r})\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "assert code == 0, code\n"
    )


def test_importing_the_package_loads_no_module_of_it(tmp_path):
    assert package_modules(loaded_after("import etconsensus", tmp_path)) == {"etconsensus"}


def test_a_linear_et_config_parses_with_config_and_errors_alone(tmp_path):
    code = ("from etconsensus.config import load_linear_et_config\n"
            f"load_linear_et_config({str(CONFIG_DIR / 'linear_et_2d.cfg')!r})\n")
    assert package_modules(loaded_after(code, tmp_path)) == {
        "etconsensus", "etconsensus.config", "etconsensus.errors"}


def test_linear_et_loads_no_engine_graph_triggers_or_metrics(tmp_path):
    code = cli_call("linear-et", str(CONFIG_DIR / "linear_et_2d.cfg"),
                    "--output-dir", str(tmp_path / "out"), "--quiet")
    loaded = package_modules(loaded_after(code, tmp_path))
    assert "etconsensus.linear_et" in loaded
    for name in ("engine", "graph", "triggers", "metrics"):
        assert f"etconsensus.{name}" not in loaded


def test_a_triggered_run_loads_no_linear_et(tmp_path):
    code = cli_call("run", str(CONFIG_DIR / "directed_cycle5.cfg"),
                    "--output-dir", str(tmp_path / "out"))
    loaded = package_modules(loaded_after(code, tmp_path))
    assert {"etconsensus.engine", "etconsensus.metrics"} <= loaded
    assert "etconsensus.linear_et" not in loaded


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_version_and_help_load_no_numpy(tmp_path, flag):
    loaded = loaded_after(cli_call(flag), tmp_path)
    assert "numpy" not in loaded
    assert package_modules(loaded) == {"etconsensus", "etconsensus.cli", "etconsensus.errors"}


def test_every_exported_name_resolves_to_its_module_object(tmp_path):
    """Each name the package exported before it loaded lazily is still in
    ``__all__`` and ``dir()``, and is its module's object; so is ``cli``'s
    view of it. An unknown name raises AttributeError."""
    code = f"""
import importlib
import etconsensus
import etconsensus.cli as cli
exports = {EXPORTS!r}
names = [name for group in exports.values() for name in group]
assert sorted(etconsensus.__all__) == sorted(["__version__", *names]), etconsensus.__all__
assert set(names) <= set(dir(etconsensus))
for module, group in exports.items():
    mod = importlib.import_module("etconsensus." + module)
    for name in group:
        assert getattr(etconsensus, name) is getattr(mod, name), name
        assert getattr(cli, name) is getattr(mod, name), name
for owner in (etconsensus, cli):
    try:
        owner.no_such_name
    except AttributeError:
        pass
    else:
        raise AssertionError(owner)
"""
    loaded_after(code, tmp_path)

import math
from pathlib import Path

import numpy as np
import pytest

from etconsensus import (
    CentralizedNorm,
    PeriodicStateDependent,
    TimeDependent,
    WeightedDigraph,
    min_inter_event_bound_centralized,
)
from etconsensus.cli import check_bounds, main
from etconsensus.config import load_linear_et_config
from etconsensus.linear_et import default_t_max, design, simulate_sample_hold
from etconsensus.metrics import RunMetrics, parse_metrics_csv
from helpers import assert_same_csv

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

GRAPH_BLOCK = """
[graph]
n = 2
mode = undirected
edges = 0 1 1.0
"""


def make_config(tmp_path, law_block, horizon=5, x0="1, -1", extra="", name="exp.cfg"):
    text = GRAPH_BLOCK + f"""
[law]
{law_block}

[sim]
horizon = {horizon}

[run]
x0 = {x0}
output_dir = {tmp_path / 'out'}
{extra}
"""
    path = tmp_path / name
    path.write_text(text)
    return path


def test_run_writes_outputs(tmp_path, capsys):
    cfg = make_config(tmp_path, "type = state_dependent\nsigma_i = 0.5", horizon=20)
    assert main(["run", str(cfg)]) == 0
    out = tmp_path / "out"
    for fname in ("trace.csv", "events.csv", "metrics.csv", "metrics.txt"):
        assert (out / fname).exists()
    _, rows = parse_metrics_csv((out / "metrics.csv").read_text())
    m = rows[0][1]
    assert m.final_disagreement <= 1e-3
    assert m.conservation_error <= 1e-8
    captured = capsys.readouterr()
    assert "PASS" in captured.out


def test_run_rejects_self_loop(tmp_path, capsys):
    cfg = make_config(tmp_path, "type = state_dependent")
    cfg.write_text(cfg.read_text().replace("edges = 0 1 1.0", "edges = 1 1 0.5"))
    assert main(["run", str(cfg)]) == 2
    assert "self-loop" in capsys.readouterr().err


def test_run_zeno_abort_exit_code(tmp_path, capsys):
    law = "type = decentralized_state\na = 0.999999999999999\nsigma_i = 0.999"
    cfg = make_config(tmp_path, law, horizon=0.001)
    cfg.write_text(cfg.read_text().replace(
        "[sim]\nhorizon = 0.001",
        "[sim]\nhorizon = 0.001\ndt = 0.0005",
    ))
    assert main(["run", str(cfg)]) == 3
    assert "zeno" in capsys.readouterr().err.lower()
    assert (tmp_path / "out" / "events.csv").exists()


def test_run_rejects_non_finite_x0(tmp_path, capsys):
    cfg = make_config(tmp_path, "type = state_dependent", x0="nan, 1")
    assert main(["run", str(cfg)]) == 2
    assert "run.x0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, law, horizon, dt", [
    ("sim.horizon", "type = state_dependent", "inf", None),
    ("sim.horizon", "type = state_dependent", "nan", None),
    ("sim.dt", "type = state_dependent", 5, "inf"),
    ("law.h", "type = periodic_state_dependent\nh = inf", 5, None),
    ("law.c0", "type = time_dependent\nc0 = nan\nc1 = 1\nalpha = 1", 5, None),
    ("law.alpha", "type = time_dependent\nc0 = 0.1\nc1 = 1\nalpha = nan", 5, None),
])
def test_run_rejects_non_finite_config_numbers(tmp_path, capsys, key, law, horizon, dt):
    """A nan or infinite number is a validation error that names its key,
    raised before any output is written."""
    cfg = make_config(tmp_path, law, horizon=horizon)
    if dt is not None:
        cfg.write_text(cfg.read_text().replace("[sim]\n", f"[sim]\ndt = {dt}\n"))
    assert main(["run", str(cfg)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_zeno_abort_keeps_finished_points(tmp_path, capsys):
    law = "type = decentralized_state\na = 0.5\nsigma_i = 0.999"
    cfg = make_config(tmp_path, law, horizon=0.001,
                      extra="\n[sweep]\nlaw.a = 0.5, 0.999999999999999, 0.25\n")
    cfg.write_text(cfg.read_text().replace(
        "[sim]\nhorizon = 0.001",
        "[sim]\nhorizon = 0.001\ndt = 0.0005",
    ))
    assert main(["run", str(cfg), "--quiet"]) == 3
    assert "zeno" in capsys.readouterr().err.lower()
    out = tmp_path / "out"
    _, rows = parse_metrics_csv((out / "metrics.csv").read_text())
    assert [r[0][0] for r in rows] == ["0.5", "0.25"]
    assert (out / "point_000" / "trace.csv").exists()
    assert (out / "point_001" / "events.csv").exists()
    assert not (out / "point_001" / "trace.csv").exists()
    assert (out / "point_002" / "trace.csv").exists()
    assert not (out / "events.csv").exists()


def test_run_is_byte_deterministic(tmp_path):
    cfg = make_config(tmp_path, "type = centralized\nsigma = 0.5",
                      x0="random(9, -1, 1)")
    assert main(["run", str(cfg), "--quiet", "--output-dir", str(tmp_path / "a")]) == 0
    assert main(["run", str(cfg), "--quiet", "--output-dir", str(tmp_path / "b")]) == 0
    for fname in ("metrics.csv", "trace.csv", "events.csv"):
        a, b = ((tmp_path / d / fname).read_text() for d in ("a", "b"))
        assert_same_csv(a, b, fname)


def test_run_sweep_outputs(tmp_path):
    cfg = make_config(
        tmp_path,
        "type = centralized\nsigma = 0.5",
        extra="\n[sweep]\nlaw.sigma = 0.1, 0.5, 0.9\n",
    )
    assert main(["run", str(cfg), "--quiet"]) == 0
    extra, rows = parse_metrics_csv((tmp_path / "out" / "metrics.csv").read_text())
    assert extra == ("law.sigma",)
    assert [r[0][0] for r in rows] == ["0.1", "0.5", "0.9"]
    assert (tmp_path / "out" / "point_002" / "trace.csv").exists()


def test_sweep_computes_spectral_info_once(tmp_path, monkeypatch):
    """One eigendecomposition and one ||L||_2 for the graph of a 3-point
    sweep, bound checks included."""
    counts = {"eigvalsh": 0, "norm2": 0}
    eigvalsh, norm = np.linalg.eigvalsh, np.linalg.norm

    def counting_eigvalsh(*args, **kwargs):
        counts["eigvalsh"] += 1
        return eigvalsh(*args, **kwargs)

    def counting_norm(x, ord=None, *args, **kwargs):
        counts["norm2"] += ord == 2
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    config = CONFIG_DIR / "centralized_k3.cfg"
    assert main(["run", str(config), "--output-dir", str(tmp_path)]) == 0
    assert len(list(tmp_path.glob("point_*"))) == 3
    assert counts == {"eigvalsh": 1, "norm2": 1}


def test_bounds_subcommand(tmp_path, capsys):
    cfg = make_config(tmp_path, "type = centralized\nsigma = 0.5")
    assert main(["run", str(cfg), "--quiet"]) == 0
    metrics = tmp_path / "out" / "metrics.csv"
    assert main(["bounds", str(metrics), str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "min_inter_event_gap" in out and "PASS" in out


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIG_DIR.glob("*.cfg")))
def test_shipped_configs_pass_their_bound_tables(tmp_path, capsys, config):
    path = CONFIG_DIR / config
    command = "linear-et" if "[linear_et]" in path.read_text() else "run"
    assert main([command, str(path), "--output-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("where", ["[sim]", "[sweep]"])
def test_event_tol_key_is_rejected(tmp_path, capsys, where):
    """event_tol is no longer a [sim] key; a config or a sweep naming it is a
    validation error that names the key."""
    cfg = make_config(tmp_path, "type = centralized\nsigma = 0.5")
    text = cfg.read_text()
    if where == "[sim]":
        text = text.replace("[sim]\n", "[sim]\nevent_tol = 1e-9\n")
    else:
        text += "\n[sweep]\nsim.event_tol = 1e-9, 1e-8\n"
    cfg.write_text(text)
    assert main(["run", str(cfg)]) == 2
    assert "event_tol" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_periodic_inadmissible_h_warns_but_runs(tmp_path, capsys):
    # h* = 0.5/4 = 0.125 on P2; h = 0.2 violates the admissibility condition
    cfg = make_config(tmp_path, "type = periodic_state_dependent\nh = 0.2", horizon=3)
    assert main(["run", str(cfg), "--quiet"]) == 0
    assert "admissible period" in capsys.readouterr().err


LINEAR_PLANTS = {
    "double integrator": """
n = 2
m = 1
a = 0, 1, 0, 0
b = 0, 1
k = -2, -3
q = 1, 0, 0, 1
r = 0.5, 0, 0, 0.5
x0 = 1, 0
horizon = 6
""",
    "triple integrator": """
n = 3
m = 1
a = 0, 1, 0, 0, 0, 1, 0, 0, 0
b = 0, 0, 1
k = -2, -3, -4
q = 1, 0, 0, 0, 1, 0, 0, 0, 1
r = 0.5, 0, 0, 0, 0.5, 0, 0, 0, 0.5
x0 = 1, -0.0, 0.5
horizon = 8
""",
}


def make_linear_config(tmp_path, plant="double integrator", out="let"):
    cfg = tmp_path / f"{out}.cfg"
    cfg.write_text(f"[linear_et]{LINEAR_PLANTS[plant]}\n[run]\noutput_dir = {tmp_path / out}\n")
    return cfg


def test_linear_et_subcommand(tmp_path, capsys):
    cfg = make_linear_config(tmp_path)
    assert main(["linear-et", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "t_min" in out and "PASS" in out and "FAIL" not in out
    assert (tmp_path / "let" / "linear_et_trace.csv").exists()
    assert (tmp_path / "let" / "linear_et_events.csv").exists()


@pytest.mark.parametrize("key, value", [
    ("x0", "nan, 0"),
    ("x0", "inf, 0"),
    ("t_max", "0"),
    ("horizon", "0"),
    ("horizon", "-1"),
    ("samples_per_interval", "2.5"),
])
def test_linear_et_rejects_bad_numbers(tmp_path, capsys, key, value):
    """Non-finite values, a zero or negative t_max or horizon (which once
    fell back to the defaults) and a non-integer sample count are
    validation errors that name the key."""
    cfg = make_linear_config(tmp_path)
    lines = [line for line in cfg.read_text().splitlines() if not line.startswith(f"{key} =")]
    lines.insert(1, f"{key} = {value}")
    cfg.write_text("\n".join(lines) + "\n")
    assert main(["linear-et", str(cfg)]) == 2
    assert f"linear_et.{key}" in capsys.readouterr().err
    assert not (tmp_path / "let").exists()


def parent_linear_et_trace_csv(trace, n):
    """The per-element formatter of linear_et_trace.csv that the table render
    replaced."""
    lines = ["t," + ",".join(f"x_{i}" for i in range(n)) + ",V,S"]
    for kk in range(len(trace.times)):
        lines.append(",".join(
            [repr(float(trace.times[kk]))]
            + [repr(float(v)) for v in trace.states[kk]]
            + [repr(float(trace.v_values[kk])), repr(float(trace.s_values[kk]))]
        ))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("plant", sorted(LINEAR_PLANTS))
def test_linear_et_trace_matches_per_element_formatter(tmp_path, plant):
    cfg = make_linear_config(tmp_path, plant)
    assert main(["linear-et", str(cfg), "--quiet"]) == 0
    lcfg = load_linear_et_config(cfg)
    sys_, lyap = design(lcfg.a, lcfg.b, lcfg.k, lcfg.q, lcfg.r, lcfg.a_s)
    t_max = lcfg.t_max or default_t_max(lyap)
    trace = simulate_sample_hold(sys_, lyap, lcfg.x0, lcfg.horizon,
                                 samples_per_interval=lcfg.samples_per_interval, t_max=t_max)
    assert len(trace.event_times) > 2
    written = (tmp_path / "let" / "linear_et_trace.csv").read_text()
    assert written == parent_linear_et_trace_csv(trace, lyap.n)


def test_main_calls_in_one_process_are_independent(tmp_path, capsys):
    run_cfg = make_config(tmp_path, "type = state_dependent\nsigma_i = 0.5", horizon=2)
    linear_cfg = make_linear_config(tmp_path, out="linear")
    assert main(["run", str(run_cfg), "--quiet", "--output-dir", str(tmp_path / "a")]) == 0
    assert capsys.readouterr().out == ""
    assert main(["linear-et", str(linear_cfg)]) == 0
    assert "t_min=" in capsys.readouterr().out
    assert main(["run", str(run_cfg)]) == 0
    assert "PASS" in capsys.readouterr().out
    metrics = tmp_path / "a" / "metrics.csv"
    assert main(["bounds", str(metrics), str(run_cfg), "--quiet"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert (tmp_path / "linear" / "linear_et_trace.csv").exists()
    assert not (tmp_path / "linear" / "trace.csv").exists()
    assert (tmp_path / "out" / "metrics.csv").read_text() == metrics.read_text()
    assert main(["run", str(run_cfg), "--output-dir", str(tmp_path / "a")]) == 0
    assert "PASS" in capsys.readouterr().out


def test_missing_config_is_validation_error(capsys):
    assert main(["run", "/nonexistent/exp.cfg"]) == 2


# -- check_bounds unit behaviour ------------------------------------------------

DT = 0.005  # the default sample spacing 0.01 / lambda_N on P2


def metrics_stub(**kw) -> RunMetrics:
    base = dict(
        final_disagreement=1e-6,
        conservation_error=1e-12,
        events_total=10,
        events_per_agent=(5, 5),
        min_gap=0.2,
        mean_gap=0.3,
        decay_rate=2.1,
        zeno_suspect=False,
    )
    base.update(kw)
    return RunMetrics(**base)


def test_check_bounds_centralized(p2):
    tau = min_inter_event_bound_centralized(p2, 0.5)
    ok = check_bounds(metrics_stub(min_gap=tau + 0.01), CentralizedNorm(0.5), p2, DT)
    assert all(c.passed for c in ok)
    bad = check_bounds(metrics_stub(min_gap=tau - 0.01), CentralizedNorm(0.5), p2, DT)
    assert any(not c.passed and c.name == "min_inter_event_gap" for c in bad)
    gap = next(c for c in ok if c.name == "min_inter_event_gap")
    assert gap.bound == tau - DT * 1e-3


def test_check_bounds_time_dependent_radius(p2):
    law = TimeDependent(c0=0.1, c1=0.0, alpha=1.0)
    good = check_bounds(metrics_stub(final_disagreement=0.1), law, p2, DT)
    assert all(c.passed for c in good)
    bad = check_bounds(metrics_stub(final_disagreement=0.2), law, p2, DT)
    assert any(not c.passed for c in bad)


def test_check_bounds_ideal_decay(p2):
    assert all(c.passed for c in check_bounds(metrics_stub(decay_rate=2.0), None, p2, DT))
    nan = check_bounds(metrics_stub(decay_rate=math.nan), None, p2, DT)
    assert any(not c.passed and c.name == "decay_rate" for c in nan)


def test_check_bounds_periodic(p2):
    law = PeriodicStateDependent(h=0.05)
    checks = check_bounds(metrics_stub(min_gap=0.05), law, p2, DT)
    names = {c.name: c.passed for c in checks}
    assert names["period_h"] and names["min_inter_event_gap"]

import dataclasses
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from etconsensus import (
    CentralizedNorm,
    NotConnected,
    PeriodicStateDependent,
    TimeDependent,
    WeightedDigraph,
    min_inter_event_bound_centralized,
    sim_config,
)
from etconsensus import _floatrepr, cli
from etconsensus.cli import check_bounds, main
from etconsensus.config import load_config, load_linear_et_config
from etconsensus.engine import _CSV_BLOCK
from etconsensus.linear_et import default_t_max, design, simulate_sample_hold
from etconsensus.metrics import RunMetrics, parse_metrics_csv
from helpers import assert_same_csv, random_linear_system

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


ZENO_A = "0.999999999999999"  # decentralized_state a that aborts at dt = 0.0005


def zeno_config(tmp_path, a=ZENO_A, sweep=None, name="exp.cfg"):
    """Decentralized law on P2 at dt = 0.0005: a = ZENO_A aborts, a = 0.5 and
    a = 0.25 finish; ``sweep`` lists values of law.a."""
    law = f"type = decentralized_state\na = {a}\nsigma_i = 0.999"
    extra = f"\n[sweep]\nlaw.a = {sweep}\n" if sweep else ""
    cfg = make_config(tmp_path, law, horizon=0.001, extra=extra, name=name)
    cfg.write_text(cfg.read_text().replace(
        "[sim]\nhorizon = 0.001",
        "[sim]\nhorizon = 0.001\ndt = 0.0005",
    ))
    return cfg


def test_run_zeno_abort_exit_code(tmp_path, capsys):
    cfg = zeno_config(tmp_path)
    assert main(["run", str(cfg)]) == 3
    assert "zeno" in capsys.readouterr().err.lower()
    assert (tmp_path / "out" / "events.csv").exists()


def test_run_rejects_non_finite_x0(tmp_path, capsys):
    cfg = make_config(tmp_path, "type = state_dependent", x0="nan, 1")
    assert main(["run", str(cfg)]) == 2
    assert "run.x0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_names_x0_when_a_random_bound_does_not_parse(tmp_path, capsys):
    cfg = make_config(tmp_path, "type = state_dependent", x0="random(1, 1e, 2)")
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
    cfg = zeno_config(tmp_path, sweep=f"0.5, {ZENO_A}, 0.25")
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


def output_files(out_dir: Path) -> dict:
    """Bytes of every file under out_dir, by relative path."""
    return {str(f.relative_to(out_dir)): f.read_bytes()
            for f in sorted(out_dir.rglob("*")) if f.is_file()}


def test_aborted_run_leaves_no_stale_artifacts(tmp_path, capsys):
    """A Zeno abort into the directory of a finished run leaves only its own
    partial events.csv, so `bounds` cannot pass on the old metrics."""
    finished = zeno_config(tmp_path, a="0.5", name="ok.cfg")
    aborted = zeno_config(tmp_path)
    assert main(["run", str(finished), "--quiet"]) == 0
    out = tmp_path / "out"
    assert set(output_files(out)) == {"trace.csv", "events.csv", "metrics.txt", "metrics.csv"}
    assert main(["run", str(aborted), "--quiet"]) == 3
    assert set(output_files(out)) == {"events.csv"}
    capsys.readouterr()
    assert main(["bounds", str(out / "metrics.csv"), str(aborted)]) == 2
    assert "PASS" not in capsys.readouterr().out


def test_aborted_sweep_point_leaves_no_stale_artifacts(tmp_path, capsys):
    """A rerun sweep whose middle point aborts removes that point's old trace
    and metrics; metrics.csv holds the points that finished, and goes away
    when none did."""
    out = tmp_path / "out"
    assert main(["run", str(zeno_config(tmp_path, sweep="0.5, 0.3, 0.25")), "--quiet"]) == 0
    assert (out / "point_001" / "trace.csv").exists()
    assert main(["run", str(zeno_config(tmp_path, sweep=f"0.5, {ZENO_A}, 0.25")),
                 "--quiet"]) == 3
    files = set(output_files(out))
    assert {f for f in files if f.startswith("point_001")} == {"point_001/events.csv"}
    assert {"point_000/trace.csv", "point_002/metrics.txt", "metrics.csv"} <= files
    _, rows = parse_metrics_csv((out / "metrics.csv").read_text())
    assert [r[0][0] for r in rows] == ["0.5", "0.25"]
    assert main(["run", str(zeno_config(tmp_path, sweep=f"{ZENO_A}, {ZENO_A}")),
                 "--quiet"]) == 3
    assert not (out / "metrics.csv").exists()
    assert not (out / "point_000" / "trace.csv").exists()
    assert "zeno" in capsys.readouterr().err.lower()


def test_failed_sweep_leaves_none_of_an_earlier_runs_files(tmp_path, monkeypatch, capsys):
    """A rerun of the 19-point sweep that fails at point_001 (exit 2) leaves
    only the point it finished: the earlier run's later points and its
    metrics.csv are gone."""
    argv = ["run", str(CONFIG_DIR / "centralized_sigma_sweep.cfg"),
            "--output-dir", str(tmp_path / "out"), "--quiet"]
    assert main(argv) == 0
    assert len(output_files(tmp_path / "out")) == 1 + 19 * 3
    simulate, calls = cli._simulate, []

    def fail_at_second_point(*args):
        calls.append(args)
        if len(calls) == 2:
            raise ValueError("injected failure")
        return simulate(*args)
    monkeypatch.setattr(cli, "_simulate", fail_at_second_point)
    assert main(argv) == 2
    assert "injected failure" in capsys.readouterr().err
    assert set(output_files(tmp_path / "out")) == {
        f"point_000/{name}" for name in ("trace.csv", "events.csv", "metrics.txt")}
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["point_000"]


def sweep_config(tmp_path, sigmas=None, name="exp.cfg"):
    """A centralized run on the 2-node path, a sweep over sigma if given."""
    extra = f"\n[sweep]\nlaw.sigma = {sigmas}\n" if sigmas else ""
    return make_config(tmp_path, "type = centralized\nsigma = 0.5", horizon=2, extra=extra, name=name)


def test_shorter_sweep_removes_the_longer_sweeps_extra_points(tmp_path):
    """Only this program's run files go, and a point directory only if that
    empties it."""
    out = tmp_path / "out"
    assert main(["run", str(sweep_config(tmp_path, "0.1, 0.3, 0.5, 0.7")), "--quiet"]) == 0
    (out / "point_003" / "notes.txt").write_text("mine")
    assert main(["run", str(sweep_config(tmp_path, "0.2, 0.4")), "--quiet"]) == 0
    run_files = {"trace.csv", "events.csv", "metrics.txt"}
    assert set(output_files(out)) == ({f"point_00{i}/{f}" for i in (0, 1) for f in run_files}
                                      | {"metrics.csv", "point_003/notes.txt"})
    assert not (out / "point_002").exists()


def test_single_run_removes_a_sweeps_points(tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(sweep_config(tmp_path, "0.1, 0.3, 0.5")), "--quiet"]) == 0
    assert main(["run", str(sweep_config(tmp_path)), "--quiet"]) == 0
    assert set(output_files(out)) == {"trace.csv", "events.csv", "metrics.txt", "metrics.csv"}
    assert sorted(p.name for p in out.iterdir()) == sorted(output_files(out))


def test_sweep_removes_a_single_runs_files(tmp_path):
    """A sweep writes no run files at the top of its directory, so it removes
    those of a single run there; files and directories it does not name stay."""
    out = tmp_path / "out"
    assert main(["run", str(sweep_config(tmp_path)), "--quiet"]) == 0
    for keep in ("notes.txt", "point_7/trace.csv", "points/trace.csv"):
        (out / keep).parent.mkdir(exist_ok=True)
        (out / keep).write_text("mine")
    assert main(["run", str(sweep_config(tmp_path, "0.2, 0.4")), "--quiet"]) == 0
    assert set(output_files(out)) == ({f"point_00{i}/{f}" for i in (0, 1)
                                       for f in ("trace.csv", "events.csv", "metrics.txt")}
                                      | {"metrics.csv", "notes.txt", "point_7/trace.csv",
                                         "points/trace.csv"})


@pytest.mark.parametrize("command, config", [
    ("run", "centralized_k3.cfg"),
    ("linear-et", "linear_et_2d.cfg"),
])
def test_rerun_into_one_directory_gives_identical_bytes(tmp_path, capsys, command, config):
    argv = [command, str(CONFIG_DIR / config), "--output-dir", str(tmp_path / "out")]
    assert main(argv) == 0
    first = output_files(tmp_path / "out")
    assert first
    assert main(argv) == 0
    assert output_files(tmp_path / "out") == first
    stdout = capsys.readouterr().out
    assert stdout[:len(stdout) // 2] == stdout[len(stdout) // 2:]


def test_rerun_replaces_files_a_hard_link_keeps_the_old_bytes(tmp_path):
    """The rerun writes a new file: a hard link to the old trace.csv, made
    before it, still holds the old bytes."""
    cfg = make_config(tmp_path, "type = state_dependent\nsigma_i = 0.5", horizon=20)
    assert main(["run", str(cfg), "--quiet"]) == 0
    trace = tmp_path / "out" / "trace.csv"
    old = trace.read_bytes()
    os.link(trace, tmp_path / "kept.csv")
    cfg.write_text(cfg.read_text().replace("horizon = 20", "horizon = 5"))
    assert main(["run", str(cfg), "--quiet"]) == 0
    assert (tmp_path / "kept.csv").read_bytes() == old
    assert trace.read_bytes() != old
    assert not os.path.samefile(trace, tmp_path / "kept.csv")


def test_rerun_leaves_an_open_reader_on_the_old_file(tmp_path):
    """A reader that opened trace.csv before a rerun reads the whole old file,
    not a truncated or rewritten one."""
    cfg = make_config(tmp_path, "type = state_dependent\nsigma_i = 0.5", horizon=20)
    assert main(["run", str(cfg), "--quiet"]) == 0
    trace = tmp_path / "out" / "trace.csv"
    old = trace.read_bytes()
    with open(trace, "rb") as reader:
        head = reader.read(100)
        cfg.write_text(cfg.read_text().replace("horizon = 20", "horizon = 5"))
        assert main(["run", str(cfg), "--quiet"]) == 0
        assert head + reader.read() == old
    assert len(trace.read_bytes()) < len(old)


def test_symlinked_output_becomes_a_regular_file(tmp_path):
    target = tmp_path / "elsewhere.csv"
    target.write_text("kept\n")
    (tmp_path / "let").mkdir()
    link = tmp_path / "let" / "linear_et_events.csv"
    link.symlink_to(target)
    assert main(["linear-et", str(make_linear_config(tmp_path)), "--quiet"]) == 0
    assert target.read_text() == "kept\n"
    assert not link.is_symlink()
    assert link.read_text().startswith("l,t,gap\n")


def streamed(tmp_path, command):
    """argv of a run whose trace file spans several render blocks, and that
    file: 4,001 rows on the 2-node path (dt 0.005, horizon 20), 2,201 for
    the double integrator at 200 samples per interval."""
    if command == "run":
        cfg = make_config(tmp_path, "type = state_dependent\nsigma_i = 0.5", horizon=20)
        return ["run", str(cfg), "--quiet"], tmp_path / "out" / "trace.csv"
    cfg = make_linear_config(tmp_path)
    cfg.write_text(cfg.read_text().replace("[run]", "samples_per_interval = 200\n[run]"))
    return ["linear-et", str(cfg), "--quiet"], tmp_path / "let" / "linear_et_trace.csv"


@pytest.mark.parametrize("command", ["run", "linear-et"])
def test_every_write_is_a_str_and_the_writes_make_the_file(tmp_path, monkeypatch, command):
    """Every output byte goes through ``cli._write(path, text)`` with text a
    str, the trace file's once per block; each file is the join of the texts
    written to its path."""
    argv, trace = streamed(tmp_path, command)
    written, write = {}, cli._write

    def spy(path, text, *args, **kwargs):
        assert isinstance(text, str)
        written.setdefault(path, []).append(text)
        write(path, text, *args, **kwargs)

    monkeypatch.setattr(cli, "_write", spy)
    assert main(argv) == 0
    assert len(written[trace]) > 2
    assert set(written) == set(trace.parent.iterdir())
    for path, texts in written.items():
        assert path.read_text() == "".join(texts)
        assert path.stat().st_size == sum(map(len, texts))


@pytest.mark.parametrize("command", ["run", "linear-et"])
def test_each_output_file_is_opened_once(tmp_path, monkeypatch, command):
    """The trace file's blocks go through one handle, opened once; every
    other output file is opened once too."""
    argv, trace = streamed(tmp_path, command)
    opened, create = [], cli._create
    monkeypatch.setattr(cli, "_create", lambda path: opened.append(path) or create(path))
    assert main(argv) == 0
    assert sorted(opened) == sorted(trace.parent.iterdir())
    assert trace.stat().st_size > 4 * _CSV_BLOCK


class FailingHandle:
    """A text file handle that writes the first half of a text, flushes it to
    disk and then raises OSError, as a full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("name", ["events.csv", "metrics.txt", "metrics.csv",
                                  "linear_et_events.csv"])
def test_a_failed_one_shot_write_leaves_no_file(tmp_path, monkeypatch, capsys, name):
    """A write that fails partway through a file written in one piece exits
    2 and leaves no partial file, which ``bounds`` could read a subset of
    rows from, nor the one an earlier run left."""
    if name == "linear_et_events.csv":
        argv, trace = streamed(tmp_path, "linear-et")
    else:
        cfg = make_config(tmp_path, "type = centralized\nsigma = 0.5",
                          extra="\n[sweep]\nlaw.sigma = 0.2, 0.5\n")
        argv, trace = ["run", str(cfg), "--quiet"], tmp_path / "out" / "metrics.csv"
    assert main(argv) == 0
    target = next(trace.parent.rglob(name))
    assert target.stat().st_size > 0
    seen, create = [], cli._create

    def failing(path):
        fh = create(path)
        if path.name != name:
            return fh
        seen.append(path)
        return FailingHandle(fh)

    monkeypatch.setattr(cli, "_create", failing)
    assert main(argv) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert seen and not seen[0].exists()
    assert not target.exists()


@pytest.mark.parametrize("error, code", [(ValueError("renderer failed"), 2),
                                         (KeyboardInterrupt(), None)])
@pytest.mark.parametrize("command", ["run", "linear-et"])
def test_a_failure_mid_stream_leaves_no_trace_file(tmp_path, monkeypatch, capsys,
                                                   command, error, code):
    """If rendering fails once the first block is on disk, the trace file
    goes: neither the partial file nor the one an earlier run left survives."""
    argv, trace = streamed(tmp_path, command)
    assert main(argv) == 0
    old = trace.stat().st_size
    render, sizes = _floatrepr.render_bytes, []

    def failing(*args):
        sizes.append(trace.stat().st_size if trace.exists() else 0)
        if len(sizes) == 2:
            raise error
        return render(*args)

    monkeypatch.setattr(_floatrepr, "render_bytes", failing)  # under every render call
    if code is None:
        with pytest.raises(type(error)):
            main(argv)
    else:
        assert main(argv) == code
        assert "renderer failed" in capsys.readouterr().err
    assert 0 < sizes[1] < old  # the second block failed after the first was written
    assert not trace.exists()
    assert not any(trace.parent.iterdir())  # nor any other file of the earlier run


def test_run_is_byte_deterministic(tmp_path):
    cfg = make_config(tmp_path, "type = centralized\nsigma = 0.5",
                      x0="random(9, -1, 1)")
    assert main(["run", str(cfg), "--quiet", "--output-dir", str(tmp_path / "a")]) == 0
    assert main(["run", str(cfg), "--quiet", "--output-dir", str(tmp_path / "b")]) == 0
    for fname in ("metrics.csv", "trace.csv", "events.csv"):
        a, b = ((tmp_path / d / fname).read_text() for d in ("a", "b"))
        assert_same_csv(a, b, fname)


def test_every_way_of_building_a_graph_gives_the_same_run(tmp_path, monkeypatch):
    """cycle5 from a graph file, an inline [graph], from_edges and a dense
    weight matrix: equal weights, and byte-identical directed-law runs."""
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 0, 1.5),
             (0, 2, 0.5), (2, 4, 0.5)]
    rest = ("\n[law]\ntype = directed_state_dependent\nsigma_i = 0.5\n"
            "\n[sim]\nhorizon = 10\n\n[run]\nx0 = random(3, -1, 1)\n")
    (tmp_path / "cycle5.txt").write_text((CONFIG_DIR / "graphs" / "cycle5.txt").read_text())
    (tmp_path / "file.cfg").write_text("[graph]\nfile = cycle5.txt\n" + rest)
    inline = ", ".join(f"{i} {j} {w}" for i, j, w in edges)
    (tmp_path / "inline.cfg").write_text(
        f"[graph]\nn = 5\nmode = directed\nedges = {inline}\n" + rest)
    dense = np.zeros((5, 5))
    for i, j, w in edges:
        dense[i, j] = w
    graphs = {
        "file": load_config(tmp_path / "file.cfg").graph,
        "inline": load_config(tmp_path / "inline.cfg").graph,
        "from_edges": WeightedDigraph.from_edges(5, edges),
        "dense": WeightedDigraph(5, dense),
    }
    for g in graphs.values():
        assert np.array_equal(g.weights, dense) and g.directed

    def with_graph(g):  # the file config, run on g
        def load(path):
            cfg = load_config(path)
            return dataclasses.replace(cfg, graph=g, sim=sim_config(g, horizon=cfg.sim.horizon))
        return load

    outputs = {}
    for name, g in graphs.items():
        cfg = tmp_path / ("inline.cfg" if name == "inline" else "file.cfg")
        with monkeypatch.context() as m:
            if name not in ("file", "inline"):
                m.setattr(cli, "load_config", with_graph(g))
            assert main(["run", str(cfg), "--quiet", "--output-dir", str(tmp_path / name)]) == 0
        outputs[name] = {f: (tmp_path / name / f).read_bytes()
                         for f in ("trace.csv", "events.csv", "metrics.txt", "metrics.csv")}
    assert outputs["file"]["events.csv"].count(b"\n") > 20
    for name in graphs:
        assert outputs[name] == outputs["file"], name


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


def test_sweep_validates_every_point_before_running_any(tmp_path, capsys):
    """An invalid last point exits 2, naming it, before the valid points
    before it are simulated or written."""
    cfg = make_config(tmp_path, "type = centralized\nsigma = 0.5",
                      extra="\n[sweep]\nlaw.sigma = 0.2, 0.5, 1.5\n")
    assert main(["run", str(cfg), "--quiet"]) == 2
    assert "sweep point {'law.sigma': 1.5}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sample_every_key_is_rejected(tmp_path, capsys):
    """sample_every is no longer a [sim] key: dt alone spaces the rows. A
    config naming it is a validation error that names the key, and writes
    nothing."""
    cfg = make_config(tmp_path, "type = state_dependent")
    cfg.write_text(cfg.read_text().replace("[sim]\n", "[sim]\nsample_every = 2\n"))
    assert main(["run", str(cfg), "--quiet"]) == 2
    assert "sample_every" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("values", ["1, 2.5", "1, 0"])
def test_sweep_rejects_sample_every_below_one_or_fractional(tmp_path, capsys, values):
    """sim has no sample_every field, so a sweep over it exits 2 naming the
    sweep key, whatever its values, before any point is run or written."""
    cfg = make_config(tmp_path, "type = state_dependent",
                      extra=f"\n[sweep]\nsim.sample_every = {values}\n")
    assert main(["run", str(cfg), "--quiet"]) == 2
    assert "sweep.sim.sample_every" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("column", ["law.foo", "sim.foo", "nodot"])
def test_bounds_rejects_a_sweep_column_the_config_lacks(tmp_path, capsys, column):
    """A metrics.csv parameter column is validated as a [sweep] key is: one
    the law or [sim] lacks, or one with no dot, exits 2 naming it."""
    cfg = make_config(tmp_path, "type = centralized\nsigma = 0.5",
                      extra="\n[sweep]\nlaw.sigma = 0.5\n")
    assert main(["run", str(cfg), "--quiet"]) == 0
    metrics = tmp_path / "out" / "metrics.csv"
    metrics.write_text(metrics.read_text().replace("law.sigma,", f"{column},", 1))
    capsys.readouterr()
    assert main(["bounds", str(metrics), str(cfg)]) == 2
    assert f"sweep.{column}" in capsys.readouterr().err


@pytest.mark.parametrize("column, value, message", [
    (0, "abc", "metrics CSV row 2, column 'law.sigma': cannot read 'abc'"),
    (3, "xyz", "metrics CSV row 2, column 'events_total': cannot read 'xyz'"),
    (None, None, "metrics CSV row 2: expected 9 columns, got 8"),
])
def test_bounds_names_the_cell_that_does_not_parse(tmp_path, capsys, column, value, message):
    """A parameter or metric value that does not parse, or a short row, exits
    2 naming its row (1 is the first after the header) and column."""
    cfg = make_config(tmp_path, "type = centralized\nsigma = 0.5",
                      extra="\n[sweep]\nlaw.sigma = 0.5, 0.4\n")
    assert main(["run", str(cfg), "--quiet"]) == 0
    metrics = tmp_path / "out" / "metrics.csv"
    lines = metrics.read_text().splitlines()
    parts = lines[2].split(",")
    if column is None:
        parts.pop()
    else:
        parts[column] = value
    lines[2] = ",".join(parts)
    metrics.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["bounds", str(metrics), str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


@pytest.mark.parametrize("horizon", [1000, 8000])
def test_linear_et_coasts_in_windows_past_the_last_crossing(tmp_path, capsys, horizon):
    """By t = 708 on this plant V = x^T P x has underflowed, so its gap is
    rounding and is not scanned again: the run coasts to the horizon under
    the held input, in windows of t_max = 50, and logs no event past the last
    real crossing."""
    cfg = tmp_path / "slow.cfg"
    cfg.write_text("[linear_et]\nn = 1\nm = 1\na = 0\nb = 1\nk = -1\nq = 1\nr = 0.5\n"
                   f"x0 = 1\nhorizon = {horizon}\n[run]\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["linear-et", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "PASS  min_gap >= t_min" in out and "FAIL" not in out
    rows = (tmp_path / "out" / "linear_et_trace.csv").read_text().splitlines()
    assert float(rows[-1].split(",")[0]) == pytest.approx(horizon)
    events = (tmp_path / "out" / "linear_et_events.csv").read_text().splitlines()
    assert len(events) == 1 + 480  # header, t = 0 and 479 crossings
    assert 707.0 < float(events[-1].split(",")[1]) < 708.0


def linear_et_2d_with(tmp_path, **keys):
    """configs/linear_et_2d.cfg with the given [linear_et] keys set."""
    lines = [line for line in (CONFIG_DIR / "linear_et_2d.cfg").read_text().splitlines()
             if line.split(" =")[0] not in keys]
    at = lines.index("[linear_et]") + 1
    lines[at:at] = [f"{key} = {value}" for key, value in keys.items()]
    cfg = tmp_path / "plant.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    return cfg


def test_linear_et_holds_a_zero_state_over_long_windows(tmp_path, capsys):
    """A zero state is never scanned, and each window holds it for t_max =
    1e6, in sample steps of ||G tau||_1 = 4e5: the hold takes any length."""
    cfg = linear_et_2d_with(tmp_path, x0="0, 0", t_max="1e6", horizon="2e6")
    assert main(["linear-et", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0
    assert "FAIL" not in capsys.readouterr().out
    rows = (tmp_path / "out" / "linear_et_trace.csv").read_text().splitlines()
    assert rows[-1] == "2000000.0,0.0,0.0,0.0,0.0"
    assert (tmp_path / "out" / "linear_et_events.csv").read_text() == "l,t,gap\n0,0.0,nan\n"


def test_linear_et_holds_an_underflowed_state_over_long_windows(tmp_path, capsys):
    """V underflows near t = 343 and the run coasts in windows of t_max =
    1e6. Each sample step is taken as a product of in-range pieces, so every
    row is finite and both theorem checks pass."""
    cfg = linear_et_2d_with(tmp_path, x0="1, 0", t_max="1e6", horizon="2e6")
    assert main(["linear-et", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and out.count("PASS") == 2
    trace = np.loadtxt(tmp_path / "out" / "linear_et_trace.csv", delimiter=",", skiprows=1)
    assert np.isfinite(trace).all()
    assert trace[-1, 0] == 2e6


def test_linear_et_exits_2_when_the_held_state_leaves_double_precision(tmp_path, capsys):
    """A unstable, A + BK Hurwitz: once V underflows the held input no
    longer steadies x, which grows past double precision in the coast. The
    run exits 2 naming the hold and writes no file."""
    cfg = linear_et_2d_with(tmp_path, a="1, 1, 0, 1", k="-6, -4", t_max="2e4",
                            horizon="4e4")
    out = tmp_path / "out"
    assert main(["linear-et", str(cfg), "--output-dir", str(out)]) == 2
    assert "the held state leaves double precision" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


def test_failed_linear_et_rerun_leaves_none_of_the_earlier_files(tmp_path, capsys):
    """Once the config parses, an earlier run's files go before the design:
    a t_max too short for t_min exits 2 with neither file left."""
    out = tmp_path / "out"
    assert main(["linear-et", str(CONFIG_DIR / "linear_et_2d.cfg"), "--output-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["linear_et_events.csv", "linear_et_trace.csv"]
    capsys.readouterr()
    cfg = linear_et_2d_with(tmp_path, t_max="0.01")
    assert main(["linear-et", str(cfg), "--output-dir", str(out)]) == 2
    assert "enlarge t_max" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_linear_et_horizon_below_the_loop_tolerance_takes_one_hold(tmp_path):
    """The first hold is taken whatever the horizon: at 1e-13 the trace ends
    at t = 1e-13 after samples_per_interval rows, not at the one row t = 0."""
    cfg = linear_et_2d_with(tmp_path, horizon="1e-13")
    assert main(["linear-et", str(cfg), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 0
    rows = (tmp_path / "out" / "linear_et_trace.csv").read_text().splitlines()
    assert len(rows) == 1 + 1 + 20
    assert rows[1].startswith("0.0,") and rows[-1].startswith("1e-13,")


#: Plants 0 and 10 of perfbench.workloads.plant_ensemble(11), pinned: with
#: the default t_max, each has a window with no crossing before its horizon.
WINDOWLESS_PLANTS = {
    0: {"a": [-1.6692927733593146, -0.36053015624250795, 0.7073892492916342, -0.825602024655596],
        "b": [0.08511130435413772, -0.5228551850850768, -0.3923519792630445, 0.13108922453509408],
        "k": [0.015069445815342633, 0.06184561021645226, 0.18167410254084243, 0.5033325990671511],
        "q": [4.803158265876856, 1.562552342893069, 1.562552342893069, 3.3716464009468536],
        "r": [1.1715946086444256, -0.11454067435570378, -0.11454067435570378, 0.1565271481792229],
        "x0": [0.6632698194437825, 0.37915526802407284]},
    10: {"a": [-2.3066981944884795, 0.33483288623546825, -1.5800051271705282, -1.3346754162500314],
         "b": [-0.5625202781508137, -0.7535066992019627, 0.5322821490194867, -1.4139309691569408],
         "k": [-0.4334473036155111, -0.17854847811210997, -0.13602251563506093, 0.005103675838400261],
         "q": [5.360209412631834, -1.028404749084588, -1.028404749084588, 2.3855754021194584],
         "r": [0.9364375338568819, -0.280795427810084, -0.280795427810084, 0.21006426901916084],
         "x0": [0.10191031962504415, 0.5957629157417492]},
}


@pytest.mark.parametrize("index", [0, 10])
def test_linear_et_rescans_after_a_window_with_no_crossing(tmp_path, capsys, index):
    """With the default t_max (no t_max or horizon set), plant 0's first
    scan and plant 10's second find no crossing within their window. The
    hold is scanned again from the state it has reached: an event lands
    more than t_max after the one before it, and V <= S on every row, with
    no slack."""
    plant = WINDOWLESS_PLANTS[index]
    lines = ["[linear_et]", "n = 2", "m = 2"]
    lines += [f"{key} = " + ", ".join(map(repr, values)) for key, values in plant.items()]
    cfg = tmp_path / f"plant_{index:02d}.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    assert main(["linear-et", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0
    assert "FAIL" not in capsys.readouterr().out
    trace = np.loadtxt(tmp_path / "out" / "linear_et_trace.csv", delimiter=",", skiprows=1)
    v, s = trace[:, -2], trace[:, -1]
    assert np.all(v <= s), np.flatnonzero(v > s)
    _, lyap = design(*(np.reshape(plant[key], (2, 2)) for key in "abkqr"))
    events = np.loadtxt(tmp_path / "out" / "linear_et_events.csv", delimiter=",", skiprows=1)
    assert np.diff(events[:, 1]).max() > default_t_max(lyap)


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


@pytest.mark.parametrize("key, value, emptied", [
    ("n", "0", ("a", "b", "k", "q", "r", "x0")),
    ("n", "-1", ()),
    ("m", "0", ("b", "k")),
])
def test_linear_et_rejects_dimensions_below_one(tmp_path, capsys, key, value, emptied):
    """n and m must be >= 1, with matrices of the matching (empty) shapes
    too: n = 0 once failed in a numpy reduction and m = 0 in the scan."""
    cfg = make_linear_config(tmp_path)
    lines = []
    for line in cfg.read_text().splitlines():
        name = line.split(" =")[0]
        lines.append(f"{name} = {value}" if name == key else f"{name} =" if name in emptied
                     else line)
    cfg.write_text("\n".join(lines) + "\n")
    assert main(["linear-et", str(cfg)]) == 2
    assert f"linear_et.{key}: must be >= 1" in capsys.readouterr().err
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


def seeded_plant_config(tmp_path, seed, n):
    """A random stabilized plant with n states as a ``[linear_et]`` config;
    the horizon defaults to 20 t_min."""
    rng = np.random.default_rng(seed)
    sys_, _ = random_linear_system(rng, n)
    x0 = rng.uniform(-1.0, 1.0, n)
    lines = ["[linear_et]", f"n = {n}", f"m = {sys_.b.shape[1]}"]
    for key, value in (("a", sys_.a), ("b", sys_.b), ("k", sys_.k), ("q", sys_.q),
                       ("r", sys_.r), ("x0", x0)):
        lines.append(f"{key} = " + ", ".join(map(repr, np.ravel(value).tolist())))
    cfg = tmp_path / f"plant{seed}.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    return cfg


def linear_et_in_subprocess(cfg, out, blas_threads):
    """Exit code, stdout, stderr and output files of ``linear-et`` in a fresh
    interpreter; OpenBLAS reads its thread count when numpy is imported."""
    src = str(Path(__import__("etconsensus").__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads), PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "etconsensus.cli", "linear-et", str(cfg), "--output-dir", str(out)],
        env=env, capture_output=True, timeout=120,
    )
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    return proc.returncode, proc.stdout, proc.stderr, files


@pytest.mark.parametrize("plant", ["linear_et_2d.cfg", "seeded n=6"])
def test_linear_et_output_is_the_same_at_one_and_two_blas_threads(tmp_path, plant):
    """The grid scans multiply (block 3n x 3n) stacks of step powers through
    BLAS; every output byte must not depend on how many threads it uses."""
    cfg = CONFIG_DIR / plant if plant.endswith(".cfg") else seeded_plant_config(tmp_path, 3, 6)
    one = linear_et_in_subprocess(cfg, tmp_path / "one", 1)
    two = linear_et_in_subprocess(cfg, tmp_path / "two", 2)
    assert one[0] == 0 and b"events=0 " not in one[1], one
    assert one == two


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


# -- spectra only where a law or bound reads them --------------------------------

CYCLE5 = """
[graph]
n = 5
mode = directed
edges = 0 1 1.0, 1 2 1.0, 2 3 1.0, 3 4 1.0, 4 0 1.0
"""


def cycle5_config(tmp_path, law_block, dt="dt = 0.01"):
    path = tmp_path / "spectra.cfg"
    path.write_text(CYCLE5 + f"""
[law]
{law_block}

[sim]
horizon = 2
{dt}

[run]
x0 = 1, -1, 0.5, 0.25, -0.75
output_dir = {tmp_path / 'out'}
""")
    return path


def count_spectra(monkeypatch):
    """Count np.linalg.eigvalsh and np.linalg.svd calls, the latter also as
    np.linalg.norm(., 2) makes them (through its module's own name)."""
    calls = {"eigvalsh": 0, "svd": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, counted(name, fn))
        monkeypatch.setitem(inspect.unwrap(np.linalg.norm).__globals__, name, counted(name, fn))
    return calls


NO_SPECTRA = {
    "directed": "type = directed_state_dependent\nsigma_i = 0.5",
    "state_dependent": "type = state_dependent\nsigma_i = 0.5",
    "decentralized": "type = decentralized_state\na = 0.5\nsigma_i = 0.5",
    "periodic": "type = periodic_state_dependent\nsigma_i = 0.5\nh = 0.02",
}

WITH_SPECTRA = {
    "ideal": "type = ideal",
    "centralized": "type = centralized\nsigma = 0.5",
    "time_dependent": "type = time_dependent\nc0 = 0.1\nc1 = 0.5\nalpha = 1.0",
}


@pytest.mark.parametrize("law", NO_SPECTRA)
def test_runs_with_explicit_dt_compute_no_spectra(tmp_path, monkeypatch, capsys, law):
    """With an explicit dt, the directed, state-dependent, decentralized and
    periodic laws and their bound lines read no spectral number: the graph is
    validated without an eigendecomposition."""
    cfg = cycle5_config(tmp_path, NO_SPECTRA[law])
    calls = count_spectra(monkeypatch)
    assert main(["run", str(cfg)]) == 0
    assert "PASS  conservation_error" in capsys.readouterr().out
    assert calls == {"eigvalsh": 0, "svd": 0}


@pytest.mark.parametrize("law", WITH_SPECTRA)
def test_runs_whose_bounds_read_spectra_compute_them_once(tmp_path, monkeypatch, capsys, law):
    """The ideal decay line reads lambda_2, the centralized law and its floor
    ||L||, the time-dependent radius both: one eigvalsh and one SVD a run."""
    cfg = cycle5_config(tmp_path, WITH_SPECTRA[law])
    calls = count_spectra(monkeypatch)
    assert main(["run", str(cfg)]) == 0
    assert capsys.readouterr().out.count("PASS") == 2
    assert calls == {"eigvalsh": 1, "svd": 1}


def test_default_dt_computes_the_spectrum(tmp_path, monkeypatch):
    """dt defaults to 0.01 / lambda_N, so a directed run without dt reads it."""
    cfg = cycle5_config(tmp_path, NO_SPECTRA["directed"], dt="")
    calls = count_spectra(monkeypatch)
    assert main(["run", str(cfg), "--quiet"]) == 0
    assert calls == {"eigvalsh": 1, "svd": 1}


def test_run_rejects_a_weakly_bridged_graph(tmp_path, capsys):
    """Two unit edges joined by a bridge of weight 1e-12: no bound certifies
    connectivity, the eigenvalue test rejects it, and run exits 2."""
    cfg = make_config(tmp_path, "type = state_dependent\nsigma_i = 0.5", x0="1, -1, 0.5, 0")
    cfg.write_text(cfg.read_text()
                   .replace("n = 2", "n = 4")
                   .replace("edges = 0 1 1.0", "edges = 0 1 1.0, 2 3 1.0, 1 2 1e-12")
                   .replace("horizon = 5", "horizon = 5\ndt = 0.01"))
    assert main(["run", str(cfg)]) == 2
    assert "not strongly connected" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

import numpy as np
import pytest

from etconsensus import (
    CentralizedNorm,
    ConfigError,
    PeriodicStateDependent,
    StateDependent,
    TimeDependent,
    Xorshift64Star,
    load_config,
    load_linear_et_config,
    random_x0,
    sim_config,
)
from etconsensus.config import apply_overrides, sweep_points


BASE = """
[graph]
n = 2
mode = undirected
edges = 0 1 1.0

[law]
type = state_dependent
sigma_i = 0.5

[sim]
horizon = 5

[run]
x0 = 1, -1
output_dir = out
"""


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


# -- deterministic x0 generator -----------------------------------------------

def test_xorshift_reference_sequence():
    """First outputs of xorshift64* from seed 1, frozen as a regression anchor
    (state: s ^= s>>12; s ^= s<<25; s ^= s>>27; out = s * 0x2545F4914F6CDD1D)."""
    gen = Xorshift64Star(1)
    s = 1
    mask = (1 << 64) - 1
    expected = []
    for _ in range(4):
        s ^= s >> 12
        s = (s ^ (s << 25)) & mask
        s ^= s >> 27
        expected.append((s * 0x2545F4914F6CDD1D) & mask)
    assert [Xorshift64Star(1).next_u64() for _ in range(0)] == []
    assert [gen.next_u64() for _ in range(4)] == expected


def test_xorshift_determinism_and_range():
    gen_a, gen_b = Xorshift64Star(42), Xorshift64Star(42)
    a = [gen_a.uniform(-1.0, 1.0) for _ in range(100)]
    b = [gen_b.uniform(-1.0, 1.0) for _ in range(100)]
    assert a == b
    assert all(-1.0 <= v < 1.0 for v in a)
    assert len(set(a)) > 90  # not degenerate


def test_xorshift_zero_seed_remapped():
    gen = Xorshift64Star(0)
    assert gen.state != 0
    assert gen.next_u64() != 0


def test_random_x0_shape():
    x = random_x0(7, -2.0, 3.0, 5)
    assert x.shape == (5,)
    assert np.all(x >= -2.0) and np.all(x < 3.0)
    assert np.array_equal(x, random_x0(7, -2.0, 3.0, 5))


# -- config parsing --------------------------------------------------------------

def test_load_config_inline_graph(tmp_path):
    cfg = load_config(write(tmp_path, BASE))
    assert cfg.graph.n == 2 and not cfg.graph.directed
    assert isinstance(cfg.law, StateDependent)
    assert np.array_equal(cfg.x0, [1.0, -1.0])
    assert cfg.sim.horizon == 5.0
    assert cfg.output_dir == "out"


def test_load_config_graph_file(tmp_path):
    (tmp_path / "g.txt").write_text("3 undirected\n0 1 1.0\n1 2 1.0\n")
    text = BASE.replace("n = 2\nmode = undirected\nedges = 0 1 1.0", "file = g.txt")
    text = text.replace("x0 = 1, -1", "x0 = 1, 0, -1")
    cfg = load_config(write(tmp_path, text))
    assert cfg.graph.n == 3


def test_load_config_random_x0(tmp_path):
    text = BASE.replace("x0 = 1, -1", "x0 = random(42, -1, 1)")
    cfg = load_config(write(tmp_path, text))
    assert np.array_equal(cfg.x0, random_x0(42, -1.0, 1.0, 2))


@pytest.mark.parametrize(
    "law_block, law_type",
    [
        ("type = ideal", type(None)),
        ("type = centralized\nsigma = 0.3", CentralizedNorm),
        ("type = time_dependent\nc0 = 0.1\nc1 = 0.5\nalpha = 1.0", TimeDependent),
        ("type = periodic_state_dependent\nh = 0.01\nsigma_i = 0.4", PeriodicStateDependent),
    ],
)
def test_load_config_law_types(tmp_path, law_block, law_type):
    text = BASE.replace("type = state_dependent\nsigma_i = 0.5", law_block)
    cfg = load_config(write(tmp_path, text))
    assert isinstance(cfg.law, law_type)


@pytest.mark.parametrize(
    "mangle, field",
    [
        (lambda t: t.replace("[graph]", "[grph]"), "graph"),
        (lambda t: t.replace("type = state_dependent", "type = nonsense"), "law.type"),
        (lambda t: t.replace("x0 = 1, -1", "x0 = 1, 2, 3"), "x0"),
        (lambda t: t.replace("horizon = 5", "horizon = -1"), "horizon"),
        (lambda t: t.replace("edges = 0 1 1.0", "edges = 1 1 0.5"), "self-loop"),
        (lambda t: t.replace("n = 2", "n = two"), "graph.n"),
        (lambda t: t.replace("n = 2", "n = 2.0"), "graph.n"),
        (lambda t: t.replace("n = 2", "n = -2"), "graph.n"),
        (lambda t: t.replace("edges = 0 1 1.0", "edges = 0 1.5 1.0"), "edge entry '0 1.5 1.0'"),
        (lambda t: t.replace("edges = 0 1 1.0", "edges = 0 1 1.0,"), "edge entry must be 'i j w'"),
        (lambda t: t + "\n[sweep]\nlaw.bogus = 1, 2\n", "bogus"),
        (lambda t: t.replace("sigma_i = 0.5", "sigma_i = 0.5\nextra = 1"), "extra"),
    ],
)
def test_load_config_names_offending_field(tmp_path, mangle, field):
    with pytest.raises(ConfigError, match=field):
        load_config(write(tmp_path, mangle(BASE)))


def test_sweep_points_and_overrides(tmp_path):
    text = BASE.replace("type = state_dependent\nsigma_i = 0.5",
                        "type = centralized\nsigma = 0.5")
    text += "\n[sweep]\nlaw.sigma = 0.1, 0.9\nsim.horizon = 2, 4\n"
    cfg = load_config(write(tmp_path, text))
    pts = sweep_points(cfg)
    assert len(pts) == 4
    law, sim = apply_overrides(cfg, {"law.sigma": 0.9, "sim.horizon": 4.0})
    assert law.sigma == 0.9 and sim.horizon == 4.0
    with pytest.raises(ConfigError):
        apply_overrides(cfg, {"law.sigma": 1.5})


def test_sim_overrides_match_a_fresh_sim_config(tmp_path):
    """A sweep point's sim settings are the parsed ones with the swept fields
    replaced: the same SimConfig that sim_config builds from scratch."""
    text = BASE.replace("horizon = 5", "horizon = 5\nzeno_floor = 1e-8")
    text += "\n[sweep]\nsim.dt = 0.002, 0.004\n"
    cfg = load_config(write(tmp_path, text))
    assert cfg.sim == sim_config(cfg.graph, horizon=5.0, zeno_floor=1e-8)
    _, sim = apply_overrides(cfg, {"sim.dt": 0.002})
    assert sim == sim_config(cfg.graph, horizon=5.0, dt=0.002, zeno_floor=1e-8)
    with pytest.raises(ConfigError, match="zeno_floor"):
        apply_overrides(cfg, {"sim.dt": 1e-9})


def test_linear_et_config(tmp_path):
    text = """
[linear_et]
n = 2
m = 1
a = 0, 1, 0, 0
b = 0, 1
k = -2, -3
q = 1, 0, 0, 1
r = 0.5, 0, 0, 0.5
x0 = 1, 0
horizon = 5

[run]
output_dir = results
"""
    lcfg = load_linear_et_config(write(tmp_path, text))
    assert lcfg.a.shape == (2, 2) and lcfg.b.shape == (2, 1) and lcfg.k.shape == (1, 2)
    assert lcfg.output_dir == "results"
    assert lcfg.horizon == 5.0
    bad = text.replace("a = 0, 1, 0, 0", "a = 0, 1, 0")
    with pytest.raises(ConfigError, match="linear_et.a"):
        load_linear_et_config(write(tmp_path, bad, name="bad.cfg"))


LINEAR_ET = """
[linear_et]
n = 2
m = 1
a = 0, 1, 0, 0
b = 0, 1
k = -2, -3
q = 1, 0, 0, 1
r = 0.5, 0, 0, 0.5
x0 = 1, 0
"""


@pytest.mark.parametrize(
    "text, key",
    [
        (BASE.replace("x0 = 1, -1", "x0 = 1, , -1"), "run.x0"),
        (BASE.replace("x0 = 1, -1", "x0 = 1, -1,"), "run.x0"),
        (BASE.replace("sigma_i = 0.5", "sigma_i = 0.5, ,0.5"), "law.sigma_i"),
        (BASE + "\n[sweep]\nsim.horizon = 2, , 4\n", "sweep.sim.horizon"),
        (LINEAR_ET.replace("a = 0, 1, 0, 0", "a = 0, 1, 0, , 0"), "linear_et.a"),
        (LINEAR_ET.replace("x0 = 1, 0", "x0 = , 1, 0"), "linear_et.x0"),
    ],
    ids=["x0", "x0-trailing", "sigma_i", "sweep", "linear_et.a", "linear_et.x0-leading"],
)
def test_an_empty_entry_is_an_error_naming_its_key(tmp_path, text, key):
    """An empty entry in a list of numbers is refused, not skipped: with it
    skipped, ``1, , -1`` read as two values and passed the length check."""
    load = load_linear_et_config if "[linear_et]" in text else load_config
    with pytest.raises(ConfigError, match=f"{key}: empty entry"):
        load(write(tmp_path, text))

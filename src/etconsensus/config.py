"""Sectioned key=value experiment configs and the deterministic x0 generator.

Config files are flat INI-style text with [graph], [law], [sim], [run], and
optional [sweep] / [linear_et] sections; arrays are comma-separated. All
validation failures raise ConfigError naming the offending field.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import ConfigError, InvalidParameter

# The run-config path (``load_config``, ``apply_overrides``) imports the
# graph, triggers and engine modules when it runs, so that parsing a
# [linear_et] file loads only this module and ``errors``.
if TYPE_CHECKING:
    from .engine import SimConfig
    from .graph import WeightedDigraph
    from .triggers import TriggerLaw


class Xorshift64Star:
    """xorshift64* generator, pinned so runs reproduce across implementations.

    State update: s ^= s >> 12; s ^= s << 25; s ^= s >> 27 (mod 2^64).
    Output: (s * 0x2545F4914F6CDD1D) mod 2^64; uniform doubles take the top
    53 bits over 2^53. A zero seed is remapped to 0x9E3779B97F4A7C15 because
    the all-zero state is a fixed point.
    """

    MASK = (1 << 64) - 1
    MULTIPLIER = 0x2545F4914F6CDD1D

    def __init__(self, seed: int) -> None:
        self.state = int(seed) & self.MASK
        if self.state == 0:
            self.state = 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        s = self.state
        s ^= s >> 12
        s = (s ^ (s << 25)) & self.MASK
        s ^= s >> 27
        self.state = s
        return (s * self.MULTIPLIER) & self.MASK

    def uniform(self, lo: float, hi: float) -> float:
        u = (self.next_u64() >> 11) / float(1 << 53)
        return lo + u * (hi - lo)


def random_x0(seed: int, lo: float, hi: float, n: int) -> np.ndarray:
    """Deterministic initial condition: n xorshift64* uniforms in [lo, hi)."""
    gen = Xorshift64Star(seed)
    return np.array([gen.uniform(lo, hi) for _ in range(n)])


# ---------------------------------------------------------------------------
# Experiment configs
# ---------------------------------------------------------------------------

#: law.type -> (name of the law class in ``triggers``, required keys, whether
#: sigma_i is accepted). Every config key is also the name of the law's
#: dataclass field.
LAWS = {
    "ideal": (None, (), False),
    "centralized": ("CentralizedNorm", ("sigma",), False),
    "decentralized_state": ("DecentralizedState", ("a",), True),
    "time_dependent": ("TimeDependent", ("c0", "c1", "alpha"), False),
    "state_dependent": ("StateDependent", (), True),
    "directed_state_dependent": ("DirectedStateDependent", (), True),
    "periodic_state_dependent": ("PeriodicStateDependent", ("h",), True),
}

SIM_KEYS = ("dt", "horizon", "zeno_floor")


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment: graph, one law (None = ideal continuous controller),
    resolved x0, simulation settings, output directory, optional sweep."""

    graph: WeightedDigraph
    law: Optional[TriggerLaw]
    x0: np.ndarray
    sim: SimConfig
    output_dir: str
    sweep: tuple = ()

    def __post_init__(self) -> None:
        x0 = np.asarray(self.x0, dtype=float)
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)


def _parser(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), inline_comment_prefixes=("#",)
    )
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}")
    return parser


def _floats(raw: str, field: str) -> list:
    """The comma-separated numbers of raw; none if raw is blank. An empty
    entry (``1, , 2``, or a trailing comma) is an error, not skipped."""
    if not raw.strip():
        return []
    tokens = raw.split(",")
    if not all(tok.strip() for tok in tokens):
        raise ConfigError(f"{field}: empty entry in {raw!r}")
    try:
        values = [float(tok) for tok in tokens]
    except ValueError:
        raise ConfigError(f"{field}: expected comma-separated numbers, got {raw!r}")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{field}: values must be finite, got {raw!r}")
    return values


def _float(raw: str, field: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{field}: expected a number, got {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{field}: must be finite, got {raw!r}")
    return value


def _parse_graph_section(parser, base: Path) -> WeightedDigraph:
    from .graph import graph_from_fields, load_graph

    if not parser.has_section("graph"):
        raise ConfigError("missing [graph] section")
    section = dict(parser.items("graph"))
    try:
        if "file" in section:
            extra = set(section) - {"file"}
            if extra:
                raise ConfigError(f"graph: unexpected keys {sorted(extra)} next to 'file'")
            return load_graph(base / section["file"])
        unknown = set(section) - {"n", "mode", "edges"}
        if unknown:
            raise ConfigError(f"graph: unknown keys {sorted(unknown)}")
        for key in ("n", "mode", "edges"):
            if key not in section:
                raise ConfigError(f"graph.{key}: missing")
        if section["mode"] not in ("directed", "undirected"):
            raise ConfigError(
                f"graph.mode: must be 'directed' or 'undirected', got {section['mode']!r}"
            )
        return graph_from_fields(
            section["n"], section["mode"] == "directed", section["edges"].split(","), "graph.n"
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"graph: {exc}")


def _parse_law_section(parser, g: WeightedDigraph):
    """The law, or None for the ideal controller."""
    if not parser.has_section("law"):
        raise ConfigError("missing [law] section")
    section = dict(parser.items("law"))
    law_type = section.pop("type", None)
    if law_type is None:
        raise ConfigError("law.type: missing")
    if law_type not in LAWS:
        raise ConfigError(
            f"law.type: unknown law {law_type!r}; choose from {sorted(LAWS)}"
        )
    cls_name, required, has_sigma_i = LAWS[law_type]
    keys = required + ("sigma_i",) * has_sigma_i
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"law: keys {sorted(unknown)} not valid for type {law_type}")
    if cls_name is None:
        return None
    from . import triggers

    for key in required:
        if key not in section:
            raise ConfigError(f"law.{key}: missing")
    kwargs = {key: _float(section[key], f"law.{key}") for key in required}
    if "sigma_i" in section:
        values = _floats(section["sigma_i"], "law.sigma_i")
        kwargs["sigma_i"] = values[0] if len(values) == 1 else tuple(values)
    try:
        law = getattr(triggers, cls_name)(**kwargs)
        triggers.validate_law(law, g)
    except InvalidParameter as exc:
        raise ConfigError(f"law: {exc}")
    return law


def _parse_sim_section(parser, g: WeightedDigraph):
    if not parser.has_section("sim"):
        raise ConfigError("missing [sim] section")
    section = dict(parser.items("sim"))
    unknown = set(section) - set(SIM_KEYS)
    if unknown:
        raise ConfigError(f"sim: unknown keys {sorted(unknown)}")
    if "horizon" not in section:
        raise ConfigError("sim.horizon: missing")
    kwargs = {key: _float(section[key], f"sim.{key}") for key in SIM_KEYS if key in section}
    from .engine import sim_config

    try:
        return sim_config(g, **kwargs)
    except InvalidParameter as exc:
        raise ConfigError(f"sim: {exc}")


_RANDOM_X0 = re.compile(
    r"^random\(\s*(-?\d+)\s*,\s*(-?[\d.eE+-]+)\s*,\s*(-?[\d.eE+-]+)\s*\)$"
)


def _parse_run_section(parser, g: WeightedDigraph):
    if not parser.has_section("run"):
        raise ConfigError("missing [run] section")
    section = dict(parser.items("run"))
    unknown = set(section) - {"x0", "output_dir"}
    if unknown:
        raise ConfigError(f"run: unknown keys {sorted(unknown)}")
    if "x0" not in section:
        raise ConfigError("run.x0: missing")
    raw = section["x0"].strip()
    match = _RANDOM_X0.match(raw)
    if match:
        seed = int(match.group(1))
        lo, hi = _float(match.group(2), "run.x0"), _float(match.group(3), "run.x0")
        if not hi > lo:
            raise ConfigError(f"run.x0: random(...) needs hi > lo, got {raw!r}")
        x0 = random_x0(seed, lo, hi, g.n)
    else:
        values = _floats(raw, "run.x0")
        if len(values) != g.n:
            raise ConfigError(f"run.x0: expected {g.n} values, got {len(values)}")
        x0 = np.array(values)
    if not np.all(np.isfinite(x0)):
        raise ConfigError(f"run.x0: values must be finite, got {raw!r}")
    return x0, section.get("output_dir", "out")


def _check_sweep_key(key: str, law) -> None:
    """Raise ConfigError unless key names a field of the law or of [sim]."""
    if "." not in key:
        raise ConfigError(f"sweep.{key}: parameter path must be 'law.<field>' or 'sim.<field>'")
    target, field = key.split(".", 1)
    if target == "law":
        if law is None or field not in {f.name for f in dataclasses.fields(law)}:
            raise ConfigError(f"sweep.{key}: law has no field {field!r}")
    elif target == "sim":
        if field not in SIM_KEYS:
            raise ConfigError(f"sweep.{key}: sim has no field {field!r}")
    else:
        raise ConfigError(f"sweep.{key}: target must be 'law' or 'sim'")


def _parse_sweep_section(parser, law) -> tuple:
    if not parser.has_section("sweep"):
        return ()
    entries = []
    for key, raw in parser.items("sweep"):
        _check_sweep_key(key, law)
        values = _floats(raw, f"sweep.{key}")
        if not values:
            raise ConfigError(f"sweep.{key}: empty value list")
        entries.append((key, tuple(values)))
    return tuple(entries)


def load_config(path) -> ExperimentConfig:
    """Parse and fully validate an experiment config file."""
    path = Path(path)
    parser = _parser(path)
    g = _parse_graph_section(parser, path.parent)
    law = _parse_law_section(parser, g)
    sim = _parse_sim_section(parser, g)
    x0, output_dir = _parse_run_section(parser, g)
    unknown = set(parser.sections()) - {"graph", "law", "sim", "run", "sweep", "linear_et"}
    if unknown:
        raise ConfigError(f"unknown sections {sorted(unknown)}")
    sweep = _parse_sweep_section(parser, law)
    return ExperimentConfig(
        graph=g,
        law=law,
        x0=x0,
        sim=sim,
        output_dir=output_dir,
        sweep=sweep,
    )


def sweep_points(cfg: ExperimentConfig):
    """Cartesian product of sweep values as dicts {parameter path: value}."""
    points = [dict()]
    for key, values in cfg.sweep:
        points = [dict(pt, **{key: v}) for pt in points for v in values]
    return points


def apply_overrides(cfg: ExperimentConfig, overrides: dict):
    """Rebuild (law, sim) for one sweep point; validates the parameter paths
    as [sweep] does, and the result against the graph."""
    law, sim_fields = cfg.law, {}
    try:
        for key, value in overrides.items():
            _check_sweep_key(key, cfg.law)
            target, field = key.split(".", 1)
            if target == "law":
                law = dataclasses.replace(law, **{field: value})
            else:
                sim_fields[field] = float(value)
        if law is not None:
            from .triggers import validate_law

            validate_law(law, cfg.graph)
        sim = dataclasses.replace(cfg.sim, **sim_fields)
    except InvalidParameter as exc:
        raise ConfigError(f"sweep point {overrides}: {exc}")
    return law, sim


# ---------------------------------------------------------------------------
# Single-plant (linear_et) configs
# ---------------------------------------------------------------------------

LINEAR_ET_KEYS = {
    "n", "m", "a", "b", "k", "q", "r", "a_s",
    "x0", "horizon", "t_max", "samples_per_interval",
}


@dataclass(frozen=True)
class LinearEtConfig:
    """Row-major system matrices plus run settings for linear-et mode."""

    a: np.ndarray
    b: np.ndarray
    k: np.ndarray
    q: np.ndarray
    r: np.ndarray
    a_s: Optional[np.ndarray]
    x0: np.ndarray
    horizon: Optional[float]
    t_max: Optional[float]
    samples_per_interval: int
    output_dir: str


def load_linear_et_config(path) -> LinearEtConfig:
    """Parse the [linear_et] section (matrices as row-major numeric arrays)."""
    path = Path(path)
    parser = _parser(path)
    if not parser.has_section("linear_et"):
        raise ConfigError("missing [linear_et] section")
    section = dict(parser.items("linear_et"))
    unknown = set(section) - LINEAR_ET_KEYS
    if unknown:
        raise ConfigError(f"linear_et: unknown keys {sorted(unknown)}")
    for key in ("n", "m", "a", "b", "k", "q", "r", "x0"):
        if key not in section:
            raise ConfigError(f"linear_et.{key}: missing")
    try:
        n = int(section["n"])
        m = int(section["m"])
    except ValueError:
        raise ConfigError("linear_et.n / linear_et.m must be integers")
    for key, value in (("n", n), ("m", m)):
        if value < 1:
            raise ConfigError(f"linear_et.{key}: must be >= 1, got {section[key]!r}")

    def mat(key: str, rows: int, cols: int) -> np.ndarray:
        values = _floats(section[key], f"linear_et.{key}")
        if len(values) != rows * cols:
            raise ConfigError(
                f"linear_et.{key}: expected {rows * cols} row-major entries, got {len(values)}"
            )
        return np.array(values).reshape(rows, cols)

    a = mat("a", n, n)
    b = mat("b", n, m)
    k = mat("k", m, n)
    q = mat("q", n, n)
    r = mat("r", n, n)
    a_s = mat("a_s", n, n) if "a_s" in section else None
    x0_values = _floats(section["x0"], "linear_et.x0")
    if len(x0_values) != n:
        raise ConfigError(f"linear_et.x0: expected {n} values, got {len(x0_values)}")

    def positive(key: str) -> Optional[float]:
        if key not in section:
            return None
        value = _float(section[key], f"linear_et.{key}")
        if value <= 0.0:
            raise ConfigError(f"linear_et.{key}: must be positive, got {section[key]!r}")
        return value

    horizon = positive("horizon")
    t_max = positive("t_max")
    raw_spi = section.get("samples_per_interval", "20")
    try:
        spi = int(raw_spi)
    except ValueError:
        raise ConfigError(
            f"linear_et.samples_per_interval: expected an integer, got {raw_spi!r}"
        )
    if spi < 1:
        raise ConfigError("linear_et.samples_per_interval: must be >= 1")
    output_dir = "out"
    if parser.has_section("run"):
        output_dir = dict(parser.items("run")).get("output_dir", "out")
    return LinearEtConfig(
        a=a, b=b, k=k, q=q, r=r, a_s=a_s,
        x0=np.array(x0_values),
        horizon=horizon,
        t_max=t_max,
        samples_per_interval=spi,
        output_dir=output_dir,
    )

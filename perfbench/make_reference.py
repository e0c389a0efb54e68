"""Writes reference.json: the outputs the plants of linear_et_plants are
checked against, as the program gives them at the commit where this is run.

Run from the repository root:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

Rerun it only when a change is meant to move these outputs beyond the bands
in workloads.py, and say so in that change.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

import workloads
from worker import parse_linear_et_row, run_op

#: Times the scan window is enlarged 4x before a plant is given up.
WINDOW_TRIES = 6


def plant_window(plant: dict):
    """(t_max, t_min): the scan window 100 / ||F|| enlarged 4x until
    det M(t) changes sign inside it, and the floor found there."""
    from etconsensus import NoRootFound, design, min_inter_event_time

    sys_, lyap = design(plant["a"], plant["b"], plant["k"], plant["q"], plant["r"])
    t_max = 100.0 / float(np.linalg.norm(lyap.f, 2))
    for _ in range(WINDOW_TRIES):
        try:
            return t_max, min_inter_event_time(sys_, lyap, t_max)
        except NoRootFound:
            t_max *= 4.0
    raise RuntimeError("no inter-event floor in any window")


def _checked(result: dict) -> dict:
    if result["code"] != 0 or "FAIL" in result["stdout"]:
        raise RuntimeError(result["stdout"] + result["stderr"])
    return result


def main() -> None:
    import etconsensus.cli as cli

    reference = {"plants": {}}
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        work = Path(tmp)
        for idx, plant in enumerate(workloads.plant_ensemble(workloads.PLANTS)):
            name = f"plant_{idx:02d}"
            t_max, t_min = plant_window(plant)
            horizon = min(50.0 * t_min, t_max)
            workloads.write_plant_config(work / f"{name}.cfg", plant, t_max, horizon)
            result = _checked(run_op(cli, {"name": name, "command": "linear-et",
                                           "config": f"{name}.cfg"}, work))
            reference["plants"][name] = {
                "t_max": t_max,
                "horizon": horizon,
                "reference": parse_linear_et_row(result["stdout"]),
            }
    path = workloads.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Print the engine's cost per broadcast as the network grows.

Runs the directed state-dependent law (sigma 0.5, dt = 1e-3) on seeded
digraphs of five superposed Hamiltonian cycles, drawn by the benchmark's
``perfbench.workloads.regular_balanced_digraph``, so every agent has out- and
in-degree 5 at every size, for n = 10, 50, 200, 1000 and 3000. The figure
is the marginal simulate time per broadcast: the time of a run to
0.1 + 400 / n minus that of a run to 0.1, over the broadcasts between them
(best of five runs each), so graph set-up, the t = 0 bootstrap and the
quiet start (no agent fires before t = 0.07) are left out. The window holds
a few thousand broadcasts and 400,000 trace values at every size.

Usage: python scripts/engine_scaling.py [--sizes 10 50 200 1000 3000]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from etconsensus import (
    DirectedStateDependent,
    SimConfig,
    WeightedDigraph,
    simulate_triggered,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import regular_balanced_digraph  # noqa: E402


def best_run(g, law, x0, horizon: float):
    """(fastest simulate time of five, broadcasts after t = 0)."""
    cfg = SimConfig(dt=1e-3, horizon=horizon)
    seconds = []
    for _ in range(5):
        start = time.perf_counter()
        trace = simulate_triggered(g, law, x0, cfg)
        seconds.append(time.perf_counter() - start)
    return min(seconds), len(trace.events) - g.n


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sizes", type=int, nargs="+", default=[10, 50, 200, 1000, 3000])
    args = parser.parse_args()

    law = DirectedStateDependent(sigma_i=0.5)
    print(f"{'n':>6} {'broadcasts':>10} {'us/broadcast':>13}")
    for n in args.sizes:
        rng = np.random.default_rng(n)
        g = WeightedDigraph(n=n, weights=regular_balanced_digraph(n, rng), directed=True)
        x0 = rng.uniform(-1.0, 1.0, n)
        t_start, e_start = best_run(g, law, x0, 0.1)
        t_end, e_end = best_run(g, law, x0, 0.1 + 400.0 / n)
        per_event = (t_end - t_start) / max(e_end - e_start, 1) * 1e6
        print(f"{n:>6} {e_end - e_start:>10} {per_event:>13.1f}")


if __name__ == "__main__":
    main()

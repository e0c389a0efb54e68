#!/usr/bin/env python3
"""Run every trigger law on a demo graph and tabulate theorem bounds vs
observations.

Usage: python scripts/run_all_laws.py [--horizon T]
"""

import argparse

import numpy as np

from etconsensus import (
    CentralizedNorm,
    DecentralizedState,
    DirectedStateDependent,
    PeriodicStateDependent,
    StateDependent,
    TimeDependent,
    WeightedDigraph,
    max_admissible_period,
    random_x0,
    sim_config,
    simulate_ideal,
    simulate_triggered,
    spectral_info,
)
from etconsensus.cli import check_bounds, format_bound_report
from etconsensus.metrics import compute_run_metrics


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--horizon", type=float, default=30.0)
    args = parser.parse_args()

    # weight-balanced digraph: directed 5-cycle superposed with a 3-cycle
    g = WeightedDigraph.from_edges(
        5,
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 0, 1.5),
         (0, 2, 0.5), (2, 4, 0.5)],
    )
    info = spectral_info(g)
    print(f"graph: n={g.n} lambda2={info.lambda2:.4f} lambdaN={info.lambda_n:.4f} "
          f"||L||={info.laplacian_norm:.4f}")
    x0 = random_x0(2026, -1.0, 1.0, g.n)
    cfg = sim_config(g, horizon=args.horizon)

    h_star = max_admissible_period(0.5, g.max_weight, g.max_out_neighbors)
    laws = {
        "ideal": None,
        "centralized": CentralizedNorm(sigma=0.5),
        "decentralized_state": DecentralizedState(a=0.8 / g.max_out_neighbors),
        "time_dependent": TimeDependent(c0=0.01, c1=0.5, alpha=0.5 * info.lambda2),
        "state_dependent": StateDependent(),
        "directed_state_dependent": DirectedStateDependent(),
        "periodic_state_dependent": PeriodicStateDependent(h=0.5 * h_star),
    }
    for name, law in laws.items():
        if law is None:
            trace = simulate_ideal(g, x0, cfg)
        else:
            trace = simulate_triggered(g, law, x0, cfg)
        m = compute_run_metrics(trace, cfg.zeno_floor)
        print(f"\n== {name}: events={m.events_total} "
              f"final_disagreement={m.final_disagreement:.3e} "
              f"min_gap={m.min_gap:.4g} mean_gap={m.mean_gap:.4g}")
        print(format_bound_report(check_bounds(m, law, g, cfg.dt)), end="")


if __name__ == "__main__":
    main()

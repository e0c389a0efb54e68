#!/usr/bin/env python3
"""Single-plant toolkit demo: certified inter-event floor and the V <= S
performance envelope for a scalar plant and a double integrator.

Usage: python scripts/linear_et_demo.py
"""

import numpy as np

from etconsensus import (
    default_t_max,
    design,
    min_inter_event_time,
    next_event_time,
    simulate_sample_hold,
)


def run(name, a, b, k, q, r, a_s=None, x0=None, horizon=None) -> None:
    sys_, lyap = design(a, b, k, q, r, a_s)
    t_max = default_t_max(lyap)
    t_min = min_inter_event_time(sys_, lyap, t_max)
    first = next_event_time(sys_, lyap, np.asarray(x0, dtype=float), t_max)
    trace = simulate_sample_hold(
        sys_, lyap, x0, horizon if horizon else 10 * t_min, t_max=t_max
    )
    worst = float(np.max(trace.v_values - trace.s_values))
    print(f"== {name}")
    print(f"   P =\n{np.array_str(lyap.p, precision=4)}")
    print(f"   t_min = {t_min:.6f}   first event from x0: {first:.6f}")
    print(f"   events = {len(trace.event_times) - 1}   "
          f"min gap = {trace.gaps.min():.6f}   max V-S = {worst:.2e}")
    print(f"   floor respected: {trace.gaps.min() >= t_min - 1e-8}")


def main() -> None:
    run(
        "scalar plant (A=0, B=1, K=-1, Q=1, R=1/2, A_s=-1/2)",
        [[0.0]], [[1.0]], [[-1.0]], [[1.0]], [[0.5]], [[-0.5]],
        x0=[1.0], horizon=12.0,
    )
    run(
        "double integrator with u = -2 x1 - 3 x2",
        [[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[-2.0, -3.0]],
        np.eye(2), 0.5 * np.eye(2),
        x0=[1.0, 0.0], horizon=8.0,
    )


if __name__ == "__main__":
    main()

"""The halving ladders that drive the ``linear_et`` bisections.

A bracket of width w is halved to ROOT_TOL, so its i-th midpoint lies
w / 2^i past the current left end. Each bisection step advances the state at
the left end by the ladder level exp(diag(F, A_s) w / 2^i), built once per
width and kept on the ``LyapunovData`` together with the grid scans' step
powers.
"""

import math

import numpy as np
import pytest

from helpers import random_linear_system
from test_linear_et_scan import assert_same, firing_plant, next_event_oracle, plant
from etconsensus import (
    NoRootFound,
    design,
    gap_matrix,
    linear_et,
    matrix_exponential,
    min_inter_event_time,
    next_event_time,
    trigger_gap,
)
from etconsensus.linear_et import GRID_POINTS, ROOT_TOL, _halvings

EPS = np.finfo(float).eps


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(linear_et, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(linear_et, name, counted)
    return calls


@pytest.mark.parametrize("seed", range(6))
def test_ladder_levels_match_matrix_exponential(seed):
    sys_, lyap, _ = plant(2 + seed % 5, seed)
    gen = lyap.g
    norm = float(np.linalg.norm(gen, 1))
    # Level 1 of 1-norm about 20, so the first five levels are squared up
    # from finer ones and the rest come straight from the Pade pass.
    width = 40.0 / norm
    levels = 40
    ladder = _halvings(lyap, width, levels)
    assert len(ladder) >= levels
    coarse = 0
    for i in range(1, levels + 1):
        ref = matrix_exponential(gen, width / 2.0 ** i)
        coarse += float(np.linalg.norm(gen * (width / 2.0 ** i), 1)) > 0.5
        err = float(np.max(np.abs(ladder[i - 1] - ref)))
        assert err <= 4 * EPS * float(np.linalg.norm(ref, 1)), (i, err)
    assert 0 < coarse < levels


def test_ladder_is_kept_per_width():
    _, lyap, _ = plant(3, 11)
    first = _halvings(lyap, 0.01, 5)
    assert _halvings(lyap, 0.01, 3) is first
    assert _halvings(lyap, 0.02, 3) is not first
    longer = _halvings(lyap, 0.01, len(first) + 4)
    assert len(longer) >= len(first) + 4
    np.testing.assert_array_equal(longer[:len(first)], first)


def test_repeated_calls_reuse_step_powers_and_ladders(monkeypatch):
    sys_, lyap, x_ell, t_event = firing_plant(3, 5)
    t_max = 4.0 * t_event
    first = next_event_time(sys_, lyap, x_ell, t_max)
    assert first is not None
    expm = count_calls(monkeypatch, "matrix_exponential")
    pade = count_calls(monkeypatch, "_pade")
    builds = count_calls(monkeypatch, "_halving_ladder")
    # The only exponential left is the state at the crossing cell's left end.
    assert next_event_time(sys_, lyap, x_ell, t_max) == first
    assert len(expm) == 1 and len(pade) == 1 and not builds
    # The floor scan on the same grid shares the step powers and the ladder.
    expm.clear()
    pade.clear()
    min_inter_event_time(sys_, lyap, t_max)
    assert len(expm) == 1 and len(pade) == 1 and not builds
    # A fresh grid costs one exponential of G; without a crossing that is
    # all, and on the same grid again no exponential is made at all.
    expm.clear()
    assert next_event_time(sys_, lyap, x_ell, 0.5 * t_event, 40) is None
    assert len(expm) == 1
    expm.clear()
    assert next_event_time(sys_, lyap, x_ell, 0.5 * t_event, 40) is None
    assert not expm


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("grid_points", [1, 7, GRID_POINTS])
def test_first_cell_crossing_matches_sequential_oracle(monkeypatch, seed, grid_points):
    """A crossing in grid cell 1 is bisected from the point where
    _negative_start finds the gap negative, over a bracket whose width is
    not a halving of the grid step, with a ladder of its own."""
    sys_, lyap, x_ell, t_event = firing_plant(2 + seed, 10 + seed)
    step = 1.5 * t_event
    while trigger_gap(sys_, lyap, step, x_ell) < 0.0:
        step *= 1.5
    t_max = step * grid_points
    path = []
    old = next_event_oracle(sys_, lyap, x_ell, t_max, grid_points, path)
    assert old is not None
    starts = count_calls(monkeypatch, "_negative_start")
    new = next_event_time(sys_, lyap, x_ell, t_max, grid_points)
    assert len(starts) == 1
    assert_same(new, old, path)
    assert any(width != step for width in lyap._halvings)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("grid_points", [5, 37, GRID_POINTS])
def test_bisection_brackets_the_root(seed, grid_points):
    """Each result sits within ROOT_TOL of a sign change of the gap (of
    det M for the floor), judged by trigger_gap and gap_matrix from t = 0:
    a bisection whose state lagged behind its left end would not."""
    sys_, lyap, x_ell, t_event = firing_plant(2 + seed % 5, 20 + seed)
    t = next_event_time(sys_, lyap, x_ell, 3.0 * t_event, grid_points)
    assert t is not None
    assert trigger_gap(sys_, lyap, t - ROOT_TOL, x_ell) < 0.0
    assert trigger_gap(sys_, lyap, t + 2 * ROOT_TOL, x_ell) >= 0.0

    # t_min <= t_event; a wider window reaches times where ||M|| is so large
    # that the sign of det M is rounding noise.
    try:
        t_min = min_inter_event_time(sys_, lyap, 2.0 * t_event, grid_points)
    except NoRootFound:
        return
    before = np.linalg.slogdet(gap_matrix(lyap, t_min - ROOT_TOL))[0]
    after = np.linalg.slogdet(gap_matrix(lyap, t_min + ROOT_TOL))[0]
    assert before != after


def test_bisection_extends_a_short_ladder():
    """A bracket that rounding leaves wider than its nominal width takes
    further levels of the same ladder instead of running off its end."""
    _, lyap, _ = plant(2, 3)
    width = 1e-3
    nominal = math.ceil(math.log2(width / ROOT_TOL)) + 1
    state = np.ones(3 * lyap.n)
    lo, hi = linear_et._bisect(lyap, 0.0, 8 * width, width, state, lambda z: True)
    assert hi - lo <= ROOT_TOL
    assert len(lyap._halvings[width]) > nominal


@pytest.mark.parametrize("seed", [0, 4, 5])
def test_bisection_stops_at_one_ulp_brackets(seed):
    """Slowing a plant by c = 1e-6 scales its event times and its floor by
    1e6, past t = 2^19, where one ulp of t exceeds ROOT_TOL: a bracket one
    ulp wide cannot be halved, and the bisection must stop there."""
    rng = np.random.default_rng(seed)
    sys_, lyap = random_linear_system(rng, 3)
    x_ell = rng.normal(size=3)
    t_max = 400.0 / float(np.linalg.norm(lyap.f, 2))
    c = 1e-6
    slow_sys, slow_lyap = design(sys_.a * c, sys_.b * c, sys_.k, sys_.q, sys_.r)
    t_event = next_event_time(sys_, lyap, x_ell, t_max)
    slow_event = next_event_time(slow_sys, slow_lyap, x_ell, t_max / c)
    assert abs(slow_event * c - t_event) <= 2 * ROOT_TOL
    t_min = min_inter_event_time(sys_, lyap, t_max)
    slow_min = min_inter_event_time(slow_sys, slow_lyap, t_max / c)
    assert abs(slow_min * c - t_min) <= 2 * ROOT_TOL
    assert max(slow_event, slow_min) > 2.0 ** 19

"""Shared test utilities: random stabilized plants, event-floor search, and
CSV text comparison."""

import numpy as np
import pytest

from etconsensus import NoRootFound, design, min_inter_event_time


def random_linear_system(rng, n=None):
    """Random stabilized plant: draw Hurwitz Acl by spectral shift, then set
    A = Acl - BK so A + BK = Acl by construction."""
    n = n or int(rng.integers(1, 5))
    m = int(rng.integers(1, 3))
    raw = rng.normal(size=(n, n))
    shift = max(float(np.real(np.linalg.eigvals(raw)).max()), 0.0) + float(
        rng.uniform(0.5, 1.5)
    )
    acl = raw - shift * np.eye(n)
    b = rng.normal(size=(n, m))
    k = 0.5 * rng.normal(size=(m, n))
    gq = rng.normal(size=(n, n))
    q = gq @ gq.T + n * np.eye(n)
    gr = rng.normal(size=(n, n))
    r0 = gr @ gr.T + 0.1 * np.eye(n)
    r = r0 * (0.5 * float(np.linalg.eigvalsh(q)[0]) / float(np.linalg.eigvalsh(r0)[-1]))
    return design(acl - b @ k, b, k, q, r)


def floor_with_window(sys_, lyap):
    """Inter-event floor plus the scan window that bracketed its root."""
    t_max = 100.0 / float(np.linalg.norm(lyap.f, 2))
    for _ in range(6):
        try:
            return min_inter_event_time(sys_, lyap, t_max), t_max
        except NoRootFound:
            t_max *= 4.0
    raise AssertionError("no determinant root found in any window")


def assert_same_csv(got, want, label=""):
    """Byte equality of two CSV texts; a failure names the first line that
    differs (a full diff of long texts is slow to render)."""
    if got != want:
        lines = zip(got.splitlines(), want.splitlines())
        first = next((k for k, (a, b) in enumerate(lines) if a != b), "past the shorter text")
        pytest.fail(f"{label} differs at line {first}")

"""Shared test utilities: random stabilized plants, event-floor search, CSV
text comparison, and a 50-digit oracle of the linear toolkit's gap."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from etconsensus import NoRootFound, design, matrix_exponential, min_inter_event_time
from etconsensus.linear_et import ROOT_TOL, _start


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


# ---------------------------------------------------------------------------
# 50-digit oracle: the gap V - S and det M(t) of a design, its G and P read
# as exact decimals, with exp(G t) applied by Taylor series in the
# standard-library decimal module.
# ---------------------------------------------------------------------------

DIGITS = 50


def _decimals(a):
    return [[Decimal(float(v)) for v in row] for row in np.atleast_2d(a)]


def decimal_flow(lyap, columns, times):
    """The columns exp(G t) z, for each t of the increasing ``times``, of the
    double columns z (3n rows) at t = 0, each carried on from the last time
    in steps with ||G h||_inf <= 1 of a series summed to below 10^-(DIGITS+10)
    of the state."""
    g = _decimals(lyap.g)
    size = len(g)
    norm = max(sum(abs(v) for v in row) for row in g)
    state = [[Decimal(float(v)) for v in col] for col in np.asarray(columns, float).T]
    out, now = [], Decimal(0)
    with localcontext() as ctx:
        ctx.prec = DIGITS + 20
        for t in times:
            span = Decimal(float(t)) - now
            steps = int(norm * span) + 1
            gh = [[v * span / steps for v in row] for row in g]
            for _ in range(steps):
                for c, col in enumerate(state):
                    term, acc, k = col, list(col), 1
                    scale = max(abs(v) for v in col)
                    while max(abs(v) for v in term) > scale * Decimal(10) ** -(DIGITS + 10):
                        term = [sum(r[j] * term[j] for j in range(size)) / k for r in gh]
                        acc = [a + b for a, b in zip(acc, term)]
                        k += 1
                    state[c] = acc
            now = Decimal(float(t))
            out.append([list(col) for col in state])
    return out


def _form(p, u, v):
    return sum(u[i] * p[i][j] * v[j] for i in range(len(p)) for j in range(len(p)))


def decimal_gaps(lyap, z0, times):
    """V - S at each of the increasing ``times`` of the joint state z0 at 0
    ([x_ell, 0, x_ell] right after an update)."""
    n, p = lyap.n, _decimals(lyap.p)
    with localcontext() as ctx:
        ctx.prec = DIGITS + 20
        return [_form(p, z[:n], z[:n]) - _form(p, z[2 * n:], z[2 * n:])
                for (z,) in decimal_flow(lyap, np.asarray(z0)[:, None], times)]


def decimal_det_signs(lyap, times):
    """Sign of det M(t) at each of the increasing ``times``, by Gaussian
    elimination with partial pivoting in decimal arithmetic."""
    n, p = lyap.n, _decimals(lyap.p)
    signs = []
    with localcontext() as ctx:
        ctx.prec = DIGITS + 20
        for cols in decimal_flow(lyap, np.vstack([np.eye(n), np.zeros((n, n)), np.eye(n)]), times):
            m = [[_form(p, a[:n], b[:n]) - _form(p, a[2 * n:], b[2 * n:]) for b in cols]
                 for a in cols]
            sign = 1
            for c in range(n):
                pivot = max(range(c, n), key=lambda r: abs(m[r][c]))
                if m[pivot][c] == 0:
                    sign = 0
                    break
                if pivot != c:
                    m[c], m[pivot], sign = m[pivot], m[c], -sign
                sign *= 1 if m[c][c] > 0 else -1
                for r in range(c + 1, n):
                    ratio = m[r][c] / m[c][c]
                    m[r] = [a - ratio * b for a, b in zip(m[r], m[c])]
            signs.append(sign)
    return signs


def root_tol(t):
    """The scans' root tolerance at time t: ROOT_TOL or four ulps of t."""
    return max(ROOT_TOL, 4.0 * math.ulp(t))


def root_resolution(lyap, z0, t):
    """Time by which rounding can move a root at t of the gap from the joint
    state z0 at 0, or of det M for the columns z0 = [I; 0; I]: 64 ulps of
    the terms whose difference is the gap (V + S, or its matrix for the
    columns) over the rate at which the gap (the eigenvalue of M nearest
    zero) crosses."""
    n, p = lyap.n, lyap.p
    y = (matrix_exponential(lyap.g, t) @ z0).reshape(3 * n, -1)
    x, xs = y[:n], y[2 * n:]
    scale = np.linalg.norm(x.T @ p @ x + xs.T @ p @ xs, 2)
    w = np.zeros_like(lyap.g)
    w[:n, :n], w[2 * n:, 2 * n:] = p, -p
    values, vectors = np.linalg.eigh(y.T @ w @ y)
    v = vectors[:, np.argmin(np.abs(values))]
    return 64 * np.finfo(float).eps * scale / abs(v @ y.T @ (lyap.g.T @ w + w @ lyap.g) @ y @ v)


def assert_event_below_root(lyap, x_ell, t):
    """In 50 digits, the gap after an update at x_ell is negative at t and
    nonnegative a tolerance later: t lies in [t* - tol, t*), give or take
    the root's resolution in double precision (root_resolution)."""
    z0 = _start(x_ell)
    res = root_resolution(lyap, z0, t)
    below, above = decimal_gaps(lyap, z0, [t - res, t + root_tol(t) + res])
    assert below < 0 <= above, (t, res, float(below), float(above))


def assert_floor_at_root(lyap, t_min):
    """In 50 digits, det M changes sign within a tolerance of t_min, give
    or take the root's resolution in double precision: where M's other
    eigenvalues are 1e10 times its crossing rate, rounding alone moves the
    root by 1e-5."""
    res = root_tol(t_min) + root_resolution(lyap, _start(np.eye(lyap.n)), t_min)
    before, after = decimal_det_signs(lyap, [t_min - res, t_min + res])
    assert before != after, (t_min, res)

"""Single-plant event-triggered toolkit.

Given a stabilizing feedback u = Kx held between update times, the Lyapunov
value V(t) = x^T P x is compared against the performance trajectory
S(t) = x_s^T P x_s of an auxiliary Hurwitz system restarted at each update.
Events fire when the gap f = V - S turns nonnegative. The first singularity
of the associated gap matrix M(t) yields a uniform lower bound on inter-event
times, so the whole schedule is certifiably Zeno-free.

Between updates the extended closed loop y = [x, e] (e = x_ell - x, the
hold error) runs under F and the comparison state x_s under A_s. Everything
here propagates the one joint state z = [x, e, x_s] under G = diag(F, A_s),
restarted at [x_ell, 0, x_ell], and reads V - S = z^T W z, W = diag(P, 0,
-P), off it. Both grid scans read runs of grid points in one product off
packed forms (Phi^j)^T W Phi^j of the step powers; the root in the
bracketing cell is solved on the cell's Taylor model, whose coefficients
are packed forms W_k of the walk's own state at the cell's left end.

Dense linear algebra throughout; intended for desk-scale systems (n <= 10).
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, NoRootFound, NotHurwitz, NotSPD

#: Time tolerance of the in-cell roots (event times and det M roots); past
#: t = 2^17 four ulps of t, which are wider, are used instead (_tol).
ROOT_TOL = 1e-10

#: Default number of grid points for sign-change scans.
GRID_POINTS = 10_000

#: Grid points per block of kept step powers and forms; the scans read runs of blocks.
_BLOCK = 128


# ---------------------------------------------------------------------------
# Dense primitives
# ---------------------------------------------------------------------------

def matrix_exponential(m, t: float = 1.0) -> np.ndarray:
    """e^{M t} by scaling-and-squaring with a diagonal Pade approximant.

    The argument is halved until its 1-norm is at most 0.5, approximated with
    the [10/10] Pade form, then squared back; relative accuracy is far below
    1e-10 for ||M t|| <= 50.

    Raises OverflowError when ||M t|| is too extreme for double precision.
    """
    a = np.asarray(m, dtype=float) * float(t)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidParameter("matrix entries must be finite")
    squarings = _squarings(a)
    result = _pade(a / (2.0 ** squarings))
    for _ in range(squarings):
        result = result @ result
    return result


def _squarings(a: np.ndarray) -> int:
    """Halvings that bring the 1-norm of a to at most 0.5."""
    norm = float(np.linalg.norm(a, 1))
    if norm > 600.0:
        raise OverflowError(f"||M t|| = {norm:.3g} is too large for the exponential")
    return max(0, int(math.ceil(math.log2(norm / 0.5)))) if norm > 0.5 else 0


def _pade(a: np.ndarray) -> np.ndarray:
    """[10/10] Pade approximant of e^a for a matrix, or a stack of matrices,
    of 1-norm at most 0.5."""
    q = 10
    ident = np.eye(a.shape[-1])
    coeff = 1.0
    term = ident
    numer = ident
    denom = ident
    sign = 1.0
    for j in range(1, q + 1):
        coeff *= (q - j + 1) / ((2 * q - j + 1) * j)
        term = term @ a
        sign = -sign
        numer = numer + coeff * term
        denom = denom + (sign * coeff) * term
    return np.linalg.solve(denom, numer)


def _check_positive(value: float, name: str) -> None:
    if not 0.0 < value < math.inf:
        raise InvalidParameter(f"{name} must be positive and finite, got {value}")


def _check_count(value: int, name: str) -> None:
    if not isinstance(value, numbers.Integral) or value < 1:
        raise InvalidParameter(f"{name} must be an integer >= 1, got {value!r}")


def _check_spd(mat: np.ndarray, name: str) -> None:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise NotSPD(f"{name} must be square, got shape {mat.shape}")
    scale = max(1.0, float(np.abs(mat).max()))
    if float(np.abs(mat - mat.T).max()) > 1e-9 * scale:
        raise NotSPD(f"{name} is not symmetric")
    if float(np.linalg.eigvalsh(mat)[0]) <= 0.0:
        raise NotSPD(f"{name} is not positive definite")


def _check_hurwitz(mat: np.ndarray, name: str) -> None:
    reals = np.real(np.linalg.eigvals(mat))
    if float(reals.max()) >= -1e-10:
        raise NotHurwitz(
            f"{name} has an eigenvalue with real part {reals.max():.3g} >= -1e-10"
        )


def solve_lyapunov(a_cl, q) -> np.ndarray:
    """Unique P with Acl^T P + P Acl = -Q, via the Kronecker vectorization.

    Requires Acl Hurwitz and Q symmetric positive definite; the returned P is
    symmetrized. Dense n^2 x n^2 solve, fine at desk scale.
    """
    a_cl = np.asarray(a_cl, dtype=float)
    q = np.asarray(q, dtype=float)
    if a_cl.ndim != 2 or a_cl.shape[0] != a_cl.shape[1]:
        raise DimensionMismatch(f"Acl must be square, got shape {a_cl.shape}")
    if q.shape != a_cl.shape:
        raise DimensionMismatch(f"Q shape {q.shape} does not match Acl {a_cl.shape}")
    _check_hurwitz(a_cl, "Acl")
    _check_spd(q, "Q")
    n = a_cl.shape[0]
    ident = np.eye(n)
    # Row-major vec: vec(A^T P) = kron(A^T, I) vec(P), vec(P A) = kron(I, A^T) vec(P).
    system = np.kron(a_cl.T, ident) + np.kron(ident, a_cl.T)
    p = np.linalg.solve(system, -q.reshape(-1)).reshape(n, n)
    return 0.5 * (p + p.T)


# ---------------------------------------------------------------------------
# System assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearEtSystem:
    """Plant, feedback, and the Lyapunov design pair (Q, R) with comparison
    dynamics A_s."""

    a: np.ndarray
    b: np.ndarray
    k: np.ndarray
    q: np.ndarray
    r: np.ndarray
    a_s: np.ndarray

    def __post_init__(self) -> None:
        for name in ("a", "b", "k", "q", "r", "a_s"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def closed_loop(self) -> np.ndarray:
        return self.a + self.b @ self.k


@dataclass(frozen=True)
class LyapunovData:
    """Solved Lyapunov matrix P, the extended dynamics F of y = [x, e], and
    the joint generator G = diag(F, A_s) of z = [x, e, x_s].

    The grid scans' packed gap forms (Phi^j)^T W Phi^j with the step powers
    Phi^j (per grid step and block) and the cells' packed Taylor forms
    W_k / k! (per grid step) are kept on the instance.
    """

    p: np.ndarray
    f: np.ndarray
    g: np.ndarray
    _gap_forms: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _taylor_forms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("p", "f", "g"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.p.shape[0]


def design(a, b, k, q, r, a_s=None):
    """Validate a plant/feedback/design tuple and assemble the toolkit data.

    A + BK must be Hurwitz; Q, R, and Q - R must all be symmetric positive
    definite. When no comparison dynamics are supplied, A_s = -P^{-1} R / 2 is
    used: it satisfies A_s^T P + P A_s = -R symmetrically and is Hurwitz
    because P and R are positive definite.

    Returns:
        (LinearEtSystem, LyapunovData)
    """
    a, b, k, q, r = (np.asarray(v, dtype=float) for v in (a, b, k, q, r))
    n = a.shape[0]
    if a.shape != (n, n):
        raise DimensionMismatch(f"A must be square, got {a.shape}")
    if b.ndim != 2 or b.shape[0] != n:
        raise DimensionMismatch(f"B must be n x m with n={n}, got {b.shape}")
    m = b.shape[1]
    if k.shape != (m, n):
        raise DimensionMismatch(f"K must be {m} x {n}, got {k.shape}")
    if q.shape != (n, n) or r.shape != (n, n):
        raise DimensionMismatch("Q and R must match the state dimension")
    _check_spd(q, "Q")
    _check_spd(r, "R")
    _check_spd(q - r, "Q - R")
    a_cl = a + b @ k
    p = solve_lyapunov(a_cl, q)  # also checks A + BK Hurwitz

    if a_s is None:
        a_s = -0.5 * np.linalg.solve(p, r)
    else:
        a_s = np.asarray(a_s, dtype=float)
        if a_s.shape != (n, n):
            raise DimensionMismatch(f"A_s must be {n} x {n}, got {a_s.shape}")
        residual = a_s.T @ p + p @ a_s + r
        scale = max(1.0, float(np.linalg.norm(r, "fro")))
        if float(np.linalg.norm(residual, "fro")) > 1e-9 * scale:
            raise InvalidParameter("supplied A_s does not solve A_s^T P + P A_s = -R")
    _check_hurwitz(a_s, "A_s")

    bk = b @ k
    f = np.block([[a_cl, bk], [-a_cl, -bk]])
    g = np.block([[f, np.zeros((2 * n, n))], [np.zeros((n, 2 * n)), a_s]])
    sys = LinearEtSystem(a=a, b=b, k=k, q=q, r=r, a_s=a_s)
    return sys, LyapunovData(p=p, f=f, g=g)


# ---------------------------------------------------------------------------
# Gap function, event times, inter-event floor
# ---------------------------------------------------------------------------

def _start(x_ell: np.ndarray) -> np.ndarray:
    """Joint state [x_ell; 0; x_ell] right after an update: a vector for a
    state vector, one column per column of a matrix x_ell."""
    return np.concatenate([x_ell, np.zeros_like(x_ell), x_ell])


def _gram(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a^T P a for each matrix of a stack."""
    return np.swapaxes(a, -1, -2) @ p @ a


def _gap(lyap: LyapunovData, z: np.ndarray) -> np.ndarray:
    """Matrix x^T P x - x_s^T P x_s of joint states held as the columns of z,
    or of each matrix of a stack: the columns [I; 0; I] carried to time t
    give M(t)."""
    n = lyap.n
    return _gram(z[..., :n, :], lyap.p) - _gram(z[..., 2 * n:, :], lyap.p)


def _state_gap(lyap: LyapunovData, z: np.ndarray) -> float:
    """Gap f = V - S = x^T P x - x_s^T P x_s of one joint state vector z."""
    n = lyap.n
    x, xs = z[:n], z[2 * n:]
    return float(x @ lyap.p @ x - xs @ lyap.p @ xs)


def trigger_gap(sys: LinearEtSystem, lyap: LyapunovData, t: float, x_ell) -> float:
    """Gap f(t) = V(t) - S(t) at elapsed time t after an update at state x_ell.

    Exactly zero at t = 0; the event condition is the first sign change to
    nonnegative.
    """
    x_ell = np.asarray(x_ell, dtype=float)
    n = lyap.n
    if x_ell.shape != (n,):
        raise DimensionMismatch(f"x_ell must have length {n}, got {x_ell.shape}")
    return _state_gap(lyap, matrix_exponential(lyap.g, t) @ _start(x_ell))


def gap_matrix(lyap: LyapunovData, t: float) -> np.ndarray:
    """Matrix M(t) with f(t) = x_ell^T M(t) x_ell; events exist once it is
    singular."""
    return _gap(lyap, matrix_exponential(lyap.g, t) @ _start(np.eye(lyap.n)))


def _expm1(a: np.ndarray) -> np.ndarray:
    """e^a - I by a Taylor series on a / 2^s, ||a / 2^s||_1 <= 0.5, doubled
    back by e^{2x} - I = 2 d + d^2: rounded relative to e^a - I, not to I."""
    s = _squarings(a)
    x = term = d = a / 2.0 ** s
    for k in range(2, 20):
        term = term @ x / k
        d = d + term
    for _ in range(s):
        d = 2.0 * d + d @ d
    return d


def _step_powers(lyap: LyapunovData, step: float, block: int) -> np.ndarray:
    """Powers exp(G step)^j, j = 1 ... block, as a (block, 3n, 3n) stack, doubled
    up as deviations from I, (I + a)(I + b) - I = a + b + ab, so that the
    rounding of the step does not compound over the powers."""
    out, filled = np.empty((block,) + lyap.g.shape), 1
    out[0] = _expm1(lyap.g * step)
    while filled < block:
        take = min(filled, block - filled)
        new = np.matmul(out[:take], out[filled - 1], out=out[filled:filled + take])
        new += out[:take]
        new += out[filled - 1]
        filled += take
    out.reshape(block, -1)[:, ::len(lyap.g) + 1] += 1.0  # add I to each power
    return out


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> tuple:
    """Row and column indices (ia, ib) of the entries a packed form keeps:
    the upper triangle of its [x, e] block, then that of its x_s block."""
    iu, ju = np.triu_indices(2 * n)
    ks, ls = np.triu_indices(n)
    return np.concatenate([iu, ks + 2 * n]), np.concatenate([ju, ls + 2 * n])


def _gap_forms(lyap: LyapunovData, step: float, block: int) -> tuple:
    """Packed gap forms of the grid steps j = 1 ... block, with the step
    powers Phi^j, kept on lyap per (step, block). Q_j = (Phi^j)^T W Phi^j is
    block-diagonal: the Gram forms of the x rows and, negated, of the x_s
    rows of Phi^j. Row j - 1 holds the upper triangles of the two blocks in
    _pairs order, off-diagonals doubled: z^T Q_j z = row @ (z[ia] z[ib])."""
    key = (step, block)
    if key not in lyap._gap_forms:
        n = lyap.n
        powers = _step_powers(lyap, step, block)
        ia, ib = _pairs(n)
        top = n * (2 * n + 1)  # entries of the [x, e] block's triangle
        xe = _gram(powers[:, :n, :2 * n], lyap.p)
        xs = _gram(powers[:, 2 * n:, 2 * n:], lyap.p)
        forms = np.concatenate(
            [xe[:, ia[:top], ib[:top]], -xs[:, ia[top:] - 2 * n, ib[top:] - 2 * n]], axis=1)
        forms *= np.where(ia == ib, 1.0, 2.0)
        lyap._gap_forms[key] = (forms, powers)
    return lyap._gap_forms[key]


def _taylor_forms(lyap: LyapunovData, step: float) -> tuple:
    """Taylor model of the gap on a grid cell, per step: (packed W_k / k!,
    k = 0 ... K; sub-cells m; exp(G step / m) if m > 1). With W_0 = W and
    W_{k+1} = G^T W_k + W_k G, f(a + s) = sum_k s^k z_a^T W_k z_a / k! and
    ||W_k|| <= (2 ||G||_2)^k ||W||. Sub-cells of width h keep 2 ||G||_2 h <=
    1/2, and K is the least degree with (2 ||G||_2 h)^(K+1) / (K+1)! <= 2^-60."""
    if step not in lyap._taylor_forms:
        n, g = lyap.n, lyap.g
        rate = 2.0 * float(np.linalg.norm(g, 2))
        m = max(1, math.ceil(2.0 * rate * step))
        x = rate * step / m
        degree = next(k for k in itertools.count()
                      if x ** (k + 1) / math.factorial(k + 1) <= 2.0 ** -60)
        ia, ib = _pairs(n)
        w = np.zeros_like(g)
        w[:n, :n], w[2 * n:, 2 * n:] = lyap.p, -lyap.p
        rows, double = [], np.where(ia == ib, 1.0, 2.0)
        for k in range(degree + 1):
            rows.append(w[ia, ib] * (double / math.factorial(k)))
            w = g.T @ w + w @ g
        hop = matrix_exponential(g, step / m) if m > 1 else None
        lyap._taylor_forms[step] = (np.array(rows), m, hop)
    return lyap._taylor_forms[step]


def _pair_products(z: np.ndarray, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """What a packed form multiplies: z[ia] z[ib] for state vectors, the
    columns of z; for stacks of n columns z[:, r] = Y_r, the products Y_r[ia,
    a] Y_r[ib, b] symmetrized in (a, b) and flattened (giving Y_r^T Q_j Y_r)."""
    if z.ndim < 3:
        return z[ia] * z[ib]
    u = z[ia, ..., None] * z[ib, ..., None, :]
    return (0.5 * (u + np.swapaxes(u, -1, -2))).reshape(len(ia), -1)


def _gap_walk(lyap: LyapunovData, z0: np.ndarray, step: float, grid_points: int):
    """Gaps at the grid points k step, k = 1 ... grid_points, from the joint
    state z0 at 0, in runs of 1, 2, 4, ... blocks, each one product of the
    packed forms with the pair products of its blocks' states (carried by
    Phi^block): yields (k0, f, cell), f[i] the gap at grid point k0 + i (a
    number, or Y^T Q Y for n columns z0), cell(i) the state at k0 + i - 1."""
    block = min(_BLOCK, grid_points)
    forms, powers = _gap_forms(lyap, step, block)
    ia, ib = _pairs(lyap.n)
    shape = z0.shape[1:] * 2  # () for a vector, (n, n) for n columns
    z, k0, run = z0, 1, 1
    while k0 <= grid_points:
        zs = [z]
        for _ in range(min(run, -(-(grid_points + 1 - k0) // block)) - 1):
            zs.append(powers[-1] @ zs[-1])
        f = (forms @ _pair_products(np.stack(zs, axis=1), ia, ib)).reshape((block, -1) + shape)
        f = np.swapaxes(f, 0, 1).reshape((-1,) + shape)[:grid_points + 1 - k0]
        yield k0, f, lambda i, zs=zs: (
            powers[i % block - 1] @ zs[i // block] if i % block else zs[i // block])
        z = powers[-1] @ zs[-1]
        k0, run = k0 + len(zs) * block, 2 * run


def _tol(t: float) -> float:
    return max(ROOT_TOL, 4.0 * math.ulp(t))  # see ROOT_TOL


def _in_cell(lyap: LyapunovData, step: float, kk: int, z: np.ndarray, model) -> Optional[float]:
    """Root in grid cell kk on its Taylor model from the walk's state z (a
    vector, or n columns) at its left end: model(rows, base) gives a
    sub-cell's f(s), negative while the grid's condition holds, and its
    solver, used where f first ends nonnegative. At a tie with the grid, f
    nonnegative at a sub-cell's start gives that time (None at t = 0), and
    f never ending nonnegative the cell's right end less the tolerance."""
    forms, m, hop = _taylor_forms(lyap, step)
    for sub in range(m):
        z = hop @ z if sub else z
        base = (kk - 1) * step + sub * (step / m)
        products = _pair_products(z[:, None] if z.ndim > 1 else z, *_pairs(lyap.n))
        f, solve = model(forms @ products, base)
        if not f(0.0) < 0.0:
            return base if base > 0.0 else None
        end = f(step / m)
        if end >= 0.0:
            return base + solve(step / m, end)
    return kk * step - _tol(kk * step)


def _poly(c: list, s: float) -> tuple:
    """Value and derivative at s of sum_k c[k] s^k, by Horner's rule."""
    p = dp = 0.0
    for ck in reversed(c):
        dp = dp * s + p
        p = p * s + ck
    return p, dp


def _event_model(rows: np.ndarray, base: float) -> tuple:
    """The gap's model sum_k c_k s^k, or f(s) / s at t = 0, where f(0) = 0
    and the constant term is -x^T (Q - R) x; solved by _newton."""
    c = rows.tolist()[base == 0.0:]
    return (lambda s: _poly(c, s)[0]), (lambda h, end: _newton(c, h, end, base))


def _newton(c: list, width: float, end: float, base: float) -> float:
    """Offset just below the root in (0, width] of sum_k c[k] s^k, negative
    at 0 and ``end`` >= 0 at width: Newton from the false-position point,
    halving the bracket when a step leaves it, until a step is within the
    tolerance at base + s; then half of it below, where the model is negative."""
    lo, hi, s = 0.0, width, width * c[0] / (c[0] - end)  # s: false position
    for _ in range(100):
        p, dp = _poly(c, s)
        lo, hi = (s, hi) if p < 0.0 else (lo, s)
        new = s - p / dp if dp else -math.inf
        new = new if lo <= new <= hi else 0.5 * (lo + hi)
        moved, s = abs(new - s), new
        if moved <= _tol(base + s):
            break
    s = s - 0.5 * _tol(base + s) if base or s > _tol(s) else 0.5 * s
    while not _poly(c, s)[0] < 0.0:
        s = lo + 0.5 * (s - lo)
    return s


def _floor_model(baseline: float, rows: np.ndarray, base: float) -> tuple:
    """det M on the model M(s) = sum_k s^k M_k, signed to be negative on
    the baseline's side; solved by _illinois."""
    n, degrees = math.isqrt(rows.shape[1]), np.arange(len(rows))
    def f(s):
        return -baseline * float(np.linalg.det((s ** degrees @ rows).reshape(n, n)))
    return f, lambda h, end: _illinois(f, h, end, base)


def _illinois(f, width: float, end: float, base: float) -> float:
    """Offset of the root in (0, width] of f, negative at 0 and ``end`` >= 0
    at width, by regula falsi with the Illinois rule: the midpoint of a
    final bracket at most the tolerance at base + s wide."""
    lo, hi, f_lo, f_hi, side = 0.0, width, f(0.0), end, 0
    for _ in range(100):
        if hi - lo <= _tol(base + hi):
            break
        s = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        s = s if lo < s < hi else 0.5 * (lo + hi)
        v = f(s)
        if v < 0.0:
            lo, f_lo, f_hi, side = s, v, f_hi * (0.5 if side < 0 else 1.0), -1
        else:
            hi, f_hi, f_lo, side = s, v, f_lo * (0.5 if side > 0 else 1.0), 1
    return 0.5 * (lo + hi)


def _first_crossing(f: np.ndarray, f_prev: float, k0: int) -> int:
    """Index of the first grid value in a run where the gap turns
    nonnegative, or -1. ``f[j]`` is the gap at grid point ``k0 + j`` and
    ``f_prev`` the one before the run; point 1 counts as a crossing
    because f(0) = 0."""
    nonneg = f >= 0.0
    if not nonneg.any():
        return -1
    prev = np.concatenate(([f_prev], f[:-1]))
    cross = nonneg & ((prev < 0.0) | (k0 + np.arange(len(f)) == 1))
    return int(np.argmax(cross)) if cross.any() else -1


def _first_sign_change(signs: np.ndarray, baseline: float) -> tuple:
    """Baseline rule over one run of determinant signs: while the baseline is
    0 the first nonzero sign sets it; after that the first sign that differs
    from it (zero included) ends the scan. Returns its index (or -1) and the
    baseline."""
    first = 0
    if baseline == 0.0:
        nonzero = np.flatnonzero(signs)
        if nonzero.size == 0:
            return -1, 0.0
        first = int(nonzero[0]) + 1
        baseline = float(signs[first - 1])
    off = signs[first:] != baseline
    if not off.any():
        return -1, baseline
    return first + int(np.argmax(off)), baseline


def next_event_time(
    sys: LinearEtSystem,
    lyap: LyapunovData,
    x_ell,
    t_max: float,
    grid_points: int = GRID_POINTS,
) -> Optional[float]:
    """First elapsed time in (0, t_max] where the gap crosses zero from below.

    Evaluates the gap at the grid points k t_max / grid_points, runs of
    blocks at a time, and takes the first k with f_k >= 0 and f_{k-1} < 0
    (or k = 1, since f(0) = 0); a crossing that turns back inside one grid
    cell is not seen. The cell's root is solved by Newton on the cell's
    Taylor model from the walk's own state at its left end (_in_cell); the
    result lies half of max(ROOT_TOL, 4 ulp(t)) below it, where the gap is
    negative. None when no crossing occurs before t_max (as for x_ell = 0).
    A grid decision can differ from a one-point-at-a-time scan's only where
    the gap is within rounding of zero.
    """
    _check_positive(t_max, "t_max")
    _check_count(grid_points, "grid_points")
    x_ell = np.asarray(x_ell, dtype=float)
    n = lyap.n
    if x_ell.shape != (n,):
        raise DimensionMismatch(f"x_ell must have length {n}, got {x_ell.shape}")
    if float(np.linalg.norm(x_ell)) == 0.0:
        return None

    step = t_max / grid_points
    f_prev = 0.0
    for k0, f, cell in _gap_walk(lyap, _start(x_ell), step, grid_points):
        i = _first_crossing(f, f_prev, k0)
        if i >= 0:
            return _in_cell(lyap, step, k0 + i, cell(i), _event_model)
        f_prev = f[-1]
    return None


def min_inter_event_time(
    sys: LinearEtSystem,
    lyap: LyapunovData,
    t_max: float,
    grid_points: int = GRID_POINTS,
) -> float:
    """Uniform inter-event floor: the first t > 0 where det M(t) = 0.

    The sign of det M (slogdet) is evaluated at the grid points k t_max /
    grid_points, a run's matrices M one product of the packed forms with the
    columns carried from [I; 0; I]. The first nonzero sign is the baseline;
    the first that differs closes the cell, whose root is solved by regula
    falsi (Illinois) on the model sum_k s^k M_k of the walk's columns at its
    left end to a bracket of max(ROOT_TOL, 4 ulp(t)), returning its middle.
    A root of even order, or two in one cell, is not seen. Raises
    NoRootFound if no sign change occurs; choose t_max large enough.
    """
    _check_positive(t_max, "t_max")
    _check_count(grid_points, "grid_points")
    step = t_max / grid_points
    baseline = 0.0
    for k0, m, cell in _gap_walk(lyap, _start(np.eye(lyap.n)), step, grid_points):
        i, baseline = _first_sign_change(np.linalg.slogdet(m)[0], baseline)
        if i >= 0:
            model = functools.partial(_floor_model, baseline)
            return _in_cell(lyap, step, k0 + i, cell(i), model)
    raise NoRootFound(f"det M(t) does not change sign on (0, {t_max}]; enlarge t_max")


# ---------------------------------------------------------------------------
# Sample-and-hold closed loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleHoldTrace:
    """Sampled V/S pair along the event-triggered closed loop."""

    times: np.ndarray
    states: np.ndarray
    v_values: np.ndarray
    s_values: np.ndarray
    event_times: tuple

    @property
    def gaps(self) -> np.ndarray:
        return np.diff(np.asarray(self.event_times))


def default_t_max(lyap: LyapunovData) -> float:
    """Default scan window of the linear toolkit: 100 / ||F||_2."""
    return 100.0 / max(float(np.linalg.norm(lyap.f, 2)), 1e-12)


def simulate_sample_hold(
    sys: LinearEtSystem,
    lyap: LyapunovData,
    x0,
    horizon: float,
    samples_per_interval: int = 20,
    t_max: Optional[float] = None,
) -> SampleHoldTrace:
    """Run the event-triggered closed loop, sampling V and S between events.

    Each inter-event segment propagates the joint state [x, e, x_s],
    restarted at the segment's initial state, by one exponential of G.
    Events are scheduled with :func:`next_event_time`; when no event occurs
    before t_max, or V = x^T P x at the last event has underflowed (0 or
    subnormal, so the gap is rounding), the trajectory coasts to the horizon
    under the held input with no further scan. The coast carries the joint
    state on in windows of at most t_max, so each exponential stays bounded.
    """
    x = np.asarray(x0, dtype=float).copy()
    n = lyap.n
    if x.shape != (n,):
        raise DimensionMismatch(f"x0 must have length {n}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidParameter(f"x0 must be finite, got {x.tolist()}")
    _check_positive(horizon, "horizon")
    _check_count(samples_per_interval, "samples_per_interval")
    if t_max is None:
        t_max = default_t_max(lyap)
    _check_positive(t_max, "t_max")

    p = lyap.p
    t = 0.0
    # Per segment, the sample times and joint states; the first sample is the
    # initial joint state [x0, 0, x0], at which V = S.
    times: list[np.ndarray] = [np.zeros(1)]
    joint: list[np.ndarray] = [_start(x)[None, :]]
    event_times: list[float] = [0.0]

    dt_event = 0.0
    while t < horizon - 1e-12:
        if dt_event is not None:  # at an event: restart the joint state, scan
            z = _start(x)
            underflow = float(x @ p @ x) < np.finfo(float).tiny
            dt_event = None if underflow else next_event_time(sys, lyap, x, t_max)
        seg = min(t_max if dt_event is None else dt_event, horizon - t)
        tau_step = seg / samples_per_interval
        phi_tau = matrix_exponential(lyap.g, tau_step)
        zs = np.empty((samples_per_interval, 3 * n))
        for j in range(samples_per_interval):
            z = zs[j] = phi_tau @ z
        times.append(t + np.arange(1, samples_per_interval + 1) * tau_step)
        joint.append(zs)
        t = t + seg
        x = z[:n].copy()
        if dt_event is not None and seg == dt_event:
            event_times.append(t)

    zs = np.concatenate(joint)
    states = np.ascontiguousarray(zs[:, :n])
    return SampleHoldTrace(
        times=np.concatenate(times),
        states=states,
        v_values=_quadratic_forms(states, p),
        s_values=_quadratic_forms(np.ascontiguousarray(zs[:, 2 * n:]), p),
        event_times=tuple(event_times),
    )


def _quadratic_forms(xs: np.ndarray, p: np.ndarray) -> np.ndarray:
    """x^T P x for each row x of xs, as stacked products: the same bits as
    x @ p @ x one row at a time."""
    return ((xs[:, None, :] @ p) @ xs[:, :, None])[:, 0, 0]

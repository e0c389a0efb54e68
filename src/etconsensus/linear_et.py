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
restarted at [x_ell, 0, x_ell], by exponentials and powers of G, and reads
V - S = z^T W z, W = diag(P, 0, -P), off it. The forms Q_j = (Phi^j)^T W
Phi^j of the grid's step powers are symmetric and block-diagonal, and are
cached packed: the upper triangles of their [x, e] and x_s blocks. Both grid
scans read a block of grid points off that cache in one product: the event
scan with the pair products of the vector z, the det scan, for the n columns
Y carried from [I; 0; I], with the symmetrized column products of Y, which
gives M = Y^T Q_j Y. The event bisection carries z as a flat vector, the det
bisection the n columns.

Dense linear algebra throughout; intended for desk-scale systems (n <= 10).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NoRootFound,
    NotHurwitz,
    NotSPD,
)

#: Time tolerance for root bisection (event times and det M roots).
ROOT_TOL = 1e-10

#: Default number of grid points for sign-change scans.
GRID_POINTS = 10_000

#: Grid points evaluated per batched step of the scans.
_BLOCK = 256


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

    The grid scans' packed gap forms (Phi^j)^T W Phi^j, one row of
    n(2n+1) + n(n+1)/2 entries per grid point, with Phi^block (per grid step
    and block), and the bisections' halving ladders of G (per bracket width)
    are kept on the instance.
    """

    p: np.ndarray
    f: np.ndarray
    g: np.ndarray
    _gap_forms: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _halvings: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    k = np.asarray(k, dtype=float)
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
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
        if float(np.linalg.norm(residual, "fro")) > 1e-9 * max(
            1.0, float(np.linalg.norm(r, "fro"))
        ):
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


def _powers(phi: np.ndarray, count: int) -> np.ndarray:
    """Stack of phi^1 ... phi^count, built by repeated doubling."""
    out = np.empty((count,) + phi.shape)
    out[0] = phi
    filled = 1
    while filled < count:
        take = min(filled, count - filled)
        out[filled:filled + take] = out[:take] @ out[filled - 1]
        filled += take
    return out


def _step_powers(lyap: LyapunovData, step: float, block: int) -> np.ndarray:
    """Powers exp(G step)^j, j = 1 ... block, as a (block, 3n, 3n) stack."""
    return _powers(matrix_exponential(lyap.g, step), block)


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> tuple:
    """Row and column indices (ia, ib) of the entries a packed form keeps:
    the upper triangle of its [x, e] block, then that of its x_s block."""
    iu, ju = np.triu_indices(2 * n)
    ks, ls = np.triu_indices(n)
    return np.concatenate([iu, ks + 2 * n]), np.concatenate([ju, ls + 2 * n])


def _gap_forms(lyap: LyapunovData, step: float, block: int) -> tuple:
    """Packed gap forms of the grid steps j = 1 ... block and the leap Phi^block,
    kept on lyap per (step, block).

    The form Q_j = (Phi^j)^T W Phi^j of the step power Phi^j, W = diag(P, 0,
    -P), is symmetric and block-diagonal like G and W: its [x, e] block is the
    Gram form of the x rows of Phi^j and its x_s block minus that of the x_s
    rows. Row j - 1 of the packed (block, n(2n+1) + n(n+1)/2) matrix holds the
    upper triangles of the two blocks, in the order of _pairs, with every
    off-diagonal entry doubled, so that z^T Q_j z = packed[j - 1] @ (z[ia] z[ib]).
    """
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
        lyap._gap_forms[key] = (forms, powers[-1].copy())
    return lyap._gap_forms[key]


def _pair_products(z: np.ndarray, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """What a packed form multiplies: z[ia] z[ib] for a state vector z; for
    columns Y, the column products Y[ia, a] Y[ib, b] symmetrized in (a, b)
    and flattened, so that the product gives Y^T Q_j Y."""
    if z.ndim == 1:
        return z[ia] * z[ib]
    u = z[ia, :, None] * z[ib, None, :]
    return (0.5 * (u + u.transpose(0, 2, 1))).reshape(len(ia), -1)


def _gap_walk(lyap: LyapunovData, z0: np.ndarray, step: float, grid_points: int):
    """Gaps at the grid points k step, k = 1 ... grid_points, from the joint
    state z0 at t = 0, a block at a time: yields (k0, f) with f[j] the gap at
    grid point k0 + j, a number for a state vector z0 and the n x n matrix
    Y^T Q Y for n columns z0 (M(t) for the columns [I; 0; I]).

    A block's gaps are one product of the packed gap forms (_gap_forms) with
    the pair products of the state z before the block, and the leap
    Phi^block carries z to the next block.
    """
    block = min(_BLOCK, grid_points)
    forms, leap = _gap_forms(lyap, step, block)
    ia, ib = _pairs(lyap.n)
    shape = z0.shape[1:] * 2  # () for a vector, (n, n) for n columns
    z = z0
    for k0 in range(1, grid_points + 1, block):
        count = min(block, grid_points + 1 - k0)
        yield k0, (forms[:count] @ _pair_products(z, ia, ib)).reshape((count,) + shape)
        z = leap @ z


def _halving_ladder(gen: np.ndarray, width: float, levels: int) -> np.ndarray:
    """Stack of exp(gen width / 2^i) for i = 1 ... levels.

    One batched Pade pass covers every level of 1-norm at most 0.5; each
    coarser level is the square of the next finer one, which is what
    matrix_exponential's scaling and squaring computes for it.
    """
    coarse = _squarings(gen * (width / 2.0))
    args = np.stack([gen * (width / 2.0 ** i) for i in range(1, max(levels, coarse + 1) + 1)])
    ladder = np.empty_like(args)
    ladder[coarse:] = _pade(args[coarse:])
    for i in range(coarse - 1, -1, -1):
        ladder[i] = ladder[i + 1] @ ladder[i + 1]
    return ladder[:levels]


def _halvings(lyap: LyapunovData, width: float, levels: int) -> np.ndarray:
    """At least ``levels`` levels of the halving ladder of G for a bracket of
    ``width``, kept on lyap per width."""
    ladder = lyap._halvings.get(width)
    if ladder is None or len(ladder) < levels:
        ladder = _halving_ladder(lyap.g, width, levels)
        lyap._halvings[width] = ladder
    return ladder


def _bisect(lyap, lo: float, hi: float, width: float, z0, on_left) -> tuple:
    """Halve [lo, hi] to ROOT_TOL, keeping lo where on_left holds.

    ``z0`` is the joint state at t = 0 and ``width`` the bracket's nominal
    width. The state at lo comes from one exponential over lo, not from a
    grid scan's chained step powers, whose rounding grows with the grid
    index. The i-th midpoint lies width / 2^i past the current lo, so level
    i of the halving ladder carries the state there: one matrix product per
    step. on_left judges that state, and the state moves with lo. Past
    t = 2^19 one ulp of t exceeds ROOT_TOL, so the halving stops once the
    bracket is one ulp wide.
    """
    state = matrix_exponential(lyap.g, lo) @ z0
    ladder = _halvings(lyap, width, max(1, math.ceil(math.log2(width / ROOT_TOL)) + 1))
    i = 0
    while hi - lo > ROOT_TOL:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if i == len(ladder):
            # Rounding of lo and hi left the bracket wider than width / 2^i.
            ladder = _halvings(lyap, width, 2 * i)
        moved = ladder[i] @ state
        if on_left(moved):
            lo, state = mid, moved
        else:
            hi = mid
        i += 1
    return lo, hi


def _first_crossing(f: np.ndarray, f_prev: float, k0: int) -> int:
    """Index of the first grid value in a block where the gap turns
    nonnegative, or -1. ``f[j]`` is the gap at grid point ``k0 + j`` and
    ``f_prev`` the one before the block; point 1 counts as a crossing
    because f(0) = 0."""
    nonneg = f >= 0.0
    if not nonneg.any():
        return -1
    prev = np.concatenate(([f_prev], f[:-1]))
    k = k0 + np.arange(len(f))
    cross = nonneg & ((prev < 0.0) | (k == 1))
    return int(np.argmax(cross)) if cross.any() else -1


def _first_sign_change(signs: np.ndarray, baseline: float) -> tuple:
    """Baseline rule over one block of determinant signs.

    While the baseline is 0 the first nonzero sign sets it; after that the
    first sign that differs from it (zero included) ends the scan. Returns
    the index of that sign (or -1) and the baseline.
    """
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

    Evaluates the gap at the grid points k t_max / grid_points, a block of
    them at a time, and takes the first k with f_k >= 0 and f_{k-1} < 0 (or
    k = 1, since f(0) = 0). A crossing that turns back inside one grid cell,
    with no sign change at the grid points, is not seen. The bracketing cell
    is bisected to ROOT_TOL; returns the left end of the final bracket, or
    None when no crossing occurs before t_max (in particular for x_ell = 0,
    where the gap is identically zero).

    The joint state is a flat vector: each block's gaps are one product of
    the packed gap forms (Phi^j)^T W Phi^j with its pair products, and each
    bisection step is one matrix-vector product and two quadratic forms. The
    rounding differs from a sequential one-point-at-a-time scan, so a
    decision can differ from it only where the gap is within rounding of
    zero.
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
    z0 = _start(x_ell)
    f_prev = 0.0
    for k0, f in _gap_walk(lyap, z0, step, grid_points):
        j = _first_crossing(f, f_prev, k0)
        if j >= 0:
            return _event_in_cell(lyap, z0, k0 + j, step)
        f_prev = f[-1]
    return None


def _event_in_cell(lyap, z0, kk: int, step: float) -> Optional[float]:
    """Bisect grid cell kk for the gap's crossing from the update state z0;
    None if the gap never turns negative in the first cell."""
    lo, width = (kk - 1) * step, step
    if kk == 1:
        # f(0) = 0 exactly; walk in until the gap is genuinely negative.
        lo = _negative_start(lyap, z0, step)
        if lo is None:
            return None
        width = step - lo
    # Left end of the final bracket: within ROOT_TOL of the root with the gap
    # still negative, so resetting there keeps V <= S one-sided.
    return _bisect(lyap, lo, kk * step, width, z0,
                   lambda w: not _state_gap(lyap, w) >= 0.0)[0]


def _negative_start(lyap, z0, upper: float) -> Optional[float]:
    """First of upper / 2, upper / 4, ... (60 halvings) where the gap from
    z0 is negative, or None."""
    t = 0.5 * upper
    for _ in range(60):
        if _state_gap(lyap, matrix_exponential(lyap.g, t) @ z0) < 0.0:
            return t
        t *= 0.5
    return None


def min_inter_event_time(
    sys: LinearEtSystem,
    lyap: LyapunovData,
    t_max: float,
    grid_points: int = GRID_POINTS,
) -> float:
    """Uniform inter-event floor: the first t > 0 where det M(t) = 0.

    The sign of det M(t) is evaluated at the grid points k t_max /
    grid_points, a block of them at a time: a block's matrices M are one
    product of the packed gap forms that the event scan reads with the
    symmetrized column products of the n columns carried from [I; 0; I].
    The first nonzero sign is the baseline; the first grid point whose sign
    differs from it closes the bracketing cell, which is bisected to
    ROOT_TOL, and the midpoint of the final bracket is returned. The sign is
    taken from slogdet, which stays usable when the determinant magnitude
    over- or underflows. A root of even order, or two roots inside one grid
    cell, leaves no sign change and is not seen.

    Raises NoRootFound if the determinant never changes sign in the window;
    the caller is responsible for choosing t_max large enough.
    """
    _check_positive(t_max, "t_max")
    _check_count(grid_points, "grid_points")
    step = t_max / grid_points
    baseline = 0.0
    for k0, m in _gap_walk(lyap, _start(np.eye(lyap.n)), step, grid_points):
        signs = np.linalg.slogdet(m)[0]
        j, baseline = _first_sign_change(signs, baseline)
        if j >= 0:
            return _floor_in_cell(lyap, k0 + j, step, baseline)
    raise NoRootFound(
        f"det M(t) does not change sign on (0, {t_max}]; enlarge t_max"
    )


def _floor_in_cell(lyap, kk: int, step: float, baseline: float) -> float:
    """Bisect grid cell kk for the sign change of det M away from baseline;
    the state is the columns [I; 0; I]."""
    lo, hi = _bisect(lyap, (kk - 1) * step, kk * step, step, _start(np.eye(lyap.n)),
                     lambda w: float(np.linalg.slogdet(_gap(lyap, w))[0]) == baseline)
    return 0.5 * (lo + hi)


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

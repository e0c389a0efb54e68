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
-P), off it. Both scans walk cells of width 1 / (4 ||G||_2) and clear each
on the Bernstein coefficients of its degree-15 Taylor model; the first
root is refined on the model of the first cell not cleared.

Dense linear algebra throughout; intended for desk-scale systems (n <= 10).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, NoRootFound, NotHurwitz, NotSPD

#: Time tolerance of the roots (event times and t_min); past t = 2^17 four
#: ulps of t, which are wider, are used instead (_tol).
ROOT_TOL = 1e-10

#: Degree K of the cells' Taylor models: the least with (1/2)^(K+1) / (K+1)!
#: <= 2^-60, the remainder on a cell of width 1 / (4 ||G||_2).
_DEGREE = 15
_POWERS = np.arange(_DEGREE + 1)

#: b_i = sum_{k <= i} C(i, k) / C(K, k) a_k: the Bernstein coefficients on
#: [0, 1] of the polynomial sum_k a_k s^k of degree K.
_BERNSTEIN = np.array([[math.comb(i, k) / math.comb(_DEGREE, k) for k in _POWERS]
                       for i in _POWERS])

#: Cells per block of kept step powers exp(G h)^j. The scans read runs of
#: 1, 2, 4, ... blocks up to _MAX_RUN cells: uncapped, a run would grow with
#: t_max ||G||, to gigabytes at n = 6; capped, a scan peaks near 30 MB.
_BLOCK = 32
_MAX_RUN = 32 * _BLOCK


# ---------------------------------------------------------------------------
# Dense primitives
# ---------------------------------------------------------------------------

def matrix_exponential(m, t: float = 1.0) -> np.ndarray:
    """e^{M t}, the package's one exponential, for any ||M t||.

    It is the k-th power of I + _expm1(M t / k), k = _pieces(||M t||_1), so
    each Taylor kernel call sees a 1-norm of at most 50, the range in which
    it is accurate to far below 1e-10. A power's rounding grows fast with k
    where e^{M t} grows polynomially (M with a defective eigenvalue at 0, as
    a held input driving an integrator): on configs/linear_et_2d.cfg's G it
    is 5.6e-10 relative at ||G t||_1 <= 600 and 2.6e-5 at <= 4000. Raises
    OverflowError only when e^{M t} itself is not finite in double precision.
    """
    m, t = np.asarray(m, dtype=float), float(t)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got shape {m.shape}")
    norm = float(np.linalg.norm(m, 1)) * abs(t)
    if not math.isfinite(norm):
        raise InvalidParameter("matrix entries must be finite")
    k = _pieces(norm)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.linalg.matrix_power(np.eye(len(m)) + _expm1(m * (t / k)), k)
    if not np.isfinite(out).all():
        raise OverflowError(f"e^(M t) is not finite in double precision (||M t||_1 = {norm:.3g})")
    return out


def _pieces(norm: float) -> int:
    """max(1, ceil(norm / 50)): the equal pieces of a step of 1-norm
    ||M t||_1 = norm on each of which the Taylor kernel sees at most 50."""
    return max(1, math.ceil(norm / 50.0))


def _squarings(a: np.ndarray) -> int:
    """Halvings that bring the 1-norm of a to at most 0.5."""
    norm = float(np.linalg.norm(a, 1))
    return max(0, int(math.ceil(math.log2(norm / 0.5)))) if norm > 0.5 else 0


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


@dataclass(frozen=True)
class LyapunovData:
    """Solved Lyapunov matrix P, the extended dynamics F of y = [x, e], and
    the joint generator G = diag(F, A_s) of z = [x, e, x_s].

    The scans' cells (their width, the kept powers of exp(G h) and the
    Taylor forms) are computed on first use and kept on the instance.
    """

    p: np.ndarray
    f: np.ndarray
    g: np.ndarray

    def __post_init__(self) -> None:
        for name in ("p", "f", "g"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.p.shape[0]

    @functools.cached_property
    def _cells(self) -> tuple:
        return _cell_model(self)


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
    n = lyap.n
    y = matrix_exponential(lyap.g, t) @ _start(np.eye(n))
    return y[:n].T @ lyap.p @ y[:n] - y[2 * n:].T @ lyap.p @ y[2 * n:]


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
    """Powers exp(G step)^j, j = 0 ... block, as a (block + 1, 3n, 3n) stack,
    doubled up as deviations from I, (I + a)(I + b) - I = a + b + ab, so that
    the rounding of the step does not compound over the powers."""
    out, filled = np.zeros((block + 1,) + lyap.g.shape), 2
    out[1] = _expm1(lyap.g * step)
    while filled <= block:
        take = min(filled - 1, block + 1 - filled)
        new = np.matmul(out[1:take + 1], out[filled - 1], out=out[filled:filled + take])
        new += out[1:take + 1]
        new += out[filled - 1]
        filled += take
    out.reshape(block + 1, -1)[:, ::len(lyap.g) + 1] += 1.0  # add I to each power
    return out


def _cell_model(lyap: LyapunovData) -> tuple:
    """The scans' cells: (width h = 1 / (4 ||G||_2), the powers exp(G h)^j,
    j = 0 ... _BLOCK, and the Taylor forms V_k = W_k h^k / k!, k = 0 ... K,
    side by side in one 3n x 3n(K + 1) matrix). With W_0 = W and W_{k+1} =
    G^T W_k + W_k G, Y(a + s h)^T W Y(a + s h) = sum_k s^k Y(a)^T V_k Y(a),
    and ||V_k|| <= ||W|| / (2^k k!) bounds the remainder on a cell below
    2^-60 ||W|| ||Y(a)||^2."""
    n, g = lyap.n, lyap.g
    h = 0.25 / float(np.linalg.norm(g, 2))
    v = np.zeros_like(g)
    v[:n, :n], v[2 * n:, 2 * n:] = lyap.p, -lyap.p
    forms = [v]
    for k in range(1, _DEGREE + 1):
        forms.append((g.T @ forms[-1] + forms[-1] @ g) * (h / k))
    return h, _step_powers(lyap, h, _BLOCK), np.hstack(forms)


def _tol(t: float) -> float:
    return max(ROOT_TOL, 4.0 * math.ulp(t))  # see ROOT_TOL


def _coefficients(ys: np.ndarray, forms: np.ndarray) -> np.ndarray:
    """Taylor coefficients M_k = Y^T V_k Y of the cells whose start states
    are ys (cells, 3n, c), as a (c, c, K + 1, cells) stack: one product of
    the states with the forms, then one batched product with the states."""
    cells, size, c = ys.shape
    u = np.swapaxes(ys, 1, 2).reshape(cells * c, size) @ forms  # row (cell, d): (V_k Y)[:, d]
    m = u.reshape(cells, c * (_DEGREE + 1), size) @ ys
    return m.reshape(cells, c, _DEGREE + 1, c).transpose(1, 3, 2, 0)


def _negative_definite(m: np.ndarray) -> np.ndarray:
    """Whether each symmetric matrix m[:, :, ...] of a (c, c, ...) stack is
    negative definite: all pivots of a Cholesky factorization of -m > 0."""
    a = np.negative(m, order="C")
    ok = np.ones(a.shape[2:], dtype=bool)
    for k in range(len(a)):
        pivot = a[k, k]
        ok &= pivot > 0.0
        col = a[k + 1:, k] / np.where(ok, pivot, 1.0)
        a[k + 1:, k + 1:] -= col[:, None] * a[k, k + 1:]
    return ok


def _halves(b: np.ndarray) -> tuple:
    """Bernstein coefficients (last axis) on [0, 1/2] and on [1/2, 1] of the
    polynomial with coefficients b on [0, 1]: de Casteljau's algorithm."""
    left, right = [b[..., 0]], [b[..., -1]]
    while b.shape[-1] > 1:
        b = 0.5 * (b[..., :-1] + b[..., 1:])
        left.append(b[..., 0])
        right.append(b[..., -1])
    return np.stack(left, axis=-1), np.stack(right[::-1], axis=-1)


def _bracket(hull: np.ndarray, h: float, base: float) -> Optional[tuple]:
    """First bracket (lo, hi), in cell widths, of the root of a cell's model
    with Bernstein coefficients hull (c, c, K + 1): halves, left first, until
    one's end is not negative definite ((lo, lo) at its start) or it is the
    tolerance at base + hi h wide; None when every half clears."""
    todo = [(hull, 0.0, 1.0)]
    while todo:
        b, lo, hi = todo.pop()
        nd = _negative_definite(b)
        if nd.all():
            continue
        if not nd[0]:
            return lo, lo
        if not nd[-1] or (hi - lo) * h <= _tol(base + hi * h):
            return lo, hi
        left, right = _halves(b)
        mid = 0.5 * (lo + hi)
        todo += [(right, mid, hi), (left, lo, mid)]
    return None


def _illinois(f, lo: float, hi: float, h: float, base: float) -> tuple:
    """Final bracket (lo, hi), in cell widths, of the root of f, negative at
    lo and nonnegative at hi: regula falsi with the Illinois rule, to at most
    the tolerance at base + hi h."""
    f_lo, f_hi, side = f(lo), f(hi), 0
    for _ in range(100):
        if (hi - lo) * h <= _tol(base + hi * h):
            break
        s = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        s = s if lo < s < hi else 0.5 * (lo + hi)
        v = f(s)
        if v < 0.0:
            lo, f_lo, f_hi, side = s, v, f_hi * (0.5 if side < 0 else 1.0), -1
        else:
            hi, f_hi, f_lo, side = s, v, f_lo * (0.5 if side > 0 else 1.0), 1
    return lo, hi


def _first_root(lyap: LyapunovData, y0: np.ndarray, t_max: float,
                at_update: bool) -> Optional[tuple]:
    """First t in [0, t_max] at which Y(t)^T W Y(t) stops being negative
    definite (t = 0 only for a y0 that is not an update's start), for
    Y(t) = exp(G t) y0, y0 one joint state column or the n columns
    [I; 0; I]: (lo, hi, spread), the final bracket of the root and,
    for one column, 64 eps (V + S) / |f'|, by which the gap's rounding can
    move it. None if there is none. at_update says that y0 is an update's
    start, [x, 0, x] or [I; 0; I], where M(0) = 0 and M'(0) = -(Q - R).

    The cells are walked in runs of 1, 2, 4, ... blocks up to _MAX_RUN
    cells: the kept powers times the states at the blocks' starts give the
    cell-start states, one product with the forms their Taylor coefficients
    and one with _BERNSTEIN their Bernstein coefficients. A cell whose
    Bernstein coefficients are all negative definite holds no root of its
    model (convex hull property); from an update the first cell is judged
    on M(s) / s, and from any other start on M(s) itself. In
    the first cell not cleared, _bracket finds the root and _illinois
    refines it on the gap, or on the largest eigenvalue of M, whose sign,
    unlike that of det M, shows two eigenvalues crossing zero together.
    """
    h, powers, forms = lyap._cells
    cells, c, n = math.ceil(t_max / h), y0.shape[1], lyap.n
    y, j0, run = y0, 0, _BLOCK
    while j0 < cells:
        count = min(run, cells - j0)
        starts = [y]
        while len(starts) * _BLOCK < count:
            starts.append(powers[-1] @ starts[-1])
        y = powers[count - (len(starts) - 1) * _BLOCK] @ starts[-1]
        width = min(count, _BLOCK)
        ys = (powers[:width] @ np.concatenate(starts, axis=1)).reshape(width, 3 * n, -1, c)
        ys = ys.transpose(2, 0, 1, 3).reshape(-1, 3 * n, c)[:count]
        m = _coefficients(ys, forms)
        if j0 == 0 and at_update:  # M(s) / s, as M(0) = 0
            m[:, :, :-1, 0], m[:, :, -1, 0] = m[:, :, 1:, 0], 0.0
        hull = _BERNSTEIN @ m
        for i in np.flatnonzero(~_negative_definite(hull).all(axis=0)):
            cell = j0 + int(i)
            base = cell * h
            bracket = _bracket(hull[..., i], h, base)
            if bracket is None:
                continue
            a = m[..., i]

            def f(s):
                model = a @ s ** _POWERS
                return float(model[0, 0] if c == 1 else np.linalg.eigvalsh(model)[-1])

            lo, hi = _illinois(f, *bracket, h, base)
            if base + lo * h >= t_max:
                return None
            spread = 0.0
            if c == 1 and hi > lo:  # f' over the final bracket (of s f(s) / s in cell 0)
                divided = cell == 0 and at_update
                rate = abs(hi ** divided * f(hi) - lo ** divided * f(lo)) / (hi - lo)
                x, xs = ys[i, :n, 0], ys[i, 2 * n:, 0]
                scale = float(x @ lyap.p @ x + xs @ lyap.p @ xs)
                spread = 64.0 * math.ulp(1.0) * scale * h / rate if rate else 0.0
            return base + lo * h, base + hi * h, spread
        j0 += count
        run = min(2 * run, _MAX_RUN)
    return None


def next_event_time(sys: LinearEtSystem, lyap: LyapunovData, x_ell,
                    t_max: float) -> Optional[float]:
    """First elapsed time in (0, t_max] where the gap V - S turns nonnegative.

    The cells of width 1 / (4 ||G||_2) are cleared on their degree-15
    Taylor models, so a crossing of any width is seen, and the root is
    refined by regula falsi to max(ROOT_TOL, 4 ulp(t)) (_first_root). The
    result lies below the root by that tolerance, or by 64 eps (V + S) /
    |f'| where the gap's rounding moves the root further, so the gap is
    negative there. None when no crossing occurs before t_max (as for
    x_ell = 0).
    """
    _check_positive(t_max, "t_max")
    x_ell = np.asarray(x_ell, dtype=float)
    n = lyap.n
    if x_ell.shape != (n,):
        raise DimensionMismatch(f"x_ell must have length {n}, got {x_ell.shape}")
    if float(np.linalg.norm(x_ell)) == 0.0:
        return None
    return _event_delay(lyap, _start(x_ell), float(t_max), at_update=True)


def _event_delay(lyap: LyapunovData, z: np.ndarray, t_max: float,
                 at_update: bool) -> Optional[float]:
    """Elapsed time in [0, t_max] at which the gap from the joint state z
    turns nonnegative, below the root by its tolerance or its spread, or
    None (next_event_time). It is 0 only for at_update=False when the gap
    at z is already nonnegative."""
    found = _first_root(lyap, z[:, None], t_max, at_update)
    if found is None:
        return None
    _, hi, spread = found
    t = hi - max(_tol(hi), spread)
    return t if t > 0.0 else 0.5 * hi


def min_inter_event_time(sys: LinearEtSystem, lyap: LyapunovData, t_max: float) -> float:
    """Uniform inter-event floor: the first t > 0 where M(t) stops being
    negative definite (M(0) = 0, M'(0) = -(Q - R)), a root of det M.

    The cells are cleared as in next_event_time, and the root is refined by
    regula falsi on the largest eigenvalue of M to a bracket of
    max(ROOT_TOL, 4 ulp(t)), whose middle is returned. Raises NoRootFound
    if there is no root in (0, t_max]; choose t_max large enough.
    """
    _check_positive(t_max, "t_max")
    found = _first_root(lyap, _start(np.eye(lyap.n)), float(t_max), at_update=True)
    if found is None:
        raise NoRootFound(f"M(t) stays negative definite on (0, {t_max}]; enlarge t_max")
    return 0.5 * (found[0] + found[1])


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

    Each segment propagates the joint state z = [x, e, x_s] by one
    exponential of G, sampled samples_per_interval times. At each update z
    restarts at [x, 0, x] and :func:`next_event_time` scans the next t_max
    for the crossing. A scan that finds none ends a segment of t_max, the
    scan window, at which the scan is taken again from the z the hold has
    reached, with no update logged; t_max bounds only the scan. A sample
    step past the exponential's range is the product of its in-range pieces,
    taken one at a time. Once V = x^T P x has underflowed (0 or subnormal,
    so the gap is rounding), the trajectory coasts to the horizon under the
    held input with no further scan. The first segment is taken whatever
    the horizon. Raises InvalidParameter if the held state leaves double
    precision.
    """
    x = np.asarray(x0, dtype=float).copy()
    n = lyap.n
    if x.shape != (n,):
        raise DimensionMismatch(f"x0 must have length {n}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidParameter(f"x0 must be finite, got {x.tolist()}")
    _check_positive(horizon, "horizon")
    _check_count(samples_per_interval, "samples_per_interval")
    t_max = default_t_max(lyap) if t_max is None else float(t_max)
    _check_positive(t_max, "t_max")

    p = lyap.p
    g_norm = float(np.linalg.norm(lyap.g, 1))
    t = 0.0
    # Per segment, the sample times and joint states; the first sample is the
    # initial joint state [x0, 0, x0], at which V = S.
    times: list[np.ndarray] = [np.zeros(1)]
    joint: list[np.ndarray] = [_start(x)[None, :]]
    event_times: list[float] = [0.0]

    z, at_update, scanning = _start(x), True, True
    while True:
        scanning = scanning and float(x @ p @ x) >= np.finfo(float).tiny
        dt_event = None
        if scanning:
            dt_event = (next_event_time(sys, lyap, x, t_max) if at_update
                        else _event_delay(lyap, z, t_max, at_update=False))
        seg = min(t_max if dt_event is None else dt_event, horizon - t)
        if seg > 0.0:  # a rescan may start on a crossing: the update is now
            tau_step = seg / samples_per_interval
            # Past the kernel's range the sample step is the product of its
            # pieces taken one at a time, whose rounding grows only
            # polynomially where e^{G t} does, not a power (matrix_exponential).
            pieces = _pieces(g_norm * tau_step)
            phi_tau = piece = matrix_exponential(lyap.g, tau_step / pieces)
            zs = np.empty((samples_per_interval, 3 * n))
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(pieces - 1):
                    phi_tau = piece @ phi_tau
                for j in range(samples_per_interval):
                    z = zs[j] = phi_tau @ z
            if not np.isfinite(zs).all():
                raise InvalidParameter(
                    f"the held state leaves double precision before t = {t + seg:.6g}; "
                    "shorten the horizon")
            times.append(t + np.arange(1, samples_per_interval + 1) * tau_step)
            joint.append(zs)
        t = t + seg
        x = z[:n].copy()
        at_update = dt_event is not None and seg == dt_event
        if at_update:
            event_times.append(t)
            z = _start(x)
        if not t < horizon - 1e-12:
            break

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

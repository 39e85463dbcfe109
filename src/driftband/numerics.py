"""Self-contained numerical kernels shared by the whole toolkit.

Bessel J0, adaptive Gauss-Kronrod quadrature, Brent root bracketing,
Hermitian eigenvalues of single matrices or stacks (checked input, solved
by LAPACK) and an embedded Runge-Kutta 4(5) integrator.  All routines are
pure functions of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class NumericsError(Exception):
    pass


class DomainError(NumericsError, ValueError):
    pass


class BracketError(NumericsError):
    pass


class ConvergenceError(NumericsError):
    """Iteration budget exhausted; carries the best estimate so far."""

    def __init__(self, message, best=None, error=None):
        super().__init__(message)
        self.best = best
        self.error = error


class NonHermitianError(NumericsError, ValueError):
    pass


class StiffnessError(NumericsError):
    """Step size underflow; carries the partial trajectory."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class Tolerance:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("tolerances must be positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be at least 1")


DEFAULT_TOL = Tolerance()


# ----------------------------------------------------------------------
# Bessel function of order zero
# ----------------------------------------------------------------------

_J0_SERIES_CUT = 8.0


def _j0_series(x):
    # sum_m (-1)^m (x^2/4)^m / (m!)^2, peak term ~1e2 at x=8 so double
    # precision keeps the absolute error near 1e-14
    z = 0.25 * x * x
    term = 1.0
    total = 1.0
    m = 0
    while abs(term) > 1e-18 * (1.0 + abs(total)):
        m += 1
        term *= -z / (m * m)
        total += term
        if m > 200:
            break
    return total


def _j0_integral(x):
    # trapezoid on (1/pi) * int_0^pi cos(x sin t) dt; the integrand extends
    # to an entire periodic function, so convergence is geometric once the
    # node count outruns the oscillation
    n = 64 + 4 * int(math.ceil(abs(x)))
    n = min(n, 4096)
    t = np.linspace(0.0, math.pi, n + 1)
    vals = np.cos(x * np.sin(t))
    return (0.5 * (vals[0] + vals[-1]) + vals[1:-1].sum()) / n


def bessel_j0(x: float) -> float:
    """J0(x), absolute error below 1e-12 on |x| <= 50; even in x."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("bessel_j0 needs a finite argument")
    ax = abs(x)
    if ax <= _J0_SERIES_CUT:
        return _j0_series(ax)
    return float(_j0_integral(ax))


def bessel_j0_zero(n: int) -> float:
    """n-th positive zero of J0 (n = 1, 2, ...)."""
    if n < 1:
        raise DomainError("zero index starts at 1")
    # zeros are close to (n - 1/4) pi; bracket by +-0.5 around the estimate
    guess = (n - 0.25) * math.pi
    return find_root(bessel_j0, guess - 0.6, guess + 0.6,
                     Tolerance(1e-14, 1e-14, 200))


# ----------------------------------------------------------------------
# Adaptive quadrature (Gauss-Kronrod 15/7 with interval bisection)
# ----------------------------------------------------------------------

_KRONROD_NODES = (
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
)
_KRONROD_WEIGHTS = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
)
_GAUSS_WEIGHTS = {  # 7-point Gauss shares nodes 1, 3, 5, 7
    1: 0.129484966168870, 3: 0.279705391489277,
    5: 0.381830050505119, 7: 0.417959183673469,
}


def _gk15(f, a, b):
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    kron = 0.0
    gauss = 0.0
    for i, t in enumerate(_KRONROD_NODES):
        if t == 0.0:
            fv = f(c)
            kron += _KRONROD_WEIGHTS[i] * fv
            gauss += _GAUSS_WEIGHTS[i] * fv
        else:
            fp = f(c + h * t)
            fm = f(c - h * t)
            kron += _KRONROD_WEIGHTS[i] * (fp + fm)
            if i in _GAUSS_WEIGHTS:
                gauss += _GAUSS_WEIGHTS[i] * (fp + fm)
    return h * kron, abs(h * (kron - gauss))


def adaptive_quad(f, a: float, b: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Integrate f over [a, b] to max(abs_tol, rel_tol * |result|)."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration limits must be finite")
    if a > b:
        raise DomainError("expected a <= b")
    if a == b:
        return 0.0
    val, err = _gk15(f, a, b)
    segments = [(err, a, b, val)]
    for _ in range(tol.max_iter * 8):
        total = sum(s[3] for s in segments)
        total_err = sum(s[0] for s in segments)
        if total_err <= max(tol.abs_tol, tol.rel_tol * abs(total)):
            return total
        # split the currently worst interval
        worst = max(range(len(segments)), key=lambda i: segments[i][0])
        _, lo, hi, _ = segments.pop(worst)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            segments.append((0.0, lo, hi, _gk15(f, lo, hi)[0]))
            continue
        segments.append((*_pack(f, lo, mid),))
        segments.append((*_pack(f, mid, hi),))
    total = sum(s[3] for s in segments)
    raise ConvergenceError("quadrature subdivision limit exceeded",
                           best=total, error=sum(s[0] for s in segments))


def _pack(f, lo, hi):
    val, err = _gk15(f, lo, hi)
    return err, lo, hi, val


# ----------------------------------------------------------------------
# Bracketed root finding (Brent)
# ----------------------------------------------------------------------

def find_root(f, a: float, b: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Root of f in [a, b]; requires a sign change over the bracket."""
    fa = f(a)
    fb = f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise BracketError(f"no sign change on [{a}, {b}]")
    if abs(fa) < abs(fb):
        a, b, fa, fb = b, a, fb, fa
    c, fc = a, fa
    d = e = b - a
    for _ in range(tol.max_iter):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        half = 0.5 * (c - b)
        eps = tol.abs_tol + 2.0 * abs(b) * 2.3e-16
        if abs(half) <= eps or fb == 0.0:
            return b
        if abs(e) >= eps and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * half * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half * q - abs(eps * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = half
        else:
            d = e = half
        a, fa = b, fb
        b += d if abs(d) > eps else math.copysign(eps, half)
        fb = f(b)
    raise ConvergenceError("root iteration limit exceeded", best=b, error=abs(fb))


# ----------------------------------------------------------------------
# Hermitian eigenvalues
# ----------------------------------------------------------------------

def _check_hermitian(a):
    # per matrix of a (..., n, n) stack: |A - A^H| <= 1e-14 scale n
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NonHermitianError("square matrix expected")
    if a.size == 0:
        return
    scale = np.abs(a).max(axis=(-2, -1))
    skew = np.abs(a - np.swapaxes(a, -1, -2).conj()).max(axis=(-2, -1))
    if np.any(skew > 1e-14 * scale * a.shape[-1]):
        raise NonHermitianError("matrix is not Hermitian")


@dataclass(frozen=True)
class HermitianMatrix:
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2:
            raise NonHermitianError("square matrix expected")
        _check_hermitian(m)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.entries, 2)) if self.dim else 0.0


def hermitian_eigenvalues(m) -> np.ndarray:
    """Eigenvalues, ascending, of a Hermitian matrix or a stack of them.

    ``m`` is a HermitianMatrix or an array of shape (..., n, n); every
    member of a stack passes the HermitianMatrix check, and the result has
    shape (..., n).  The solve is LAPACK's (``np.linalg.eigvalsh``).
    """
    if isinstance(m, HermitianMatrix):
        a = m.entries
    else:
        a = np.asarray(m, dtype=complex)
        _check_hermitian(a)
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc


# ----------------------------------------------------------------------
# Embedded Runge-Kutta 4(5), Dormand-Prince coefficients
# ----------------------------------------------------------------------

_DP_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
     11.0 / 84.0),
)
_DP_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0,
          -2187.0 / 6784.0, 11.0 / 84.0, 0.0)
_DP_B4 = (5179.0 / 57600.0, 0.0, 7571.0 / 16695.0, 393.0 / 640.0,
          -92097.0 / 339200.0, 187.0 / 2100.0, 1.0 / 40.0)


@dataclass
class Trajectory:
    ts: np.ndarray
    ys: np.ndarray
    complete: bool = True

    def __len__(self):
        return len(self.ts)


def _dp_step(field, t, y, h):
    """One Dormand-Prince step; returns (y5, err_vec, stages)."""
    k = [field(t, y)]
    for i in range(1, 7):
        acc = [0.0] * len(y)
        row = _DP_A[i]
        for j, aij in enumerate(row):
            if aij != 0.0:
                kj = k[j]
                for c in range(len(y)):
                    acc[c] += aij * kj[c]
        yi = tuple(y[c] + h * acc[c] for c in range(len(y)))
        k.append(field(t + _DP_C[i] * h, yi))
    y5 = list(y)
    err = [0.0] * len(y)
    for j in range(7):
        b5 = _DP_B5[j]
        db = _DP_B5[j] - _DP_B4[j]
        kj = k[j]
        for c in range(len(y)):
            if b5 != 0.0:
                y5[c] += h * b5 * kj[c]
            if db != 0.0:
                err[c] += h * db * kj[c]
    return tuple(y5), err


def integrate_ode(field, y0, t_end: float, tol: Tolerance = DEFAULT_TOL,
                  t0: float = 0.0, step_observer=None,
                  first_step: float | None = None) -> Trajectory:
    """Adaptive integration of dy/dt = field(t, y) from t0 to t_end.

    `field` maps (t, tuple) -> tuple.  Samples every accepted step, dense
    enough for event post-processing.  `step_observer(t0, y0, t1, y1)` may
    return a truncated final time to stop early (used for event location).
    """
    y = tuple(float(c) for c in np.atleast_1d(y0))
    t = float(t0)
    span = t_end - t
    if span == 0.0:
        return Trajectory(np.array([t]), np.array([y]))
    direction = math.copysign(1.0, span)
    if first_step is not None:
        h = direction * min(abs(first_step), abs(span))
    else:
        h = direction * min(abs(span) / 50.0, 0.1 * abs(span) + 1e-3)
    ts = [t]
    ys = [y]
    min_step = abs(span) * 1e-14 + 1e-300
    for _ in range(2_000_000):
        if (t - t_end) * direction >= 0.0:
            break
        if abs(h) > abs(t_end - t):
            h = t_end - t
        y_new, err = _dp_step(field, t, y, h)
        scale = [tol.abs_tol + tol.rel_tol * max(abs(y[c]), abs(y_new[c]))
                 for c in range(len(y))]
        enorm = math.sqrt(sum((err[c] / scale[c]) ** 2 for c in range(len(y)))
                          / len(y))
        if enorm <= 1.0:
            t_prev, y_prev = t, y
            t += h
            y = y_new
            ts.append(t)
            ys.append(y)
            if step_observer is not None:
                stop = step_observer(t_prev, y_prev, t, y)
                if stop is not None:
                    return Trajectory(np.array(ts), np.array(ys))
        factor = 0.9 * (enorm ** -0.2 if enorm > 0.0 else 5.0)
        h *= min(5.0, max(0.2, factor))
        if abs(h) < min_step:
            raise StiffnessError(
                "step size underflow (singular point?)",
                trajectory=Trajectory(np.array(ts), np.array(ys),
                                      complete=False))
    else:
        raise ConvergenceError("step budget exhausted",
                               best=Trajectory(np.array(ts), np.array(ys),
                                               complete=False))
    return Trajectory(np.array(ts), np.array(ys))

"""Self-contained numerical kernels shared by the whole toolkit.

Bessel J0, adaptive Gauss-Kronrod quadrature (the integrand is an array
function, called once per 15-node panel), Brent root bracketing,
Hermitian eigenvalues of single matrices or stacks (checked input, solved
by LAPACK) and an adaptive Dormand–Prince 4(5) with FSAL and dense output.
The Dormand–Prince step exists twice: scalar, inside integrate_ode, and
over arrays of independent autonomous systems ("lanes", elementwise, so a
lane rounds as it would alone), the engine of classical.orbit_lanes.
All routines are pure functions of immutable inputs.
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
# the same rule as 15-vectors over the nodes -t_0, ..., -t_6, 0, t_6, ..., t_0
_GK_NODES = np.array([-t for t in _KRONROD_NODES[:-1]]
                     + list(_KRONROD_NODES[::-1]))
_GK_KRONROD = np.array(_KRONROD_WEIGHTS[:-1] + _KRONROD_WEIGHTS[::-1])
_GK_GAUSS = np.array([_GAUSS_WEIGHTS.get(i, 0.0)
                      for i in (*range(7), *range(7, -1, -1))])


def _gk15(f, a, b):
    """One panel: (Kronrod value, |Kronrod - Gauss|), one call of f on the
    15 nodes as an array."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fv = f(c + h * _GK_NODES)
    kron = float(_GK_KRONROD @ fv)
    gauss = float(_GK_GAUSS @ fv)
    return h * kron, abs(h * (kron - gauss))


def adaptive_quad(f, a: float, b: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """Integrate f over [a, b] to max(abs_tol, rel_tol * |result|).

    f is an array function: it maps the 15 nodes of a panel, an array of
    shape (15,), to the 15 values.  It is called once per panel.
    """
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
_DP_B5 = _DP_A[6] + (0.0,)  # first same as last: stage 7 is at y5
_DP_B4 = (5179.0 / 57600.0, 0.0, 7571.0 / 16695.0, 393.0 / 640.0,
          -92097.0 / 339200.0, 187.0 / 2100.0, 1.0 / 40.0)
_DP_E = tuple(b5 - b4 for b5, b4 in zip(_DP_B5, _DP_B4))
# continuous extension of order 4 (Hairer, Norsett & Wanner, dopri5 contd5)
_DP_D = (-12715105075.0 / 11282082432.0, 0.0, 87487479700.0 / 32700410799.0,
         -10690763975.0 / 1880347072.0, 701980252875.0 / 199316789632.0,
         -1453857185.0 / 822651844.0, 69997945.0 / 29380423.0)
(_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54), \
    (_A61, _A62, _A63, _A64, _A65), (_A71, _, _A73, _A74, _A75, _A76) \
    = _DP_A[1:]
_E1, _, _E3, _E4, _E5, _E6, _E7 = _DP_E
_D1, _, _D3, _D4, _D5, _D6, _D7 = _DP_D


@dataclass
class Trajectory:
    ts: np.ndarray
    ys: np.ndarray
    complete: bool = True

    def __len__(self):
        return len(self.ts)


def _dp_step(field, t, y, h, k1):
    """One Dormand-Prince step from (t, y), given k1 = field(t, y).

    Returns (y5, err, stages).  The seventh stage is field(t + h, y5), so
    after an accepted step it is the next step's k1 (first same as last).
    """
    k2 = field(t + _DP_C[1] * h,
               tuple([yc + h * (_A21 * p1) for yc, p1 in zip(y, k1)]))
    k3 = field(t + _DP_C[2] * h,
               tuple([yc + h * (_A31 * p1 + _A32 * p2)
                      for yc, p1, p2 in zip(y, k1, k2)]))
    k4 = field(t + _DP_C[3] * h,
               tuple([yc + h * (_A41 * p1 + _A42 * p2 + _A43 * p3)
                      for yc, p1, p2, p3 in zip(y, k1, k2, k3)]))
    k5 = field(t + _DP_C[4] * h,
               tuple([yc + h * (_A51 * p1 + _A52 * p2 + _A53 * p3
                                + _A54 * p4)
                      for yc, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)]))
    k6 = field(t + _DP_C[5] * h,
               tuple([yc + h * (_A61 * p1 + _A62 * p2 + _A63 * p3
                                + _A64 * p4 + _A65 * p5)
                      for yc, p1, p2, p3, p4, p5
                      in zip(y, k1, k2, k3, k4, k5)]))
    y5 = tuple([yc + h * (_A71 * p1 + _A73 * p3 + _A74 * p4 + _A75 * p5
                          + _A76 * p6)
                for yc, p1, p3, p4, p5, p6 in zip(y, k1, k3, k4, k5, k6)])
    k7 = field(t + _DP_C[6] * h, y5)
    err = [h * (_E1 * p1 + _E3 * p3 + _E4 * p4 + _E5 * p5 + _E6 * p6
                + _E7 * p7)
           for p1, p3, p4, p5, p6, p7 in zip(k1, k3, k4, k5, k6, k7)]
    return y5, err, (k1, k2, k3, k4, k5, k6, k7)


def _dp_lane_step(field, y, h, k1):
    """One Dormand-Prince step of many autonomous systems ("lanes") at once.

    y and k1 = field(y) have shape (dim, lanes), h has shape (lanes,) and
    `field` maps such arrays to such arrays.  The stage sums are those of
    _dp_step, elementwise, so each lane rounds as it would alone.  Returns
    (y5, err, stages), and stages[6] = field(y5) is the next k1.
    """
    k2 = field(y + h * (_A21 * k1))
    k3 = field(y + h * (_A31 * k1 + _A32 * k2))
    k4 = field(y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
    k5 = field(y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
    k6 = field(y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4
                        + _A65 * k5))
    y5 = y + h * (_A71 * k1 + _A73 * k3 + _A74 * k4 + _A75 * k5 + _A76 * k6)
    k7 = field(y5)
    err = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6
               + _E7 * k7)
    return y5, err, (k1, k2, k3, k4, k5, k6, k7)


def _dp_lane_norm(err, y, y5, tol: Tolerance):
    """Per-lane RMS of err scaled by abs_tol + rel_tol * max(|y|, |y5|),
    the norm integrate_ode uses, summed over components in order."""
    q = err / (tol.abs_tol + tol.rel_tol * np.maximum(np.abs(y), np.abs(y5)))
    q = q * q
    total = q[0]
    for row in q[1:]:
        total = total + row
    return np.sqrt(total / len(q))


def _dp_step_factor(enorm):
    """integrate_ode's step-size factor, per lane: 0.9 * enorm^(-1/5)
    (4.5 at enorm 0), clipped to [0.2, 5]."""
    with np.errstate(divide="ignore"):
        factor = 0.9 * np.where(enorm > 0.0, enorm ** -0.2, 5.0)
    return np.minimum(5.0, np.maximum(0.2, factor))


def _dp_dense(y, y5, h, stages):
    """Continuous extension dense(theta), theta in [0, 1], of a step from y
    to y5; the interpolant is built on the first call."""
    coeffs = []

    def dense(theta):
        if not coeffs:
            k1, _, k3, k4, k5, k6, k7 = stages
            for yc, y5c, p1, p3, p4, p5, p6, p7 in zip(y, y5, k1, k3, k4, k5,
                                                        k6, k7):
                ydiff = y5c - yc
                bspl = h * p1 - ydiff
                coeffs.append((yc, ydiff, bspl, ydiff - h * p7 - bspl,
                               h * (_D1 * p1 + _D3 * p3 + _D4 * p4 + _D5 * p5
                                    + _D6 * p6 + _D7 * p7)))
        theta1 = 1.0 - theta
        return tuple(r1 + theta * (r2 + theta1 * (r3 + theta * (r4 + theta1
                                                                 * r5)))
                     for r1, r2, r3, r4, r5 in coeffs)

    return dense


def integrate_ode(field, y0, t_end: float, tol: Tolerance = DEFAULT_TOL,
                  t0: float = 0.0, step_observer=None,
                  first_step: float | None = None) -> Trajectory:
    """Adaptive integration of dy/dt = field(t, y) from t0 to t_end.

    `field` maps (t, tuple) -> tuple and is called 1 + 6 * (attempted
    steps) times.  Samples every accepted step.  `step_observer(t0, y0, t1,
    y1, dense)` sees each accepted step with its 4th-order continuous
    extension `dense(theta)`, theta in [0, 1] from t0 to t1, and may return
    a truncated final time to stop early (used for event location).
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
    abs_tol, rel_tol, dim = tol.abs_tol, tol.rel_tol, len(y)
    k1 = field(t, y)
    for _ in range(2_000_000):
        if (t - t_end) * direction >= 0.0:
            break
        if abs(h) > abs(t_end - t):
            h = t_end - t
        y_new, err, stages = _dp_step(field, t, y, h, k1)
        enorm = math.sqrt(sum([
            (e / (abs_tol + rel_tol * max(abs(a), abs(b)))) ** 2
            for e, a, b in zip(err, y, y_new)]) / dim)
        if enorm <= 1.0:
            t_prev, y_prev = t, y
            t += h
            y = y_new
            k1 = stages[6]
            ts.append(t)
            ys.append(y)
            if step_observer is not None:
                stop = step_observer(t_prev, y_prev, t, y,
                                     _dp_dense(y_prev, y, h, stages))
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

"""Self-contained numerical kernels shared by the whole toolkit.

Bessel J0, adaptive Gauss-Kronrod quadrature (the integrand is an array
function, called once per 15-node panel), Brent root bracketing and a
bracketed Newton pass over arrays of roots, Hermitian eigenvalues of single
matrices or stacks (checked input, solved by LAPACK) and two explicit
Runge-Kutta pairs.  The adaptive Dormand–Prince 4(5) with FSAL and dense
output, integrate_ode, is scalar and serves the separatrix-arc oracle.
Dormand and Prince's 8(5,3) pair (DOP853) steps arrays of independent
autonomous systems ("lanes", elementwise, so a lane rounds as it would
alone) and is the engine of classical.orbit_lanes; its tableau is written
out here, so scipy.integrate is never imported.  All routines are pure
functions of immutable inputs.
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


def bessel_j0_array(x) -> np.ndarray:
    """J0 at every element of an array, bit for bit bessel_j0 of each.

    The series lanes (|x| <= 8) take the scalar series' steps in lockstep:
    each lane stops where its own series stops, so it rounds as it would
    alone.  Larger arguments run the trapezoid rule of their own node count
    one element at a time.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("bessel_j0 needs a finite argument")
    ax = np.abs(x)
    out = np.empty(x.shape)
    small = ax <= _J0_SERIES_CUT
    z = 0.25 * ax[small] * ax[small]
    term = np.ones(z.shape)
    total = np.ones(z.shape)
    live = np.arange(z.size)
    for m in range(1, 202):
        live = live[np.abs(term[live]) > 1e-18 * (1.0 + np.abs(total[live]))]
        if not live.size:
            break
        term[live] *= -z[live] / (m * m)
        total[live] += term[live]
    out[small] = total
    for i in np.flatnonzero(~small.ravel()).tolist():
        out.flat[i] = _j0_integral(float(ax.flat[i]))
    return out


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
# Bracketed root finding: Brent, and Newton passes over arrays of lanes
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


_ROOT_ITER = 100  # iterations of a bracketed Newton pass


def bracketed_newton(fun, lo, hi, x, step_tol, floor=0.0):
    """Roots in [lo, hi] of lane functions that rise across their brackets.

    fun(x, lanes) returns (residual, slope) at the points x of the listed
    lanes; each residual is < 0 at its lane's lo and > 0 at its hi.  Every
    iteration narrows each bracket by the sign at the iterate and takes a
    Newton step, or bisects when the step leaves the bracket or the slope
    is not positive.  A lane stops when a Newton step is within
    step_tol(x), when its residual is within floor, or when its bracket is
    down to adjacent floats.  Every operation is elementwise, so a lane's
    result does not depend on the rest of the batch.
    """
    lo, hi, x = (np.array(a, dtype=float) for a in (lo, hi, x))
    floor = np.broadcast_to(np.asarray(floor, dtype=float), x.shape)
    live = np.arange(x.size)
    for _ in range(_ROOT_ITER):
        if live.size == 0:
            return x
        xi = x[live]
        r, slope = fun(xi, live)
        below = r < 0.0
        lo[live] = a = np.where(below, xi, lo[live])
        hi[live] = b = np.where(below, hi[live], xi)
        new = xi - np.divide(r, slope, out=np.full(xi.shape, np.nan),
                             where=slope > 0.0)
        newton = (a <= new) & (new <= b)
        new = np.where(newton, new, 0.5 * (a + b))
        settled = np.abs(r) <= floor[live]
        x[live] = np.where(settled, xi, new)
        stop = settled | (new == xi) | (newton & (np.abs(new - xi)
                                                   <= step_tol(xi)))
        live = live[~stop]
    raise ConvergenceError("array root iteration limit exceeded")


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
                  step_observer=None,
                  first_step: float | None = None) -> Trajectory:
    """Adaptive integration of dy/dt = field(t, y) from 0 to t_end.

    `field` maps (t, tuple) -> tuple and is called 1 + 6 * (attempted
    steps) times.  Samples every accepted step.  `step_observer(t0, y0, t1,
    y1, dense)` sees each accepted step with its 4th-order continuous
    extension `dense(theta)`, theta in [0, 1] from t0 to t1, and may return
    a truncated final time to stop early (used for event location).
    """
    y = tuple(float(c) for c in np.atleast_1d(y0))
    t = 0.0
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


# ----------------------------------------------------------------------
# Runge-Kutta 8(5,3) of Dormand and Prince (DOP853) over lanes
# ----------------------------------------------------------------------
# Hairer, Norsett & Wanner, Solving ODEs I, 2nd ed., section II.10 (the
# coefficients of their dop853 code).  Stage s of a step evaluates the
# field at y + h * sum_j A[s][j] k_j.  Rows 1-11 are the method's stages,
# row 12 its 8th-order solution (b, at c = 1: the field there is the next
# step's k_0, first same as last) and rows 13-15 the three extra stages of
# the 7th-order dense output.
_D8_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, 0.3111643669578199,
     -0.1521609496625161, 0.20136540080403034, 0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
     0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
     -0.0013990241651590145, 2.9475147891527724, -9.15095847217987),
)
_D8_B = _D8_A[12]
# error weights: b minus the 3rd-order weights (bhh1, bhh2, bhh3 on k_0,
# k_8, k_11), and b minus the 5th-order ones
_D8_BHH = (0.2440944881889764, 0.7338466882816118, 0.022058823529411766)
_D8_E3 = tuple(b - {0: _D8_BHH[0], 8: _D8_BHH[1], 11: _D8_BHH[2]}.get(j, 0.0)
               for j, b in enumerate(_D8_B))
_D8_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
          -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
          0.3341791187130175, 0.08192320648511571, -0.022355307863886294)
# the 4th-7th coefficients of the dense output, over k_0 ... k_15
_D8_D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)
_D8_ROWS = tuple(np.array(row) for row in _D8_A)
_D8_E3_ROW, _D8_E5_ROW = np.array(_D8_E3), np.array(_D8_E5)
_D8_D_ROWS = tuple(np.array(row) for row in _D8_D)
D8_STAGES = 16  # 12 stages, the first-same-as-last stage, 3 dense stages


def _d8_sum(row, k):
    """sum_j row[j] k[j] over the leading axis of k (dim, lanes), summed
    in j order and elementwise over the rest, so each lane rounds as it
    would alone.  (A BLAS product blocks the lanes and changes the bits;
    with dim * lanes = 1 einsum's reduction runs contiguous and reorders
    the sum too.)"""
    return np.einsum("s,sij->ij", row, k[:len(row)])


def dop853_lane_step(field, y, h, k, tol: Tolerance):
    """One DOP853 attempt for many autonomous systems ("lanes") at once.

    y has shape (dim, lanes), h shape (lanes,); k is a (D8_STAGES, dim,
    lanes) work array with k[0] = field(y).  `field(x, out)` writes the
    field at x into out.  Fills k[1:13] (k[12] = field(y8) is the next
    step's k[0]) and returns (y8, enorm): enorm is Hairer's 5/3 combined
    error estimate, |h| e5^2 / sqrt(dim (e5^2 + 0.01 e3^2)) with the
    squares summed over components scaled by abs_tol + rel_tol max(|y|,
    |y8|); the step is accepted at enorm <= 1.
    """
    for s in range(1, 12):
        field(y + h * _d8_sum(_D8_ROWS[s], k), k[s])
    y8 = y + h * _d8_sum(_D8_ROWS[12], k)
    field(y8, k[12])
    scale = tol.abs_tol + tol.rel_tol * np.maximum(np.abs(y), np.abs(y8))
    e5 = _d8_sum(_D8_E5_ROW, k) / scale
    e3 = _d8_sum(_D8_E3_ROW, k) / scale
    e5, e3 = e5 * e5, e3 * e3
    s5, s3 = e5[0], e3[0]
    for r5, r3 in zip(e5[1:], e3[1:]):  # components summed in order
        s5 = s5 + r5
        s3 = s3 + r3
    deno = s5 + 0.01 * s3
    deno = np.where(deno > 0.0, deno, 1.0)
    return y8, np.abs(h) * s5 / np.sqrt(len(y) * deno)


def dop853_step_factor(enorm):
    """Step-size factor per lane: 0.9 enorm^(-1/8), clipped to [1/3, 6]
    (6 at enorm 0)."""
    with np.errstate(divide="ignore"):
        factor = 0.9 * np.where(enorm > 0.0, enorm ** -0.125, 6.0)
    return np.minimum(6.0, np.maximum(1.0 / 3.0, factor))


def dop853_dense_coeffs(field, y, y8, h, k):
    """Coefficients (7, dim, lanes) of the 7th-order dense output of
    accepted steps from y to y8, whose k[:13] are filled (lanes are a
    subset of a step's batch, for example the ones that need an event
    located); evaluates the three extra stages into k[13:16], one field
    call each for all lanes."""
    for s in range(13, 16):
        field(y + h * _d8_sum(_D8_ROWS[s], k), k[s])
    dy = y8 - y
    bspl = h * k[0] - dy
    return np.stack([dy, bspl, dy - h * k[12] - bspl]
                    + [h * _d8_sum(row, k) for row in _D8_D_ROWS])


def dop853_dense(y, coeffs):
    """dense(theta), theta in [0, 1], on Python floats: y (dim,) is the
    step's start and coeffs (7, dim) the rows of dop853_dense_coeffs for
    one lane."""
    rows = tuple(zip(y, *coeffs))

    def dense(theta):
        t1 = 1.0 - theta
        return tuple(
            y0 + theta * (f0 + t1 * (f1 + theta * (f2 + t1 * (
                f3 + theta * (f4 + t1 * (f5 + theta * f6))))))
            for y0, f0, f1, f2, f3, f4, f5, f6 in rows)

    return dense

"""Self-contained numerical kernels shared by the whole toolkit.

Bessel J0, the trigonometric mode sum of the potentials and its
derivatives (mode_sum), adaptive Gauss-Kronrod quadrature (the integrand
is an array function, called once per 15-node panel), Brent root
bracketing and a bracketed Newton pass over arrays of roots, Hermitian
eigenvalues of single matrices or stacks (checked input, solved by LAPACK)
and the adaptive Dormand–Prince 4(5) pair with FSAL and dense output,
integrate_ode.  The integrator is scalar: it serves the separatrix-arc
oracle and the tests' reference orbits, while the drift orbits themselves
are Taylor series of the potential's mode sum (classical.orbit_lanes), so
scipy.integrate is never imported.  All routines are pure functions of
immutable inputs.
"""

from __future__ import annotations

import functools
import itertools
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
    # zeros are close to (n - 1/4) pi; bracket by +-0.6 around the estimate
    guess = (n - 0.25) * math.pi
    return find_root(bessel_j0, guess - 0.6, guess + 0.6, 1e-14)


# ----------------------------------------------------------------------
# Trigonometric mode sums
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _mode_weights(waves: bytes, d: int, k: int):
    """Per mode, the sign of d^k/dphi^k of 2 (re cos - im sin) times 2 g_a
    ... g_c (in index order) for every index tuple a <= ... <= c: shape
    (modes, comps).  waves holds the bytes of the (modes, d) array."""
    g = np.frombuffer(waves).reshape(-1, d)
    axes = np.array(list(itertools.combinations_with_replacement(range(d), k)),
                    dtype=np.intp)
    return (-2.0 if k in (1, 2) else 2.0) * np.prod(g[:, axes], axis=-1)


def mode_sum(waves, amps, mean, y, orders):
    """v = mean + sum_k 2 (re_k cos phi_k - im_k sin phi_k), phi_k = G_k.y,
    and its derivatives at arrays of points.

    waves (modes, d), d = 1 or 2, holds the wave vectors; amps the (re, im)
    amplitudes, shared (2, modes) or one column per lane (2, modes, lanes);
    mean is a float or one per lane; y (d, *lanes) holds the points.
    Returns one array per order k in `orders` (0 to 3), computing only
    those: v (*lanes) for k = 0, else the distinct derivatives over the
    index tuples a <= ... <= c in lexicographic order, (comps, *lanes).
    Each sum runs along the modes axis term by term in mode order, the
    value's from the mean, so a lane has the bits of the scalar loops
    DriftModel.vbar/grad/hessian.
    """
    y = np.asarray(y, dtype=float)
    lanes, d = y.shape[1:], len(y)
    y = y.reshape(d, -1)
    n = y.shape[1]
    re, im = amps if amps.ndim == 3 else amps[..., None]
    phase = waves[:, :1] * y[0]
    if d == 2:
        phase += waves[:, 1:] * y[1]
    c, s = np.cos(phase), np.sin(phase)
    key, parts, out = waves.tobytes(), {}, []
    for k in orders:
        if k % 2 not in parts:
            parts[k % 2] = re * s + im * c if k % 2 else re * c - im * s
        weight = _mode_weights(key, d, k)
        head = int(k == 0)  # the value's sum starts from the mean
        # modes outermost, so reduce adds whole rows in mode order; numpy
        # sums a lone column pairwise from 8 terms on, so one is summed as
        # the first of two equal columns
        terms = np.empty((head + len(weight), weight.shape[1],
                          2 if weight.shape[1] * n == 1 else n))
        if head:
            terms[0] = mean
        np.multiply(weight[:, :, None], parts[k % 2][:, None],
                    out=terms[head:])
        total = np.add.reduce(terms)[:, :n]
        total = total.reshape(total.shape[:1] + lanes)
        out.append(total[0] if head else total)
    return out


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


_QUAD_SPLITS = 4800  # panel splits of one adaptive_quad call


def adaptive_quad(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Integrate f over [a, b] to max(tol, tol * |result|), in at most
    _QUAD_SPLITS panel splits.

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
    for _ in range(_QUAD_SPLITS):
        total = sum(s[3] for s in segments)
        total_err = sum(s[0] for s in segments)
        if total_err <= max(tol, tol * abs(total)):
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

_BRENT_STEPS = 300  # iterations of one find_root call


def find_root(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Root of f in [a, b] to within tol, in at most _BRENT_STEPS
    iterations; requires a sign change over the bracket."""
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
    for _ in range(_BRENT_STEPS):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        half = 0.5 * (c - b)
        eps = tol + 2.0 * abs(b) * 2.3e-16
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


_ROOT_ITER = 200  # iterations of a bracketed Newton pass: 2 per halving


def bracketed_newton(fun, lo, hi, x, step_tol, floor=0.0):
    """Roots in [lo, hi] of lane functions that rise across their brackets.

    fun(x, lanes) returns (residual, slope) at the points x of the listed
    lanes; each residual is < 0 at its lane's lo and > 0 at its hi.  Every
    iteration narrows each bracket by the sign at the iterate and takes a
    Newton step, or bisects when the step leaves the bracket, the slope is
    not positive or the step is over half the lane's previous one, so a
    bracket halves at least every two iterations.  A lane stops when a
    Newton step is within step_tol(x), when its residual is within floor,
    or when a step makes no progress.  Every operation is elementwise, so a
    lane's result does not depend on the rest of the batch.
    """
    lo, hi, x = (np.array(a, dtype=float) for a in (lo, hi, x))
    floor = np.broadcast_to(np.asarray(floor, dtype=float), x.shape)
    last = np.full(x.shape, np.inf)     # each lane's previous step
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
        newton = ((a <= new) & (new <= b)
                  & (np.abs(new - xi) <= 0.5 * last[live]))
        new = np.where(newton, new, 0.5 * (a + b))
        last[live] = np.abs(new - xi)
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


def integrate_ode(field, y0, t_end: float, tol: float = 1e-10,
                  step_observer=None,
                  first_step: float | None = None) -> Trajectory:
    """Adaptive integration of dy/dt = field(t, y) from 0 to t_end, each
    step's error within tol + tol |y| per component (RMS over components).

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
    dim = len(y)
    k1 = field(t, y)
    for _ in range(2_000_000):
        if (t - t_end) * direction >= 0.0:
            break
        if abs(h) > abs(t_end - t):
            h = t_end - t
        y_new, err, stages = _dp_step(field, t, y, h, k1)
        enorm = math.sqrt(sum([
            (e / (tol + tol * max(abs(a), abs(b)))) ** 2
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

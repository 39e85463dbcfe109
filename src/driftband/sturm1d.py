"""Semiclassical band structure of -h^2 d^2/dx^2 + v(x) on the circle.

This is the one-dimensional proving ground for the two-dimensional
machinery: quantization of the classically allowed region below the
potential barrier, gap ends and dispersion branches above it, exponentially
narrow low bands with their tunneling exponent, the harmonic quasimode with
its residual bound, the one-dimensional Reeb graph with its action maps,
and a finite-difference Bloch oracle to check everything against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import DomainError, adaptive_quad, bracketed_newton, mode_sum

TWO_PI = 2.0 * math.pi

_QTOL = 1e-12


class Potential1D:
    """Real 2 pi periodic trigonometric polynomial with cached extrema and
    barrier-top action.

    ``value`` and ``derivatives`` take a point or an array of points.
    """

    def __init__(self, coeffs: dict):
        cleaned = {}
        for k, c in coeffs.items():
            c = complex(c)
            if c != 0.0:
                cleaned[int(k)] = c
        scale = max((abs(c) for c in cleaned.values()), default=0.0)
        for k, c in cleaned.items():
            if abs(cleaned.get(-k, 0.0) - c.conjugate()) > 1e-13 * max(scale, 1e-300):
                raise DomainError("potential is not real valued")
        self.coeffs = cleaned
        # v = mean + sum_k>0 (2 Re c_k cos kx - 2 Im c_k sin kx): mode_sum's
        # one-row case
        positive = sorted(k for k in cleaned if k > 0)
        self._mean = cleaned.get(0, 0.0).real
        self._waves = np.array(positive, dtype=float).reshape(-1, 1)
        self._amps = np.array([[cleaned[k].real for k in positive],
                               [cleaned[k].imag for k in positive]])
        self._locate_extrema()

    @classmethod
    def cosine(cls, amplitude: float = 1.0):
        return cls({1: 0.5 * amplitude, -1: 0.5 * amplitude})

    def value(self, x):
        return self.derivatives(x, (0,))[0]

    def derivatives(self, x, orders):
        """The derivative of v of each order k (0 for v itself) at the
        points x (mode_sum with one row): a float at a point, else an array
        shaped as x."""
        x = np.asarray(x, dtype=float)
        return [d.reshape(x.shape) if x.ndim else d.item() for d in mode_sum(
            self._waves, self._amps, self._mean, x[None], orders)]

    def _locate_extrema(self):
        xs = np.linspace(0.0, TWO_PI, 4097)[:-1]
        vals = self.value(xs)
        self.is_constant = bool(np.ptp(vals) < 1e-14 * (1 +
                                np.max(np.abs(vals))))
        if self.is_constant:
            self.x_min = 0.0
            self.x_max = 0.0
            self.v_min = float(vals[0])
            self.v_max = float(vals[0])
            return

        def polish(x0):
            x = x0
            for _ in range(60):
                d, dd = self.derivatives(x, (1, 2))
                if abs(dd) < 1e-14:
                    break
                step = d / dd
                x -= step
                if abs(step) < 1e-14:
                    break
            return x % TWO_PI

        self.x_min = polish(float(xs[np.argmin(vals)]))
        self.x_max = polish(float(xs[np.argmax(vals)]))
        self.v_min = float(self.value(self.x_min))
        self.v_max = float(self.value(self.x_max))

    @property
    def omega0(self) -> float:
        """Harmonic frequency at the potential bottom, sqrt(2 v'')."""
        return math.sqrt(2.0 * self.derivatives(self.x_min, (2,))[0])

    @cached_property
    def barrier_action(self) -> float:
        """(1/2 pi) int sqrt(v_max - v) over a period: the open-edge action
        at the barrier top, half the well's.  The integrand has double zeros
        at both ends of [x_max, x_max + 2 pi], so a plain adaptive pass is
        accurate."""
        x0 = self.x_max
        return adaptive_quad(
            lambda x: np.sqrt(np.maximum(self.v_max - self.value(x), 0.0)),
            x0, x0 + TWO_PI, _QTOL) / TWO_PI


# ----------------------------------------------------------------------
# Array root passes and the integrals of the well (square-root endpoints
# handled by the sine substitution x = x- + (x+ - x-) sin^2), one lane per
# energy
# ----------------------------------------------------------------------

_EPS = np.finfo(float).eps


def _turning_points(v: Potential1D, e, guess=None):
    """Turning points x- < x_min < x+ of the well at an array of energies,
    by one safeguarded Newton pass over both sides from `guess` (x- lanes,
    then x+ lanes), else from the harmonic well's; also v' at each lane's
    last iterate, shape (2, n)."""
    e = np.asarray(e, dtype=float)
    if not np.all((v.v_min < e) & (e < v.v_max)):
        raise DomainError("energy outside the well")
    x_right = v.x_max if v.x_max > v.x_min else v.x_max + TWO_PI
    n = e.size
    side = np.repeat([-1.0, 1.0], n)        # x- lanes, then x+ lanes
    ee = np.concatenate([e, e])
    lo = np.repeat([x_right - TWO_PI, v.x_min], n)
    hi = np.repeat([v.x_min, x_right], n)
    if guess is None:
        curvature = 0.5 * v.derivatives(v.x_min, (2,))[0]
        reach = (np.sqrt((ee - v.v_min) / curvature) if curvature > 0.0
                 else np.full(2 * n, np.inf))
        guess = v.x_min + side * reach
    # the bracket midpoint where the guess lies outside it
    guess = np.where((lo < guess) & (guess < hi), guess, 0.5 * (lo + hi))
    # side (v - e) rises across each bracket; below `floor` it is rounding
    scale = np.abs(ee) + abs(v._mean) + 2.0 * np.sum(np.abs(v._amps[0])
                                                     + np.abs(v._amps[1]))

    last = np.empty(2 * n)

    def fun(x, lanes):
        s = side[lanes]
        val, last[lanes] = v.derivatives(x, (0, 1))
        return s * (val - ee[lanes]), s * last[lanes]

    x = bracketed_newton(fun, lo, hi, guess,
                         lambda x: 8.0 * _EPS * (1.0 + np.abs(x)),
                         floor=4.0 * _EPS * scale)
    return x[:n], x[n:], last.reshape(2, n)


def _smooth_quotient(v: Potential1D, e, a, b, sign: float):
    """W with sign*(e - v(x)) = (x - a)(b - a - (x - a)) W(x) on [a, b].

    W is smooth and positive for simple turning points; near the endpoints
    it is evaluated from the Taylor series of v to dodge the 0/0 rounding
    noise of the direct quotient.  e, a and b are floats or arrays that
    broadcast against the points; the returned w maps an array of points
    to an array.
    """
    span = b - a
    cut = 1e-5 * span
    (d1a, d1b), (d2a, d2b), (d3a, d3b) = v.derivatives(np.stack([a, b]),
                                                       (1, 2, 3))

    def w(x):
        dm = x - a
        dp = b - x
        near_a = dm < cut
        near_b = ~near_a & (dp < cut)
        taylor_a = -sign * (d1a + 0.5 * d2a * dm + d3a * dm * dm / 6.0)
        taylor_b = sign * (d1b - 0.5 * d2b * dp + d3b * dp * dp / 6.0)
        num = np.where(near_a, taylor_a,
                       np.where(near_b, taylor_b, sign * (e - v.value(x))))
        den = np.where(near_a, dp, np.where(near_b, dm, dm * dp))
        return num / np.maximum(den, 1e-300)

    return w


def _sine_integrands(v: Potential1D, e, a, b, sign: float):
    """theta -> the integrands of int_a^b sqrt(sign*(e - v)) dx and of
    int_a^b dx / sqrt(sign*(e - v)) in theta on [0, pi/2], where
    x = a + (b - a) sin^2 theta."""
    span = b - a
    w = _smooth_quotient(v, e, a, b, sign)

    def g(theta):
        s, c = np.sin(theta), np.cos(theta)
        wx = np.maximum(w(a + span * s * s), 0.0)
        return (2.0 * span * span * (s * c) ** 2 * np.sqrt(wx),
                2.0 / np.sqrt(np.maximum(wx, 1e-300)))

    return g


def _gauss_theta(n):
    """n-point Gauss-Legendre rule on [0, pi/2]: Newton's method on the
    Legendre recurrence from cosine first guesses.  (numpy's leggauss would
    add 1.3 MB and a few ms to every start-up for its module.)"""
    t = np.cos(math.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(6):
        p0, p1 = np.ones(n), t
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * t * p1 - (k - 1) * p0) / k
        dp = n * (t * p1 - p0) / (t * t - 1.0)
        t = t - p1 / dp
    weight = 2.0 / ((1.0 - t * t) * dp * dp)
    return 0.25 * math.pi * (t + 1.0), 0.25 * math.pi * weight


_THETA, _WEIGHT = _gauss_theta(48)          # the rule
_THETA_EST, _WEIGHT_EST = _gauss_theta(32)  # its error estimate
_NODES = np.concatenate([_THETA, _THETA_EST])


def _sine_rule(v: Potential1D, e, a, b, sign: float, checked):
    """Both integrals of _sine_integrands per lane (arrays e, a < b), by the
    48-point Gauss-Legendre rule in theta on the same nodes; |48-point -
    32-point| is the error estimate.  The integrals listed in `checked`
    (0: the root, 1: the inverse root) are redone by adaptive_quad in every
    lane whose estimate exceeds _QTOL, so they meet it."""
    g = _sine_integrands(v, e[:, None], a[:, None], b[:, None], sign)
    out = []
    m = _THETA.size
    for k, vals in enumerate(g(_NODES)):
        q = (vals[:, :m] * _WEIGHT).sum(axis=-1)
        if k in checked:
            est = np.abs(q - (vals[:, m:] * _WEIGHT_EST).sum(axis=-1))
            for i in np.flatnonzero(est > np.maximum(_QTOL,
                                                     _QTOL * np.abs(q))):
                lane = _sine_integrands(v, e[i], a[i], b[i], sign)
                q[i] = adaptive_quad(lambda t: lane(t)[k], 0.0, 0.5 * math.pi,
                                     _QTOL)
        out.append(q)
    return out


def _well_actions(v: Potential1D, e, xm, xp):
    """Well action at an array of energies with turning points xm, xp, to
    _QTOL, and its slope dA/dE = T(E) / 2 pi as the rule gives it (Newton
    steps need no more)."""
    root, inverse = _sine_rule(v, e, xm, xp, +1.0, checked=(0,))
    return root / math.pi, inverse / TWO_PI


def _energies_of(actions, targets, lo, hi, guess):
    """Energies in [lo, hi] where the action reaches each target, one lane
    per target; actions maps the energies of the listed lanes to (A,
    dA/dE).  A lane stops once its action is within 4 eps |target| or a
    step makes no progress: near the barrier top the rules' slopes are too
    poor to stop on a step length."""
    targets = np.asarray(targets, dtype=float)

    def fun(es, lanes):
        action, slope = actions(es, lanes)
        return action - targets[lanes], slope

    lo, hi = (np.broadcast_to(end, targets.shape) for end in (lo, hi))
    return bracketed_newton(fun, lo, hi, np.clip(guess, lo, hi), np.zeros_like,
                            floor=4.0 * _EPS * np.abs(targets))


def _well_levels(v: Potential1D, targets, lo: float, hi: float):
    """Energies in [lo, hi] whose well actions are the targets; the first
    guess is the harmonic well's, A = (E - v_min) / omega0.  A lane's turning
    points start from its last ones x, moved to first order, x + (E - E_last)
    / v'(x): late passes move E by 1e-10 or less."""
    omega = math.sqrt(max(2.0 * v.derivatives(v.x_min, (2,))[0], 0.0))
    last = []  # every lane's last energy, turning points and v' there

    def actions(es, lanes):
        guess = None
        if last:
            e0, x0, d0 = (a[..., lanes] for a in last)
            guess = (x0 + np.divide(es - e0, d0, out=np.full(d0.shape, np.nan),
                                    where=d0 != 0.0)).ravel()
        xm, xp, slope = _turning_points(v, es, guess)
        if not last:  # the first pass has every lane
            last.extend((np.empty(es.shape), np.empty(slope.shape),
                         np.empty(slope.shape)))
        for a, new in zip(last, (es, (xm, xp), slope)):
            a[..., lanes] = new
        return _well_actions(v, es, xm, xp)

    return _energies_of(actions, targets, lo, hi,
                        v.v_min + np.asarray(targets) * omega)


def action_lower(v: Potential1D, e: float) -> float:
    """(1/pi) int sqrt(e - v) over the allowed segment (the well action)."""
    e = np.array([e], dtype=float)
    return float(_well_actions(v, e, *_turning_points(v, e)[:2])[0][0])


def period_integral(v: Potential1D, e: float) -> float:
    """int dx / sqrt(e - v) over the allowed segment."""
    e = np.array([e], dtype=float)
    xm, xp, _ = _turning_points(v, e)
    return float(_sine_rule(v, e, xm, xp, +1.0, checked=(1,))[1][0])


def agmon_distance(v: Potential1D, e: float) -> float:
    """Tunneling integral of sqrt(v - e) across the forbidden segment."""
    e = np.array([e], dtype=float)
    xm, xp, _ = _turning_points(v, e)
    return float(_sine_rule(v, e, xp, xm + TWO_PI, -1.0, checked=(0,))[0][0])


# ----------------------------------------------------------------------
# Above the barrier: the full-period action by the periodic trapezoid rule
# ----------------------------------------------------------------------

_CIRCLE = np.linspace(0.0, TWO_PI, 129)[:-1]   # every other point: estimate


def _upper_actions(v: Potential1D, e):
    """action_upper at an array of energies >= v_max, to _QTOL, and its
    slope as the rule gives it.  The integrand is smooth and periodic, so
    the trapezoid rule on 128 points converges geometrically; a lane whose
    64-point value differs by more than _QTOL is redone by adaptive_quad."""
    gap = np.maximum(e[:, None] - v.value(_CIRCLE), 0.0)
    root = np.sqrt(gap)
    action = root.mean(axis=-1)
    est = np.abs(action - root[:, ::2].mean(axis=-1))
    for i in np.flatnonzero(est > np.maximum(_QTOL, _QTOL * np.abs(action))):
        action[i] = adaptive_quad(
            lambda x: np.sqrt(np.maximum(e[i] - v.value(x), 0.0)), 0.0,
            TWO_PI, _QTOL) / TWO_PI
    slope = (0.5 / np.sqrt(np.maximum(gap, 1e-300))).mean(axis=-1)
    return action, slope


def _upper_levels(v: Potential1D, targets, lo: float, hi: float):
    """Energies in [lo, hi] (lo >= v_max) whose full-period actions are the
    targets.  sqrt(E - v_max) <= A(E) <= sqrt(E - mean) (Jensen), so each
    lies in [mean + A^2, v_max + A^2]; the pass starts at the midpoint, as
    the lower end can be v_max, where the trapezoid slope is infinite."""
    squares = np.square(targets)
    lo = np.maximum(lo, v._mean + squares)
    hi = np.minimum(hi, v.v_max + squares)
    return _energies_of(lambda es, _: _upper_actions(v, es), targets, lo, hi,
                        0.5 * (lo + hi))


def action_upper(v: Potential1D, e: float) -> float:
    """(1/2 pi) int_0^2pi sqrt(e - v) for energies above the barrier."""
    if e < v.v_max:
        raise DomainError("energy below the barrier top")
    return float(_upper_actions(v, np.array([e], dtype=float))[0][0])


# ----------------------------------------------------------------------
# Finite-difference Bloch oracle
# ----------------------------------------------------------------------

# Largest momentum block solved densely.  Up to here np.linalg.eigvalsh gives
# the same bytes at 1 and 2 BLAS threads: with OpenBLAS 0.3.31 they were
# equal for every dense Hermitian matrix up to 144 rows, and differed for
# some real matrices from 145 rows on.
_BLOCK_ROWS = 128


def _momentum_block(v: Potential1D, h: float, q: float, n: int, count: int):
    """The central-difference Bloch matrix on n points in the twisted
    Fourier basis e^(2 pi i (k+q) j / n), cut to |k| <= K, or None when
    that block would exceed min(_BLOCK_ROWS, n - 2 m_max) rows.

    In that basis the matrix is diag(d(k+q)), d(p) = 4 h^2/dx^2
    sin^2(pi p/n), plus the potential's coefficient c_m on the m-th
    off-diagonal, exactly similar to the grid matrix; the cap keeps the
    block's couplings from wrapping round the n modes.  K comes from an
    a-priori bound on the tail of the lowest `count` eigenvectors.  Their
    eigenvalues are at most e_top = d_(count) + S, with d_(count) the
    count-th smallest diagonal entry and S = sum_(m != 0) |c_m|, so the row
    p of an eigenvector, (d(p) + c_0 - E) psi_p = -sum_m c_m psi_(p-m),
    bounds M(r) = sup_(|p| >= r) |psi_p| <= 1 by the recursion
    M(r) <= sum_(m != 0) |c_m| M(r - |m|) / (d(r) - e_top) wherever
    d(r) > e_top.  The rows outside |k| <= K have |p| >= K + 1/2, and the
    cut moves each of the `count` eigenvalues by about
    2 m_max count S M(K + 1/2 - m_max) M(K + 1/2) (edge rows times tail
    rows through the couplings); K is the least width at which that is
    below eps S, far below the rounding eps ||A|| of the grid matrix.
    """
    modes = {m: c for m, c in v.coeffs.items() if m != 0}
    m_max = max(map(abs, modes), default=0)
    rows_cap = min(_BLOCK_ROWS, n - 2 * m_max)
    if count > rows_cap:
        return None
    q0 = q - round(q)
    scale = 4.0 * h * h / (TWO_PI / n) ** 2

    def kinetic(p):
        return scale * np.sin(math.pi * p / n) ** 2

    weights = [(d, abs(modes.get(d, 0.0)) + abs(modes.get(-d, 0.0)))
               for d in range(1, m_max + 1)]
    ks = np.arange(-count, count + 1)
    e_top = (kinetic(np.sort(np.abs(ks + q0))[count - 1])
             + sum(w for _, w in weights))
    gaps = (kinetic(np.arange((rows_cap + 1) // 2) + 0.5) - e_top).tolist()
    tail = []                       # tail[j] bounds M(j + 1/2)
    for width, gap in enumerate(gaps):
        if gap <= 0.0:
            tail.append(1.0)
            continue
        bound = sum(w * (tail[width - d] if width >= d else 1.0)
                    for d, w in weights) / gap
        edge = tail[width - m_max] if width >= m_max > 0 else 1.0
        if 2 * m_max * count * edge * bound <= _EPS:
            break
        tail.append(min(bound, 1.0))
    else:
        return None
    p = np.arange(-width, width + 1) + q0
    complex_modes = any(c.imag for c in modes.values())
    block = np.diag(kinetic(p) + v.coeffs.get(0, 0.0).real).astype(
        complex if complex_modes else float)
    rows = np.arange(p.size)
    for m, c in modes.items():
        if 0 < m < p.size:           # eigvalsh reads the lower triangle
            block[rows[m:], rows[:-m]] = c if complex_modes else c.real
    return block


def _fd_eigenvalues(v: Potential1D, h: float, q: float, n: int, count=None):
    """Lowest `count` (default all) eigenvalues of the central-difference
    Bloch operator on n points.

    A `count` whose momentum block (see _momentum_block) fits is solved
    densely by np.linalg.eigvalsh.  The whole spectrum and wider blocks use
    the grid matrix: tridiagonal plus two corners, and in the zig-zag order
    0, n-1, 1, n-2, ... every neighbour is at most two places away, so it
    is solved as a pentadiagonal band matrix (LAPACK ?sbevx/?hbevx: band
    reduction plus bisection)."""
    if count is not None:
        block = _momentum_block(v, h, q, n, count)
        if block is not None:
            return np.linalg.eigvalsh(block)[:count]
    dx = TWO_PI / n
    diag = 2.0 * h * h / dx ** 2 + v.value(np.arange(n) * dx)
    hop = -h * h / dx ** 2
    phase = np.exp(2j * math.pi * q)
    real_phase = abs(phase.imag) < 1e-14
    zigzag = np.empty(n, dtype=int)
    zigzag[0::2] = np.arange((n + 1) // 2)
    zigzag[1::2] = n - 1 - np.arange(n // 2)
    # lower band storage: ab[d, j] is entry (j + d, j) in zig-zag order
    ab = np.zeros((3, n), dtype=float if real_phase else complex)
    ab[0] = diag[zigzag]
    ab[2, :n - 2] = hop
    ab[1, 0] = hop * (phase.real if real_phase else phase)
    ab[1, n - 2] = hop
    # imported here: scipy.linalg at module level would slow every import
    from scipy.linalg import eig_banded
    if count is None:
        return eig_banded(ab, lower=True, eigvals_only=True)
    return eig_banded(ab, lower=True, eigvals_only=True, select="i",
                      select_range=(0, min(count, n) - 1))


def fd_bloch_oracle(v: Potential1D, h: float, q: float, grid_size: int = 512,
                    count=None) -> np.ndarray:
    """Bloch eigenvalues by central differences, Richardson-extrapolated
    over grid_size and 2*grid_size to fourth order in the mesh."""
    if grid_size < 64:
        raise DomainError("oracle grid too coarse")
    e1 = _fd_eigenvalues(v, h, q, grid_size, count)
    e2 = _fd_eigenvalues(v, h, q, 2 * grid_size, count)
    m = min(len(e1), len(e2))
    return (4.0 * e2[:m] - e1[:m]) / 3.0


# ----------------------------------------------------------------------
# Semiclassical formulas
# ----------------------------------------------------------------------

def _window(v: Potential1D, delta: float | None) -> float:
    """Distance kept from the barrier top; 10 % of the barrier by default."""
    return 0.1 * (v.v_max - v.v_min) if delta is None else delta


def bs_levels_lower(v: Potential1D, h: float, delta: float | None = None):
    """Bohr-Sommerfeld levels of the well below the barrier window:
    action_lower(E_nu) = h (nu + 1/2), all solved together."""
    if v.v_max <= v.v_min:
        return []  # flat potential: no well
    cap = v.v_max - _window(v, delta)
    top = action_lower(v, cap)
    targets = []
    while h * (len(targets) + 0.5) <= top and len(targets) <= 100000:
        targets.append(h * (len(targets) + 0.5))
    if not targets:
        return []
    lo = v.v_min + 1e-12 * (v.v_max - v.v_min)
    return _well_levels(v, targets, lo, cap).tolist()


def band_width_lower(v: Potential1D, h: float, e, delta: float | None = None):
    """Tunneling width of the low band at the Bohr-Sommerfeld level e (one
    of bs_levels_lower's, or an array of them): full swing of the
    dispersion, 2 (omega h / pi) exp(-rho / h).  The period and the Agmon
    integral come from one pass at the same turning points."""
    delta = _window(v, delta)
    es = np.atleast_1d(np.asarray(e, dtype=float))
    if not np.all((v.v_min + delta < es) & (es < v.v_max - delta)):
        raise DomainError("level outside the tunneling window")
    xm, xp, _ = _turning_points(v, es)
    period = _sine_rule(v, es, xm, xp, +1.0, checked=(1,))[1]
    rho = _sine_rule(v, es, xp, xm + TWO_PI, -1.0, checked=(0,))[0]
    widths = [2.0 * (TWO_PI / t * h / math.pi) * math.exp(-r / h)
              for t, r in zip(period.tolist(), rho.tolist())]
    return widths[0] if np.ndim(e) == 0 else np.array(widths)


def gap_ends_upper(v: Potential1D, h: float, e_cap: float,
                   delta: float | None = None):
    """Band/gap boundaries above the barrier: action_upper(E) = h nu / 2,
    all solved together."""
    lo = v.v_max + _window(v, delta)
    if e_cap <= lo:
        return []
    i_lo = action_upper(v, lo)
    i_hi = action_upper(v, e_cap)
    nus = []
    nu = int(math.ceil(2.0 * i_lo / h))
    # the ends number floor(2 i_hi / h) - nu + 1; cap them as bs_levels_lower
    # caps its levels
    if not 2.0 * i_hi / h < nu + 100000:
        raise DomainError(f"more than 100000 gap ends up to e_cap = {e_cap} "
                          f"at h = {h}")
    while h * nu / 2.0 <= i_hi:
        nus.append(nu)
        nu += 1
    if not nus:
        return []
    ends = _upper_levels(v, [h * nu / 2.0 for nu in nus], lo, e_cap)
    return list(zip(nus, ends.tolist()))


def dispersion_branch_action(nu: int, q: float, h: float) -> float:
    """Piecewise action of the nu-th upper band at quasimomentum q."""
    if not (0.0 <= q <= 1.0):
        raise DomainError("quasimomentum must lie in [0, 1]")
    if nu % 2 == 0:
        if q <= 0.5:
            return h * (nu / 2.0 + q)
        return h * (nu / 2.0 + 1.0 - q)
    if q <= 0.5:
        return h * ((nu + 1) / 2.0 - q)
    return h * ((nu - 1) / 2.0 + q)


def dispersion_upper(v: Potential1D, h: float, nu: int, q):
    """Upper-domain dispersion by inverting the full-period action, at one
    quasimomentum q or, solved together, at an array of them."""
    targets = np.array([dispersion_branch_action(nu, float(x), h)
                        for x in np.atleast_1d(q)])
    if v.barrier_action > targets.min():
        raise DomainError("band is not above the barrier")
    energies = _upper_levels(v, targets, v.v_max, math.inf)
    return float(energies[0]) if np.ndim(q) == 0 else energies


# ----------------------------------------------------------------------
# The Lifshits two-solution bracket
# ----------------------------------------------------------------------

def lifshits_difference(psi1, e1, psi2, e2, a: float, b: float,
                        h: float) -> float:
    """Energy difference of two solutions from the boundary Wronskian:
    h^2 [psi1 psi2' - psi2 psi1'] at b minus at a, over int psi1 psi2.

    psi1, psi2 are samples on the uniform closed grid over [a, b].
    """
    psi1 = np.asarray(psi1)
    psi2 = np.asarray(psi2)
    n = len(psi1)
    if len(psi2) != n or n < 8:
        raise DomainError("need equally sampled solutions")
    dx = (b - a) / (n - 1)

    def dpsi(p, idx):
        if idx == 0:
            return (-3 * p[0] + 4 * p[1] - p[2]) / (2 * dx)
        if idx == n - 1:
            return (3 * p[-1] - 4 * p[-2] + p[-3]) / (2 * dx)
        return (p[idx + 1] - p[idx - 1]) / (2 * dx)

    bracket = (psi1[-1] * dpsi(psi2, n - 1) - psi2[-1] * dpsi(psi1, n - 1)) \
        - (psi1[0] * dpsi(psi2, 0) - psi2[0] * dpsi(psi1, 0))
    prod = psi1 * psi2
    denom = np.trapezoid(prod, dx=dx)
    scale = np.trapezoid(np.abs(prod), dx=dx)
    if abs(denom) < 1e-10 * max(scale, 1e-300):
        raise DomainError("solution overlap too small for the bracket")
    return float((h * h * bracket / denom).real)


# ----------------------------------------------------------------------
# Harmonic quasimode and its distance bound
# ----------------------------------------------------------------------

def _hermite(nu: int, x):
    h0 = np.ones_like(x)
    if nu == 0:
        return h0
    h1 = 2.0 * x
    for k in range(1, nu):
        h0, h1 = h1, 2.0 * x * h1 - 2.0 * k * h0
    return h1


@dataclass
class QuasimodeCheck:
    e_qm: float
    residual_ratio: float
    oracle_distance: float
    grid: int


def quasimode_distance_check(v: Potential1D, h: float, nu: int,
                             grid: int = 2048) -> QuasimodeCheck:
    """Hermite-Gaussian quasimode at the well bottom vs the true spectrum.

    The residual norm ||(L - E) psi|| / ||psi|| bounds the distance from E
    to an eigenvalue of the discretized operator.
    """
    omega0 = v.omega0
    e_qm = v.v_min + h * (nu + 0.5) * omega0
    dx = TWO_PI / grid
    xs = np.arange(grid) * dx
    u = np.mod(xs - v.x_min + math.pi, TWO_PI) - math.pi
    psi = np.exp(-omega0 * u * u / (4.0 * h)) * _hermite(
        nu, np.sqrt(omega0 / (2.0 * h)) * u)
    # apply the discrete operator at q = 0
    lap = (np.roll(psi, -1) - 2.0 * psi + np.roll(psi, 1)) / dx ** 2
    resid = -h * h * lap + (v.value(xs) - e_qm) * psi
    ratio = float(np.linalg.norm(resid) / np.linalg.norm(psi))
    eigs = _fd_eigenvalues(v, h, 0.0, grid,
                           count=max(nu + 8, int(2 * e_qm / h) + 8))
    distance = float(np.min(np.abs(eigs - e_qm)))
    return QuasimodeCheck(e_qm=e_qm, residual_ratio=ratio,
                          oracle_distance=distance, grid=grid)


# ----------------------------------------------------------------------
# One-dimensional Reeb graph
# ----------------------------------------------------------------------

@dataclass
class Reeb1D:
    v: Potential1D
    has_well: bool
    outer_limit: float            # well action at the barrier top
    upper_limit: float            # open-edge action at the barrier top
    e_cap: float                  # top of the open edges' energy interval

    def action(self, edge: str, e: float) -> float:
        if edge == "i1":
            if not self.has_well:
                raise DomainError("degenerate graph has no well edge")
            return action_lower(self.v, e)
        if edge in ("i2", "i3"):
            return action_upper(self.v, e)
        raise DomainError(f"unknown edge {edge}")

    def energy(self, edge: str, i: float) -> float:
        """Energy on the edge whose action is i: (v_min, v_max) for the well
        edge i1, [v_max, e_cap] for the open edges i2 and i3."""
        if edge == "i1":
            span = self.v.v_max - self.v.v_min
            lo = self.v.v_min + 1e-12 * span
            hi = self.v.v_max - 1e-12 * span
            bottom, levels = self.action(edge, lo), _well_levels
        else:
            lo, hi = self.v.v_max, self.e_cap
            # the barrier-top action is known to the quadrature tolerance
            bottom, levels = self.upper_limit - _QTOL, _upper_levels
        if not bottom <= i <= self.action(edge, hi):
            raise DomainError(
                f"action {i} is outside the energy interval of edge {edge}")
        return float(levels(self.v, [i], lo, hi)[0])


def reeb_1d(v: Potential1D, e_cap: float | None = None) -> Reeb1D:
    """Reeb graph of p^2 + v on the cylinder with its action maps."""
    has_well = (v.v_max - v.v_min) > 1e-13 * (1.0 + abs(v.v_max))
    if not has_well:
        return Reeb1D(v=v, has_well=False, outer_limit=0.0, upper_limit=0.0,
                      e_cap=v.v_max + 4.0 if e_cap is None else e_cap)
    return Reeb1D(v=v, has_well=True, outer_limit=2.0 * v.barrier_action,
                  upper_limit=v.barrier_action,
                  e_cap=(v.v_max + 4.0 * (v.v_max - v.v_min) if e_cap is None
                         else e_cap))


# ----------------------------------------------------------------------
# Weyl band count
# ----------------------------------------------------------------------

@dataclass
class WeylCount:
    value: float
    layer: bool = False
    lower_value: float | None = None
    upper_value: float | None = None


def weyl_count_1d(v: Potential1D, e: float, h: float) -> WeylCount:
    """Number of bands below energy e: phase-space area over 2 pi h."""
    delta = _window(v, None)
    if e <= v.v_min:
        return WeylCount(value=0.0)
    if v.v_max == v.v_min:
        return WeylCount(value=2.0 * math.sqrt(e - v.v_min) / h)
    if e < v.v_max - delta:
        return WeylCount(value=action_lower(v, e) / h)
    if e >= v.v_max + delta:
        return WeylCount(value=2.0 * action_upper(v, e) / h)
    lower = action_lower(v, min(e, v.v_max - 1e-12)) / h if e < v.v_max \
        else action_lower(v, v.v_max - 1e-9 * (v.v_max - v.v_min)) / h
    upper = 2.0 * action_upper(v, max(e, v.v_max + 1e-12)) / h if e > v.v_max \
        else 2.0 * action_upper(v, v.v_max + 1e-9 * (v.v_max - v.v_min)) / h
    return WeylCount(value=0.5 * (lower + upper), layer=True,
                     lower_value=lower, upper_value=upper)


def oracle_band_edges(v: Potential1D, h: float, e_cap: float,
                      grid_size: int = 1024):
    """(E-, E+) per band from the q = 0 and q = 1/2 oracle spectra."""
    count = int(2.2 * math.sqrt(max(e_cap - v.v_min, 0.0)) / h) + 12
    e0 = fd_bloch_oracle(v, h, 0.0, grid_size, count)
    e5 = fd_bloch_oracle(v, h, 0.5, grid_size, count)
    edges = []
    m = min(len(e0), len(e5))
    for nu in range(m):
        lo = min(e0[nu], e5[nu])
        hi = max(e0[nu], e5[nu])
        if lo > e_cap:
            break
        edges.append((float(lo), float(hi)))
    return edges

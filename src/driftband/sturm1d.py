"""Semiclassical band structure of -h^2 d^2/dx^2 + v(x) on the circle.

This is the one-dimensional proving ground for the two-dimensional
machinery: quantization of the classically allowed region below the
potential barrier, gap ends and dispersion branches above it, exponentially
narrow low bands with their tunneling exponent, the harmonic quasimode with
its residual bound, the one-dimensional Reeb graph with its action maps,
and a finite-difference Bloch oracle to check everything against.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import (BracketError, DomainError, Tolerance, adaptive_quad,
                       find_root)

TWO_PI = 2.0 * math.pi

_QTOL = Tolerance(1e-12, 1e-12, 600)


class Potential1D:
    """Real 2 pi periodic trigonometric polynomial with cached extrema."""

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
        self._locate_extrema()

    @classmethod
    def cosine(cls, amplitude: float = 1.0):
        return cls({1: 0.5 * amplitude, -1: 0.5 * amplitude})

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, self.coeffs.get(0, 0.0).real)
        for k, c in self.coeffs.items():
            if k <= 0:
                continue
            out = out + 2.0 * (c.real * np.cos(k * x) - c.imag * np.sin(k * x))
        return out if out.ndim else float(out)

    def deriv(self, x):
        total = 0.0
        for k, c in self.coeffs.items():
            if k <= 0:
                continue
            total += -2.0 * k * (c.real * math.sin(k * x)
                                 + c.imag * math.cos(k * x))
        return total

    def second(self, x):
        total = 0.0
        for k, c in self.coeffs.items():
            if k <= 0:
                continue
            total += -2.0 * k * k * (c.real * math.cos(k * x)
                                     - c.imag * math.sin(k * x))
        return total

    def third(self, x):
        total = 0.0
        for k, c in self.coeffs.items():
            if k <= 0:
                continue
            total += 2.0 * k ** 3 * (c.real * math.sin(k * x)
                                     + c.imag * math.cos(k * x))
        return total

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
                d = self.deriv(x)
                dd = self.second(x)
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
        return math.sqrt(2.0 * self.second(self.x_min))


# ----------------------------------------------------------------------
# Classically allowed integrals (square-root endpoints handled by the
# sine substitution x = x- + (x+ - x-) sin^2)
# ----------------------------------------------------------------------

def _turning_points(v: Potential1D, e: float):
    if not (v.v_min < e < v.v_max):
        raise DomainError("energy outside the well")
    x_right = v.x_max if v.x_max > v.x_min else v.x_max + TWO_PI
    x_left = x_right - TWO_PI

    def f(x):
        return v.value(x) - e

    xm = find_root(f, x_left, v.x_min, _QTOL)
    xp = find_root(f, v.x_min, x_right, _QTOL)
    return xm, xp


def _smooth_quotient(v: Potential1D, e: float, a: float, b: float,
                     sign: float):
    """W with sign*(e - v(x)) = (x - a)(b - a - (x - a)) W(x) on [a, b].

    W is smooth and positive for simple turning points; near the endpoints
    it is evaluated from the Taylor series of v to dodge the 0/0 rounding
    noise of the direct quotient.
    """
    span = b - a
    cut = 1e-5 * span

    def w(x):
        dm = x - a
        dp = b - x
        if dm < cut:
            num = -sign * (v.deriv(a) + 0.5 * v.second(a) * dm
                           + v.third(a) * dm * dm / 6.0)
            return num / max(dp, 1e-300)
        if dp < cut:
            num = sign * (v.deriv(b) - 0.5 * v.second(b) * dp
                          + v.third(b) * dp * dp / 6.0)
            return num / max(dm, 1e-300)
        return sign * (e - v.value(x)) / (dm * dp)

    return w


def _root_integral(v: Potential1D, e: float, a: float, b: float,
                   sign: float) -> float:
    """int_a^b sqrt(sign*(e - v)) dx between simple turning points a < b."""
    span = b - a
    w = _smooth_quotient(v, e, a, b, sign)

    def g(theta):
        s, c = math.sin(theta), math.cos(theta)
        x = a + span * s * s
        return 2.0 * span * span * (s * c) ** 2 * math.sqrt(max(w(x), 0.0))

    return adaptive_quad(g, 0.0, 0.5 * math.pi, _QTOL)


def action_lower(v: Potential1D, e: float) -> float:
    """(1/pi) int sqrt(e - v) over the allowed segment (the well action)."""
    xm, xp = _turning_points(v, e)
    return _root_integral(v, e, xm, xp, +1.0) / math.pi


def action_upper(v: Potential1D, e: float) -> float:
    """(1/2 pi) int_0^2pi sqrt(e - v) for energies above the barrier."""
    if e < v.v_max:
        raise DomainError("energy below the barrier top")

    def f(x):
        return math.sqrt(max(e - v.value(x), 0.0))

    return adaptive_quad(f, 0.0, TWO_PI, _QTOL) / TWO_PI


def period_integral(v: Potential1D, e: float) -> float:
    """int dx / sqrt(e - v) over the allowed segment."""
    xm, xp = _turning_points(v, e)
    span = xp - xm
    w = _smooth_quotient(v, e, xm, xp, +1.0)

    def g(theta):
        x = xm + span * math.sin(theta) ** 2
        return 2.0 / math.sqrt(max(w(x), 1e-300))

    return adaptive_quad(g, 0.0, 0.5 * math.pi, _QTOL)


def agmon_distance(v: Potential1D, e: float) -> float:
    """Tunneling integral of sqrt(v - e) across the forbidden segment."""
    xm, xp = _turning_points(v, e)
    return _root_integral(v, e, xp, xm + TWO_PI, -1.0)


# ----------------------------------------------------------------------
# Finite-difference Bloch oracle
# ----------------------------------------------------------------------

@functools.cache
def _lapack_threads():
    """(get, set) of the thread count of the OpenBLAS behind scipy.linalg,
    or None when scipy is linked against another BLAS."""
    from scipy.linalg import cython_lapack
    lib = ctypes.CDLL(cython_lapack.__file__)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("", "64_"):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                return get, put
    return None


@contextlib.contextmanager
def _one_lapack_thread():
    """Run scipy.linalg on the calling thread only.  A threaded solve gains
    only while every CPU is idle: it stalls whenever another process holds
    a CPU, and its rounding, so the oracle's output, depends on the CPU
    count."""
    control = _lapack_threads()
    if control is None:
        yield
        return
    get, put = control
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _fd_eigenvalues(v: Potential1D, h: float, q: float, n: int, count=None):
    dx = TWO_PI / n
    xs = np.arange(n) * dx
    diag = 2.0 * h * h / dx ** 2 + v.value(xs)
    hop = -h * h / dx ** 2
    phase = np.exp(2j * math.pi * q)
    real_phase = abs(phase.imag) < 1e-14
    dtype = float if real_phase else complex
    a = np.zeros((n, n), dtype=dtype)
    np.fill_diagonal(a, diag)
    idx = np.arange(n - 1)
    a[idx, idx + 1] = hop
    a[idx + 1, idx] = hop
    a[n - 1, 0] = hop * (phase.real if real_phase else phase)
    a[0, n - 1] = hop * (phase.real if real_phase else np.conj(phase))
    # imported here: scipy.linalg at module level would slow every import
    from scipy.linalg import eigh
    subset = None if count is None else [0, min(count, n) - 1]
    with _one_lapack_thread():
        return eigh(a, eigvals_only=True, subset_by_index=subset)


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


def _bs_level(v: Potential1D, h: float, nu: int, delta: float) -> float:
    """The nu-th Bohr-Sommerfeld level: action_lower(E) = h (nu + 1/2)."""
    cap = v.v_max - delta
    target = h * (nu + 0.5)
    if action_lower(v, cap) < target:
        raise DomainError(f"level {nu} is not below the barrier window")
    lo = v.v_min + 1e-12 * (v.v_max - v.v_min)
    return find_root(lambda x: action_lower(v, x) - target, lo, cap, _QTOL)


def bs_levels_lower(v: Potential1D, h: float, delta: float | None = None):
    """Bohr-Sommerfeld levels of the well below the barrier top."""
    if v.v_max <= v.v_min:
        return []  # flat potential: no well
    delta = _window(v, delta)
    top = action_lower(v, v.v_max - delta)
    levels = []
    while h * (len(levels) + 0.5) <= top and len(levels) <= 100000:
        levels.append(_bs_level(v, h, len(levels), delta))
    return levels


def band_width_lower(v: Potential1D, h: float, nu: int,
                     delta: float | None = None) -> float:
    """Tunneling width of the nu-th low band: full swing of the dispersion,
    2 (omega h / pi) exp(-rho / h)."""
    delta = _window(v, delta)
    e = _bs_level(v, h, nu, delta)
    if not (v.v_min + delta < e < v.v_max - delta):
        raise DomainError("level outside the tunneling window")
    omega = TWO_PI / period_integral(v, e)
    rho = agmon_distance(v, e)
    return 2.0 * (omega * h / math.pi) * math.exp(-rho / h)


def gap_ends_upper(v: Potential1D, h: float, e_cap: float,
                   delta: float | None = None):
    """Band/gap boundaries above the barrier: action_upper(E) = h nu / 2."""
    lo = v.v_max + _window(v, delta)
    if e_cap <= lo:
        return []
    i_lo = action_upper(v, lo)
    i_hi = action_upper(v, e_cap)
    out = []
    nu = int(math.ceil(2.0 * i_lo / h))
    while h * nu / 2.0 <= i_hi:
        target = h * nu / 2.0
        e = find_root(lambda x: action_upper(v, x) - target, lo, e_cap, _QTOL)
        out.append((nu, e))
        nu += 1
    return out


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


def dispersion_upper(v: Potential1D, h: float, nu: int, q: float,
                     e_cap: float | None = None) -> float:
    """Upper-domain dispersion by inverting the full-period action."""
    target = dispersion_branch_action(nu, q, h)
    lo = v.v_max + 1e-10
    if action_upper(v, lo) > target:
        raise DomainError("band is not above the barrier")
    hi = e_cap or (v.v_max + 10.0 + 4.0 * target * target)
    while action_upper(v, hi) < target:
        hi = v.v_max + 2.0 * (hi - v.v_max)
    return find_root(lambda x: action_upper(v, x) - target, lo, hi, _QTOL)


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
        edge i1, (v_max, e_cap] for the open edges i2 and i3."""
        if edge == "i1":
            span = self.v.v_max - self.v.v_min
            lo = self.v.v_min + 1e-12 * span
            hi = self.v.v_max - 1e-12 * span
        else:
            lo, hi = self.v.v_max, self.e_cap
        try:
            return find_root(lambda e: self.action(edge, e) - i, lo, hi,
                             _QTOL)
        except BracketError:
            raise DomainError(
                f"action {i} is outside the energy interval of edge {edge}"
            ) from None

    def kirchhoff_residual(self) -> float:
        return self.outer_limit - 2.0 * self.upper_limit


def reeb_1d(v: Potential1D, e_cap: float | None = None) -> Reeb1D:
    """Reeb graph of p^2 + v on the cylinder with its action maps."""
    has_well = (v.v_max - v.v_min) > 1e-13 * (1.0 + abs(v.v_max))
    if not has_well:
        return Reeb1D(v=v, has_well=False, outer_limit=0.0, upper_limit=0.0,
                      e_cap=e_cap or (v.v_max + 4.0))
    # at the barrier top the integrand has double zeros at both ends, so a
    # plain adaptive pass is accurate
    x0 = v.x_max
    outer = adaptive_quad(
        lambda x: math.sqrt(max(v.v_max - v.value(x), 0.0)),
        x0, x0 + TWO_PI, _QTOL) / math.pi
    return Reeb1D(v=v, has_well=True, outer_limit=outer,
                  upper_limit=0.5 * outer,
                  e_cap=e_cap or (v.v_max + 4.0 * (v.v_max - v.v_min)))


# ----------------------------------------------------------------------
# Weyl band count
# ----------------------------------------------------------------------

@dataclass
class WeylCount:
    value: float
    layer: bool = False
    lower_value: float | None = None
    upper_value: float | None = None


def weyl_count_1d(v: Potential1D, e: float, h: float,
                  delta: float | None = None) -> WeylCount:
    """Number of bands below energy e: phase-space area over 2 pi h."""
    delta = _window(v, delta)
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

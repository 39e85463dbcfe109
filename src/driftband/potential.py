"""Lattice-periodic potentials as finite Fourier series, their angular
(guiding-center) average, and the physical-to-dimensionless parameter map.

The lattice always has first generator (2*pi, 0); the second generator
(a21, a22) is free up to a22 > 0.  A potential is a finitely supported map
(k1, k2) -> coefficient over the dual lattice, so the cyclotron average
reduces to damping each mode by J0 of |wave vector| * gyroradius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numerics import (DEFAULT_TOL, DomainError, Tolerance, adaptive_quad,
                       bessel_j0, bessel_j0_array)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Lattice:
    a21: float = 0.0
    a22: float = TWO_PI

    def __post_init__(self):
        if not self.a22 > 0.0:
            raise DomainError("a22 must be positive (orientation fixed)")

    @property
    def a1(self):
        return np.array([TWO_PI, 0.0])

    @property
    def a2(self):
        return np.array([self.a21, self.a22])

    @property
    def cell_area(self) -> float:
        return TWO_PI * self.a22

    def dual_vector(self, k1: int, k2: int):
        """Wave vector G with G.a1 = 2 pi k1 and G.a2 = 2 pi k2."""
        return (float(k1), (TWO_PI * k2 - k1 * self.a21) / self.a22)

    def to_cartesian(self, st):
        """Map lattice coordinates (s, t) to the plane, y = s a1 + t a2."""
        st = np.asarray(st, dtype=float)
        s, t = st[..., 0], st[..., 1]
        return np.stack([TWO_PI * s + self.a21 * t, self.a22 * t], axis=-1)

    def to_lattice(self, y):
        y = np.asarray(y, dtype=float)
        t = y[..., 1] / self.a22
        s = (y[..., 0] - self.a21 * t) / TWO_PI
        return np.stack([s, t], axis=-1)


class FourierPotential:
    """Real trigonometric polynomial on the torus R^2 / lattice."""

    def __init__(self, lattice: Lattice, coeffs: dict):
        self.lattice = lattice
        cleaned = {}
        for (k1, k2), c in coeffs.items():
            c = complex(c)
            if c != 0.0:
                cleaned[(int(k1), int(k2))] = c
        scale = max((abs(c) for c in cleaned.values()), default=0.0)
        for k, c in cleaned.items():
            mk = (-k[0], -k[1])
            other = cleaned.get(mk, 0.0)
            if abs(other - c.conjugate()) > 1e-13 * max(scale, 1e-300):
                raise DomainError(
                    f"coefficients are not conjugate-symmetric at {k}")
        self.coeffs = cleaned
        self.degree = max((max(abs(k1), abs(k2)) for k1, k2 in cleaned),
                          default=0)
        self._half = self._build_half_modes()

    def _build_half_modes(self):
        """One representative per conjugate pair: (G1, G2, re, im).

        v(y) = c00 + sum over half modes of 2*(re*cos(G.y) - im*sin(G.y)).
        """
        half = []
        for (k1, k2), c in sorted(self.coeffs.items()):
            if (k1, k2) == (0, 0):
                continue
            if (k1, k2) < (-k1, -k2):
                continue
            g1, g2 = self.lattice.dual_vector(k1, k2)
            half.append((g1, g2, c.real, c.imag))
        return tuple(half)

    @property
    def mean(self) -> float:
        return self.coeffs.get((0, 0), 0.0 + 0.0j).real

    @property
    def coeff_l1(self) -> float:
        """Sum of |v_k|, a sup-norm bound for v and all its averages."""
        return sum(abs(c) for c in self.coeffs.values())

    def value(self, y):
        """Evaluate v at a point or an array of points (shape (..., 2))."""
        y = np.asarray(y, dtype=float)
        out = np.full(y.shape[:-1], self.mean)
        for g1, g2, re, im in self._half:
            phase = g1 * y[..., 0] + g2 * y[..., 1]
            out = out + 2.0 * (re * np.cos(phase) - im * np.sin(phase))
        return out if out.ndim else float(out)

    def damped(self, i1):
        """Cyclotron-averaged potential at action i1 as a new series; for a
        1-D array of actions, the list of their averaged potentials, whose
        J0 factors come from one bessel_j0_array pass (the same bits).

        Each mode is multiplied by J0(sqrt(2 i1) |G_k|); the zero mode is
        untouched, so averaging preserves the mean exactly.
        """
        i1s = np.asarray(i1, dtype=float)
        if np.any(i1s < 0.0):
            raise DomainError("cyclotron action must be non-negative")
        norms = [math.hypot(*self.lattice.dual_vector(*k)) for k in self.coeffs]
        if i1s.ndim:
            rows = bessel_j0_array(np.sqrt(2.0 * i1s)[:, None]
                                   * np.array(norms)).tolist()
        else:
            r = math.sqrt(2.0 * i1)
            rows = [[bessel_j0(r * g) for g in norms]]
        out = [FourierPotential(self.lattice, {
            k: c * j for (k, c), j in zip(self.coeffs.items(), row)})
            for row in rows]
        return out if i1s.ndim else out[0]


def eval_potential(p: FourierPotential, x) -> float:
    return p.value(x)


def averaged_potential(p: FourierPotential, i1: float, y) -> float:
    """Bessel-damped Fourier series for the angular average of v."""
    return p.damped(i1).value(y)


def averaged_potential_oracle(p: FourierPotential, i1: float, y,
                              tol: Tolerance = DEFAULT_TOL) -> float:
    """Independent quadrature route: average v over the cyclotron circle.

    The fast coordinates ride the circle as (sqrt(2 i1) sin phi,
    sqrt(2 i1) cos phi) around the guiding center y.
    """
    if i1 < 0.0:
        raise DomainError("cyclotron action must be non-negative")
    r = math.sqrt(2.0 * i1)
    y1, y2 = float(y[0]), float(y[1])

    def integrand(phi):
        return p.value(np.stack([r * np.sin(phi) + y1, r * np.cos(phi) + y2],
                                axis=-1))

    return adaptive_quad(integrand, 0.0, TWO_PI, tol) / TWO_PI


def cosine_example(A: float, B: float, beta: float) -> FourierPotential:
    """v(x) = A cos x1 + B cos(beta x2) on the rectangular lattice."""
    if beta <= 0.0:
        raise DomainError("beta must be positive")
    lattice = Lattice(0.0, TWO_PI / beta)
    coeffs = {}
    if A != 0.0:
        coeffs[(1, 0)] = 0.5 * A
        coeffs[(-1, 0)] = 0.5 * A
    if B != 0.0:
        coeffs[(0, 1)] = 0.5 * B
        coeffs[(0, -1)] = 0.5 * B
    return FourierPotential(lattice, coeffs)


# ----------------------------------------------------------------------
# Parameters
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralParams:
    h: float
    epsilon: float

    def __post_init__(self):
        if not self.h > 0.0:
            raise DomainError("h must be positive")
        if self.epsilon < 0.0:
            raise DomainError("epsilon must be non-negative")


@dataclass(frozen=True)
class PhysicalParams:
    B_field: float
    L0: float
    mass: float
    charge: float
    light_speed: float
    hbar: float
    Vmax: float

    def __post_init__(self):
        for name in ("B_field", "L0", "mass", "charge", "light_speed",
                     "hbar", "Vmax"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"{name} must be positive")


def physical_to_dimensionless(pp: PhysicalParams):
    """Scale the physical operator to unit cyclotron units.

    Returns (SpectralParams, energy_scale) where energy_scale converts the
    dimensionless spectrum back to physical energies.
    """
    omega_c = pp.charge * pp.B_field / (pp.light_speed * pp.mass)
    l_m = math.sqrt(pp.hbar / (pp.mass * omega_c))
    h = TWO_PI ** 2 * (l_m / pp.L0) ** 2
    eps = h * pp.Vmax / (pp.hbar * omega_c)
    energy_scale = (pp.charge * pp.B_field * pp.L0) ** 2 / (
        TWO_PI ** 2 * pp.mass * pp.light_speed ** 2)
    return SpectralParams(h=h, epsilon=eps), energy_scale


@dataclass(frozen=True)
class FluxRatio:
    N: int
    M: int

    def __post_init__(self):
        if self.M < 1:
            raise DomainError("denominator must be positive")
        if math.gcd(abs(self.N), self.M) != 1:
            raise DomainError("flux ratio must be in lowest terms")

    @property
    def eta(self) -> float:
        return self.N / self.M


# Largest denominator a flux may have and still count as rational.  A float
# is always an exact fraction with a huge denominator, so an unbounded search
# would call every flux rational; the Harper reduction also needs N x N Bloch
# matrices to stay small.
FLUX_DENOMINATOR_CAP = 512


class IrrationalFlux:
    """Marker for a flux that admits no small rational reconstruction."""

    def __init__(self, eta: float):
        self.eta = eta

    def __repr__(self):
        return f"IrrationalFlux({self.eta!r})"


def flux_ratio(lattice: Lattice, h: float):
    """Flux quanta per cell, a22 / h, snapped to N/M when close to rational.

    Both N and M must be at most FLUX_DENOMINATOR_CAP: N is the Bloch matrix
    size of the Harper reduction, whose flux h / a22 = M/N is capped alike.
    """
    if not h > 0.0:
        raise DomainError("h must be positive")
    eta = lattice.a22 / h
    frac = Fraction(eta).limit_denominator(FLUX_DENOMINATOR_CAP)
    if (frac.numerator <= FLUX_DENOMINATOR_CAP
            and abs(eta - float(frac)) <= 1e-12 * max(1.0, abs(eta))):
        return FluxRatio(N=frac.numerator, M=frac.denominator)
    return IrrationalFlux(eta)

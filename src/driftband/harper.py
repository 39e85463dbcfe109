"""Harper-type difference operators per Landau band.

Quantizing the averaged symbol at a fixed Landau level turns the slow
coordinate pair into a one-dimensional shift operator of step h: a mode
(k1, k2) of the damped potential becomes a k1-site shift times an on-site
wave.  For the cosine example this is the classical Harper equation
A' (w(y+h) + w(y-h))/2 + B' cos(beta y) w(y) = lambda w(y) with the damped
amplitudes A', B'.  At commensurate flux (beta h / 2 pi = M/N) the operator
reduces by Floquet substitution to N x N Hermitian Bloch matrices H(theta,
phi).  For Harper's equation Chambers' relation (Phys. Rev. 140, A135,
1965; Hofstadter, Phys. Rev. B 14, 2239, 1976) gives every band edge from
four of them; any other symbol's band table comes from a sweep over
(theta, phi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .numerics import DomainError, HermitianMatrix, hermitian_eigenvalues
from .potential import FLUX_DENOMINATOR_CAP, FourierPotential, FluxRatio

TWO_PI = 2.0 * math.pi


class CommensurabilityError(DomainError):
    pass


@dataclass(frozen=True)
class HarperModel:
    symbol: FourierPotential  # averaged potential, damped at i1_mu
    h_step: float
    i1_mu: float              # Landau action of the reduced band
    eps: float

    def __post_init__(self):
        if not self.h_step > 0.0:
            raise DomainError("h_step must be positive")

    @property
    def beta(self) -> float:
        return TWO_PI / self.symbol.lattice.a22

    @property
    def hop(self) -> float:
        """Shift-average coefficient A': 2 Re of the damped (1, 0) mode."""
        return 2.0 * self.symbol.coeffs.get((1, 0), 0j).real

    @property
    def pot(self) -> float:
        """Cosine coefficient B': 2 Re of the damped (0, 1) mode."""
        return 2.0 * self.symbol.coeffs.get((0, 1), 0j).real

    def flux_fraction(self):
        """beta h / (2 pi) as M/N in lowest terms, or None."""
        x = self.beta * self.h_step / TWO_PI
        frac = Fraction(x).limit_denominator(FLUX_DENOMINATOR_CAP)
        if abs(x - float(frac)) <= 1e-12 * max(1.0, abs(x)):
            return frac
        return None

    def lambda_to_energy(self, lam):
        return self.i1_mu + self.eps * np.asarray(lam)

    def energy_to_lambda(self, e):
        return (np.asarray(e) - self.i1_mu) / self.eps


def harper_from_landau(p: FourierPotential, mu: int, h: float,
                       eps: float) -> HarperModel:
    """Reduce the averaged symbol of p at the mu-th Landau level."""
    i1 = (mu + 0.5) * h
    return HarperModel(p.damped(i1), h, i1, eps)


def bloch_matrix(model: HarperModel, flux, theta1: float,
                 phi0: float) -> HermitianMatrix:
    """N x N Floquet reduction of the Harper operator.

    Sites phi_j = phi0 + 2 pi M j / N carry the on-site waves; the hops
    close around the N-cycle with boundary phase e^(i N theta1).
    """
    frac = _checked_fraction(model, flux)
    return HermitianMatrix(_bloch_stack(model, frac, [theta1], [phi0])[0])


def _checked_fraction(model: HarperModel, flux) -> Fraction:
    m_over_n = _as_fraction(flux)
    check = model.flux_fraction()
    if check is None or check != m_over_n:
        raise CommensurabilityError(
            f"model flux {model.beta * model.h_step / TWO_PI} is not {m_over_n}")
    return m_over_n


def _bloch_stack(model: HarperModel, frac: Fraction, thetas,
                 phis) -> np.ndarray:
    """Bloch matrices at the points (thetas[i], phis[i]), shape (k, N, N).

    Mode (k1, k2) with wave number kappa is the wave e^(i s phi_j),
    s = kappa / beta, times a k1-site hop.  The wave is Weyl-symmetrized,
    evaluated midway along the hop, and a hop that crosses the cycle end
    picks up the Bloch phase from w_(j+N) = e^(i N theta1) w_j.
    """
    m, n = frac.numerator, frac.denominator
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    j = np.arange(n)
    steps = TWO_PI * m * j / n
    sites = phis[:, None] + steps
    modes = {k: (c, _wave_ratio(model, k, frac))
             for k, c in sorted(model.symbol.coeffs.items())}
    # a fixed summation order: the diagonal (the mean, then one k1 = 0
    # mode per conjugate pair), then the hops by descending k1.  Hops are
    # added, not assigned: for small N several modes share one entry.
    diag = np.zeros(sites.shape)
    for (k1, k2), (c, s) in modes.items():
        if (k1, k2) == (0, 0):
            diag += c.real
        elif k1 == 0 and k2 > 0:
            wave = c.real * np.cos(s * sites)
            if c.imag != 0.0:
                wave = wave - c.imag * np.sin(s * sites)
            diag += 2.0 * wave
    a = np.zeros((thetas.size, n, n), dtype=complex)
    a[:, j, j] = diag
    for (k1, _), (c, s) in reversed(modes.items()):
        if k1 == 0:
            continue
        # the phase splits into a factor per site and one per point and
        # wrap count: e^(i s phi0) times the Bloch phase, which is 1 for
        # the wrap-0 sites of an s = 0 wave
        wrap = (j + k1) // n
        site = c * np.exp(1j * s * (steps + math.pi * m * k1 / n))
        for w in range(wrap[0], wrap[-1] + 1):
            hop = wrap == w
            phase = site[hop]
            if s != 0.0 or w != 0:
                phase = phase * np.exp(1j * (s * phis[:, None]
                                             + n * (thetas[:, None] * w)))
            a[:, j[hop], (j[hop] + k1) % n] += phase
    return a


def _wave_ratio(model: HarperModel, mode, frac: Fraction) -> float:
    """s = kappa / beta of a mode, checked to close around the N-cycle."""
    s = model.symbol.lattice.dual_vector(*mode)[1] / model.beta
    # phi_(j+N) = phi_j + 2 pi M, so the wave closes when s M is integral
    if abs(s * frac.numerator - round(s * frac.numerator)) > 1e-9:
        raise CommensurabilityError(
            f"mode {mode} does not close on the Bloch cycle at flux {frac}")
    return s


# Bloch matrices are built and solved in stacks of at most this many
# entries, which bounds the memory of a sweep at any grid and flux.
_STACK_ENTRIES = 1 << 18


def _sweep_eigenvalues(model: HarperModel, frac: Fraction, thetas,
                       phis) -> np.ndarray:
    """Eigenvalues (k, N) of the Bloch matrices at k paired points."""
    n = frac.denominator
    step = max(1, _STACK_ENTRIES // (n * n))
    return np.concatenate([
        hermitian_eigenvalues(_bloch_stack(model, frac, thetas[i:i + step],
                                           phis[i:i + step]))
        for i in range(0, len(thetas), step)])


def _as_fraction(flux):
    if isinstance(flux, Fraction):
        return flux
    if isinstance(flux, FluxRatio):
        # main flux eta = N/M corresponds to beta h / 2 pi = M/N
        return Fraction(flux.M, flux.N)
    raise DomainError(f"cannot interpret flux {flux!r}")


@dataclass
class BandTable:
    bands: list                  # ascending (lam_lo, lam_hi)
    e_bands: list                # same intervals mapped to energies
    touching: list = field(default_factory=list)
    bloch_solves: int = 0        # Bloch matrices diagonalised

    @property
    def count(self):
        return len(self.bands)

    def gaps(self):
        out = []
        for (_, hi), (lo, _) in zip(self.bands[:-1], self.bands[1:]):
            out.append(lo - hi)
        return out

    @property
    def lambda_extent(self):
        return self.bands[-1][1] - self.bands[0][0]


# the modes of Harper's equation: the mean, the hops and the cosine wave
_HARPER_MODES = frozenset({(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)})


def _is_harper(model: HarperModel) -> bool:
    """True for real modes among _HARPER_MODES whose hops carry no wave."""
    coeffs = model.symbol.coeffs
    return (coeffs.keys() <= _HARPER_MODES
            and all(c.imag == 0.0 for c in coeffs.values())
            and all(model.symbol.lattice.dual_vector(*k)[1] == 0.0
                    for k in coeffs if k[1] == 0))


def band_table(model: HarperModel, flux, grid=(64, 64),
               refine: int = 4) -> BandTable:
    """Per-index eigenvalue ranges of the Bloch matrices over (theta, phi).

    For Harper's equation (real modes (0, 0), (+-1, 0) and (0, +-1), the
    hops without an on-site wave) Chambers' relation gives
    det(E - H(theta, phi)) = P(E) - 2a cos N theta - 2b cos N phi, and
    each eigenvalue is monotone in the right-hand side.  Band b then runs
    between the extremes of the b-th eigenvalue over the four corners
    (theta, phi) in {0, pi/N}^2: four corners, because the damped a and b
    can have either sign.  Every other symbol is swept over a grid of
    (theta, phi) with local refinement around each extremum; ``grid`` and
    ``refine`` serve only that sweep.
    """
    m_over_n = _checked_fraction(model, flux)
    n = m_over_n.denominator
    if _is_harper(model):
        corner = math.pi / n
        lam = hermitian_eigenvalues(_bloch_stack(
            model, m_over_n, [0.0, 0.0, corner, corner],
            [0.0, corner, 0.0, corner]))
        mins, maxs = lam.min(axis=0), lam.max(axis=0)
        solves = len(lam)
    else:
        mins, maxs, solves = _sweep_edges(model, m_over_n, grid, refine)
    bands = [(float(mins[b]), float(maxs[b])) for b in range(n)]
    touching = [idx for idx in range(n - 1)
                if bands[idx + 1][0] - bands[idx][1] < 1e-9]
    e_bands = [(float(model.lambda_to_energy(lo)),
                float(model.lambda_to_energy(hi))) for lo, hi in bands]
    return BandTable(bands=bands, e_bands=e_bands, touching=touching,
                     bloch_solves=solves)


def _sweep_edges(model: HarperModel, frac: Fraction, grid, refine: int):
    """Band minima and maxima (N each) of a (theta, phi) sweep, and the
    number of Bloch matrices it solved."""
    n = frac.denominator
    g1, g2 = grid
    thetas = np.linspace(0.0, TWO_PI / n, g1, endpoint=False)
    phis = np.linspace(0.0, TWO_PI, g2, endpoint=False)
    # theta outer, phi inner: argmin/argmax keep the first extremum in
    # this order as the refinement anchor
    th, ph = (x.ravel() for x in np.meshgrid(thetas, phis, indexing="ij"))
    lam = _sweep_eigenvalues(model, frac, th, ph)
    solves = len(lam)
    cols = np.arange(n)
    lo, hi = lam.argmin(axis=0), lam.argmax(axis=0)
    mins, maxs = lam[lo, cols], lam[hi, cols]
    if refine > 0:
        # local (2 refine + 1)^2 patches around the 2 N anchors, one stack;
        # anchor rows 0..N-1 refine the minima, N..2N-1 the maxima
        dth = TWO_PI / n / g1
        dph = TWO_PI / g2
        anchors = np.concatenate([lo, hi])
        k = 2 * refine + 1
        pth = np.linspace(th[anchors] - dth, th[anchors] + dth, k, axis=-1)
        pph = np.linspace(ph[anchors] - dph, ph[anchors] + dph, k, axis=-1)
        pth = np.broadcast_to(pth[:, :, None], (2 * n, k, k)).ravel()
        pph = np.broadcast_to(pph[:, None, :], (2 * n, k, k)).ravel()
        patch = _sweep_eigenvalues(model, frac, pth, pph)
        solves += len(patch)
        patch = patch.reshape(2, n, k * k, n)[:, cols, :, cols]  # (n, 2, k*k)
        mins = np.minimum(mins, patch[:, 0].min(axis=-1))
        maxs = np.maximum(maxs, patch[:, 1].max(axis=-1))
    return mins, maxs, solves

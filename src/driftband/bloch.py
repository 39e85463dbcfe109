"""Magneto-Bloch coefficient families at rational flux eta = N/M.

Quasimodes built from a localized seed do not satisfy the twisted
translation relations by themselves; summing lattice translates with the
right phase coefficients fixes that.  The translation laws used here are
the consistent pair (checked by the commutation of the two lattice shifts):

    psi^j(x + a1) = psi^j(x)   * exp(-2 pi i (q1 - j eta))
    psi^j(x + a2) = psi^(j+1)(x) * exp(-i eta (x1 + a21/2)) * sigma_j,

with sigma_(M-1) = exp(-2 pi i q2) and sigma_j = 1 otherwise.  Everything
in this module is exact phase algebra on the coefficients; the underlying
quasimode factors never appear.

For boundary (contractible) regimes the coefficients live on a Z^2 window
and are pure phases on a support lattice; for interior (drift) regimes the
one-index recurrences quantize the drift action, in closed form for drift
(+-1, 0) and as a truncated nullspace problem for any primitive drift.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .actions import build_edge_tables
from .classical import _egcd, build_reeb_graph, conjugate_vector
from .numerics import DomainError, find_root
from .potential import FluxRatio, FourierPotential
from .spectra import landau_level

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class QuasiMomentum:
    q1: float
    q2: float

    def check(self, M: int):
        if not (0.0 <= self.q1 < 1.0 / M + 1e-12):
            raise DomainError("q1 must lie in [0, 1/M)")
        if not (0.0 <= self.q2 < 1.0 + 1e-12):
            raise DomainError("q2 must lie in [0, 1)")


def _sigma(j: int, M: int, q2: float) -> complex:
    return cmath.exp(-2j * math.pi * q2) if j % M == M - 1 else 1.0 + 0.0j


# ----------------------------------------------------------------------
# Boundary families
# ----------------------------------------------------------------------

def boundary_bloch_coeffs(flux: FluxRatio, q: QuasiMomentum, s: int, j: int,
                          l, a21: float = 0.0) -> complex:
    """Closed-form coefficient of the boundary family.

    Non-zero exactly when l2 + j - s is a multiple of M (with n the
    quotient); there it is the unit phase
    exp[-2 pi i (q1 - j eta) l1 + 2 pi i eta l1 l2 + i eta a21 l2^2 / 2
        + 2 pi i q2 n].
    """
    M, N = flux.M, flux.N
    eta = flux.eta
    l1, l2 = int(l[0]), int(l[1])
    if (l2 + j - s) % M != 0:
        return 0.0 + 0.0j
    n = -(l2 + j - s) // M
    phase = (-TWO_PI * (q.q1 - j * eta) * l1
             + TWO_PI * eta * l1 * l2
             + 0.5 * eta * a21 * l2 * l2
             + TWO_PI * q.q2 * n)
    return cmath.exp(1j * phase)


def boundary_family(flux: FluxRatio, q: QuasiMomentum, s: int, window: int,
                    a21: float = 0.0) -> dict:
    """Coefficients on |l1|,|l2| <= window by exact recurrence propagation
    from the delta seed C^(s,j)_(0,0) = delta_(s j)."""
    M = flux.M
    eta = flux.eta
    if not (0 <= s < M):
        raise DomainError("family index out of range")
    col = {(s, 0): 1.0 + 0.0j}
    # walk the a2-translation recurrence in both directions:
    # C^j_(0, l2) = C^(j+1)_(0, l2-1) e^(-i eta a21/2) sigma_j e^(i eta a21 l2)
    j_cur, val = s, 1.0 + 0.0j
    for l2 in range(1, window + 1):
        j_next = (j_cur - 1) % M
        val = val * cmath.exp(-0.5j * eta * a21) * _sigma(j_next, M, q.q2) \
            * cmath.exp(1j * eta * a21 * l2)
        col[(j_next, l2)] = val
        j_cur = j_next
    j_cur, val = s, 1.0 + 0.0j
    for l2 in range(-1, -window - 1, -1):
        j_next = (j_cur + 1) % M
        val = val * cmath.exp(-1j * eta * a21 * (l2 + 1)) \
            * cmath.exp(0.5j * eta * a21) / _sigma(j_cur, M, q.q2)
        col[(j_next, l2)] = val
        j_cur = j_next
    # spread along l1 with the diagonal a1-translation phase
    out = {}
    for (j, l2), v in col.items():
        for l1 in range(-window, window + 1):
            phase = cmath.exp(1j * (-TWO_PI * (q.q1 - j * eta) * l1
                                    + TWO_PI * eta * l1 * l2))
            out[(j, l1, l2)] = v * phase
    return out


@dataclass
class BoundaryVerification:
    flux: FluxRatio
    q: QuasiMomentum
    s: int
    window: int
    residual_a1: float
    residual_a2: float
    support_ok: bool
    unit_modulus: bool

    @property
    def max_residual(self):
        return max(self.residual_a1, self.residual_a2)


def verify_boundary_conditions(flux: FluxRatio, q: QuasiMomentum, s: int,
                               window: int = 6,
                               a21: float = 0.0) -> BoundaryVerification:
    """Substitute the family into both translation relations.

    Equating coefficients of the translated seeds reduces each relation to
    an exact phase recurrence; the report carries the worst defect over the
    truncation window together with the support / modulus checks.
    """
    M = flux.M
    eta = flux.eta
    fam = boundary_family(flux, q, s, window + 1, a21)
    res1 = 0.0
    res2 = 0.0
    support_ok = True
    unit = True
    for (j, l1, l2), c in fam.items():
        on_support = (l2 + j - s) % M == 0
        if abs(c) > 1e-14 and not on_support:
            support_ok = False
        if abs(c) > 1e-14 and abs(abs(c) - 1.0) > 1e-12:
            unit = False
    # both relations hold as identities over the whole window, with zero
    # coefficients off the support lattice
    for j in range(M):
        for l1 in range(-window, window + 1):
            for l2 in range(-window, window + 1):
                c = fam.get((j, l1, l2), 0.0)
                # a1 relation: C^j_(l + e1) e^(-2 pi i eta l2)
                #            = C^j_l e^(-2 pi i (q1 - j eta))
                lhs = fam.get((j, l1 + 1, l2), 0.0) \
                    * cmath.exp(-2j * math.pi * eta * l2)
                rhs = c * cmath.exp(-2j * math.pi * (q.q1 - j * eta))
                res1 = max(res1, abs(lhs - rhs))
                # a2 relation: C^j_(l + e2) e^(-i eta a21 (l2 + 1))
                #            = C^(j+1)_l e^(-i eta a21 / 2) sigma_j
                lhs = fam.get((j, l1, l2 + 1), 0.0) \
                    * cmath.exp(-1j * eta * a21 * (l2 + 1))
                rhs = fam.get(((j + 1) % M, l1, l2), 0.0) \
                    * cmath.exp(-0.5j * eta * a21) * _sigma(j, M, q.q2)
                res2 = max(res2, abs(lhs - rhs))
    return BoundaryVerification(flux=flux, q=q, s=s, window=window,
                                residual_a1=res1, residual_a2=res2,
                                support_ok=support_ok, unit_modulus=unit)


def seed_gram_matrix(flux: FluxRatio, q: QuasiMomentum):
    """Gram matrix of the M seed rows: the identity for delta seeding."""
    M = flux.M
    rows = []
    for s in range(M):
        fam = boundary_family(flux, q, s, 4)
        vec = np.array([fam.get((j, 0, 0), 0.0) for j in range(M)])
        rows.append(vec)
    rows = np.array(rows)
    return rows @ rows.conj().T


def degeneracy_counts(flux: FluxRatio, regime_kind: str) -> int:
    """Quasimode multiplicity per spectral value: M families of M members
    on boundary regimes, two Reeb edges times M on interior ones."""
    if regime_kind == "boundary":
        return flux.M * flux.M
    if regime_kind == "interior":
        return 2 * flux.M
    raise DomainError(f"unknown regime kind {regime_kind!r}")


# ----------------------------------------------------------------------
# Interior families, drift (+-1, 0)
# ----------------------------------------------------------------------

@dataclass
class InteriorBlochFamily:
    flux: FluxRatio
    q: QuasiMomentum
    sign: int                 # +1 for drift (1,0), -1 for (-1,0)
    n: int                    # drift-action index: I2 = h (n/M -+ q1)
    s: int                    # consistent seed member, s = n Ntilde mod M
    i2_over_h: float
    coefficients: dict        # (j, k) -> complex
    consistency_residual: float


def _mod_inverse(N: int, M: int) -> int:
    if M == 1:
        return 0
    g, x, _ = _egcd(N % M, M)
    if g != 1:
        raise DomainError("flux numerator and denominator share a factor")
    return x % M


def interior_bloch_coeffs(flux: FluxRatio, q: QuasiMomentum, sign: int,
                          n: int, window: int = 8,
                          a21: float = 0.0) -> InteriorBlochFamily:
    """Drift-aligned family for d = (sign, 0) in closed form.

    The one-index recurrence C^(j+1)_(k+sign) = C^j_k exp(i eta a21 / 2
    + i k eta a21 sign) sigma_j^(-1) propagates the delta seed; the
    diagonal relation then forces the drift action onto
    I2/h = n/M - sign * q1 and is reported as a residual.
    """
    if sign not in (+1, -1):
        raise DomainError("drift sign must be +-1")
    M = flux.M
    eta = flux.eta
    ntilde = _mod_inverse(flux.N, M)
    s = (sign * n * ntilde) % M
    i2_over_h = n / M - sign * q.q1
    coeffs = {(s, 0): 1.0 + 0.0j}
    j_cur, k_cur, val = s, 0, 1.0 + 0.0j
    for _ in range(window):
        nxt = val * cmath.exp(0.5j * eta * a21 + 1j * k_cur * eta * a21 * sign)
        nxt = nxt / _sigma(j_cur, M, q.q2)
        j_cur2 = (j_cur + 1) % M
        k_cur2 = k_cur + sign
        coeffs[(j_cur2, k_cur2)] = nxt
        j_cur, k_cur, val = j_cur2, k_cur2, nxt
    j_cur, k_cur, val = s, 0, 1.0 + 0.0j
    for _ in range(window):
        # invert the step: from (j, k) back to (j-1, k-sign)
        j_prev = (j_cur - 1) % M
        k_prev = k_cur - sign
        prev = val * _sigma(j_prev, M, q.q2) \
            / cmath.exp(0.5j * eta * a21 + 1j * k_prev * eta * a21 * sign)
        coeffs[(j_prev, k_prev)] = prev
        j_cur, k_cur, val = j_prev, k_prev, prev
    # diagonal consistency: e^(sign 2 pi i (I2/h + k eta)) must equal
    # e^(-2 pi i (q1 - j eta)) on the support
    resid = 0.0
    for (j, k), c in coeffs.items():
        lhs = cmath.exp(1j * sign * TWO_PI * (i2_over_h + k * eta))
        rhs = cmath.exp(-1j * TWO_PI * (q.q1 - j * eta))
        resid = max(resid, abs(lhs - rhs) * abs(c))
    return InteriorBlochFamily(flux=flux, q=q, sign=sign, n=n, s=s,
                               i2_over_h=i2_over_h, coefficients=coeffs,
                               consistency_residual=resid)


# ----------------------------------------------------------------------
# General primitive drift: truncated nullspace solver
# ----------------------------------------------------------------------

@dataclass
class GeneralDriftSolution:
    flux: FluxRatio
    q: QuasiMomentum
    d: tuple
    f: tuple
    window: int
    families: list            # (i2_over_h mod 1, coefficient dict)
    nullspace_dimension: int  # total over one h-period of the drift action
    interior_residual: float
    truncation_residual: float


def _interior_system(flux, q, d, f, window, a21, i2_over_h):
    """Rows of the two translation relations on the truncated (j, k) window.

    Derived from the magnetic-translation composition law with
    D = d1 a1 + d2 a2 and F = (J f)1 a1 + (J f)2 a2; lattice-vector shifts
    of the drift lift act diagonally with the holonomy
    lambda = exp(i (2 pi I2 - D1 D2 / 2) / h).
    """
    M = flux.M
    eta = flux.eta
    d1, d2 = d
    f1, f2 = f
    D1 = TWO_PI * d1 + a21 * d2
    F1 = -TWO_PI * f2 + a21 * f1
    lam = cmath.exp(1j * (TWO_PI * i2_over_h - 0.5 * eta * D1 * d2))

    idx = {}
    for j in range(M):
        for k in range(-window, window + 1):
            idx[(j, k)] = len(idx)

    rows = []
    boundary_rows = []

    def add_row(pairs, keep):
        row = np.zeros(len(idx), dtype=complex)
        inside = True
        for (j, k), coef in pairs:
            if (j, k) in idx:
                row[idx[(j, k)]] += coef
            else:
                inside = False
        (rows if inside else boundary_rows).append((row, pairs))

    for j in range(M):
        for k in range(-window, window + 1):
            # a1 relation
            p1 = cmath.exp(1j * (TWO_PI * eta * f1 * (k + d2)
                                 - eta * f1 * d2 * F1 * k
                                 - 0.5 * eta * D1 * d2 * f1 * (f1 - 1))) \
                * lam ** f1
            rhs1 = cmath.exp(-1j * TWO_PI * (q.q1 - j * eta))
            add_row([((j, k + d2), p1), ((j, k), -rhs1)], True)
            # a2 relation
            p2 = cmath.exp(1j * (eta * f1 * a21 * (k - d1)
                                 - eta * f2 * d2 * F1 * k
                                 - 0.5 * eta * D1 * d2 * f2 * (f2 - 1))) \
                * lam ** f2
            rhs2 = cmath.exp(-0.5j * eta * a21) * _sigma(j, M, q.q2)
            add_row([((j, k - d1), p2), (((j + 1) % M, k), -rhs2)], True)
    return idx, rows, boundary_rows


def interior_general_d_solve(flux: FluxRatio, q: QuasiMomentum, d, f=None,
                             window: int | None = None, a21: float = 0.0,
                             scan: int = 720) -> GeneralDriftSolution:
    """Families for a primitive drift d by truncated nullspace computation.

    The drift action enters only through exp(2 pi i I2/h); scanning it over
    one period and collecting the near-singular values yields all families:
    their total count over the period is M.  Equations referencing
    coefficients outside the window are dropped (free boundary) and
    reported as the truncation residual of the returned families.
    """
    d = (int(d[0]), int(d[1]))
    if f is None:
        f = conjugate_vector(d)
    f = (int(f[0]), int(f[1]))
    if d[0] * f[0] + d[1] * f[1] != 1:
        raise DomainError("f is not conjugate to d")
    M = flux.M
    if window is None:
        window = max(M, 4)
    if window < M:
        raise DomainError("window must be at least M")

    def smallest_singular(i2_over_h):
        idx, rows, _ = _interior_system(flux, q, d, f, window, a21,
                                        i2_over_h)
        a = np.array([r[0] for r in rows])
        svals = np.linalg.svd(a, compute_uv=False)
        return svals[-1]

    # scan one period of the drift action for singular points
    ts = np.linspace(0.0, 1.0, scan, endpoint=False)
    vals = [smallest_singular(float(t)) for t in ts]
    minima = []
    for i, v in enumerate(vals):
        if v < vals[i - 1] and v < vals[(i + 1) % scan]:
            minima.append(i)
    families = []
    total_dim = 0
    worst_interior = 0.0
    worst_truncation = 0.0
    for i in minima:
        # golden-section refine around the grid minimum
        lo = float(ts[i]) - 1.5 / scan
        hi = float(ts[i]) + 1.5 / scan
        for _ in range(60):
            m1 = lo + 0.382 * (hi - lo)
            m2 = lo + 0.618 * (hi - lo)
            if smallest_singular(m1) < smallest_singular(m2):
                hi = m2
            else:
                lo = m1
        t_star = 0.5 * (lo + hi)
        idx, rows, brows = _interior_system(flux, q, d, f, window, a21,
                                            t_star)
        a = np.array([r[0] for r in rows])
        u, svals, vh = np.linalg.svd(a)
        null_dim = int(np.sum(svals < 1e-8 * svals[0]))
        if null_dim == 0:
            continue
        total_dim += null_dim
        for r in range(null_dim):
            vec = vh[-(r + 1)].conj()
            coeffs = {key: vec[pos] for key, pos in idx.items()
                      if abs(vec[pos]) > 1e-13}
            families.append((t_star % 1.0, coeffs))
            worst_interior = max(worst_interior,
                                 float(np.max(np.abs(a @ vec))))
            for row, pairs in brows:
                worst_truncation = max(worst_truncation,
                                       abs(complex(row @ vec)))
    return GeneralDriftSolution(flux=flux, q=q, d=d, f=f, window=window,
                                families=families,
                                nullspace_dimension=total_dim,
                                interior_residual=worst_interior,
                                truncation_residual=worst_truncation)


# ----------------------------------------------------------------------
# Semiclassical dispersion branches and their crossings
# ----------------------------------------------------------------------

@dataclass
class DispersionCrossing:
    mu: int
    q1_star: float
    n_plus: int
    n_minus: int
    e_star: float
    i2_plus: float
    i2_minus: float


def dispersion_crossings(p: FourierPotential, eps: float, h: float,
                         flux: FluxRatio, mu: int,
                         table_nodes: int = 32):
    """Crossings of the rising and falling interior dispersion branches.

    For drift (1, 0) the branches sit at I2 = h (n+/M - q1) on edge i2 and
    I3 = h (n-/M + q1) on edge i3.  A crossing at energy g has I2(g) + I3(g)
    = h k / M, k = n+ + n-; both tables rise on their shared window, so each
    integer k in that range gives one crossing, in ascending energy.  Then
    n+ = ceil(M I2 / h) puts q1 in [0, 1/M) (q1 = 0 within 1e-9 of an
    integer).
    """
    if eps == 0.0:
        return {"degenerate": True, "crossings": []}
    i1 = landau_level(mu, h)
    graph = build_reeb_graph(p, eps, i1)
    if graph.kind not in ("simple",):
        raise DomainError(f"no interior branches at this slice: {graph.kind}")
    # edge i2 carries the lexicographically positive drift
    d = graph.edge("i2").drift.d
    if d != (1, 0):
        raise DomainError(f"dispersion branches need drift (1,0), got {d}")
    t2, t3 = build_edge_tables(graph, ("i2", "i3"), nodes=table_nodes,
                               target=1e-7)
    M = flux.M

    def level(g):  # M (I2 + I3) / h, the k of a crossing at g
        return M * (t2.i2_of_energy(g) + t3.i2_of_energy(g)) / h

    g_lo, g_hi = t2.g_range
    crossings = []
    for k in range(math.ceil(level(g_lo)), math.floor(level(g_hi)) + 1):
        g = find_root(lambda x: level(x) - k, g_lo, g_hi, 1e-15)
        i2 = t2.i2_of_energy(g)
        n_plus = math.ceil(M * i2 / h - 1e-9)  # q1 = 0, not 1/M, at the edge
        crossings.append(DispersionCrossing(
            mu=mu, q1_star=max(n_plus / M - i2 / h, 0.0), n_plus=n_plus,
            n_minus=k - n_plus, e_star=g, i2_plus=i2,
            i2_minus=t3.i2_of_energy(g)))
    return {"degenerate": False, "crossings": crossings,
            "drift": d, "i1": i1}

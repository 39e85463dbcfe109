"""Bohr-Sommerfeld quantization of the drift regimes.

Both actions are quantized in half-integer units of h (the Maslov index of
every cycle here is 2, hence the 1/2 offsets): the cyclotron action gives
the Landau ladder, the drift action is quantized on boundary regimes only.
Interior regimes contribute energy intervals swept by the free drift
action.  Assembling all regimes per Landau index yields the semiclassical
spectrum and the Landau-band widths; the separatrix-limit bookkeeping
counts the subbands per band at rational flux.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .actions import EdgeActionTable, build_edge_tables, separatrix_limits
from .classical import (DriftModel, build_reeb_graph,
                        critical_i1_series)
from .numerics import DomainError, NumericsError, Tolerance, adaptive_quad
from .potential import FourierPotential, FluxRatio, averaged_potential

TWO_PI = 2.0 * math.pi


class KirchhoffViolation(NumericsError):
    pass


def landau_level(mu: int, h: float) -> float:
    """Quantized cyclotron action (mu + 1/2) h."""
    if mu < 0:
        raise DomainError("Landau index must be non-negative")
    if h <= 0.0:
        raise DomainError("h must be positive")
    return (mu + 0.5) * h


def maslov_indices(manifold_kind: str):
    """Indices of the basis cycles: two for tori, one for cylinders."""
    if manifold_kind == "torus":
        return (2, 2)
    if manifold_kind == "cylinder":
        return (2,)
    raise DomainError(f"unknown manifold kind {manifold_kind!r}")


# ----------------------------------------------------------------------
# Quantized states
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class QuantizedState:
    regime_id: str
    mu: int
    nu: int | None
    i1: float
    i2: float | tuple
    energy: float | tuple

    @property
    def is_interval(self):
        return isinstance(self.energy, tuple)


@dataclass
class SpectralSeries:
    regime_id: str
    kind: str                 # "points" | "intervals"
    edge: str
    states: list


@dataclass
class LandauBand:
    mu: int
    i1: float
    e_min: float
    e_max: float
    width: float
    intervals: list           # merged (lo, hi) energy intervals
    degenerate: bool = False


@dataclass
class Spectrum:
    h: float
    eps: float
    delta: float
    series: list
    bands: list
    skipped_mu: list
    table_err_max: float = 0.0  # largest interp_error of the edge tables

    def projection(self):
        """Merged (lo, hi) intervals of the whole spectrum on the E axis."""
        items = []
        for s in self.series:
            for st in s.states:
                if st.is_interval:
                    items.append(tuple(st.energy))
                else:
                    items.append((st.energy, st.energy))
        return merge_intervals(items)


def merge_intervals(items):
    out = []
    for lo, hi in sorted(items):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def quantize_boundary(table: EdgeActionTable, h: float, delta: float,
                      regime_id: str | None = None,
                      mu: int | None = None) -> list:
    """Half-integer drift-action states on a contractible edge.

    States closer than delta (in action) to the separatrix end are
    dropped; the end at the degenerate extremum is regular and keeps its
    full ladder.
    """
    i2_lo, i2_hi = sorted(table.i2_range)
    if table.edge == "i1":
        window = (i2_lo, i2_hi - delta)
    elif table.edge == "i4":
        window = (i2_lo + delta, i2_hi)
    else:
        raise DomainError("quantize_boundary needs a contractible edge")
    if mu is None:
        mu = int(round(table.i1 / h - 0.5))
    out = []
    nu = int(math.floor(window[0] / h - 0.5)) - 1
    while True:
        nu += 1
        i2 = (nu + 0.5) * h
        if i2 < window[0]:
            continue
        if i2 > window[1]:
            break
        energy = table.energy_of_i2(i2)
        out.append(QuantizedState(
            regime_id=regime_id or table.edge, mu=mu, nu=nu, i1=table.i1,
            i2=i2, energy=energy))
    return out


def quantize_interior(table: EdgeActionTable, h: float, delta: float,
                      regime_id: str | None = None,
                      mu: int | None = None) -> QuantizedState | None:
    """Energy interval swept by the drift action on an open edge."""
    if table.edge not in ("i2", "i3"):
        raise DomainError("quantize_interior needs an open edge")
    i2_lo, i2_hi = sorted(table.i2_range)
    lo, hi = i2_lo + delta, i2_hi - delta
    if lo >= hi:
        return None
    if mu is None:
        mu = int(round(table.i1 / h - 0.5))
    e_lo = table.energy_of_i2(lo)
    e_hi = table.energy_of_i2(hi)
    e_pair = (min(e_lo, e_hi), max(e_lo, e_hi))
    return QuantizedState(regime_id=regime_id or table.edge, mu=mu, nu=None,
                          i1=table.i1, i2=(lo, hi), energy=e_pair)


# ----------------------------------------------------------------------
# The full semiclassical spectrum
# ----------------------------------------------------------------------

def semiclassical_spectrum(p: FourierPotential, eps: float, h: float,
                           delta: float | None = None,
                           i1_max: float | None = None,
                           table_nodes: int = 32,
                           table_target: float = 1e-6) -> Spectrum:
    """Union of all regimes' quantized series, grouped into Landau bands.

    delta defaults to 3h (in action units; the same value excludes Landau
    slices closer than delta to a critical cyclotron action).  Slices with
    degenerate topology are reported in skipped_mu with a degenerate band
    entry carrying only the width data.
    """
    if delta is None:
        delta = 3.0 * h
    if i1_max is None:
        i1_max = 10.0 * h
    series_out = []
    bands = []
    skipped = []
    table_err_max = 0.0
    if eps > 0.0:
        crit = critical_i1_series(p, eps, i1_max + h)
        crit_points = sorted(set(crit.saddle_collision) | set(crit.separable))
        continuum = crit.continuum
    else:
        crit_points = []
        continuum = False
    mu = 0
    while True:
        i1 = landau_level(mu, h)
        if i1 > i1_max:
            break
        if eps == 0.0:
            bands.append(LandauBand(mu=mu, i1=i1, e_min=i1, e_max=i1,
                                    width=0.0, intervals=[(i1, i1)]))
            mu += 1
            continue
        model = DriftModel(p, eps, i1)
        if model.is_flat():
            e0 = i1 + eps * model.mean
            bands.append(LandauBand(mu=mu, i1=i1, e_min=e0, e_max=e0,
                                    width=0.0, intervals=[(e0, e0)],
                                    degenerate=True))
            skipped.append(mu)
            mu += 1
            continue
        near_critical = any(abs(i1 - c) < delta for c in crit_points)
        graph = build_reeb_graph(p, eps, i1)
        g_min, g_max = graph.g_min, graph.g_max
        width = g_max - g_min
        if near_critical or graph.kind == "one_dimensional":
            bands.append(LandauBand(mu=mu, i1=i1, e_min=g_min, e_max=g_max,
                                    width=width, intervals=[(g_min, g_max)],
                                    degenerate=True))
            skipped.append(mu)
            mu += 1
            continue
        intervals = []
        # boundary edges first; open edges exist on simple graphs only
        edges = ("i1", "i4", "i2", "i3") if graph.kind == "simple" else (
            "i1", "i4")
        tables = build_edge_tables(p, eps, i1, edges, graph,
                                   nodes=table_nodes, target=table_target)
        table_err_max = max([table_err_max]
                            + [t.interp_error for t in tables])
        for edge, table in zip(edges[:2], tables):
            states = quantize_boundary(table, h, delta,
                                       regime_id=f"{edge}@mu={mu}")
            if states:
                series_out.append(SpectralSeries(
                    regime_id=f"{edge}@mu={mu}", kind="points", edge=edge,
                    states=states))
                intervals.extend((s.energy, s.energy) for s in states)
        for edge, table in zip(edges[2:], tables[2:]):
            state = quantize_interior(table, h, delta,
                                      regime_id=f"{edge}@mu={mu}")
            if state is not None:
                series_out.append(SpectralSeries(
                    regime_id=f"{edge}@mu={mu}", kind="intervals",
                    edge=edge, states=[state]))
                intervals.append(tuple(state.energy))
        bands.append(LandauBand(mu=mu, i1=i1, e_min=g_min, e_max=g_max,
                                width=width,
                                intervals=merge_intervals(intervals)))
        mu += 1
    return Spectrum(h=h, eps=eps, delta=delta, series=series_out,
                    bands=bands, skipped_mu=skipped,
                    table_err_max=table_err_max)


def landau_band_width(p: FourierPotential, eps: float, i1: float) -> float:
    """eps * (max - min) of the averaged potential at fixed action."""
    model = DriftModel(p, eps, i1)
    samples = model.grid_vbar(512)
    return eps * float(samples.max() - samples.min())


def subband_count(p: FourierPotential, eps: float, h: float, i1_mu: float,
                  flux: FluxRatio) -> int:
    """Subbands in the Landau band at i1_mu for rational flux N/M.

    Counts the quantization slots of all edges through the separatrix
    limits: (M/h) [(I2_1p - I2_4m) + span(i2) + span(i3)], which the
    cell-area identity pins at exactly N.
    """
    lim = separatrix_limits(p, eps, i1_mu)
    k1, k2 = lim.kirchhoff_residuals()
    a22 = p.lattice.a22
    if abs(k1) > 1e-5 * a22 or abs(k2) > 1e-5 * a22:
        raise KirchhoffViolation(
            f"separatrix limits violate the area identities: {k1}, {k2}")
    span2, span3 = lim.spans
    total = (lim.i2_1p - lim.i2_4m) + span2 + span3
    count = flux.M * total / h
    if abs(count - flux.N) > 0.5:
        raise KirchhoffViolation(
            f"subband count {count} is not the flux numerator {flux.N}")
    return int(round(count))


# ----------------------------------------------------------------------
# Homological-equation Fourier solver
# ----------------------------------------------------------------------

@dataclass
class HomologicalSolution:
    f: dict                  # mode -> coefficient on the kept set
    mean_shift: float        # the energy correction E = -g_00
    residual_norm: float     # sup-norm bound of the discarded tail
    kept: set
    cutoff_n: int


def solve_homological(g: dict, omega1: float, omega2: float, eps: float,
                      alpha: float = 4.0) -> HomologicalSolution:
    """Solve omega . d(f)/d(phi) = g + E termwise on a safe mode set.

    Modes are kept when |k1| + |k2| <= N(alpha) or |k2| <= 1/sqrt(eps);
    there the denominator k1 omega1 + k2 omega2 is bounded away from zero
    for small eps, so the division is stable; the dropped tail bounds the
    residual in sup norm.
    """
    if omega1 == 0.0:
        raise DomainError("omega1 must be non-zero")
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")
    g = {(int(k1), int(k2)): complex(c) for (k1, k2), c in g.items()}
    e_shift = -g.get((0, 0), 0.0 + 0.0j).real
    support = [k for k in g if k != (0, 0)]
    if support:
        c_alpha = max(abs(g[k]) * (abs(k[0]) + abs(k[1])) ** alpha
                      for k in support)
    else:
        c_alpha = 0.0
    if eps > 0.0 and c_alpha > 0.0:
        n_alpha = max(1, math.ceil((c_alpha / eps ** (0.5 * alpha))
                                   ** (1.0 / alpha)))
        k2_cap = 1.0 / math.sqrt(eps)
    else:
        n_alpha = max((abs(k[0]) + abs(k[1]) for k in support), default=1)
        k2_cap = math.inf
    kept = set()
    f = {}
    tail = 0.0
    for k in support:
        k1, k2 = k
        if abs(k1) + abs(k2) <= n_alpha or abs(k2) <= k2_cap:
            denom = k1 * omega1 + k2 * omega2
            if abs(denom) < 1e-12 * (abs(k1) + abs(k2)) * max(
                    abs(omega1), abs(omega2)):
                raise DomainError(f"resonant mode {k} inside the kept set")
            f[k] = g[k] / (1j * denom)
            kept.add(k)
        else:
            tail += abs(g[k])
    return HomologicalSolution(f=f, mean_shift=e_shift, residual_norm=tail,
                               kept=kept, cutoff_n=n_alpha)


def eval_torus_series(coeffs: dict, phi1, phi2):
    """Evaluate a Fourier series on the torus at (phi1, phi2) arrays."""
    phi1 = np.asarray(phi1, dtype=float)
    phi2 = np.asarray(phi2, dtype=float)
    out = np.zeros(np.broadcast(phi1, phi2).shape, dtype=complex)
    for (k1, k2), c in coeffs.items():
        out = out + c * np.exp(1j * (k1 * phi1 + k2 * phi2))
    return out


def homological_grid_residual(sol: HomologicalSolution, g: dict,
                              omega1: float, omega2: float,
                              grid: int = 64) -> float:
    """Max grid residual of omega . df/dphi - g - E."""
    phi = np.linspace(0.0, TWO_PI, grid, endpoint=False)
    p1, p2 = np.meshgrid(phi, phi, indexing="ij")
    df = {k: 1j * (k[0] * omega1 + k[1] * omega2) * c
          for k, c in sol.f.items()}
    lhs = eval_torus_series(df, p1, p2)
    rhs = eval_torus_series(g, p1, p2) + sol.mean_shift
    return float(np.max(np.abs(lhs - rhs)))


# ----------------------------------------------------------------------
# First averaging step: generating-function residual
# ----------------------------------------------------------------------

def _ring_potential(p: FourierPotential, i1: float, y, phi):
    """Instantaneous potential at ring phase phi (a number or an array)."""
    r = math.sqrt(2.0 * max(i1, 0.0))
    phi = np.asarray(phi, dtype=float)
    return p.value(np.stack([r * np.sin(phi) + y[0], r * np.cos(phi) + y[1]],
                            axis=-1))


def _ring_difference(p: FourierPotential, i1: float, y, phi: float) -> float:
    """Averaged minus instantaneous potential at ring phase phi."""
    return averaged_potential(p, i1, y) - _ring_potential(p, i1, y, phi)


def generating_function(p: FourierPotential, i1: float, y, psi: float,
                        tol: Tolerance = None) -> float:
    """First-order generating correction, symmetrized in the ring phase.

    Averaging the two antiderivatives started at phases 0 and pi keeps the
    result smooth down to vanishing cyclotron action.
    """
    tol = tol or Tolerance(1e-11, 1e-11, 600)
    averaged = averaged_potential(p, i1, y)

    def integrand(phi):
        return averaged - _ring_potential(p, i1, y, phi)

    if psi >= 0:
        part0 = adaptive_quad(integrand, 0.0, psi, tol)
    else:
        part0 = -adaptive_quad(integrand, psi, 0.0, tol)
    if psi >= math.pi:
        part1 = adaptive_quad(integrand, math.pi, psi, tol)
    else:
        part1 = -adaptive_quad(integrand, psi, math.pi, tol)
    return 0.5 * (part0 + part1)


def first_order_generating_residual(p: FourierPotential, i1_grid,
                                    sample_count: int = 8,
                                    step: float = 1e-5,
                                    seed: int = 0) -> float:
    """Max |d(s)/d(psi) - ring difference| over random samples.

    A correct first averaging step satisfies this identity exactly; the
    finite-difference check flags implementation drift.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i1 in i1_grid:
        for _ in range(sample_count):
            y = rng.uniform(0.0, TWO_PI, size=2)
            psi = rng.uniform(0.2, TWO_PI - 0.2)
            s_plus = generating_function(p, float(i1), y, psi + step)
            s_minus = generating_function(p, float(i1), y, psi - step)
            fd = (s_plus - s_minus) / (2.0 * step)
            target = _ring_difference(p, float(i1), y, psi)
            worst = max(worst, abs(fd - target))
    return worst

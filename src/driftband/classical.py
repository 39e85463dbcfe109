"""Averaged guiding-center dynamics on the torus.

At fixed cyclotron action the averaged Hamiltonian I1 + eps*vbar(I1, y) is a
function on the torus R^2/lattice; its level-set topology (Reeb graph)
classifies the slow drift of the cyclotron-circle centers.  This module
finds critical points, traces level sets with integer winding vectors,
integrates drift orbits through one closure on the torus (any number at
once, as numpy lanes; see orbit_lanes), classifies single trajectories,
locates the critical cyclotron actions where the topology changes, and
assembles the regime decomposition of the (I1, E) half-plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import (D8_STAGES, DomainError, NumericsError, Tolerance,
                       bessel_j0, bessel_j0_zero, dop853_dense,
                       dop853_dense_coeffs, dop853_lane_step,
                       dop853_step_factor, find_root)
from .potential import FourierPotential

TWO_PI = 2.0 * math.pi
_SERIES_GRID = 200  # I1 intervals sampled by a critical-action scan
_SLICE_SEEDS = 16   # Newton seeds per side on the slices of a scan
_INV_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)


class UnsupportedTopologyError(NumericsError):
    """More structure than a minimal Morse function; carries the points."""

    def __init__(self, message, points=None):
        super().__init__(message)
        self.points = points or []


class SeparatrixProximityError(NumericsError):
    pass


# ----------------------------------------------------------------------
# Fast scalar model of the averaged Hamiltonian at fixed I1
# ----------------------------------------------------------------------

class DriftModel:
    """Averaged Hamiltonian at fixed cyclotron action, with fast scalar
    evaluation of value/gradient/Hessian used by the integrators."""

    def __init__(self, p: FourierPotential, eps: float, i1: float):
        if eps < 0.0:
            raise DomainError("eps must be non-negative")
        self.potential = p
        self.eps = float(eps)
        self.i1 = float(i1)
        self.lattice = p.lattice
        self.averaged = p.damped(i1)
        self.mean = self.averaged.mean
        self.modes = self.averaged._half  # (g1, g2, re, im) per conjugate pair
        self.l1 = self.averaged.coeff_l1
        self.grad_scale = sum(2.0 * math.hypot(m[0], m[1])
                              * math.hypot(m[2], m[3]) for m in self.modes)
        self.hess_scale = sum(2.0 * (m[0] ** 2 + m[1] ** 2)
                              * math.hypot(m[2], m[3]) for m in self.modes)

    # -- scalar fast paths -------------------------------------------------

    def vbar(self, y1, y2):
        total = self.mean
        for g1, g2, re, im in self.modes:
            ph = g1 * y1 + g2 * y2
            total += 2.0 * (re * math.cos(ph) - im * math.sin(ph))
        return total

    def grad(self, y1, y2):
        d1 = d2 = 0.0
        for g1, g2, re, im in self.modes:
            ph = g1 * y1 + g2 * y2
            w = -2.0 * (re * math.sin(ph) + im * math.cos(ph))
            d1 += g1 * w
            d2 += g2 * w
        return d1, d2

    def hessian(self, y1, y2):
        h11 = h12 = h22 = 0.0
        for g1, g2, re, im in self.modes:
            ph = g1 * y1 + g2 * y2
            w = -2.0 * (re * math.cos(ph) - im * math.sin(ph))
            h11 += g1 * g1 * w
            h12 += g1 * g2 * w
            h22 += g2 * g2 * w
        return h11, h12, h22

    # -- array path ----------------------------------------------------------

    def value_grad(self, y1, y2):
        """vbar and gradient at arrays of points, summed mode by mode in the
        order of the scalar methods."""
        y1 = np.asarray(y1, dtype=float)
        y2 = np.asarray(y2, dtype=float)
        v = np.full(y1.shape, self.mean)
        d1, d2 = np.zeros((2,) + y1.shape)
        for g1, g2, part, w in _mode_terms(self.modes, y1, y2):
            v += 2.0 * part
            d1 += g1 * w
            d2 += g2 * w
        return v, (d1, d2)

    def energy(self, y):
        """Averaged Hamiltonian I1 + eps*vbar at a point."""
        return self.i1 + self.eps * self.vbar(float(y[0]), float(y[1]))

    def level_of(self, g):
        """vbar level corresponding to an averaged energy g."""
        if self.eps == 0.0:
            raise DomainError("level sets are undefined at eps = 0")
        return (g - self.i1) / self.eps

    def grid_vbar(self, n):
        """vbar on an n x n grid over the unit cell in lattice coordinates,
        v[i, j] = vbar((i a1 + j a2) / n).

        G.(s a1 + t a2) = 2 pi (k1 s + k2 t), so each mode c_k is the outer
        product of u = c_k e^(2 pi i k1 i / n) and w = e^(2 pi i k2 j / n),
        and the grid, Re sum_k u w = Re u Re w - Im u Im w, is one real
        (n x 2 modes) @ (2 modes x n) product.  k i is reduced mod n first:
        every phase lies in [0, 2 pi).
        """
        k = np.array(list(self.averaged.coeffs), dtype=np.int64).reshape(-1, 2)
        c = np.array(list(self.averaged.coeffs.values()), dtype=complex)
        phase = (TWO_PI / n) * (k[:, :, None] * np.arange(n) % n)
        u = c[:, None] * np.exp(1j * phase[:, 0])
        w = np.exp(1j * phase[:, 1])
        return (np.concatenate([u.real, u.imag]).T
                @ np.concatenate([w.real, -w.imag]))

    def is_flat(self):
        """True when the averaged potential is constant to working precision
        (for the cosine example with beta = 1 this happens at every J0 zero,
        where both damping factors vanish together)."""
        return self.l1 <= 1e-12 * max(self.potential.coeff_l1, 1e-300)

    def one_dimensional_direction(self):
        """Primitive winding direction if vbar depends on one coordinate only.

        Returns the lattice-integer direction of the level lines, or None.
        Happens for the cosine example whenever a J0 factor vanishes.
        """
        ks = [k for k, c in self.averaged.coeffs.items()
              if k != (0, 0) and abs(c) > 1e-9 * max(self.l1, 1e-300)]
        if not ks:
            return None  # constant: fully degenerate
        k0 = ks[0]
        for k in ks[1:]:
            if k[0] * k0[1] - k[1] * k0[0] != 0:
                return None
        g = math.gcd(abs(k0[0]), abs(k0[1]))
        k0 = (k0[0] // g, k0[1] // g)
        d = (-k0[1], k0[0])
        if d[0] < 0 or (d[0] == 0 and d[1] < 0):
            d = (-d[0], -d[1])
        return d


def _mode_terms(modes, y1, y2):
    """Per mode (g1, g2, re, im) at arrays of points: (g1, g2,
    re cos - im sin, -2 (re sin + im cos)) of the phase g1 y1 + g2 y2;
    re and im are numbers or arrays over the points."""
    for g1, g2, re, im in modes:
        ph = g1 * y1 + g2 * y2
        c, s = np.cos(ph), np.sin(ph)
        yield g1, g2, re * c - im * s, -2.0 * (re * s + im * c)


def drift_field(p: FourierPotential, eps: float, i1: float, y):
    """Slow drift velocity J grad_y of the averaged Hamiltonian."""
    model = DriftModel(p, eps, i1)
    d1, d2 = model.grad(float(y[0]), float(y[1]))
    return np.array([-eps * d2, eps * d1])


# ----------------------------------------------------------------------
# Critical points
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalPoint:
    y: tuple
    kind: str            # "minimum" | "maximum" | "saddle"
    value: float         # averaged energy I1 + eps*vbar
    level: float         # vbar value
    hess_det: float
    degenerate: bool


@dataclass
class CriticalPointSet:
    points: list
    complete: bool

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def by_kind(self, kind):
        return [c for c in self.points if c.kind == kind]


def find_critical_points(p: FourierPotential, eps: float,
                         i1: float) -> CriticalPointSet:
    """All critical points of the averaged Hamiltonian in one cell.

    Newton iteration on grad(vbar) from a 32 x 32 lattice grid,
    deduplicated modulo the lattice and classified by the Hessian.
    """
    return _critical_points_of_model([DriftModel(p, eps, i1)])[0]


_NEWTON_LANES = 4096  # Newton lanes of one pass: 16 slices of 16 x 16 seeds


def _critical_points_of_model(models, seeds: int = 32):
    """The critical points of each model of a list, from seeds x seeds
    Newton lanes per model in row-major seed order.

    Every critical-point search of the package, of one model or of a scan's
    slices, is one call of this function (perfbench times it as
    classical.find_critical_points).  Models with the same lattice and wave
    vectors (the I1 slices of one potential) run as one elementwise pass
    over up to _NEWTON_LANES lanes, with per-lane mode amplitudes and
    scales.  A lane stops when hypot(grad) <= 1e-12 grad_scale or when its
    Hessian is singular, after at most 40 steps of at most 0.35 cell
    widths.  Every operation is the single-model one, elementwise, so each
    set is what its model gives alone.
    """
    out = [None] * len(models)
    groups = {}
    for m, model in enumerate(models):
        key = (model.lattice, tuple((g1, g2) for g1, g2, _, _ in model.modes))
        groups.setdefault(key, []).append(m)
    per_pass = max(1, _NEWTON_LANES // (seeds * seeds))
    for members in groups.values():
        for first in range(0, len(members), per_pass):
            chunk = members[first:first + per_pass]
            _newton_pass([models[m] for m in chunk], seeds, out, chunk)
    return out


def _newton_pass(models, seeds, out, slots):
    lat = models[0].lattice
    cap = 0.35 * min(TWO_PI, lat.a22)
    g12 = [(g1, g2) for g1, g2, _, _ in models[0].modes]
    n = seeds * seeds
    # lanes ordered by model, then seed; amplitudes re, im (modes, lanes)
    amps = np.array([[m[2:] for m in model.modes] for model in models])
    re, im = np.repeat(amps.reshape(len(models), len(g12), 2), n,
                       axis=0).transpose(2, 1, 0)
    gscale = np.repeat([max(model.grad_scale, 1e-300) for model in models], n)
    hscale = np.repeat([max(model.hess_scale, 1e-300) for model in models], n)
    s = (np.arange(seeds) + 0.5) / seeds
    st = np.stack(np.meshgrid(s, s, indexing="ij"), axis=-1).reshape(-1, 2)
    y = np.tile(lat.to_cartesian(st), (len(models), 1))
    y1, y2 = y[:, 0].copy(), y[:, 1].copy()
    ok = np.zeros(len(y1), dtype=bool)
    live = np.arange(len(y1))
    for _ in range(40):
        y1l, y2l = y1[live], y2[live]
        d1, d2, h11, h12, h22 = np.zeros((5, len(live)))
        # summed mode by mode in the order of the scalar methods
        modes = [(g1, g2, rej, imj) for (g1, g2), rej, imj in zip(g12, re, im)]
        for g1, g2, part, w in _mode_terms(modes, y1l, y2l):
            d1 += g1 * w
            d2 += g2 * w
            w = -2.0 * part
            h11 += g1 * g1 * w
            h12 += g1 * g2 * w
            h22 += g2 * g2 * w
        done = np.hypot(d1, d2) <= 1e-12 * gscale
        ok[live[done]] = True
        det = h11 * h22 - h12 * h12
        # a lane stops when it converges or its Hessian is singular
        go = ~done & (np.abs(det) >= 1e-13 * hscale * hscale)
        live, d1, d2, det = live[go], d1[go], d2[go], det[go]
        h11, h12, h22 = h11[go], h12[go], h22[go]
        re, im, gscale, hscale = re[:, go], im[:, go], gscale[go], hscale[go]
        if not live.size:
            break
        dy1 = (h22 * d1 - h12 * d2) / det
        dy2 = (h11 * d2 - h12 * d1) / det
        big = np.hypot(dy1, dy2) > cap
        if big.any():
            # the step length from math.hypot, as in the scalar search:
            # np.hypot can round the last bit differently
            step = np.array([math.hypot(a, b) for a, b in
                             zip(dy1[big].tolist(), dy2[big].tolist())])
            dy1[big] *= cap / step
            dy2[big] *= cap / step
        y1[live] -= dy1
        y2[live] -= dy2
    for j, (model, slot) in enumerate(zip(models, slots)):
        lanes = slice(j * n, (j + 1) * n)
        out[slot] = _deduplicated(model, y1[lanes], y2[lanes], ok[lanes],
                                  seeds)


def _deduplicated(model, y1, y2, ok, seeds):
    """The critical point set of one model from its Newton lanes: the
    converged ends modulo the lattice, near-duplicates collapsed, each
    classified by its Hessian."""
    lat = model.lattice
    hscale = max(model.hess_scale, 1e-300)
    conv = np.nonzero(ok)[0]
    st = lat.to_lattice(np.stack([y1[conv], y2[conv]], axis=-1)) % 1.0
    keys = (np.rint(st * 1e7) % 1e7).astype(np.int64)
    _, first = np.unique(keys[:, 0] * 10**7 + keys[:, 1], return_index=True)
    found = {}
    for k in np.sort(first).tolist():
        key = (int(keys[k, 0]), int(keys[k, 1]))
        # collapse near-duplicates that straddle the rounding boundary
        dup = False
        for k2 in found:
            ds = min(abs(key[0] - k2[0]), 1e7 - abs(key[0] - k2[0]))
            dt = min(abs(key[1] - k2[1]), 1e7 - abs(key[1] - k2[1]))
            if ds < 1e3 and dt < 1e3:
                dup = True
                break
        if dup:
            continue
        yy = lat.to_cartesian(st[k])
        h11, h12, h22 = model.hessian(yy[0], yy[1])
        det = h11 * h22 - h12 * h12
        if det > 0.0:
            kind = "minimum" if h11 + h22 > 0.0 else "maximum"
        else:
            kind = "saddle"
        lev = model.vbar(yy[0], yy[1])
        found[key] = CriticalPoint(
            y=(float(yy[0]), float(yy[1])), kind=kind,
            value=model.i1 + model.eps * lev, level=lev,
            hess_det=det, degenerate=abs(det) < 1e-8 * hscale * hscale)
    points = sorted(found.values(), key=lambda c: (c.level, c.y))
    return CriticalPointSet(points=points,
                            complete=len(conv) > seeds * seeds // 2)


# ----------------------------------------------------------------------
# Level-set tracing (marching squares on the torus + Newton refinement)
# ----------------------------------------------------------------------

@dataclass
class LevelSetComponent:
    points: np.ndarray       # unwrapped polyline in plane coordinates
    winding: tuple           # integer lattice winding (d1, d2)
    energy: float            # averaged energy of the level
    level: float             # vbar value

    @property
    def contractible(self):
        return self.winding == (0, 0)

    def closure_defect(self, lattice):
        shift = self.winding[0] * lattice.a1 + self.winding[1] * lattice.a2
        return float(np.max(np.abs(self.points[-1] - self.points[0] - shift)))


# case index from corner signs (bit set when corner > 0), corners ordered
# (i,j), (i+1,j), (i+1,j+1), (i,j+1); edges 0=bottom 1=right 2=top 3=left;
# each entry lists the (edge_in, edge_out) pairs of the case, oriented so
# that the corners above the level lie on the right of the segment: it runs
# along the drift J grad(vbar).  The saddle cases 5 and 10 are listed with
# the cell center above the level; with the center below, the two exits
# swap.
_MS_SEGMENTS = (
    (), ((3, 0),), ((0, 1),), ((3, 1),), ((1, 2),), ((3, 0), (1, 2)),
    ((0, 2),), ((3, 2),), ((2, 3),), ((2, 0),), ((0, 1), (2, 3)),
    ((2, 1),), ((1, 3),), ((1, 0),), ((0, 3),), (),
)
_MS_COUNT = np.array([len(pairs) for pairs in _MS_SEGMENTS])
_MS_SIDES = np.array([(pairs + ((0, 0), (0, 0)))[:2]
                      for pairs in _MS_SEGMENTS])  # (case, pair, in/out)
# side s of cell (i, j) is the grid edge from corner (i + di, j + dj) along
# axis 0 (i) or 1 (j): rows (axis, di, dj) for bottom, right, top, left
_MS_EDGES = np.array([(0, 0, 0), (1, 1, 0), (0, 0, 1), (1, 0, 0)])


def trace_level_set(p: FourierPotential, eps: float, i1: float, g: float,
                    grid: int = 256):
    """Connected components of {averaged energy = g} on the torus.

    Each component is a polyline oriented along the drift J grad(vbar),
    with an integer winding vector; winding (0, 0) iff the component is
    contractible.
    """
    model = DriftModel(p, eps, i1)
    lev = model.level_of(g)
    cps = _critical_points_of_model([model])[0]
    levels = [c.level for c in cps]
    if levels:
        spread = max(levels) - min(levels)
        guard = max(1e-12, 1e-9 * max(spread, 1e-12))
        if lev <= min(levels) or lev >= max(levels):
            raise DomainError("level outside the classical range")
        if any(abs(lev - lv) < guard for lv in levels):
            raise SeparatrixProximityError(
                f"level {lev} is within {guard} of a critical level")
    return _trace_components(model, model.grid_vbar(grid), lev)


def _level_segments(model: DriftModel, v: np.ndarray, lev: float):
    """Marching-squares segments of {vbar = lev} on the periodic grid v
    (model.grid_vbar(n), n = v.shape[0]).

    Returns arrays (e_in, e_out, p_in, p_out), one row per segment: crossed
    cells in row-major order, a saddle cell's two segments in table order.
    vbar > lev lies on the right of every segment, so each runs along the
    drift J grad(vbar) (the lattice map keeps the orientation, a22 > 0), and
    every crossed edge is the exit of exactly one segment and the entry of
    exactly one other.  Edge ids are wrapped: i*n + j for the bottom edge of
    cell (i, j), n*n + i*n + j for its left edge.  Points are cell-local
    (unwrapped) lattice coordinates.
    """
    lat = model.lattice
    n = v.shape[0]
    v = v - lev
    if np.any(v == 0.0):
        v = v + 1e-13 * max(model.l1, 1.0)
    # case bits from corners (i,j), (i+1,j), (i+1,j+1), (i,j+1) of each cell
    pos = np.pad(v > 0.0, ((0, 1), (0, 1)), mode="wrap").astype(np.int8)
    case = (pos[:-1, :-1] | pos[1:, :-1] << 1 | pos[1:, 1:] << 2
            | pos[:-1, 1:] << 3)
    ci, cj = np.nonzero((case > 0) & (case < 15))
    idx = case[ci, cj]
    # saddle cells split against the center sample
    below = np.zeros(len(ci), dtype=bool)
    for c in np.nonzero((idx == 5) | (idx == 10))[0].tolist():
        center = lat.to_cartesian(np.array([(int(ci[c]) + 0.5) / n,
                                            (int(cj[c]) + 0.5) / n]))
        below[c] = not model.vbar(center[0], center[1]) - lev > 0.0
    cell = np.repeat(np.arange(len(ci)), _MS_COUNT[idx])
    pair = np.zeros(len(cell), dtype=np.int64)
    pair[1:] = cell[1:] == cell[:-1]
    sides = np.stack([_MS_SIDES[idx[cell], pair, 0],
                      _MS_SIDES[idx[cell], pair ^ below[cell], 1]])
    # entry (row 0) and exit (row 1) edge of every segment, crossed at the
    # fraction f from its start corner (a1, a2)
    axis, di, dj = np.moveaxis(_MS_EDGES[sides], -1, 0)
    a1, a2 = ci[cell] + di, cj[cell] + dj
    w1, w2 = a1 % n, a2 % n
    va = v[w1, w2]
    f = va / (va - v[(w1 + 1 - axis) % n, (w2 + axis) % n])
    e = axis * n * n + w1 * n + w2
    p = np.stack([a1 + f * (1 - axis), a2 + f * axis], axis=-1) / n
    return e[0], e[1], p[0], p[1]


def _trace_components(model: DriftModel, v: np.ndarray, lev: float):
    lat = model.lattice
    e_in, e_out, p_in, p_out = _level_segments(model, v, lev)
    # succ[k]: the segment entered through the exit edge of segment k
    order = np.argsort(e_in)
    succ = order[np.searchsorted(e_in, e_out, sorter=order)].tolist()
    used = [False] * len(succ)
    chains = []
    for start in range(len(succ)):
        if used[start]:
            continue
        cycle = [start]
        used[start] = True
        sid = succ[start]
        while sid != start:
            cycle.append(sid)
            used[sid] = True
            sid = succ[sid]
        # unwrap onto the covering plane: consecutive segments meet on one
        # edge, whose cell-local coordinates differ by an integer shift
        pin, pout = p_in[cycle], p_out[cycle]
        off = np.zeros_like(pin)
        off[1:] = np.cumsum(np.round(pout[:-1] - pin[1:]), axis=0)
        chains.append(np.concatenate([pin + off, pout[-1:] + off[-1]]))
    if not chains:
        return []
    # refinement is pointwise: one call for every component
    ys = _refine_polyline(model, lat.to_cartesian(np.concatenate(chains)),
                          lev)
    ends = np.cumsum([len(st) for st in chains])[:-1]
    components = []
    for st, pts in zip(chains, np.split(ys, ends)):
        winding = np.round(st[-1] - st[0]).astype(int)
        components.append(LevelSetComponent(
            points=pts, winding=(int(winding[0]), int(winding[1])),
            energy=model.i1 + model.eps * lev, level=lev))
    components.sort(key=lambda c: (c.winding, float(c.points[0, 0])))
    return components


def _refine_polyline(model, ys, lev):
    out = ys.copy()
    for _ in range(4):
        vb, (d1, d2) = model.value_grad(out[:, 0], out[:, 1])
        n2 = d1 * d1 + d2 * d2
        k = n2 >= 1e-30  # points on a flat patch stay where they are
        r = vb[k] - lev
        out[k, 0] -= r * d1[k] / n2[k]
        out[k, 1] -= r * d2[k] / n2[k]
    return out


# ----------------------------------------------------------------------
# Single-orbit integration (closure, winding, period, swept area)
# ----------------------------------------------------------------------

@dataclass
class OrbitResult:
    closed: bool
    period: float = math.nan      # in reduced time (field J grad vbar)
    winding: tuple = (0, 0)       # lattice shift, target -> end point
    area: float = math.nan        # int y1 dy2, seed -> end point
    end_point: tuple | None = None


_CLOSURE_TOL = Tolerance(1e-15, 1e-15, 200)  # in the step fraction theta
_STEP_BUDGET = 2_000_000  # attempted steps of one batch, as integrate_ode
_RESUMES = 64             # closure candidates per orbit


def orbit_lanes(model: DriftModel, y0s, tol: Tolerance = None,
                t_cap: float | None = None, targets=None) -> list:
    """Integrate the reduced drift field from each seed until it reaches
    its target on the torus: the seed itself (one closure, the default) or
    another point of the same level set (an arc).

    The orbits ("lanes") advance together, one DOP853 attempt (Dormand and
    Prince's 8(5,3) pair, numerics.dop853_lane_step) per iteration on
    arrays of shape (3, lanes) holding (y1, y2, swept area); each lane
    keeps its own step size (at most 0.1 cell diameters at its initial
    speed), FSAL stage, section value and time cap (default 400 cell
    diameters at that speed), and leaves the batch when it closes or fails.
    Each lane's section is the line through its target normal to the drift
    there.  Candidate closures (section crossings near a wrapped copy of
    the target) are located by Brent's method on the crossing step's
    7th-order dense output, whose three extra stages are evaluated for all
    crossing lanes of a step at once, and accepted only when the torus
    distance to the target really vanishes, so near-misses of other
    lattice copies do not truncate the orbit; after a false alarm the lane
    restarts from the end of that step.  Every array operation is
    elementwise over lanes, so a lane's result does not depend on the rest
    of the batch.  Returns one OrbitResult per seed, whose winding is the
    lattice shift from the target to the end point and whose area is swept
    from the seed; ``closed=False`` for a fixed point (at the seed or the
    target), a step underflow, the time cap or a failed closure search.
    """
    tol = tol or Tolerance(3e-14, 3e-14, 400)
    seeds = [(float(y[0]), float(y[1])) for y in y0s]
    ends = seeds if targets is None else [(float(y[0]), float(y[1]))
                                          for y in targets]
    out = [OrbitResult(closed=False) for _ in seeds]
    a21, a22 = model.lattice.a21, model.lattice.a22
    cell_diam = math.hypot(TWO_PI + abs(a21), a22)
    # mode columns for (modes, lanes) arrays: phase weights -2 re and -2 im,
    # and J G = (-g2, g1) per mode
    g1, g2, re2, im2 = (np.array([[m[j] * (1.0 if j < 2 else -2.0)]
                                  for m in model.modes]) for j in range(4))
    jg = np.stack((-g2, g1), axis=1)  # (modes, 2, 1)

    def field(y, out):
        y1, y2, _ = y
        ph = g1 * y1 + g2 * y2
        w = re2 * np.sin(ph) + im2 * np.cos(ph)
        v = jg * w[:, None, :]
        out[:2] = v[0]
        for vj in v[1:]:  # modes summed in order
            np.add(out[:2], vj, out=out[:2])
        np.multiply(y1, out[1], out=out[2])  # dA = y1 * dy2/dt

    # per lane: the target in lattice coordinates, the unit section normal
    # (velocity at the target in lattice coordinates), time cap, first step
    rows = []
    for lane, ((y1, y2), (x1, x2)) in enumerate(zip(seeds, ends)):
        d1, d2 = model.grad(y1, y2)
        speed = math.hypot(d2, d1)
        d1, d2 = model.grad(x1, x2)  # the drift at the target
        if (speed == 0.0 or (d1 == 0.0 and d2 == 0.0)
                or (t_cap is not None and not t_cap > 0.0)):
            continue
        n1, n2 = (-d2 - a21 * d1 / a22) / TWO_PI, d1 / a22
        norm = math.hypot(n1, n2)
        t0 = x2 / a22
        rows.append((lane, y1, y2, (x1 - a21 * t0) / TWO_PI, t0, n1 / norm,
                     n2 / norm, 400.0 * cell_diam / speed
                     if t_cap is None else t_cap, 0.01 * cell_diam / speed))
    if not rows:
        return out
    cols = [np.array(c) for c in zip(*rows)]
    idx, s0, t0, n1, n2, cap, h0 = (cols[0], *cols[3:])
    y = np.stack((cols[1], cols[2], np.zeros(len(idx))))
    k1 = np.empty_like(y)
    field(y, k1)
    t = np.zeros(len(idx))
    t_base = np.zeros(len(idx))
    t_end = cap.copy()
    h = np.minimum(h0, t_end)
    min_step = t_end * 1e-14 + 1e-300
    resumes = np.zeros(len(idx), dtype=int)

    def section(y1, y2, s0, t0, n1, n2):
        t = y2 / a22
        ws = (y1 - a21 * t) / TWO_PI - s0
        wt = t - t0
        ws = ws - np.rint(ws)
        wt = wt - np.rint(wt)
        return n1 * ws + n2 * wt, np.maximum(np.abs(ws), np.abs(wt))

    last_sg, last_w = section(y[0], y[1], s0, t0, n1, n2)

    def closure(i, ya, yb, coeffs, sg_b):
        """(theta, state, torus distance) of the section crossing on lane
        i's step, found on its dense output; None if the search fails."""
        s0i, t0i, n1i, n2i = (float(a[i]) for a in (s0, t0, n1, n2))

        def sigma(yv):
            tt = yv[1] / a22
            ws = (yv[0] - a21 * tt) / TWO_PI - s0i
            wt = tt - t0i
            ws -= round(ws)
            wt -= round(wt)
            return n1i * ws + n2i * wt, max(abs(ws), abs(wt))

        dense = dop853_dense(ya, coeffs)
        try:
            theta = find_root(
                lambda th: sg_b if th >= 1.0 else sigma(dense(th))[0],
                0.0, 1.0, _CLOSURE_TOL)
        except NumericsError:
            return None
        s_end = yb if theta >= 1.0 else dense(theta)
        return theta, s_end, sigma(s_end)[1]

    for _ in range(_STEP_BUDGET):
        if not len(idx):
            break
        rem = t_end - t
        h = np.where(h > rem, rem, h)
        k = np.empty((D8_STAGES,) + y.shape)
        k[0] = k1
        y8, enorm = dop853_lane_step(field, y, h, k, tol)
        ok = enorm <= 1.0
        tb = t + h
        sg1, w1 = section(y8[0], y8[1], s0, t0, n1, n2)
        hit = (ok & (t_base + t > 0.0) & (last_sg < 0.0) & (sg1 >= 0.0)
               & (np.minimum(last_w, w1) < 0.2))
        hits = np.flatnonzero(hit)
        if hits.size:
            # dense output of every crossing step at once, then one scalar
            # closure search per lane
            coeffs = dop853_dense_coeffs(field, y[:, hits], y8[:, hits],
                                         h[hits], k[:, :, hits])
            coeffs = coeffs.transpose(2, 0, 1).tolist()
            starts, ends = y[:, hits].T.tolist(), y8[:, hits].T.tolist()
        t_prev = t
        y = np.where(ok, y8, y)
        k1 = np.where(ok, k[12], k1)
        t = np.where(ok, tb, t)
        last_sg = np.where(ok, sg1, last_sg)
        last_w = np.where(ok, w1, last_w)
        # capped at 10 first steps: on straight drift lines the error
        # estimate is 0, and an unbounded step would jump over the closure
        h = np.minimum(h * dop853_step_factor(enorm), 10.0 * h0)
        # a lane at its time cap or below its smallest step has failed
        drop = ((t >= t_end) | (h < min_step)) & ~hit
        for j, i in enumerate(hits.tolist()):
            ta, tb_i = float(t_prev[i]), float(tb[i])
            found = closure(i, starts[j], ends[j], coeffs[j], float(sg1[i]))
            if found is None:
                drop[i] = True
                continue
            theta, s_end, w_end = found
            if w_end < 1e-6:
                s_end_l = (s_end[0] - a21 * (s_end[1] / a22)) / TWO_PI
                out[idx[i]] = OrbitResult(
                    closed=True,
                    period=float(t_base[i]) + ta + theta * (tb_i - ta),
                    winding=(round(s_end_l - float(s0[i])),
                             round(s_end[1] / a22 - float(t0[i]))),
                    area=s_end[2], end_point=(s_end[0], s_end[1]))
                drop[i] = True
                continue
            # false alarm: restart from the end of the triggering step
            t_base[i] += tb_i
            resumes[i] += 1
            if t_base[i] >= cap[i] or resumes[i] >= _RESUMES:
                drop[i] = True
                continue
            t[i] = 0.0
            t_end[i] = cap[i] - t_base[i]
            h[i] = min(h0[i], t_end[i])
            min_step[i] = t_end[i] * 1e-14 + 1e-300
        if drop.any():
            keep = ~drop
            idx, s0, t0, n1, n2, cap, h0 = (a[keep] for a in (
                idx, s0, t0, n1, n2, cap, h0))
            t, t_base, t_end, h, min_step, resumes, last_sg, last_w = (
                a[keep] for a in (t, t_base, t_end, h, min_step, resumes,
                                  last_sg, last_w))
            y, k1 = y[:, keep], k1[:, keep]
    return out


def _orbit_once(model: DriftModel, y0, tol: Tolerance = None) -> OrbitResult:
    """One orbit through orbit_lanes, as a batch of one lane."""
    return orbit_lanes(model, [y0], tol)[0]


@dataclass
class TrajectoryClass:
    kind: str                    # "fixed_point" | "closed" | "near_separatrix"
    winding: tuple | None = None
    period: float | None = None


def classify_trajectory(p: FourierPotential, eps: float, i1: float,
                        y0) -> TrajectoryClass:
    """Integrate the drift system from y0 and classify the motion."""
    model = DriftModel(p, eps, i1)
    d1, d2 = model.grad(float(y0[0]), float(y0[1]))
    if eps == 0.0 or math.hypot(d1, d2) * eps <= 1e-10:
        return TrajectoryClass(kind="fixed_point")
    orbit = _orbit_once(model, y0, Tolerance(3e-14, 3e-14, 400))
    if not orbit.closed:
        return TrajectoryClass(kind="near_separatrix")
    return TrajectoryClass(kind="closed", winding=orbit.winding,
                           period=orbit.period / eps)


# ----------------------------------------------------------------------
# Reeb graph
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DriftData:
    d: tuple
    f: tuple | None = None

    def __post_init__(self):
        if self.d != (0, 0):
            if self.f is None:
                object.__setattr__(self, "f", conjugate_vector(self.d))
            di, fi = self.d, self.f
            if di[0] * fi[0] + di[1] * fi[1] != 1:
                raise DomainError("f is not conjugate to d")


def conjugate_vector(d):
    """Integer f with d1 f1 + d2 f2 = 1 (extended Euclid)."""
    d1, d2 = d
    g, x, y = _egcd(d1, d2)
    if g != 1:
        raise DomainError("winding vector is not primitive")
    return (x, y)


def _egcd(a, b):
    if b == 0:
        return (abs(a), int(math.copysign(1, a)) if a else 0, 0)
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y


def lexicographic_positive(d):
    if d[0] > 0 or (d[0] == 0 and d[1] > 0):
        return d
    return (-d[0], -d[1])


@dataclass
class ReebEdge:
    id: str                      # "i1" | "i2" | "i3" | "i4"
    energy_range: tuple          # (g_lo, g_hi) in averaged-energy units
    contractible: bool
    drift: DriftData


@dataclass
class ReebGraph:
    kind: str     # "simple" | "equal_saddles" | "one_dimensional" | "flat"
    i1: float
    eps: float
    vertices: list               # (kind, averaged energy) pairs
    edges: list                  # ReebEdge
    critical_points: CriticalPointSet | None = None

    def edge(self, edge_id):
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise KeyError(edge_id)

    @property
    def g_min(self):
        return min(v[1] for v in self.vertices)

    @property
    def g_max(self):
        return max(v[1] for v in self.vertices)

    def saddle_energies(self):
        vals = sorted(v[1] for v in self.vertices if v[0] == "saddle")
        return tuple(vals)


def build_reeb_graph(p: FourierPotential, eps: float,
                     i1: float) -> ReebGraph:
    """Level-set topology of the averaged Hamiltonian at fixed I1."""
    model = DriftModel(p, eps, i1)
    graph = _degenerate_graph(model)
    if graph is not None:
        return graph
    cps = _critical_points_of_model([model])[0]
    mins = cps.by_kind("minimum")
    maxs = cps.by_kind("maximum")
    sads = cps.by_kind("saddle")
    if not cps.complete:
        raise UnsupportedTopologyError(
            "Newton converged from fewer than half of the 32x32 seeds; "
            f"the {len(mins)} minima, {len(sads)} saddles and "
            f"{len(maxs)} maxima found may be incomplete", points=list(cps))
    if len(cps) != 4 or len(mins) != 1 or len(maxs) != 1 or len(sads) != 2:
        raise UnsupportedTopologyError(
            f"not a minimal Morse function: {len(mins)} minima, "
            f"{len(maxs)} maxima, {len(sads)} saddles", points=list(cps))
    g_min = mins[0].value
    g_max = maxs[0].value
    g_lo, g_hi = sorted(s.value for s in sads)
    vertices = [("minimum", g_min), ("saddle", g_lo), ("saddle", g_hi),
                ("maximum", g_max)]
    spread = max(g_max - g_min, 1e-300)
    deg_tol = max(1e-9 * spread, 1e-14)
    if g_hi - g_lo < deg_tol:
        edges = [
            ReebEdge("i1", (g_min, g_lo), True, DriftData((0, 0))),
            ReebEdge("i4", (g_hi, g_max), True, DriftData((0, 0))),
        ]
        return ReebGraph("equal_saddles", i1, eps, vertices, edges, cps)
    # sample one level per edge for contractibility and drift
    probe = {
        "i1": g_min + 0.5 * (g_lo - g_min),
        "i4": g_hi + 0.5 * (g_max - g_hi),
        "mid": 0.5 * (g_lo + g_hi),
    }
    v = model.grid_vbar(192)
    comps_mid = _trace_components(model, v, model.level_of(probe["mid"]))
    open_comps = [c for c in comps_mid if not c.contractible]
    if len(open_comps) != 2:
        raise UnsupportedTopologyError(
            f"expected two open components between the saddles, "
            f"got {len(open_comps)}")
    d_plus = lexicographic_positive(open_comps[0].winding)
    drift = DriftData(d_plus)
    drift_neg = DriftData((-d_plus[0], -d_plus[1]),
                          (-drift.f[0], -drift.f[1]))
    edges = [
        ReebEdge("i1", (g_min, g_lo), True, DriftData((0, 0))),
        ReebEdge("i2", (g_lo, g_hi), False, drift),
        ReebEdge("i3", (g_lo, g_hi), False, drift_neg),
        ReebEdge("i4", (g_hi, g_max), True, DriftData((0, 0))),
    ]
    for eid in ("i1", "i4"):
        comps = _trace_components(model, v, model.level_of(probe[eid]))
        if len(comps) != 1 or not comps[0].contractible:
            raise UnsupportedTopologyError(
                f"edge {eid} level has unexpected structure")
    return ReebGraph("simple", i1, eps, vertices, edges, cps)


def _degenerate_graph(model: DriftModel):
    """The Reeb graph of a flat or one-dimensional slice, else None.

    A one-dimensional vbar depends on the phase k.s only (k the primitive
    wave vector, s lattice coordinates); 512 steps along a lattice vector v
    with k.v = 1 hit the phases m/512, as a 512 x 512 grid of the cell does.
    """
    if model.is_flat():
        g0 = model.i1 + model.eps * model.mean
        return ReebGraph("flat", model.i1, model.eps,
                         [("minimum", g0), ("maximum", g0)], [], None)
    direction = model.one_dimensional_direction()
    if direction is None:
        return None
    d = lexicographic_positive(direction)
    drift = DriftData(d)
    drift_neg = DriftData((-d[0], -d[1]), (-drift.f[0], -drift.f[1]))
    # k = (d2, -d1), so v = (f2, -f1) has k.v = d.f = 1
    st = np.outer(np.arange(512) / 512, (drift.f[1], -drift.f[0]))
    vbar = model.averaged.value(model.lattice.to_cartesian(st))
    g_min = model.i1 + model.eps * float(vbar.min())
    g_max = model.i1 + model.eps * float(vbar.max())
    vertices = [("minimum", g_min), ("maximum", g_max)]
    edges = [ReebEdge("i2", (g_min, g_max), False, drift),
             ReebEdge("i3", (g_min, g_max), False, drift_neg)]
    return ReebGraph("one_dimensional", model.i1, model.eps, vertices, edges,
                     None)


# ----------------------------------------------------------------------
# Critical cyclotron actions and the regime decomposition
# ----------------------------------------------------------------------

@dataclass
class CriticalSeries:
    saddle_collision: list       # equal saddle values (complex Morse)
    separable: list              # averaged potential collapses to 1D
    merged: list                 # values present in both series
    continuum: bool = False      # every I1 degenerate (e.g. A=B, beta=1)


def _is_cosine_like(p: FourierPotential):
    keys = set(p.coeffs) - {(0, 0)}
    if keys == {(1, 0), (-1, 0), (0, 1), (0, -1)}:
        A = 2.0 * p.coeffs[(1, 0)].real
        B = 2.0 * p.coeffs[(0, 1)].real
        if (abs(p.coeffs[(1, 0)].imag) < 1e-14
                and abs(p.coeffs[(0, 1)].imag) < 1e-14 and A > 0 and B > 0):
            beta = TWO_PI / p.lattice.a22
            return A, B, beta
    return None


def critical_i1_series(p: FourierPotential, eps: float,
                       i1_max: float) -> CriticalSeries:
    """Cyclotron actions where the drift topology degenerates."""
    if i1_max <= 0.0:
        raise DomainError("i1_max must be positive")
    cos_like = _is_cosine_like(p)
    if cos_like is not None:
        return _cosine_series(*cos_like, i1_max)
    return _generic_series(p, eps, i1_max)


def _cosine_series(A, B, beta, i1_max):
    separable = []
    k = 1
    while True:
        z = bessel_j0_zero(k)
        i1 = 0.5 * z * z
        if i1 > i1_max and (0.5 * (z / beta) ** 2) > i1_max:
            break
        if i1 <= i1_max:
            separable.append(i1)
        i1b = 0.5 * (z / beta) ** 2
        if i1b <= i1_max:
            separable.append(i1b)
        k += 1
        if k > 400:
            break
    separable = sorted(set(round(v, 14) for v in separable))

    def diff(i1):
        r = math.sqrt(2.0 * i1)
        return A * abs(bessel_j0(r)) - B * abs(bessel_j0(beta * r))

    xs = np.linspace(0.0, i1_max, _SERIES_GRID + 1)
    vals = [diff(float(x)) for x in xs]
    if max(abs(v) for v in vals) < 1e-12 * (A + B):
        return CriticalSeries([], separable, [], continuum=True)
    collisions = []
    for a, b, fa, fb in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            collisions.append(float(a))
        elif fa * fb < 0.0:
            collisions.append(find_root(diff, float(a), float(b),
                                        Tolerance(1e-13, 1e-13, 200)))
    # touching zeros (no sign change) happen when both Bessel factors
    # vanish together, i.e. exactly at the separable series
    for s in separable:
        if abs(diff(s)) < 1e-9 * (A + B):
            collisions.append(s)
    collisions = sorted(set(round(v, 12) for v in collisions))
    merged = [v for v in collisions
              if any(abs(v - s) < 1e-8 * (1 + abs(v)) for s in separable)]
    return CriticalSeries(saddle_collision=collisions, separable=separable,
                          merged=merged)


def _slices(p, eps, i1s):
    """The I1 slices of a scan: per I1, (its graph, None) if flat or
    one-dimensional, else (None, its critical points from 16 x 16 seeds);
    the seed searches of all slices run as batched Newton passes."""
    models = [DriftModel(p, eps, float(i1)) for i1 in i1s]
    out = [(_degenerate_graph(model), None) for model in models]
    todo = [j for j, (graph, _) in enumerate(out) if graph is None]
    sets = _critical_points_of_model([models[j] for j in todo],
                                     _SLICE_SEEDS)
    for j, cps in zip(todo, sets):
        out[j] = None, cps
    return out


def _saddle_gap(graph, cps):
    """(spread of the saddle levels, degenerate) of one slice: the spread
    is 0 on a degenerate slice and nan with fewer than two saddles."""
    if graph is not None:
        return 0.0, True
    sads = sorted(c.level for c in cps.by_kind("saddle"))
    return (sads[-1] - sads[0] if len(sads) >= 2 else math.nan), False


def _generic_series(p, eps, i1_max):
    def gap_at(i1):
        return _saddle_gap(*_slices(p, eps, [i1])[0])[0]

    xs = np.linspace(0.0, i1_max, _SERIES_GRID + 1)
    scan = [_saddle_gap(*sl) for sl in _slices(p, eps, xs)]
    tol = 1e-9 * max(p.coeff_l1, 1e-300)
    if all(degenerate or gap <= tol for gap, degenerate in scan):
        # the saddles are level (or the slice degenerate) at every I1: no
        # isolated collision
        return CriticalSeries([], [], [], continuum=True)
    gaps = [gap for gap, _ in scan]
    collisions = []
    for idx in range(1, _SERIES_GRID):
        g0, g1, g2 = gaps[idx - 1], gaps[idx], gaps[idx + 1]
        if g1 <= tol:
            collisions.append(float(xs[idx]))
        elif g1 < g0 and g1 < g2:
            # a transversal collision leaves a gap of up to slope * spacing
            # / 2 at its nearest node: the saddles meet at the refined minimum
            x, gap = _golden_min(gap_at, float(xs[idx - 1]),
                                 float(xs[idx + 1]))
            if gap <= tol:
                collisions.append(x)
    return CriticalSeries(saddle_collision=sorted(collisions), separable=[],
                          merged=[])


def _golden_min(f, a, b):
    """60 golden-section steps on [a, b] for a unimodal f: the sampled
    point with the least f, and that value."""
    c, d = b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


@dataclass
class Regime:
    id: str
    kind: str                    # "boundary" | "interior"
    reeb_edge: str
    i1_interval: tuple
    drift: DriftData
    delta: float = 0.0


@dataclass
class RegimeChart:
    regimes: list
    i1_grid: np.ndarray
    curves: dict                 # name -> energy samples over i1_grid
    series: CriticalSeries | None
    delta: float
    collapsed: bool = False      # eps == 0


def build_regimes(p: FourierPotential, eps: float, i1_max: float,
                  delta: float = 0.0, grid: int = 161) -> RegimeChart:
    """Decompose the (I1, E) half-plane into topologically uniform regimes."""
    if delta < 0.0:
        raise DomainError("delta must be non-negative")
    names = ("E_min", "E_lower_saddle", "E_upper_saddle", "E_max")
    i1s = np.linspace(0.0, i1_max, grid)
    if eps == 0.0:
        curves = {name: i1s.copy() for name in names}
        return RegimeChart([], i1s, curves, None, delta, collapsed=True)
    series = critical_i1_series(p, eps, i1_max)
    rows = []                    # the four curves' values at each I1
    for x, (graph, cps) in zip(i1s, _slices(p, eps, i1s)):
        if graph is not None:
            rows.append((graph.g_min, graph.g_min, graph.g_max, graph.g_max))
            continue
        mins = cps.by_kind("minimum")
        maxs = cps.by_kind("maximum")
        if not mins or not maxs:
            raise UnsupportedTopologyError(
                f"no {'minimum' if not mins else 'maximum'} found at "
                f"I1 = {float(x)}", points=list(cps))
        sads = sorted(c.value for c in cps.by_kind("saddle"))
        if len(sads) < 2:
            sads = [math.nan]
        rows.append((min(c.value for c in mins), sads[0], sads[-1],
                     max(c.value for c in maxs)))
    curves = {name: np.array([row[j] for row in rows])
              for j, name in enumerate(names)}

    points = sorted(set(series.saddle_collision) | set(series.separable))
    points = [v for v in points if 0.0 < v < i1_max]
    bounds = [0.0] + points + [i1_max]
    regimes = []
    for idx in range(len(bounds) - 1):
        a, b = bounds[idx], bounds[idx + 1]
        mid = 0.5 * (a + b)
        try:
            graph = build_reeb_graph(p, eps, mid)
        except UnsupportedTopologyError:
            continue
        for e in graph.edges:
            kind = "boundary" if e.contractible else "interior"
            regimes.append(Regime(
                id=f"{e.id}[{idx}]", kind=kind, reeb_edge=e.id,
                i1_interval=(a, b), drift=e.drift, delta=delta))
    return RegimeChart(regimes, i1s, curves, series, delta)


# ----------------------------------------------------------------------
# Almost-invariance diagnostic for the first-order average
# ----------------------------------------------------------------------

def lifted_hamiltonian_range(p: FourierPotential, eps: float, i1: float,
                             y_samples):
    """Oscillation of the original Hamiltonian along a lifted drift orbit.

    Lifting a guiding-center path back to phase space turns the original
    Hamiltonian into I1 + eps * v at the ring point, for any fast phase; a
    correct first-order average keeps the swing below 2 eps sum|v_k|.
    """
    r = math.sqrt(2.0 * i1)
    ys = np.asarray(y_samples, dtype=float)
    vals = []
    for phi in np.linspace(0.0, TWO_PI, 8, endpoint=False):
        x = np.stack([r * math.sin(phi) + ys[:, 0],
                      r * math.cos(phi) + ys[:, 1]], axis=-1)
        vals.append(i1 + eps * p.value(x))
    vals = np.concatenate(vals)
    return float(vals.min()), float(vals.max())

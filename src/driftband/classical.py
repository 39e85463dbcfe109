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
from functools import cached_property

import numpy as np

from .numerics import (DomainError, NumericsError, bessel_j0,
                       bessel_j0_array, bessel_j0_zero, find_root)
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

    def __init__(self, p: FourierPotential, eps: float, i1: float,
                 averaged: FourierPotential | None = None):
        """averaged is p.damped(i1) when the caller has it already (a scan
        damps all its slices in one pass)."""
        if eps < 0.0:
            raise DomainError("eps must be non-negative")
        self.potential = p
        self.eps = float(eps)
        self.i1 = float(i1)
        self.lattice = p.lattice
        self.averaged = p.damped(i1) if averaged is None else averaged
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
        for g1, g2, re, im in self.modes:
            ph = g1 * y1 + g2 * y2
            c, s = np.cos(ph), np.sin(ph)
            v += 2.0 * (re * c - im * s)
            w = -2.0 * (re * s + im * c)
            d1 += g1 * w
            d2 += g2 * w
        return v, (d1, d2)

    @cached_property
    def taylor_terms(self):
        """Mode columns (g1, g2, lin) of drift_taylor_coeffs: lin (2, modes,
        2 + modes, 1) maps each mode's (cos, -sin) of its phase to that
        mode's share of the reduced field (rows 0, 1) and of g.field for
        every phase (rows 2 ...)."""
        g1, g2, re, im = (np.array([[m[j]] for m in self.modes])
                          for j in range(4))
        jg = (-g2, g1)  # J G per mode
        rows = np.concatenate([*jg, jg[0] * g1.T + jg[1] * g2.T], axis=1)
        weights = np.stack((-2.0 * im, 2.0 * re))  # (2, modes, 1)
        return g1, g2, (weights * rows)[..., None]

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
    # per-mode weights as (rows, modes, 1) columns against (modes, lanes)
    # terms: (g1, g2) for the gradient, (g1 g1, g1 g2, g2 g2) for the
    # Hessian; every sum over modes runs along the modes axis, in mode order
    g1, g2 = (np.array([m[j] for m in models[0].modes]).reshape(-1, 1)
              for j in (0, 1))
    gd = np.stack([g1, g2])
    gh = np.stack([g1 * g1, g1 * g2, g2 * g2])
    n = seeds * seeds
    # per lane (ordered by model, then seed): -2 times the amplitudes
    # (re, im) of every mode, shape (2, modes, lanes) (a power of two
    # scales exactly), and the convergence and singularity thresholds
    amps = -2.0 * np.array([[m[2:] for m in model.modes] for model in models])
    amp = np.ascontiguousarray(np.repeat(
        amps.reshape(len(models), len(g1), 2), n, axis=0).transpose(2, 1, 0))
    tol = np.repeat([[1e-12 * max(model.grad_scale, 1e-300)
                      for model in models],
                     [1e-13 * max(model.hess_scale, 1e-300)
                      * max(model.hess_scale, 1e-300) for model in models]],
                    n, axis=1)
    s = (np.arange(seeds) + 0.5) / seeds
    st = np.stack(np.meshgrid(s, s, indexing="ij"), axis=-1).reshape(-1, 2)
    y = np.tile(lat.to_cartesian(st), (len(models), 1)).T.copy()
    ok = np.zeros(y.shape[1], dtype=bool)
    live = np.arange(y.shape[1])
    yl = y.copy()  # the live lanes; y keeps each converged lane's end
    for _ in range(40):
        ph = g1 * yl[0] + g2 * yl[1]
        c, s = np.cos(ph), np.sin(ph)
        re2, im2 = amp
        d = (gd * (re2 * s + im2 * c)).sum(axis=1)
        h = (gh * (re2 * c - im2 * s)).sum(axis=1)
        done = np.hypot(d[0], d[1]) <= tol[0]
        det = h[0] * h[2] - h[1] * h[1]
        # a lane stops when it converges or its Hessian is singular
        go = ~done & (np.abs(det) >= tol[1])
        if done.any():
            ok[live[done]] = True
            y[:, live[done]] = yl[:, done]
        if not go.all():
            live, yl, amp, tol = live[go], yl[:, go], amp[:, :, go], tol[:, go]
            d, h, det = d[:, go], h[:, go], det[go]
            if not live.size:
                break
        dy1 = (h[2] * d[0] - h[1] * d[1]) / det
        dy2 = (h[0] * d[1] - h[1] * d[0]) / det
        step = np.hypot(dy1, dy2)
        big = step > cap
        if big.any():
            dy1[big] *= cap / step[big]
            dy2[big] *= cap / step[big]
        yl[0] -= dy1
        yl[1] -= dy2
    for slot, cps in zip(slots, _deduplicated(models, y[0], y[1], ok, seeds)):
        out[slot] = cps


def _deduplicated(models, y1, y2, ok, seeds):
    """The critical point sets of a Newton pass's models from their lanes
    (seeds x seeds per model, in model order), in one pass over all of
    them: per model, the converged ends modulo the lattice, near-duplicates
    collapsed, each classified by its Hessian."""
    n = seeds * seeds
    lat = models[0].lattice
    conv = np.flatnonzero(ok)
    owner = conv // n
    st = lat.to_lattice(np.stack([y1[conv], y2[conv]], axis=-1)) % 1.0
    keys = (np.rint(st * 1e7) % 1e7).astype(np.int64)
    # the first lane of every (model, key), in lane order
    _, first = np.unique((owner * 10**7 + keys[:, 0]) * 10**7 + keys[:, 1],
                         return_index=True)
    first = np.sort(first)
    # collapse near-duplicates that straddle the rounding boundary: a key
    # within 1e3 (modulo 1e7) of an earlier kept key of its model goes
    m = owner[first]
    near = np.tril(m[:, None] == m[None, :], -1)
    for key in keys[first].T:
        gap = np.abs(key[:, None] - key[None, :])
        near &= np.minimum(gap, 10**7 - gap) < 10**3
    kept = ~near.any(axis=1)
    for i in np.flatnonzero(~kept).tolist():
        kept[i] = not (near[i] & kept).any()
    pick = first[kept]
    ys = lat.to_cartesian(st[pick]).tolist()
    points = [[] for _ in models]
    for j, (yy1, yy2) in zip(owner[pick].tolist(), ys):
        model = models[j]
        h11, h12, h22 = model.hessian(yy1, yy2)
        det = h11 * h22 - h12 * h12
        if det > 0.0:
            kind = "minimum" if h11 + h22 > 0.0 else "maximum"
        else:
            kind = "saddle"
        lev = model.vbar(yy1, yy2)
        hscale = max(model.hess_scale, 1e-300)
        points[j].append(CriticalPoint(
            y=(yy1, yy2), kind=kind, value=model.i1 + model.eps * lev,
            level=lev, hess_det=det,
            degenerate=abs(det) < 1e-8 * hscale * hscale))
    counts = np.bincount(owner, minlength=len(models)).tolist()
    return [CriticalPointSet(points=sorted(pts, key=lambda c: (c.level, c.y)),
                             complete=count > n // 2)
            for pts, count in zip(points, counts)]


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
# the (axis, di, dj) rows of the entry and exit sides of segment `pair` of
# a case, with the cell center above (0) or below (1) the level:
# (case, pair, below, in/out, row)
_MS_ROWS = np.array([[[_MS_EDGES[[_MS_SIDES[c, p, 0], _MS_SIDES[c, p ^ b, 1]]]
                       for b in (0, 1)] for p in (0, 1)] for c in range(16)])


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
    return _level_components(model, model.grid_vbar(grid), lev)


def _level_components(model: DriftModel, v: np.ndarray, lev: float):
    """The components of {vbar = lev} traced on the grid v, each chain
    refined onto the level set, sorted by winding and first point."""
    cycles = _trace_components(model, v, [lev])
    chains = cycles.chains()
    if not chains:
        return []
    # refinement is pointwise: one call for every component
    ys = _refine_polyline(
        model, model.lattice.to_cartesian(np.concatenate(chains)), lev)
    ends = np.cumsum([len(st) for st in chains])[:-1]
    components = [LevelSetComponent(points=pts, winding=winding,
                                    energy=model.i1 + model.eps * lev,
                                    level=lev)
                  for pts, winding in zip(np.split(ys, ends),
                                          cycles.windings(0))]
    components.sort(key=lambda c: (c.winding, float(c.points[0, 0])))
    return components


def _level_segments(model: DriftModel, v: np.ndarray, levels):
    """Marching-squares segments of {vbar = lev} for each level of a list,
    on the periodic grid v (model.grid_vbar(n), n = v.shape[0]), from one
    pass over the sign and case arrays of all levels.

    Returns arrays (e_in, e_out, p_in, p_out), one row per segment: by
    level, then crossed cells in row-major order, a saddle cell's two
    segments in table order.  vbar > lev lies on the right of every
    segment, so each runs along the drift J grad(vbar) (the lattice map
    keeps the orientation, a22 > 0), and every crossed edge is the exit of
    exactly one segment and the entry of exactly one other.  Edge ids are
    wrapped: k*2n*n + i*n + j for the bottom edge of cell (i, j) at level
    k, k*2n*n + n*n + i*n + j for its left edge.  Points are cell-local
    (unwrapped) lattice coordinates.
    """
    lat = model.lattice
    n = v.shape[0]
    levels = [float(lev) for lev in levels]
    m = n + 1
    # v - lev on the grid with a wrapped extra row and column; flattened,
    # the corners (i,j), (i+1,j), (i+1,j+1), (i,j+1) of cell (i, j) of
    # level k sit at q, q + m, q + m + 1 and q + 1 from q = (k m + i) m + j
    d = np.empty((len(levels), m, m))
    for k, lev in enumerate(levels):
        np.subtract(v, lev, out=d[k, :n, :n])
        if (v == lev).any():  # v - lev == 0 exactly where v == lev
            d[k, :n, :n] += 1e-13 * max(model.l1, 1.0)
    d[:, :n, n] = d[:, :n, 0]
    d[:, n] = d[:, 0]
    pos = d.ravel() > 0.0
    # a cell is crossed unless its four corners lie on one side (the last
    # row and column of the padded frame hold no cell)
    low = pos[:-m - 1]
    crossed = (low ^ pos[1:-m]) | (low ^ pos[m:-1]) | (low ^ pos[m + 1:])
    q = np.flatnonzero(crossed)
    ck, rest = np.divmod(q, m * m)
    ci, cj = np.divmod(rest, m)
    inner = (ci < n) & (cj < n)
    q, ck, ci, cj = q[inner], ck[inner], ci[inner], cj[inner]
    # case bits from the corners
    bit = pos.view(np.int8)
    idx = bit[q] | bit[q + m] << 1 | bit[q + m + 1] << 2 | bit[q + 1] << 3
    # saddle cells split against the center sample
    below = np.zeros(len(ci), dtype=np.int64)
    for c in np.flatnonzero((idx == 5) | (idx == 10)).tolist():
        center = lat.to_cartesian(np.array([(int(ci[c]) + 0.5) / n,
                                            (int(cj[c]) + 0.5) / n]))
        below[c] = not (model.vbar(center[0], center[1])
                        - levels[int(ck[c])] > 0.0)
    cell = np.repeat(np.arange(len(ci)), _MS_COUNT[idx])
    pair = np.zeros(len(cell), dtype=np.int64)
    pair[1:] = cell[1:] == cell[:-1]
    # entry (row 0) and exit (row 1) edge of every segment, crossed at the
    # fraction f from its start corner (a1, a2)
    axis, di, dj = _MS_ROWS[idx[cell], pair, below[cell]].transpose(2, 1, 0)
    k, a1, a2 = ck[cell], ci[cell] + di, cj[cell] + dj
    w1, w2 = a1 % n, a2 % n
    at = (k * m + w1) * m + w2
    va = d.ravel()[at]
    f = va / (va - d.ravel()[at + m - axis * n])
    e = (2 * k + axis) * n * n + w1 * n + w2
    p = np.stack([a1 + f * (1 - axis), a2 + f * axis], axis=-1) / n
    return e[0], e[1], p[0], p[1]


def _trace_components(model: DriftModel, v: np.ndarray, levels):
    """The level sets {vbar = lev} of each level of a list on the periodic
    grid v, traced in one pass: the segments of all levels, linked into
    their closed cycles (see _Cycles)."""
    e_in, e_out, p_in, p_out = _level_segments(model, v, levels)
    # succ[k]: the segment entered through the exit edge of segment k
    order = np.argsort(e_in)
    succ = order[np.searchsorted(e_in, e_out, sorter=order)]
    return _Cycles(succ, p_in, p_out, e_in // (2 * v.shape[0] ** 2))


class _Cycles:
    """Marching-squares segments linked into closed cycles by array passes.

    A cycle is labelled by its least segment index, found by pointer
    jumping: after round r a segment's label is the least index among the
    2^r segments from it along succ, and a round that changes no label
    ends the search.  A cycle's winding is the sum over its segments of
    the integer shift between the exit point of one and the entry point of
    the next (cell-local coordinates on one edge differ by an integer).
    Cycles are numbered in order of their labels.
    """

    def __init__(self, succ, p_in, p_out, seg_level):
        self.succ, self.p_in, self.p_out = succ, p_in, p_out
        label = np.arange(len(succ))
        jump = succ
        while True:
            nxt = np.minimum(label, label[jump])
            if np.array_equal(nxt, label):
                break
            label, jump = nxt, jump[jump]
        self.label = label
        self.starts = np.flatnonzero(label == np.arange(len(succ)))
        self.cycle = np.searchsorted(self.starts, label)
        self.level = seg_level[self.starts]
        shift = np.rint(p_out - p_in[succ])
        self.winding = np.stack(
            [np.bincount(self.cycle, weights=shift[:, ax],
                         minlength=len(self.starts)) for ax in (0, 1)],
            axis=-1).astype(np.int64)

    def windings(self, k):
        """The windings of level k's cycles, as integer tuples."""
        return [tuple(w) for w in self.winding[self.level == k].tolist()]

    def chains(self):
        """Every cycle as a polyline unwrapped onto the covering plane,
        from its least segment along succ back to that segment's entry
        point, in lattice coordinates.

        Positions come from list ranking by pointer jumping: a segment's
        distance to the last one of its cycle (the one whose succ is the
        cycle's start).
        """
        count = len(self.succ)
        if not count:
            return []
        last = self.succ == self.label
        nxt = np.where(last, np.arange(count), self.succ)
        dist = (~last).astype(np.int64)
        while True:
            hop = dist[nxt]
            if not hop.any():
                break
            dist, nxt = dist + hop, nxt[nxt]
        order = np.lexsort((-dist, self.cycle))
        pin, pout = self.p_in[order], self.p_out[order]
        first = np.searchsorted(self.cycle[order], np.arange(len(self.starts)))
        stop = np.append(first[1:], count)
        # a running integer offset aligns each entry point with the
        # previous exit of its chain
        shift = np.zeros_like(pin)
        shift[1:] = np.round(pout[:-1] - pin[1:])
        shift[first] = 0.0
        off = np.cumsum(shift, axis=0)
        off -= np.repeat(off[first], stop - first, axis=0)
        return [np.concatenate([pin[a:b] + off[a:b], pout[b - 1:b] + off[b - 1]])
                for a, b in zip(first.tolist(), stop.tolist())]


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


_CLOSURE_TOL = 1e-15  # in the step fraction theta
_CLOSURE_ITER = 200  # Newton or bisection steps of one closure search
_STEP_BUDGET = 2_000_000  # steps of one batch, as integrate_ode
_RESUMES = 64             # closure candidates per orbit
_TAYLOR_ORDER = 20        # degree of a drift step's Taylor polynomial
# 1/k and -1/k per order k: k (s_k, c_k) -> (c_k, -s_k)
_SC_SCALE = [None] + [np.array([1.0, -1.0])[:, None, None] / k
                      for k in range(1, _TAYLOR_ORDER)]
_INV = 1.0 / np.arange(1.0, _TAYLOR_ORDER + 1.0)[:, None]  # 1/(k+1)
# step bounds (tol / |c_j|)^(1/j) of the last two orders (Jorba and Zou),
# and the share of the smaller one taken: the full bound let near-saddle
# coefficients that shrink by chance at orders 19 and 20 set steps that
# erred by 1e-11 in an action (see actions._ORBIT_TOL)
_RHO_EXP = -1.0 / np.array([[_TAYLOR_ORDER - 1.0], [_TAYLOR_ORDER]])
_STEP_SAFETY = 0.9
# Sum over the leading axis, term by term in order and elementwise over
# the rest, so a lane rounds as it would alone; every caller's rest has at
# least two elements (the one-lane sin/cos pair, say): over a rest of one
# numpy sums a contiguous run pairwise, in another order.
_sum = np.add.reduce


def drift_taylor_coeffs(model: DriftModel, y):
    """Taylor coefficients (order + 1, 3, lanes) of (y1, y2, area) about
    the states y (3, lanes) under the reduced drift dy/dt = J grad vbar,
    dA/dt = y1 dy2/dt; row k multiplies t^k.

    vbar is a trigonometric polynomial, so each order is a few array passes
    over all lanes: a mode's phase phi = g.y has sine and cosine series
    with k s_k = sum_j j phi_j c_(k-j) and k c_k = -sum_j j phi_j s_(k-j)
    (j = 1 ... k); the field's order k and every phase's order k + 1 are a
    fixed linear map (model.taylor_terms) of the modes' (c_k, -s_k); the
    area is the Cauchy product of y1 and dy2/dt.  Every sum over orders or
    modes is a _sum over the leading axis, so a lane rounds as it would
    alone.
    """
    g1, g2, lin = model.taylor_terms
    order, modes, lanes = _TAYLOR_ORDER, len(g1), y.shape[1]
    cs = np.empty((order, 2, modes, lanes))  # (c_k, -s_k) of every phase
    f = np.empty((order, 2 + modes, lanes))  # field k, then (k+1) phi_(k+1)
    phi = g1 * y[0] + g2 * y[1]
    cs[0, 0] = np.cos(phi)
    np.negative(np.sin(phi), out=cs[0, 1])
    for k in range(order):
        if k:
            acc = _sum(f[:k, None, 2:] * cs[k - 1::-1])
            np.multiply(acc[::-1], _SC_SCALE[k], out=cs[k])
        _sum((lin * cs[k, :, :, None]).reshape(-1, 2 + modes, lanes),
             out=f[k])
    c = np.empty((order + 1, 3, lanes))
    c[0] = y
    np.multiply(f[:, :2], _INV[:, :, None], out=c[1:, :2])
    # (k + 1) area_(k+1) = sum_j y1_j dy2_(k-j), summed over j in order
    y1, dy2 = c[:order, 0], f[:, 1]
    area = y1[0] * dy2
    for j in range(1, order):
        area[j:] += y1[j] * dy2[:order - j]
    np.multiply(area, _INV, out=c[1:, 2])
    return c


def drift_taylor_step(model: DriftModel, y, h_max, tol: float):
    """One Taylor step of order _TAYLOR_ORDER from each lane's state y (3,
    lanes), of length min(h_max, _STEP_SAFETY times Jorba and Zou's bound
    from the last two orders, min over them of (tol_c / |c_j|)^(1/j), tol_c
    = tol + tol |y_c| per component).

    Returns (y_new, h, poly): poly (order + 1, 3, lanes) is the step's
    polynomial in theta = (t - t0) / h on [0, 1], its exact dense output,
    and y_new its value at 1, summed from the highest order down."""
    poly = drift_taylor_coeffs(model, y)
    scale = tol + tol * np.abs(y)
    with np.errstate(divide="ignore"):  # no curvature: a straight line
        rho = (np.abs(poly[-2:]) / scale).max(axis=1) ** _RHO_EXP
    h = np.minimum(_STEP_SAFETY * np.minimum(rho[0], rho[1]), h_max)
    powers = np.empty((_TAYLOR_ORDER, len(h)))
    powers[:] = h  # h^1 ... h^order, one sequential product per lane
    poly[1:] *= np.cumprod(powers, axis=0, out=powers)[:, None]
    return _sum(poly[::-1]), h, poly


def _horner(coeffs, x):
    acc = 0.0
    for a in reversed(coeffs):
        acc = acc * x + a
    return acc


def _section_root(coeffs, end):
    """Root in [0, 1] of the polynomial sum_k coeffs[k] theta^k, < 0 at 0
    and end >= 0 at 1, on Python floats: Newton steps from the secant
    guess inside a bracket narrowed by sign, bisection when a step leaves
    it, until a step is within _CLOSURE_TOL; None if that takes more than
    _CLOSURE_ITER steps."""
    lo, hi = 0.0, 1.0
    x = coeffs[0] / (coeffs[0] - end)
    for _ in range(_CLOSURE_ITER):
        r = d = 0.0
        for a in reversed(coeffs):
            d = d * x + r
            r = r * x + a
        if r < 0.0:
            lo = x
        else:
            hi = x
        new = x - r / d if d > 0.0 else -1.0
        if not lo <= new <= hi:
            new = 0.5 * (lo + hi)
        elif abs(new - x) <= _CLOSURE_TOL:
            return new
        if new == x:
            return x
        x = new
    return None


def orbit_lanes(model: DriftModel, y0s, tol: float,
                t_cap: float | None = None, targets=None) -> list:
    """Integrate the reduced drift field from each seed until it reaches
    its target on the torus: the seed itself (one closure, the default) or
    another point of the same level set (an arc).

    The orbits ("lanes") advance together, one Taylor step of the mode sum
    (drift_taylor_step) per iteration on arrays of shape (3, lanes) holding
    (y1, y2, swept area); each lane steps as far as its own coefficients
    allow at tol, at most 0.1 cell diameters at its initial speed, keeps
    its own section value and time cap (default 400 cell diameters at
    that speed), and leaves the batch when it closes or fails.  Each
    lane's section is the line through its target normal to the drift
    there.  A candidate closure (a section crossing near a
    wrapped copy of the target) is located on the crossing step's
    polynomial: the section is linear in (y1, y2), so it is one scalar
    polynomial per crossing lane, searched by _section_root on Python
    floats (a few lanes per step).  It is accepted only when the
    torus distance to the target really vanishes, so near-misses of other
    lattice copies do not truncate the orbit; after a false alarm the lane
    goes on.  A lane whose target is its seed starts on its section and
    cannot close in its first step; an arc can.  Every array operation is
    elementwise over lanes, so a lane's result does not depend on the rest
    of the batch.  Returns one OrbitResult per seed, whose winding is the
    lattice shift from the target to the end point and whose area is swept
    from the seed; ``closed=False`` for a fixed point (at the seed or the
    target), a step underflow, the time cap or a failed closure search.
    """
    seeds = [(float(y[0]), float(y[1])) for y in y0s]
    ends = seeds if targets is None else [(float(y[0]), float(y[1]))
                                          for y in targets]
    out = [OrbitResult(closed=False) for _ in seeds]
    a21, a22 = model.lattice.a21, model.lattice.a22
    cell_diam = math.hypot(TWO_PI + abs(a21), a22)
    # per lane: the target in lattice coordinates, the unit section normal
    # (velocity at the target in lattice coordinates), time cap, step cap
    # (0.1 cell diameters at the initial speed: on straight drift lines the
    # high orders vanish, and an unbounded step would jump over the
    # closure), and whether the target is the seed
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
                     if t_cap is None else t_cap, 0.1 * cell_diam / speed,
                     (x1, x2) == (y1, y2)))
    if not rows:
        return out
    cols = [np.array(c) for c in zip(*rows)]
    idx, s0, t0, n1, n2, cap, h_cap, own = (cols[0], *cols[3:])
    y = np.stack((cols[1], cols[2], np.zeros(len(idx))))
    t = np.zeros(len(idx))
    min_step = cap * 1e-14 + 1e-300
    resumes = np.zeros(len(idx), dtype=int)

    def section(y1, y2, s0, t0, n1, n2):
        t = y2 / a22
        ws = (y1 - a21 * t) / TWO_PI - s0
        wt = t - t0
        ws = ws - np.rint(ws)
        wt = wt - np.rint(wt)
        return n1 * ws + n2 * wt, np.maximum(np.abs(ws), np.abs(wt))

    last_sg, last_w = section(y[0], y[1], s0, t0, n1, n2)

    def distance(yv, i):
        """Torus distance from lane i's target to the point yv."""
        tt = yv[1] / a22
        ws = (yv[0] - a21 * tt) / TWO_PI - float(s0[i])
        wt = tt - float(t0[i])
        return max(abs(ws - round(ws)), abs(wt - round(wt)))

    for _ in range(_STEP_BUDGET):
        if not len(idx):
            break
        y_new, h, poly = drift_taylor_step(model, y,
                                           np.minimum(h_cap, cap - t), tol)
        sg1, w1 = section(y_new[0], y_new[1], s0, t0, n1, n2)
        hit = (((t > 0.0) | ~own) & (last_sg < 0.0) & (sg1 >= 0.0)
               & (np.minimum(last_w, w1) < 0.2))
        hits = np.flatnonzero(hit)
        t_prev, t = t, t + h
        y, last_sg, last_w = y_new, sg1, w1
        # a lane at its time cap or below its smallest step has failed
        drop = (t >= cap) | (h < min_step)
        crossings = ()
        if hits.size:
            # the section through the target's copy nearest a step's end is
            # c1 y1 + c2 y2 plus a constant: one polynomial in theta per
            # crossing lane, sg1 at theta = 1
            ph = poly[:, :, hits]
            c1 = n1[hits] / TWO_PI
            c2 = (n2[hits] - a21 * c1) / a22
            sec = c1 * ph[:, 0] + c2 * ph[:, 1]
            sec[0] += sg1[hits] - (c1 * y_new[0, hits] + c2 * y_new[1, hits])
            crossings = zip(hits.tolist(), sec.T.tolist(),
                            ph.transpose(2, 1, 0).tolist())
        for i, coeffs, comps in crossings:
            w_end = math.inf  # that section is not crossed: a false alarm
            if coeffs[0] < 0.0:
                theta = _section_root(coeffs, float(sg1[i]))
                if theta is None:
                    drop[i] = True
                    continue
                s_end = [_horner(c, theta) for c in comps]
                w_end = distance(s_end, i)
            if w_end < 1e-6:
                s_end_l = (s_end[0] - a21 * (s_end[1] / a22)) / TWO_PI
                out[idx[i]] = OrbitResult(
                    closed=True, period=float(t_prev[i]) + theta * float(h[i]),
                    winding=(round(s_end_l - float(s0[i])),
                             round(s_end[1] / a22 - float(t0[i]))),
                    area=s_end[2], end_point=(s_end[0], s_end[1]))
                drop[i] = True
                continue
            # a false alarm: the lane goes on
            resumes[i] += 1
            drop[i] |= resumes[i] >= _RESUMES
        if drop.any():
            keep = ~drop
            idx, s0, t0, n1, n2, cap, h_cap, own = (a[keep] for a in (
                idx, s0, t0, n1, n2, cap, h_cap, own))
            t, min_step, resumes, last_sg, last_w = (a[keep] for a in (
                t, min_step, resumes, last_sg, last_w))
            y = y[:, keep]
    return out


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
    orbit = orbit_lanes(model, [y0], 3e-14)[0]
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
    """Level-set topology of one slice: the graph carries the slice's
    model, so its actions are taken on the model it was built from."""
    kind: str     # "simple" | "equal_saddles" | "one_dimensional" | "flat"
    model: DriftModel
    vertices: list               # (kind, averaged energy) pairs
    edges: list                  # ReebEdge
    critical_points: CriticalPointSet | None = None

    @property
    def i1(self):
        return self.model.i1

    @property
    def eps(self):
        return self.model.eps

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
        return ReebGraph("equal_saddles", model, vertices, edges, cps)
    # sample one level per edge for contractibility and drift
    probe = {
        "i1": g_min + 0.5 * (g_lo - g_min),
        "i4": g_hi + 0.5 * (g_max - g_hi),
        "mid": 0.5 * (g_lo + g_hi),
    }
    # the three probe levels, traced in one pass; only the windings of
    # their components are read
    cycles = _trace_components(model, model.grid_vbar(192), [
        model.level_of(probe[eid]) for eid in ("mid", "i1", "i4")])
    open_windings = [w for w in cycles.windings(0) if w != (0, 0)]
    if len(open_windings) != 2:
        raise UnsupportedTopologyError(
            f"expected two open components between the saddles, "
            f"got {len(open_windings)}")
    d_plus = lexicographic_positive(min(open_windings))
    drift = DriftData(d_plus)
    drift_neg = DriftData((-d_plus[0], -d_plus[1]),
                          (-drift.f[0], -drift.f[1]))
    edges = [
        ReebEdge("i1", (g_min, g_lo), True, DriftData((0, 0))),
        ReebEdge("i2", (g_lo, g_hi), False, drift),
        ReebEdge("i3", (g_lo, g_hi), False, drift_neg),
        ReebEdge("i4", (g_hi, g_max), True, DriftData((0, 0))),
    ]
    for k, eid in ((1, "i1"), (2, "i4")):
        if cycles.windings(k) != [(0, 0)]:
            raise UnsupportedTopologyError(
                f"edge {eid} level has unexpected structure")
    return ReebGraph("simple", model, vertices, edges, cps)


def _degenerate_graph(model: DriftModel):
    """The Reeb graph of a flat or one-dimensional slice, else None.

    A one-dimensional vbar depends on the phase k.s only (k the primitive
    wave vector, s lattice coordinates); 512 steps along a lattice vector v
    with k.v = 1 hit the phases m/512, as a 512 x 512 grid of the cell does.
    """
    if model.is_flat():
        g0 = model.i1 + model.eps * model.mean
        return ReebGraph("flat", model, [("minimum", g0), ("maximum", g0)],
                         [], None)
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
    return ReebGraph("one_dimensional", model, vertices, edges, None)


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

    # diff at every node from one array J0 pass (the bits of the scalar)
    xs = np.linspace(0.0, i1_max, _SERIES_GRID + 1)
    r = np.sqrt(2.0 * xs)
    vals = (A * np.abs(bessel_j0_array(r))
            - B * np.abs(bessel_j0_array(beta * r)))
    if np.max(np.abs(vals)) < 1e-12 * (A + B):
        return CriticalSeries([], separable, [], continuum=True)
    fa, fb = vals[:-1], vals[1:]
    collisions = []
    for j in np.flatnonzero((fa == 0.0) | (fa * fb < 0.0)).tolist():
        if fa[j] == 0.0:
            collisions.append(float(xs[j]))
        else:
            collisions.append(find_root(diff, float(xs[j]), float(xs[j + 1]),
                                        1e-13))
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
    the slices are damped in one pass and their seed searches run as
    batched Newton passes."""
    i1s = np.asarray(i1s, dtype=float)
    models = [DriftModel(p, eps, i1, averaged)
              for i1, averaged in zip(i1s.tolist(), p.damped(i1s))]
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
    xs = np.linspace(0.0, i1_max, _SERIES_GRID + 1)
    scan = [_saddle_gap(*sl) for sl in _slices(p, eps, xs)]
    tol = 1e-9 * max(p.coeff_l1, 1e-300)
    if all(degenerate or gap <= tol for gap, degenerate in scan):
        # the saddles are level (or the slice degenerate) at every I1: no
        # isolated collision
        return CriticalSeries([], [], [], continuum=True)
    gaps = np.array([gap for gap, _ in scan])
    # a node with level saddles, the two ends of the scan included
    collisions = xs[gaps <= tol].tolist()
    # a transversal collision leaves a gap of up to slope * spacing / 2 at
    # its nearest node: the saddles meet at the refined minimum
    g0, g1, g2 = gaps[:-2], gaps[1:-1], gaps[2:]
    minima = np.flatnonzero(~(g1 <= tol) & (g1 < g0) & (g1 < g2)) + 1
    if minima.size:
        x, gap = _golden_min(p, eps, xs[minima - 1], xs[minima + 1])
        collisions += x[gap <= tol].tolist()
    return CriticalSeries(saddle_collision=sorted(collisions), separable=[],
                          merged=[])


def _golden_min(p, eps, a, b):
    """60 golden-section steps of the saddle gap on the brackets [a, b]
    (arrays), all brackets in lockstep: one _slices call per step.  Per
    bracket the sampled point with the least gap, and that gap; each
    bracket's arithmetic is its own, so each result is that of its search
    alone."""
    def gap_at(i1s):
        return np.array([_saddle_gap(*sl)[0] for sl in _slices(p, eps, i1s)])

    m = len(a)
    c, d = b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a)
    f = gap_at(np.concatenate([c, d]))
    fc, fd = f[:m], f[m:]
    for _ in range(60):
        # fc < fd: the minimum lies in [a, d], whose golden points are a
        # new c and the old c; else in [c, b], with the old d and a new d
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        new = np.where(left, b - _INV_GOLDEN * (b - a),
                       a + _INV_GOLDEN * (b - a))
        f = gap_at(new)
        c, d = np.where(left, new, d), np.where(left, c, new)
        fc, fd = np.where(left, f, fd), np.where(left, fc, f)
    left = fc < fd
    return np.where(left, c, d), np.where(left, fc, fd)


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

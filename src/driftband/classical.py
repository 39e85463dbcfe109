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

from .numerics import (DomainError, NumericsError, Tolerance, _dp_dense,
                       _dp_lane_norm, _dp_lane_step, _dp_step_factor,
                       bessel_j0, bessel_j0_zero, find_root)
from .potential import FourierPotential

TWO_PI = 2.0 * math.pi


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

    def arrays(self, y1, y2):
        """vbar, gradient and Hessian at arrays of points.

        Accumulates mode by mode in the order of the scalar methods, so each
        element rounds as the scalar value at that point does.
        """
        y1 = np.asarray(y1, dtype=float)
        y2 = np.asarray(y2, dtype=float)
        v = np.full(y1.shape, self.mean)
        d1, d2, h11, h12, h22 = np.zeros((5,) + y1.shape)
        for g1, g2, re, im in self.modes:
            ph = g1 * y1 + g2 * y2
            c, s = np.cos(ph), np.sin(ph)
            part = re * c - im * s
            v += 2.0 * part
            w = -2.0 * (re * s + im * c)
            d1 += g1 * w
            d2 += g2 * w
            w = -2.0 * part
            h11 += g1 * g1 * w
            h12 += g1 * g2 * w
            h22 += g2 * g2 * w
        return v, (d1, d2), (h11, h12, h22)

    def energy(self, y):
        """Averaged Hamiltonian I1 + eps*vbar at a point."""
        return self.i1 + self.eps * self.vbar(float(y[0]), float(y[1]))

    def level_of(self, g):
        """vbar level corresponding to an averaged energy g."""
        if self.eps == 0.0:
            raise DomainError("level sets are undefined at eps = 0")
        return (g - self.i1) / self.eps

    def grid_vbar(self, n):
        """vbar on an n x n grid over the unit cell in lattice coordinates."""
        s = np.arange(n) / n
        st = np.stack(np.meshgrid(s, s, indexing="ij"), axis=-1)
        return self.averaged.value(self.lattice.to_cartesian(st))

    def is_flat(self, rel_tol=1e-12):
        """True when the averaged potential is constant to working precision
        (for the cosine example with beta = 1 this happens at every J0 zero,
        where both damping factors vanish together)."""
        return self.l1 <= rel_tol * max(self.potential.coeff_l1, 1e-300)

    def one_dimensional_direction(self, rel_tol=1e-9):
        """Primitive winding direction if vbar depends on one coordinate only.

        Returns the lattice-integer direction of the level lines, or None.
        Happens for the cosine example whenever a J0 factor vanishes.
        """
        ks = [k for k, c in self.averaged.coeffs.items()
              if k != (0, 0) and abs(c) > rel_tol * max(self.l1, 1e-300)]
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


def find_critical_points(p: FourierPotential, eps: float, i1: float,
                         seeds: int = 32) -> CriticalPointSet:
    """All critical points of the averaged Hamiltonian in one cell.

    Newton iteration on grad(vbar) from a seeds x seeds lattice grid,
    deduplicated modulo the lattice and classified by the Hessian.
    """
    model = DriftModel(p, eps, i1)
    return _critical_points_of_model(model, seeds)


def _critical_points_of_model(model: DriftModel, seeds: int = 32):
    lat = model.lattice
    gscale = max(model.grad_scale, 1e-300)
    hscale = max(model.hess_scale, 1e-300)
    cap = 0.35 * min(TWO_PI, lat.a22)
    # one Newton lane per seed, seeds in row-major (i, j) order
    s = (np.arange(seeds) + 0.5) / seeds
    st = np.stack(np.meshgrid(s, s, indexing="ij"), axis=-1).reshape(-1, 2)
    y = lat.to_cartesian(st)
    y1, y2 = y[:, 0].copy(), y[:, 1].copy()
    ok = np.zeros(len(y1), dtype=bool)
    live = np.arange(len(y1))
    for _ in range(40):
        _, (d1, d2), (h11, h12, h22) = model.arrays(y1[live], y2[live])
        done = np.hypot(d1, d2) <= 1e-12 * gscale
        ok[live[done]] = True
        det = h11 * h22 - h12 * h12
        # a lane stops when it converges or its Hessian is singular
        go = ~done & (np.abs(det) >= 1e-13 * hscale * hscale)
        live, d1, d2, det = live[go], d1[go], d2[go], det[go]
        h11, h12, h22 = h11[go], h12[go], h22[go]
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
    orientation: int = 1

    @property
    def contractible(self):
        return self.winding == (0, 0)

    def closure_defect(self, lattice):
        shift = self.winding[0] * lattice.a1 + self.winding[1] * lattice.a2
        return float(np.max(np.abs(self.points[-1] - self.points[0] - shift)))


_MS_SEGMENTS = {
    # case index from corner signs (bit set when corner > 0), corners
    # ordered (i,j), (i+1,j), (i+1,j+1), (i,j+1); edges 0=bottom 1=right
    # 2=top 3=left; each entry is a list of (edge_in, edge_out) pairs
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
    6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(2, 0)],
    11: [(2, 1)], 12: [(1, 3)], 13: [(1, 0)], 14: [(0, 3)],
}


def trace_level_set(p: FourierPotential, eps: float, i1: float, g: float,
                    grid: int = 256, guard: float | None = None):
    """Connected components of {averaged energy = g} on the torus.

    Each component is an oriented polyline (oriented along the Hamiltonian
    drift flow) with an integer winding vector; winding (0, 0) iff the
    component is contractible.
    """
    model = DriftModel(p, eps, i1)
    lev = model.level_of(g)
    cps = _critical_points_of_model(model)
    levels = [c.level for c in cps]
    if levels:
        spread = max(levels) - min(levels)
        if guard is None:
            guard = max(1e-12, 1e-9 * max(spread, 1e-12))
        if lev <= min(levels) or lev >= max(levels):
            raise DomainError("level outside the classical range")
        if any(abs(lev - lv) < guard for lv in levels):
            raise SeparatrixProximityError(
                f"level {lev} is within {guard} of a critical level")
    return _trace_components(model, lev, grid)


def _level_segments(model: DriftModel, lev: float, n: int):
    """Marching-squares segments of {vbar = lev} on the periodic n x n grid.

    One (edge_in, edge_out, point_in, point_out) per segment, crossed cells
    in row-major order.  Edge ids are wrapped: i*n + j for the bottom edge
    of cell (i, j), n*n + i*n + j for its left edge.  Points are cell-local
    (unwrapped) lattice coordinates.
    """
    lat = model.lattice
    v = model.grid_vbar(n) - lev
    if np.any(v == 0.0):
        v = v + 1e-13 * max(model.l1, 1.0)
    # case bits from corners (i,j), (i+1,j), (i+1,j+1), (i,j+1) of each cell
    pos = (v > 0.0).astype(np.int8)
    pos_i = np.roll(pos, -1, axis=0)
    case = (pos | pos_i << 1 | np.roll(pos_i, -1, axis=1) << 2
            | np.roll(pos, -1, axis=1) << 3)
    ci, cj = np.nonzero((case != 0) & (case != 15))
    # crossing fraction of the bottom (h) and left (v) edge of each cell;
    # only edges whose end signs differ are read
    with np.errstate(divide="ignore", invalid="ignore"):
        frac_h = v / (v - np.roll(v, -1, axis=0))
        frac_v = v / (v - np.roll(v, -1, axis=1))
    ni, nj = (ci + 1) % n, (cj + 1) % n
    # the cell's sides in the order bottom, right, top, left
    edges = np.stack([ci * n + cj, n * n + ni * n + cj, ci * n + nj,
                      n * n + ci * n + cj], axis=1).tolist()
    pts = np.empty((len(ci), 4, 2))
    pts[:, 0, 0], pts[:, 0, 1] = ci + frac_h[ci, cj], cj
    pts[:, 1, 0], pts[:, 1, 1] = ci + 1.0, cj + frac_v[ni, cj]
    pts[:, 2, 0], pts[:, 2, 1] = ci + frac_h[ci, nj], cj + 1.0
    pts[:, 3, 0], pts[:, 3, 1] = ci, cj + frac_v[ci, cj]
    pts /= n

    segments = []
    for c, (i, j, idx) in enumerate(zip(ci.tolist(), cj.tolist(),
                                        case[ci, cj].tolist())):
        if idx in (5, 10):
            # saddle cell: split against the center sample
            center = lat.to_cartesian(np.array([(i + 0.5) / n,
                                                (j + 0.5) / n]))
            cpos = model.vbar(center[0], center[1]) - lev > 0.0
            if idx == 5:
                pairs = [(3, 0), (1, 2)] if cpos else [(3, 2), (1, 0)]
            else:
                pairs = [(0, 1), (2, 3)] if cpos else [(0, 3), (2, 1)]
        else:
            pairs = _MS_SEGMENTS[idx]
        e, p = edges[c], pts[c]
        for ein, eout in pairs:
            segments.append((e[ein], e[eout], p[ein], p[eout]))
    return segments


def _trace_components(model: DriftModel, lev: float, grid: int):
    lat = model.lattice
    segments = _level_segments(model, lev, grid)
    seg_by_edge = {}
    for sid, (e_in, e_out, _, _) in enumerate(segments):
        seg_by_edge.setdefault(e_in, []).append(sid)
        seg_by_edge.setdefault(e_out, []).append(sid)

    used = [False] * len(segments)
    components = []
    for start in range(len(segments)):
        if used[start]:
            continue
        chain = []
        sid = start
        enter = segments[start][0]
        # unwrapped coordinates: keep a running integer offset so the chain
        # lives on the covering plane
        offset = np.zeros(2)
        prev_pt = None
        while True:
            used[sid] = True
            e_in, e_out, pt_in, pt_out = segments[sid]
            if prev_pt is not None:
                # align this segment's entry point with the previous exit;
                # cell-local coordinates differ from the running unwrapped
                # chain by integer lattice shifts only
                delta = prev_pt - (pt_in + offset)
                offset = offset + np.round(delta)
            chain.append(pt_in + offset)
            prev_pt = pt_out + offset
            # continue through the exit edge into the adjacent cell
            nxt = [s for s in seg_by_edge.get(e_out, []) if s != sid]
            nxt = [s for s in nxt if not used[s] or s == start]
            if not nxt:
                chain.append(prev_pt)
                break
            sid = nxt[0]
            if segments[sid][0] != e_out:
                # flip the neighbor so that it is entered through e_out
                e0, e1, p0, p1 = segments[sid]
                segments[sid] = (e1, e0, p1, p0)
            if sid == start:
                chain.append(prev_pt)
                break
        if len(chain) < 4:
            continue
        st = np.array(chain)
        winding = np.round(st[-1] - st[0]).astype(int)
        ys = lat.to_cartesian(st)
        ys = _refine_polyline(model, ys, lev)
        comp = LevelSetComponent(points=ys, winding=(int(winding[0]),
                                                     int(winding[1])),
                                 energy=model.i1 + model.eps * lev, level=lev)
        _orient_along_flow(model, comp)
        components.append(comp)
    components.sort(key=lambda c: (c.winding, float(c.points[0, 0])))
    return components


def _refine_polyline(model, ys, lev, iterations=4):
    out = ys.copy()
    for _ in range(iterations):
        vb, (d1, d2), _ = model.arrays(out[:, 0], out[:, 1])
        n2 = d1 * d1 + d2 * d2
        k = n2 >= 1e-30  # points on a flat patch stay where they are
        r = vb[k] - lev
        out[k, 0] -= r * d1[k] / n2[k]
        out[k, 1] -= r * d2[k] / n2[k]
    return out


def _orient_along_flow(model, comp):
    mid = len(comp.points) // 2
    y1, y2 = comp.points[mid]
    d1, d2 = model.grad(y1, y2)
    flow = np.array([-d2, d1])
    tangent = comp.points[mid + 1] - comp.points[mid]
    if float(flow @ tangent) < 0.0:
        comp.points = comp.points[::-1].copy()
        comp.winding = (-comp.winding[0], -comp.winding[1])
    comp.orientation = 1


# ----------------------------------------------------------------------
# Single-orbit integration (closure, winding, period, swept area)
# ----------------------------------------------------------------------

@dataclass
class OrbitResult:
    closed: bool
    period: float = math.nan      # in reduced time (field J grad vbar)
    winding: tuple = (0, 0)
    area: float = math.nan        # int y1 dy2 over one period
    end_point: tuple | None = None


_CLOSURE_TOL = Tolerance(1e-15, 1e-15, 200)  # in the step fraction theta
_STEP_BUDGET = 2_000_000  # attempted steps of one batch, as integrate_ode
_RESUMES = 64             # closure candidates per orbit


def orbit_lanes(model: DriftModel, y0s, tol: Tolerance = None,
                t_cap: float | None = None) -> list:
    """Integrate the reduced drift field through one closure from each seed.

    The orbits ("lanes") advance together, one Dormand-Prince 4(5) attempt
    per iteration on arrays of shape (3, lanes) holding (y1, y2, swept
    area); each lane keeps its own step size (at most 0.1 cell diameters at
    its initial speed), FSAL stage, section value and time cap (default 400
    cell diameters at that speed), and leaves the batch when it closes or
    fails.  Candidate closures (section crossings near a wrapped copy of
    the seed) are located by Brent's method on the crossing step's dense
    output and accepted only when the torus distance really vanishes, so
    near-misses of other lattice copies do not truncate the orbit; after a
    false alarm the lane restarts from the end of that step.  Every array
    operation is elementwise over lanes, so a lane's result does not depend
    on the rest of the batch.  Returns one OrbitResult per seed,
    ``closed=False`` for a fixed point, a step underflow, the time cap or a
    failed closure search.
    """
    tol = tol or Tolerance(1e-12, 1e-12, 400)
    seeds = [(float(y[0]), float(y[1])) for y in y0s]
    out = [OrbitResult(closed=False) for _ in seeds]
    a21, a22 = model.lattice.a21, model.lattice.a22
    cell_diam = math.hypot(TWO_PI + abs(a21), a22)
    # mode columns for (modes, lanes) arrays; -2 re and -2 im round as
    # DriftModel.grad's -2 (re sin + im cos), scaling by 2 being exact
    g1, g2, re2, im2 = (np.array([[m[j] * (1.0 if j < 2 else -2.0)]
                                  for m in model.modes]) for j in range(4))
    g12 = np.stack((g1, g2), axis=1)  # (modes, 2, 1)

    def field(y):
        ph = g1 * y[0] + g2 * y[1]
        w = re2 * np.sin(ph) + im2 * np.cos(ph)
        gw = g12 * w[:, None, :]
        d = gw[0]
        for j in range(1, len(gw)):  # modes summed in DriftModel.grad order
            d = d + gw[j]
        out = np.empty_like(y)
        np.negative(d[1], out=out[0])
        out[1] = d[0]
        np.multiply(y[0], d[0], out=out[2])  # dA = y1 * dy2/dt
        return out

    # per lane: the seed in lattice coordinates, the unit section normal
    # (initial velocity in lattice coordinates), time cap, first step
    rows = []
    for lane, (y1, y2) in enumerate(seeds):
        d1, d2 = model.grad(y1, y2)
        speed = math.hypot(d2, d1)
        if speed == 0.0 or (t_cap is not None and not t_cap > 0.0):
            continue
        n1, n2 = (-d2 - a21 * d1 / a22) / TWO_PI, d1 / a22
        norm = math.hypot(n1, n2)
        t0 = y2 / a22
        rows.append((lane, y1, y2, (y1 - a21 * t0) / TWO_PI, t0, n1 / norm,
                     n2 / norm, 400.0 * cell_diam / speed
                     if t_cap is None else t_cap, 0.01 * cell_diam / speed))
    if not rows:
        return out
    cols = [np.array(c) for c in zip(*rows)]
    idx, s0, t0, n1, n2, cap, h0 = (cols[0], *cols[3:])
    y = np.stack((cols[1], cols[2], np.zeros(len(idx))))
    k1 = field(y)
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

    def closure(i, hi, ya, yb, stages, sg_b):
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

        dense = _dp_dense(ya, yb, hi, stages)
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
        y5, err, stages = _dp_lane_step(field, y, h, k1)
        enorm = _dp_lane_norm(err, y, y5, tol)
        ok = enorm <= 1.0
        tb = t + h
        sg1, w1 = section(y5[0], y5[1], s0, t0, n1, n2)
        hit = (ok & (t_base + t > 0.0) & (last_sg < 0.0) & (sg1 >= 0.0)
               & (np.minimum(last_w, w1) < 0.2))
        y_prev, t_prev, h_step = y, t, h
        y = np.where(ok, y5, y)
        k1 = np.where(ok, stages[6], k1)
        t = np.where(ok, tb, t)
        last_sg = np.where(ok, sg1, last_sg)
        last_w = np.where(ok, w1, last_w)
        # capped at 10 first steps: on straight drift lines the error
        # estimate is 0, and an unbounded step would jump over the closure
        h = np.minimum(h * _dp_step_factor(enorm), 10.0 * h0)
        # a lane at its time cap or below its smallest step has failed
        drop = ((t >= t_end) | (h < min_step)) & ~hit
        for i in np.flatnonzero(hit).tolist():
            ta, tb_i = float(t_prev[i]), float(tb[i])
            found = closure(
                i, float(h_step[i]), tuple(y_prev[:, i].tolist()),
                tuple(y5[:, i].tolist()),
                tuple(tuple(k[:, i].tolist()) for k in stages),
                float(sg1[i]))
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


def _orbit_once(model: DriftModel, y0, tol: Tolerance = None,
                t_cap: float | None = None) -> OrbitResult:
    """One orbit through orbit_lanes, as a batch of one lane."""
    return orbit_lanes(model, [y0], tol, t_cap)[0]


@dataclass
class TrajectoryClass:
    kind: str                    # "fixed_point" | "closed" | "near_separatrix"
    winding: tuple | None = None
    period: float | None = None


def classify_trajectory(p: FourierPotential, eps: float, i1: float, y0,
                        tol: Tolerance = None,
                        t_cap: float | None = None) -> TrajectoryClass:
    """Integrate the drift system from y0 and classify the motion."""
    tol = tol or Tolerance(1e-10, 1e-10, 400)
    model = DriftModel(p, eps, i1)
    d1, d2 = model.grad(float(y0[0]), float(y0[1]))
    if eps == 0.0 or math.hypot(d1, d2) * eps <= tol.abs_tol:
        return TrajectoryClass(kind="fixed_point")
    orbit = _orbit_once(model, y0, Tolerance(1e-12, 1e-12, 400),
                        t_cap=None if t_cap is None else t_cap * eps)
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
    kind: str                    # "simple" | "equal_saddles" | "one_dimensional"
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


def build_reeb_graph(p: FourierPotential, eps: float, i1: float,
                     delta: float = 0.0, seeds: int = 32,
                     grid: int = 192) -> ReebGraph:
    """Level-set topology of the averaged Hamiltonian at fixed I1."""
    model = DriftModel(p, eps, i1)
    if model.is_flat():
        g0 = i1 + eps * model.mean
        return ReebGraph("flat", i1, eps,
                         [("minimum", g0), ("maximum", g0)], [], None)
    one_dim = model.one_dimensional_direction()
    if one_dim is not None:
        return _one_dimensional_graph(model, one_dim)
    cps = _critical_points_of_model(model, seeds)
    if not cps.complete:
        raise UnsupportedTopologyError(
            f"Newton converged from fewer than half of the {seeds}x{seeds} "
            f"seeds; the {len(cps)} points found may be incomplete",
            points=list(cps))
    mins = cps.by_kind("minimum")
    maxs = cps.by_kind("maximum")
    sads = cps.by_kind("saddle")
    if len(cps) != 4 or len(mins) != 1 or len(maxs) != 1 or len(sads) != 2:
        extras = [c for c in cps]
        raise UnsupportedTopologyError(
            f"not a minimal Morse function: {len(mins)} minima, "
            f"{len(maxs)} maxima, {len(sads)} saddles", points=extras)
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
    comps_mid = _trace_components(model, model.level_of(probe["mid"]), grid)
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
        comps = _trace_components(model, model.level_of(probe[eid]), grid)
        if len(comps) != 1 or not comps[0].contractible:
            raise UnsupportedTopologyError(
                f"edge {eid} level has unexpected structure")
    return ReebGraph("simple", i1, eps, vertices, edges, cps)


def _one_dimensional_graph(model: DriftModel, direction):
    # vbar is a 1D trig polynomial along the transversal phase
    samples = model.grid_vbar(512)
    lev_min = float(samples.min())
    lev_max = float(samples.max())
    g_min = model.i1 + model.eps * lev_min
    g_max = model.i1 + model.eps * lev_max
    d = lexicographic_positive(direction)
    drift = DriftData(d)
    drift_neg = DriftData((-d[0], -d[1]), (-drift.f[0], -drift.f[1]))
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


def critical_i1_series(p: FourierPotential, eps: float, i1_max: float,
                       grid: int = 200) -> CriticalSeries:
    """Cyclotron actions where the drift topology degenerates."""
    if i1_max <= 0.0:
        raise DomainError("i1_max must be positive")
    cos_like = _is_cosine_like(p)
    if cos_like is not None:
        return _cosine_series(*cos_like, i1_max, grid)
    return _generic_series(p, eps, i1_max, grid)


def _cosine_series(A, B, beta, i1_max, grid):
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

    xs = np.linspace(0.0, i1_max, grid + 1)
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


def _generic_series(p, eps, i1_max, grid):
    xs = np.linspace(0.0, i1_max, grid + 1)
    gaps = []
    for x in xs:
        model = DriftModel(p, max(eps, 1.0), float(x))
        if model.is_flat() or model.one_dimensional_direction() is not None:
            gaps.append(0.0)
            continue
        cps = _critical_points_of_model(model, seeds=16)
        sads = sorted(c.level for c in cps.by_kind("saddle"))
        gaps.append(sads[-1] - sads[0] if len(sads) >= 2 else math.nan)
    collisions = []
    tol = 1e-9 * max(p.coeff_l1, 1e-300)
    for idx in range(1, grid):
        g0, g1, g2 = gaps[idx - 1], gaps[idx], gaps[idx + 1]
        if math.isnan(g1):
            continue
        if g1 <= tol or (g1 < g0 and g1 < g2 and g1 < 1e-4 * p.coeff_l1):
            collisions.append(float(xs[idx]))
    return CriticalSeries(saddle_collision=sorted(collisions), separable=[],
                          merged=[])


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
    i1s = np.linspace(0.0, i1_max, grid)
    if eps == 0.0:
        curves = {name: i1s.copy() for name in
                  ("E_min", "E_lower_saddle", "E_upper_saddle", "E_max")}
        return RegimeChart([], i1s, curves, None, delta, collapsed=True)
    series = critical_i1_series(p, eps, i1_max)
    curves = {"E_min": [], "E_lower_saddle": [], "E_upper_saddle": [],
              "E_max": []}
    for x in i1s:
        model = DriftModel(p, eps, float(x))
        if model.is_flat():
            g0 = float(x) + eps * model.mean
            for name in curves:
                curves[name].append(g0)
            continue
        if model.one_dimensional_direction() is not None:
            samples = model.grid_vbar(256)
            lo = model.i1 + eps * float(samples.min())
            hi = model.i1 + eps * float(samples.max())
            curves["E_min"].append(lo)
            curves["E_lower_saddle"].append(lo)
            curves["E_upper_saddle"].append(hi)
            curves["E_max"].append(hi)
            continue
        cps = _critical_points_of_model(model, seeds=16)
        mins = cps.by_kind("minimum")
        maxs = cps.by_kind("maximum")
        if not mins or not maxs:
            raise UnsupportedTopologyError(
                f"no {'minimum' if not mins else 'maximum'} found at "
                f"I1 = {float(x)}", points=list(cps))
        sads = sorted(c.value for c in cps.by_kind("saddle"))
        curves["E_min"].append(min(c.value for c in mins))
        curves["E_max"].append(max(c.value for c in maxs))
        if len(sads) >= 2:
            curves["E_lower_saddle"].append(sads[0])
            curves["E_upper_saddle"].append(sads[-1])
        else:
            curves["E_lower_saddle"].append(math.nan)
            curves["E_upper_saddle"].append(math.nan)
    curves = {k: np.array(v) for k, v in curves.items()}

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
                             y_samples, phi1_samples=None):
    """Oscillation of the original Hamiltonian along a lifted drift orbit.

    Lifting a guiding-center path back to phase space turns the original
    Hamiltonian into I1 + eps * v at the ring point, for any fast phase; a
    correct first-order average keeps the swing below 2 eps sum|v_k|.
    """
    if phi1_samples is None:
        phi1_samples = np.linspace(0.0, TWO_PI, 8, endpoint=False)
    r = math.sqrt(2.0 * i1)
    ys = np.asarray(y_samples, dtype=float)
    vals = []
    for phi in phi1_samples:
        x = np.stack([r * math.sin(phi) + ys[:, 0],
                      r * math.cos(phi) + ys[:, 1]], axis=-1)
        vals.append(i1 + eps * p.value(x))
    vals = np.concatenate(vals)
    return float(vals.min()), float(vals.max())

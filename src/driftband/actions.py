"""Action variables along the Reeb-graph edges of the averaged drift.

For contractible drift orbits the action is the enclosed area over 2 pi
(positive around minima, negative around maxima), integrated as two arcs
between two points of the orbit; for open orbits it is the
curved-trapezium area against the drift line, computed over one period of a
fixed lift.  Separatrix limits are obtained by extrapolating in the distance
to the critical energy with the log-aware basis {1, d, d log d, d^2,
d^2 log d}; an independent oracle integrates the separatrix arcs directly.
The two Kirchhoff-type identities tie the limits to the cell area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import (DriftModel, OrbitResult, ReebGraph,
                        SeparatrixProximityError, orbit_lanes)
from .numerics import (ConvergenceError, DomainError, adaptive_quad,
                       bessel_j0, bracketed_newton, find_root)

TWO_PI = 2.0 * math.pi

# orbit_lanes (order-20 Taylor steps) against a 1e-14 reference on the
# test orbits: 1.2e-11 at 1e-11, 6.2e-13 at 1e-12, 1.4e-13 at 3e-13 and
# 1.0e-13 at 1e-13
_ORBIT_TOL = 3e-13
_ARC_TOL = 1e-11  # the scalar separatrix-arc oracle
_ARC_OFFSET = 1e-6  # distance of a separatrix arc's seed from its saddle
_LINE_SAMPLES = 400  # intervals of a seed line sampled for its first crossing
# seed lines of each edge (see ActionComputer._seed_line_samples)
_SEED_LINES = {"i1": (0, 1), "i4": (2, 3), "i2": (4, 5), "i3": (4, 5)}
_EPS = np.finfo(float).eps


# ----------------------------------------------------------------------
# Seeds and single-level actions
# ----------------------------------------------------------------------

class ActionComputer:
    """Action evaluations on one slice's Reeb graph, reusing its model and
    saddle geometry across levels."""

    def __init__(self, graph: ReebGraph):
        if graph.eps <= 0.0:
            raise DomainError("actions need eps > 0")
        self.graph = graph
        self.model = graph.model
        # an equal-saddles graph has only its contractible edges; a flat or
        # one-dimensional one has no saddle to seed from
        if graph.kind not in ("simple", "equal_saddles"):
            raise DomainError(f"degenerate topology: {graph.kind}")
        # both kinds carry one minimum, two saddles and one maximum
        cps = self.graph.critical_points
        lower, upper = sorted(cps.by_kind("saddle"), key=lambda c: c.value)
        self._saddles = {"lower": lower, "upper": upper}
        self._extrema = {"minimum": cps.by_kind("minimum")[0],
                         "maximum": cps.by_kind("maximum")[0]}
        self._seed_lines = None  # sampled at the first seed search

    @property
    def cell_over_2pi(self) -> float:
        return self.model.lattice.cell_area / TWO_PI

    # -- seed construction ------------------------------------------------

    def _saddle_plus_direction(self, which):
        """Unit eigenvector of the positive Hessian eigenvalue at a saddle."""
        c = self._saddles[which]
        h11, h12, h22 = self.model.hessian(c.y[0], c.y[1])
        # larger eigenvalue of [[h11,h12],[h12,h22]]
        tr = h11 + h22
        disc = math.sqrt(max((h11 - h22) ** 2 + 4 * h12 * h12, 0.0))
        lam = 0.5 * (tr + disc)
        if abs(h12) > 1e-14 * max(abs(h11), abs(h22), 1e-300):
            v = np.array([h12, lam - h11])
        elif h11 >= h22:
            v = np.array([1.0, 0.0])
        else:
            v = np.array([0.0, 1.0])
        return v / np.linalg.norm(v)

    def _seed_line_samples(self):
        """Origins, direction vectors, signs and 401 vbar samples of the
        six seed lines.  Lines 0 and 1 run from the minimum to the lower
        saddle and to that saddle's lift opposite it (the two arc ends of
        an i1 orbit), lines 2 and 3 likewise from the maximum for i4, and
        lines 4 and 5 from the lower saddle along + and - its rising
        Hessian direction (one seed per open component); each sign makes
        sign * vbar rise away from the line's origin."""
        lat = self.model.lattice
        ends = []
        for extremum, which, side in (("minimum", "lower", 1.0),
                                      ("maximum", "upper", -1.0)):
            e = np.asarray(self._extrema[extremum].y, dtype=float)
            s = np.asarray(self._saddles[which].y, dtype=float)
            # the lift s + v of the saddle nearest its mirror image 2e - s
            mirror = 2.0 * (e - s)
            z = np.rint(lat.to_lattice(mirror))
            shifts = [(z[0] + n1) * lat.a1 + (z[1] + n2) * lat.a2
                      for n1 in (-1, 0, 1) for n2 in (-1, 0, 1)
                      if (z[0] + n1, z[1] + n2) != (0.0, 0.0)]
            lift = s + min(shifts,
                           key=lambda v: float(np.hypot(*(v - mirror))))
            ends += [(e, s - e, side), (e, lift - e, side)]
        sad = np.asarray(self._saddles["lower"].y, dtype=float)
        ray = (2.0 * math.hypot(TWO_PI, lat.a22)
               * self._saddle_plus_direction("lower"))
        ends += [(sad, ray, 1.0), (sad, -ray, 1.0)]
        origin, direction, side = (np.array(c) for c in zip(*ends))
        ts = np.linspace(0.0, 1.0, _LINE_SAMPLES + 1)
        vals, _ = self.model.value_grad(
            origin[:, :1] + ts * direction[:, :1],
            origin[:, 1:] + ts * direction[:, 1:])
        return origin, direction, side, vals

    def _seed_pairs(self, requests):
        """Two points on the level of each (edge_id, g): the arc ends A, B
        of a contractible edge or the two saddle-ray seeds of an open one.

        Each point is the first crossing of its seed line between two
        samples, refined by one bracketed Newton pass over every point of
        the batch; a point stops when its residual is at vbar's rounding
        level (near a saddle, where vbar is flat) or its Newton step at
        the rounding level of t."""
        if self._seed_lines is None:
            self._seed_lines = self._seed_line_samples()
        origin, direction, sign, samples = self._seed_lines
        try:
            line = np.array([_SEED_LINES[e] for e, _ in requests],
                            dtype=int).ravel()
        except KeyError as exc:
            raise DomainError(f"unknown edge {exc.args[0]}") from None
        levs = np.repeat([self.model.level_of(g) for _, g in requests], 2)
        side = sign[line]
        r = side[:, None] * (samples[line] - levs[:, None])
        k = np.argmax(r > 0.0, axis=1)
        rows = np.arange(len(k))
        if not np.all((k > 0) & (r[rows, k] > 0.0)):
            raise DomainError("no level crossing along a seed line")
        lo = (k - 1) / _LINE_SAMPLES
        hi = k / _LINE_SAMPLES
        r_lo, r_hi = r[rows, k - 1], r[rows, k]
        o1, o2 = origin[line].T
        d1, d2 = direction[line].T

        def fun(t, lanes):
            v, (g1, g2) = self.model.value_grad(o1[lanes] + t * d1[lanes],
                                                o2[lanes] + t * d2[lanes])
            s = side[lanes]
            return (s * (v - levs[lanes]),
                    s * (g1 * d1[lanes] + g2 * d2[lanes]))

        t = bracketed_newton(
            fun, lo, hi, lo - r_lo * (hi - lo) / (r_hi - r_lo),
            lambda t: 8.0 * _EPS * (1.0 + np.abs(t)),
            floor=4.0 * _EPS * (np.abs(levs) + self.model.l1))
        points = list(zip((o1 + t * d1).tolist(), (o2 + t * d2).tolist()))
        return list(zip(points[::2], points[1::2]))

    def seeds_for_edge(self, edge_id, g):
        """One or two points on the level {averaged energy = g} lying on the
        component(s) of the requested edge: the start A of a contractible
        orbit, or one seed per open component, whose lifts pass through
        the cell of the lower saddle."""
        a, b = self._seed_pairs([(edge_id, g)])[0]
        return [a] if edge_id in ("i1", "i4") else [a, b]

    # -- actions ----------------------------------------------------------

    def action_from_orbit(self, y0, orbit: OrbitResult) -> float:
        """Action of a traced orbit: enclosed-area or trapezium form."""
        w = orbit.winding
        if w == (0, 0):
            return orbit.area / TWO_PI
        lat = self.model.lattice
        shift = w[0] * lat.a1 + w[1] * lat.a2
        corr = float(y0[1]) * shift[0] + 0.5 * shift[0] * shift[1]
        return (orbit.area - corr) / TWO_PI

    def actions(self, requests) -> list:
        """Actions at [(edge_id, g), ...], every orbit in one orbit_lanes
        batch; raises as action() would for the first failing request.

        A contractible orbit runs as two arcs, A -> B and B -> A, so each
        lane passes its edge's saddle once rather than twice; an open edge
        runs one closed lane per saddle-ray seed.  Identical lanes run once,
        so i2 and i3 at one energy share their two orbits."""
        plans = []
        for edge_id, g in requests:
            edge = self.graph.edge(edge_id)
            g_lo, g_hi = edge.energy_range
            if not (g_lo < g < g_hi):
                raise DomainError(f"g={g} outside edge {edge_id} range")
            plans.append((edge_id, edge))
        lanes = {}  # (seed, target) -> lane
        slots = []
        for (edge_id, _), (a, b) in zip(plans, self._seed_pairs(requests)):
            pairs = (((a, b), (b, a)) if edge_id in ("i1", "i4")
                     else ((a, a), (b, b)))
            slots.append([(pair, lanes.setdefault(pair, len(lanes)))
                          for pair in pairs])
        orbits = orbit_lanes(self.model, [y0 for y0, _ in lanes],
                             _ORBIT_TOL, targets=[y for _, y in lanes])
        lat = self.model.lattice
        out = []
        for (edge_id, edge), slot in zip(plans, slots):
            results = [(pair[0], orbits[lane]) for pair, lane in slot]
            if not all(orbit.closed for _, orbit in results):
                raise SeparatrixProximityError(
                    "orbit failed to close (separatrix proximity?)")
            if edge_id in ("i1", "i4"):
                (a, first), (b, second) = results
                w1, w2 = first.winding, second.winding
                if (w1[0] + w2[0], w1[1] + w2[1]) != (0, 0):
                    raise DomainError("expected a contractible orbit")
                # the second arc, moved by the first arc's shift s1, runs
                # from B + s1 to A = A + s1 + s2: its area gains
                # s1_x (A_y + s2_y - B_y), with s2 = -s1
                s1 = w1[0] * lat.a1 + w1[1] * lat.a2
                area = first.area + second.area + float(s1[0]) * (
                    a[1] - float(s1[1]) - b[1])
                out.append(area / TWO_PI)
                continue
            want = edge.drift.d
            for y0, orbit in results:
                if orbit.winding == want:
                    out.append(self.action_from_orbit(y0, orbit))
                    break
            else:
                raise DomainError(f"no component with drift {want} found")
        return out

    def action(self, edge_id: str, g: float) -> float:
        return self.actions([(edge_id, g)])[0]


def action_i2(graph: ReebGraph, edge: str, g: float) -> float:
    """Action along one Reeb edge at averaged energy g."""
    return ActionComputer(graph).action(edge, g)


# ----------------------------------------------------------------------
# Separatrix limits and Kirchhoff identities
# ----------------------------------------------------------------------

@dataclass
class ActionLimits:
    i1: float
    i2_1p: float
    i2_2m: float
    i2_2p: float
    i2_3m: float
    i2_3p: float
    i2_4m: float
    cell_over_2pi: float

    def kirchhoff_residuals(self):
        """(conservation at the lower saddle, cell-area bookkeeping).

        The second identity enters with the i4 limit negated: the outer
        areas and the open-edge spans tile the cell,
        i2_1p + span2 + span3 - i2_4m = cell/(2 pi).
        """
        k1 = self.i2_1p - self.i2_2m - self.i2_3m
        k2 = (self.i2_1p + (self.i2_2p - self.i2_2m)
              + (self.i2_3p - self.i2_3m) - self.i2_4m - self.cell_over_2pi)
        return k1, k2

    @property
    def spans(self):
        return (self.i2_2p - self.i2_2m, self.i2_3p - self.i2_3m)


def _log_fit_limit(deltas, values):
    """Extrapolate I(delta) -> I(0) through the basis
    {1, d, d log d, d^2, d^2 log d} (separatrix behavior)."""
    d = np.asarray(deltas, dtype=float)
    a = np.stack([np.ones_like(d), d, d * np.log(d), d * d,
                  d * d * np.log(d)], axis=1)
    coef, *_ = np.linalg.lstsq(a, np.asarray(values, dtype=float), rcond=None)
    return float(coef[0])


def separatrix_limits(graph: ReebGraph) -> ActionLimits:
    """All six separatrix action limits of one slice."""
    comp = ActionComputer(graph)
    if graph.kind != "simple":
        raise DomainError(
            f"separatrix limits need a simple graph, got {graph.kind}")
    g_min = graph.edge("i1").energy_range[0]
    g_lo, g_hi = graph.edge("i2").energy_range
    g_max = graph.edge("i4").energy_range[1]

    span1 = g_lo - g_min
    span24 = g_hi - g_lo
    span4 = g_max - g_hi
    # (edge, separatrix energy, side, edge span) of i2_1p, i2_4m, i2_2m,
    # i2_2p, i2_3m, i2_3p; all of their actions form one batch
    ends = (("i1", g_lo, -1.0, span1), ("i4", g_hi, +1.0, span4),
            ("i2", g_lo, +1.0, span24), ("i2", g_hi, -1.0, span24),
            ("i3", g_lo, +1.0, span24), ("i3", g_hi, -1.0, span24))
    deltas = [[2e-3 * span / 4.0 ** k for k in range(5)]
              for _, _, _, span in ends]
    vals = comp.actions([(edge_id, target + side * d)
                         for (edge_id, target, side, _), ds in zip(ends, deltas)
                         for d in ds])
    i2_1p, i2_4m, i2_2m, i2_2p, i2_3m, i2_3p = (
        _log_fit_limit(ds, vals[k * 5:(k + 1) * 5])
        for k, ds in enumerate(deltas))
    return ActionLimits(i1=graph.i1, i2_1p=i2_1p, i2_2m=i2_2m, i2_2p=i2_2p,
                        i2_3m=i2_3m, i2_3p=i2_3p, i2_4m=i2_4m,
                        cell_over_2pi=comp.cell_over_2pi)


# ----------------------------------------------------------------------
# Direct separatrix-arc oracle
# ----------------------------------------------------------------------

def _arc_trapezium(model: DriftModel, saddle_y, direction):
    """Integrate one separatrix arc from a saddle to its lattice translate.

    Unit-speed flow along the level set, seeded _ARC_OFFSET away from the
    saddle along a cone direction of the level set; returns the raw area
    integral, the winding, and the endpoints including the closing
    straight-segment corrections at both saddle ends.
    """
    lat = model.lattice
    y_s = np.asarray(saddle_y, dtype=float)
    u = np.asarray(direction, dtype=float)
    u = u / np.linalg.norm(u)
    lev = model.vbar(y_s[0], y_s[1])

    start = y_s + _ARC_OFFSET * u
    # project the seed back onto the level
    for _ in range(60):
        d1, d2 = model.grad(start[0], start[1])
        n2 = d1 * d1 + d2 * d2
        if n2 < 1e-300:
            break
        r = model.vbar(start[0], start[1]) - lev
        if abs(r) < 1e-15 * max(model.l1, 1e-300):
            break
        start = start - r * np.array([d1, d2]) / n2

    def field(t, state):
        y1, y2, _ = state
        d1, d2 = model.grad(y1, y2)
        norm = math.hypot(d1, d2)
        if norm < 1e-300:
            return (0.0, 0.0, 0.0)
        return (-d2 / norm, d1 / norm, y1 * d1 / norm)

    # only flow-outgoing arcs are integrated: those start at the canonical
    # saddle lift, matching the seed convention of ActionComputer
    f0 = field(0.0, (*start, 0.0))
    if (np.array(f0[:2]) @ u) <= 0.0:
        return None

    hit = {}
    cell_diam = math.hypot(TWO_PI + abs(lat.a21), lat.a22)

    def observer(ta, sa, tb, sb, dense):
        yb = np.array(sb[:2])
        z = lat.to_lattice(yb - y_s)
        w = z - np.round(z)
        if ta > 4.0 * _ARC_OFFSET and float(np.max(np.abs(
                lat.to_cartesian(w)))) < 8.0 * _ARC_OFFSET:
            hit["state"] = sb
            return tb
        return None

    from .numerics import integrate_ode
    integrate_ode(field, (*start, 0.0), 40.0 * cell_diam, _ARC_TOL,
                  step_observer=observer, first_step=_ARC_OFFSET)
    if "state" not in hit:
        raise SeparatrixProximityError("separatrix arc did not reconnect")
    end_state = hit["state"]
    end = np.array(end_state[:2])
    z = lat.to_lattice(end - y_s)
    winding = np.round(z).astype(int)
    target = y_s + winding[0] * lat.a1 + winding[1] * lat.a2
    area = end_state[2]
    # straight closing segments saddle->start and end->saddle translate
    area += 0.5 * (start[1] - y_s[1]) * (y_s[0] + start[0])
    area += 0.5 * (target[1] - end[1]) * (end[0] + target[0])
    shift = winding[0] * lat.a1 + winding[1] * lat.a2
    corr = y_s[1] * shift[0] + 0.5 * shift[0] * shift[1]
    return {
        "i2": (area - corr) / TWO_PI,
        "raw_area": area,
        "winding": (int(winding[0]), int(winding[1])),
    }


def separatrix_web_actions(graph: ReebGraph):
    """Independent oracle: arc integrals over both saddle webs.

    Each saddle emits two flow-outgoing separatrix arcs with windings +-d.
    Their trapezium actions are the open-edge limits at that saddle (the
    upper ones modulo one cell lift), and their sum is the loop area of the
    adjacent eye: the sum of the lower arcs is the i1-edge limit, the sum
    of the upper arcs the i4-edge limit (the lift corrections cancel in the
    sum, so those two are lift-free).
    """
    comp = ActionComputer(graph)
    if graph.kind != "simple":
        raise DomainError("web actions need a simple graph")
    out = {}
    for which in ("lower", "upper"):
        sad = comp._saddles[which]
        # level-set cone directions at the saddle: vbar - lev vanishes to
        # second order along um/up = +-sqrt(-lam_p/lam_m)
        h11, h12, h22 = comp.model.hessian(sad.y[0], sad.y[1])
        tr, det = h11 + h22, h11 * h22 - h12 * h12
        disc = math.sqrt(max(tr * tr - 4 * det, 0.0))
        lam_p, lam_m = 0.5 * (tr + disc), 0.5 * (tr - disc)
        v_p = comp._saddle_plus_direction(which)
        v_m = np.array([-v_p[1], v_p[0]])
        slope = math.sqrt(-lam_p / lam_m) if lam_m < 0 else 1.0
        cone1 = v_p + slope * v_m
        cone2 = v_p - slope * v_m
        seen = {}
        for cone in (cone1, -cone1, cone2, -cone2):
            try:
                arc = _arc_trapezium(comp.model, sad.y, cone)
            except (SeparatrixProximityError, DomainError):
                continue
            if arc is not None:
                seen.setdefault(arc["winding"], arc)
        out[which] = seen
    d = graph.edge("i2").drift.d
    d_neg = (-d[0], -d[1])
    result = {}
    if d in out["lower"]:
        result["i2_2m"] = out["lower"][d]["i2"]
    if d_neg in out["lower"]:
        result["i2_3m"] = out["lower"][d_neg]["i2"]
    if d in out["upper"]:
        result["i2_2p_mod"] = out["upper"][d]["i2"]
    if d_neg in out["upper"]:
        result["i2_3p_mod"] = out["upper"][d_neg]["i2"]
    if "i2_2m" in result and "i2_3m" in result:
        result["i2_1p"] = result["i2_2m"] + result["i2_3m"]
    if "i2_2p_mod" in result and "i2_3p_mod" in result:
        result["i2_4m"] = result["i2_2p_mod"] + result["i2_3p_mod"]
    return result


# ----------------------------------------------------------------------
# Closed form for the cosine example
# ----------------------------------------------------------------------

def _log_ratio_integral(upper: float) -> float:
    """int_0^upper log((1+x)/(1-x))/x dx with the removable point at 0."""
    if upper <= 0.0:
        return 0.0
    if upper >= 1.0:
        raise DomainError("integral endpoint must be below 1")

    def f(x):
        small = x < 1e-6
        safe = np.where(small, 0.5, x)
        return np.where(small, 2.0 + 2.0 * x * x / 3.0,
                        np.log((1.0 + safe) / (1.0 - safe)) / safe)

    return adaptive_quad(f, 0.0, upper)


def closed_form_outer_action(A: float, B: float, beta: float,
                             i1: float) -> float:
    """Outer separatrix action of the cosine example in closed form.

    This is (4/(pi beta)) * int_0^sqrt(Gamma) log((1+x)/(1-x))/x dx with
    Gamma the smaller-to-larger ratio of the two damped amplitudes; it
    equals the area of the separatrix eye around the potential minimum over
    2 pi (and minus that of the maximum eye).
    """
    if A <= 0.0 or B <= 0.0 or beta <= 0.0:
        raise DomainError("cosine example needs positive A, B, beta")
    r = math.sqrt(2.0 * max(i1, 0.0))
    wa = A * abs(bessel_j0(r))
    wb = B * abs(bessel_j0(beta * r))
    if wa == 0.0 or wb == 0.0:
        return 0.0
    gamma = min(wa / wb, wb / wa)
    if gamma > 1.0:
        raise DomainError("ratio bookkeeping failed")
    if gamma == 1.0:
        return math.pi / beta
    return (4.0 / (math.pi * beta)) * _log_ratio_integral(math.sqrt(gamma))


# ----------------------------------------------------------------------
# Energy <-> action tables per edge
# ----------------------------------------------------------------------

class _ChebyshevInterp:
    """Barycentric interpolation on Chebyshev points of the first kind."""

    def __init__(self, lo, hi, values):
        n = len(values)
        j = np.arange(n)
        self.nodes = self.points(lo, hi, n)
        self.weights = (-1.0) ** j * np.sin((2 * j + 1) * math.pi / (2 * n))
        self.values = np.asarray(values, dtype=float)
        self.lo, self.hi = lo, hi

    @staticmethod
    def points(lo, hi, n):
        j = np.arange(n)
        theta = (2 * j + 1) * math.pi / (2 * n)
        return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta)

    def __call__(self, x):
        x = float(x)
        diff = x - self.nodes
        exact = np.where(np.abs(diff) < 1e-15 * max(abs(self.hi), 1.0))[0]
        if len(exact):
            return float(self.values[exact[0]])
        w = self.weights / diff
        return float(w @ self.values / w.sum())


class _SingularTemplate:
    """Sum of the analytically known d log d endpoint terms of the action.

    Near a saddle the orbit period diverges like -n log(delta) /
    sqrt|det Hess| per slow passage (n passages per period), which
    integrates to a delta*(1 - log delta) term in the action; removing it
    restores spectral convergence of the Chebyshev table.
    """

    def __init__(self, ends):
        self.ends = ends  # list of (g_critical, side, amplitude)

    def __call__(self, g):
        total = 0.0
        for g_c, side, amp in self.ends:
            d = side * (g_c - g)  # positive inside the edge
            if d <= 0.0:
                continue
            total += amp * side * (d - d * math.log(d))
        return total


@dataclass
class EdgeActionTable:
    edge: str
    i1: float
    g_range: tuple
    i2_range: tuple
    interp_error: float
    _fwd: _ChebyshevInterp = None      # g -> I2 minus the singular template
    _template: _SingularTemplate = None

    def i2_of_energy(self, g: float) -> float:
        if not (self.g_range[0] <= g <= self.g_range[1]):
            raise DomainError(f"energy {g} outside table range {self.g_range}")
        val = self._fwd(g)
        if self._template is not None:
            val += self._template(g)
        return val

    def energy_of_i2(self, i2: float) -> float:
        lo, hi = self.i2_range
        if not (min(lo, hi) - 1e-12 <= i2 <= max(lo, hi) + 1e-12):
            raise DomainError(f"action {i2} outside table range {self.i2_range}")
        i2 = min(max(i2, min(lo, hi)), max(lo, hi))
        return find_root(lambda g: self.i2_of_energy(g) - i2, self.g_range[0],
                         self.g_range[1], 1e-13)


def _edge_singular_template(comp: ActionComputer, edge: str):
    g = comp.graph

    def amp(which, passages):
        det = abs(comp._saddles[which].hess_det)
        return passages / (TWO_PI * comp.model.eps * math.sqrt(det))

    if g.kind == "equal_saddles":
        # both saddles sit on the one separatrix level, two passages each
        both = -(amp("lower", 2.0) + amp("upper", 2.0))
        if edge == "i1":
            return _SingularTemplate([(g.edge("i1").energy_range[1], +1.0,
                                       both)])
        if edge == "i4":
            return _SingularTemplate([(g.edge("i4").energy_range[0], -1.0,
                                       both)])
        raise DomainError(f"unknown edge {edge}")
    if g.kind != "simple":
        return None
    g_lo_sad = g.edge("i2").energy_range[0]
    g_hi_sad = g.edge("i2").energy_range[1]
    if edge == "i1":
        # singular at the top end (lower saddle, two passages per loop)
        return _SingularTemplate([(g_lo_sad, +1.0, -amp("lower", 2.0))])
    if edge == "i4":
        return _SingularTemplate([(g_hi_sad, -1.0, -amp("upper", 2.0))])
    if edge in ("i2", "i3"):
        return _SingularTemplate([
            (g_lo_sad, -1.0, -amp("lower", 1.0)),
            (g_hi_sad, +1.0, -amp("upper", 1.0)),
        ])
    raise DomainError(f"unknown edge {edge}")


def _fit_table(edge, i1, lo, hi, template, gs, vals, probes,
               probe_vals):
    """Chebyshev table through the node actions, its error measured at the
    probes."""
    order = np.argsort(gs)
    if not np.all(np.diff(np.asarray(vals)[order]) > 0.0):
        raise DomainError(f"action is not monotone along edge {edge}")
    if template is not None:
        vals = [v - template(float(g)) for v, g in zip(vals, gs)]
    table = EdgeActionTable(edge=edge, i1=i1, g_range=(lo, hi),
                            i2_range=(0.0, 0.0), interp_error=math.inf,
                            _fwd=_ChebyshevInterp(lo, hi, vals),
                            _template=template)
    table.interp_error = max(abs(table.i2_of_energy(float(g)) - v)
                             for g, v in zip(probes, probe_vals))
    return table


def build_edge_tables(graph: ReebGraph, edges, nodes: int = 48,
                      target: float = 1e-8, max_nodes: int = 192) -> list:
    """Sampled monotone energy <-> action maps along several edges of one
    slice's graph.

    The declared interpolation error is measured against direct action
    evaluations at 7 interior probes; an edge's node count doubles, up to
    `max_nodes`, until the error drops below `target`, and an edge still
    above it at `max_nodes` raises ConvergenceError carrying the best table
    and its error.  The first pass integrates the probes and nodes of every
    edge as one orbit batch, and each later pass one batch for the edges
    still refining.
    """
    comp = ActionComputer(graph)
    windows = []
    for edge in edges:
        g_lo, g_hi = graph.edge(edge).energy_range
        pad = 1e-4 * (g_hi - g_lo)
        windows.append((g_lo + pad, g_hi - pad))
    probes = [np.linspace(lo + 0.03 * (hi - lo), hi - 0.03 * (hi - lo), 7)
              for lo, hi in windows]
    templates = [_edge_singular_template(comp, edge) for edge in edges]
    tables = [None] * len(edges)
    sizes = {k: min(nodes, max_nodes) for k in range(len(edges))}
    # the first batch holds every edge's probes, then every batch the nodes
    # of the edges still refining
    requests = [(edge, float(g)) for edge, gs in zip(edges, probes)
                for g in gs]
    probe_vals = None
    while sizes:
        node_gs = {k: _ChebyshevInterp.points(*windows[k], n)
                   for k, n in sizes.items()}
        requests += [(edges[k], float(g)) for k, gs in node_gs.items()
                     for g in gs]
        vals = comp.actions(requests)
        requests = []
        if probe_vals is None:
            probe_vals = [vals[7 * k:7 * k + 7] for k in range(len(edges))]
            vals = vals[7 * len(edges):]
        sizes = {}
        for k, gs in node_gs.items():
            node_vals, vals = vals[:len(gs)], vals[len(gs):]
            table = _fit_table(edges[k], graph.i1, *windows[k], templates[k],
                               gs, node_vals, probes[k], probe_vals[k])
            tables[k] = table
            if table.interp_error <= target:
                continue
            if len(gs) >= max_nodes:
                raise ConvergenceError(
                    f"edge {edges[k]} table error {table.interp_error:.3g} "
                    f"is above {target:.3g} at {len(gs)} nodes",
                    best=table, error=table.interp_error)
            sizes[k] = min(2 * len(gs), max_nodes)
    for table in tables:
        table.i2_range = (table.i2_of_energy(table.g_range[0]),
                          table.i2_of_energy(table.g_range[1]))
    return tables


def build_edge_table(graph: ReebGraph, edge: str, nodes: int = 48,
                     target: float = 1e-8,
                     max_nodes: int = 192) -> EdgeActionTable:
    """One edge's table: build_edge_tables on a single edge."""
    return build_edge_tables(graph, [edge], nodes, target, max_nodes)[0]


def energy_from_actions(table: EdgeActionTable, i1: float, i2: float) -> float:
    """Invert the edge table: averaged energy at (i1, i2)."""
    if abs(i1 - table.i1) > 1e-12 * max(1.0, abs(i1)):
        raise DomainError("table was built for a different cyclotron action")
    return table.energy_of_i2(i2)

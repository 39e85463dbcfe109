import json
import math

import numpy as np
import pytest

from driftband import classical
from driftband.classical import (CriticalPointSet, DriftData, DriftModel,
                                 SeparatrixProximityError,
                                 TrajectoryClass, UnsupportedTopologyError,
                                 build_reeb_graph, build_regimes,
                                 classify_trajectory, conjugate_vector,
                                 critical_i1_series, drift_field,
                                 find_critical_points, lexicographic_positive,
                                 lifted_hamiltonian_range, orbit_lanes,
                                 trace_level_set, _orbit_once)
from driftband.actions import _ORBIT_TOL
from driftband.cli import main
from driftband.numerics import Tolerance, bessel_j0, bessel_j0_zero
from driftband.potential import FourierPotential, Lattice, cosine_example

EPS = 0.02


def graph_mid_level(graph, edge_id):
    e = graph.edge(edge_id)
    return 0.5 * (e.energy_range[0] + e.energy_range[1])


# ----------------------------------------------------------------- field

def test_field_vanishes_at_critical_points():
    p = cosine_example(2.0, 1.0, 1.0)
    for y in [(0.0, 0.0), (math.pi, math.pi), (0.0, math.pi), (math.pi, 0.0)]:
        f = drift_field(p, EPS, 0.3, y)
        assert np.max(np.abs(f)) < 1e-12


def test_field_is_vertical_for_single_cosine():
    # with only the x1 cosine present the drift runs along x2
    p = cosine_example(1.5, 0.0, 1.0)
    i1 = 0.2
    a = 1.5 * bessel_j0(math.sqrt(2 * i1))
    for y1 in (0.5, 1.0, 2.5):
        f = drift_field(p, EPS, i1, (y1, 0.77))
        assert abs(f[0]) < 1e-14
        assert abs(f[1] - (-EPS * a * math.sin(y1))) < 1e-12


def test_field_matches_finite_differences():
    p = cosine_example(1.0, 0.7, 1.4)
    i1 = 0.45
    rng = np.random.default_rng(9)
    model = DriftModel(p, EPS, i1)
    step = 1e-5
    for _ in range(5):
        y = rng.uniform(0.0, 2 * math.pi, size=2)
        f = drift_field(p, EPS, i1, y)
        d1 = (model.vbar(y[0] + step, y[1]) - model.vbar(y[0] - step, y[1])) / (2 * step)
        d2 = (model.vbar(y[0], y[1] + step) - model.vbar(y[0], y[1] - step)) / (2 * step)
        assert abs(f[0] - (-EPS * d2)) < 1e-6
        assert abs(f[1] - EPS * d1) < 1e-6


# -------------------------------------------------------- critical points

def test_cosine_critical_points_at_zero_action():
    p = cosine_example(2.0, 1.0, 1.0)
    cps = find_critical_points(p, EPS, 0.0)
    assert len(cps) == 4
    kinds = sorted(c.kind for c in cps)
    assert kinds == ["maximum", "minimum", "saddle", "saddle"]
    levels = sorted(c.level for c in cps)
    assert np.allclose(levels, [-3.0, -1.0, 1.0, 3.0], atol=1e-9)
    cmax = cps.by_kind("maximum")[0]
    assert np.allclose(np.mod(cmax.y, 2 * math.pi), [0.0, 0.0], atol=1e-7) or \
        np.allclose(np.mod(np.add(cmax.y, math.pi), 2 * math.pi),
                    [math.pi, math.pi], atol=1e-7)
    cmin = cps.by_kind("minimum")[0]
    assert np.allclose(np.mod(cmin.y, 2 * math.pi), [math.pi, math.pi],
                       atol=1e-7)
    # averaged energies ride on top of I1
    assert abs(cmin.value - (0.0 + EPS * (-3.0))) < 1e-9


def test_generic_count_is_four():
    p = cosine_example(2.0, 1.0, 1.0)
    cps = find_critical_points(p, EPS, 0.7)
    assert len(cps) == 4


def test_degenerate_at_bessel_zero():
    # beta != 1 keeps the second cosine alive when the first factor dies
    p = cosine_example(1.0, 1.0, 2.0)
    i1 = 0.5 * bessel_j0_zero(1) ** 2
    model = DriftModel(p, EPS, i1)
    assert model.one_dimensional_direction() == (1, 0)


def test_flat_at_bessel_zero_when_beta_is_one():
    # with beta = 1 both damping factors vanish together
    p = cosine_example(1.0, 2.0, 1.0)
    i1 = 0.5 * bessel_j0_zero(1) ** 2
    model = DriftModel(p, EPS, i1)
    assert model.is_flat()
    graph = build_reeb_graph(p, EPS, i1)
    assert graph.kind == "flat"


def test_euler_characteristic_on_torus():
    rng = np.random.default_rng(17)
    for _ in range(4):
        A, B, beta = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), 1.0
        p = cosine_example(A, B, beta)
        cps = find_critical_points(p, EPS, rng.uniform(0.0, 1.5))
        n_min = len(cps.by_kind("minimum"))
        n_max = len(cps.by_kind("maximum"))
        n_sad = len(cps.by_kind("saddle"))
        assert n_min + n_max - n_sad == 0


# ------------------------------------------------------------- level sets

def test_single_component_near_extrema():
    p = cosine_example(2.0, 1.0, 1.0)
    i1 = 0.1
    graph = build_reeb_graph(p, EPS, i1)
    comps = trace_level_set(p, EPS, i1, graph_mid_level(graph, "i1"))
    assert len(comps) == 1
    assert comps[0].winding == (0, 0)
    comps = trace_level_set(p, EPS, i1, graph_mid_level(graph, "i4"))
    assert len(comps) == 1
    assert comps[0].winding == (0, 0)


def test_two_open_components_between_saddles():
    # first cosine dominates (A > B at small I1) -> drift along x2
    p = cosine_example(2.0, 1.0, 1.0)
    i1 = 0.1
    graph = build_reeb_graph(p, EPS, i1)
    comps = trace_level_set(p, EPS, i1, graph_mid_level(graph, "i2"))
    windings = sorted(c.winding for c in comps)
    assert windings == [(0, -1), (0, 1)]
    # second cosine dominates -> drift along x1
    p = cosine_example(1.0, 2.0, 1.0)
    graph = build_reeb_graph(p, EPS, i1)
    comps = trace_level_set(p, EPS, i1, graph_mid_level(graph, "i2"))
    windings = sorted(c.winding for c in comps)
    assert windings == [(-1, 0), (1, 0)]


def test_components_close_on_torus():
    p = cosine_example(2.0, 1.0, 1.0)
    i1 = 0.25
    graph = build_reeb_graph(p, EPS, i1)
    for eid in ("i1", "i2", "i4"):
        for comp in trace_level_set(p, EPS, i1, graph_mid_level(graph, eid)):
            assert comp.closure_defect(p.lattice) < 1e-8


def test_separatrix_guard():
    p = cosine_example(2.0, 1.0, 1.0)
    graph = build_reeb_graph(p, EPS, 0.1)
    g_saddle = graph.saddle_energies()[0]
    with pytest.raises(SeparatrixProximityError):
        trace_level_set(p, EPS, 0.1, g_saddle)


# -------------------------------------------------------------- Reeb graph

def test_simple_graph_structure():
    p = cosine_example(2.0, 1.0, 1.0)
    graph = build_reeb_graph(p, EPS, 0.3)
    assert graph.kind == "simple"
    assert [e.id for e in graph.edges] == ["i1", "i2", "i3", "i4"]
    assert graph.edge("i1").drift.d == (0, 0)
    d2 = graph.edge("i2").drift.d
    d3 = graph.edge("i3").drift.d
    assert d2 == (0, 1) and d3 == (0, -1)
    f = graph.edge("i2").drift.f
    assert d2[0] * f[0] + d2[1] * f[1] == 1


def test_equal_saddles_graph():
    p = cosine_example(1.0, 1.0, 1.0)
    graph = build_reeb_graph(p, EPS, 0.3)
    assert graph.kind == "equal_saddles"
    assert [e.id for e in graph.edges] == ["i1", "i4"]


def test_one_dimensional_graph():
    p = cosine_example(1.0, 2.0, 2.0)
    i1 = 0.5 * bessel_j0_zero(1) ** 2
    graph = build_reeb_graph(p, EPS, i1)
    assert graph.kind == "one_dimensional"
    assert [e.id for e in graph.edges] == ["i2", "i3"]
    assert graph.edge("i2").drift.d == (1, 0)


# ------------------------------------------------------------ trajectories

def test_fixed_point_at_minimum():
    p = cosine_example(2.0, 1.0, 1.0)
    cls = classify_trajectory(p, EPS, 0.3, (math.pi, math.pi))
    assert cls.kind == "fixed_point"


def test_closed_contractible_orbit():
    p = cosine_example(2.0, 1.0, 1.0)
    i1 = 0.3
    graph = build_reeb_graph(p, EPS, i1)
    comp = trace_level_set(p, EPS, i1, graph_mid_level(graph, "i1"))[0]
    y0 = comp.points[0]
    cls = classify_trajectory(p, EPS, i1, y0)
    assert cls.kind == "closed"
    assert cls.winding == (0, 0)
    assert cls.period > 0.0


def test_open_orbit_matches_level_winding():
    p = cosine_example(2.0, 1.0, 1.0)
    i1 = 0.3
    graph = build_reeb_graph(p, EPS, i1)
    for comp in trace_level_set(p, EPS, i1, graph_mid_level(graph, "i2")):
        cls = classify_trajectory(p, EPS, i1, comp.points[len(comp.points) // 3])
        assert cls.kind == "closed"
        assert cls.winding == comp.winding


def test_period_scales_inversely_with_eps():
    p = cosine_example(2.0, 1.0, 1.0)
    i1 = 0.3
    graph = build_reeb_graph(p, EPS, i1)
    comp = trace_level_set(p, EPS, i1, graph_mid_level(graph, "i1"))[0]
    y0 = comp.points[0]
    t1 = classify_trajectory(p, 0.02, i1, y0).period
    t2 = classify_trajectory(p, 0.04, i1, y0).period
    assert abs(t1 / t2 - 2.0) < 1e-6


def test_straight_drift_lines_close():
    # v = cos x1: the drift runs along x2 at the constant speed
    # eps |A J0(sqrt(2 I1)) sin y1|, so each step's error estimate is 0
    p = cosine_example(1.0, 0.0, 1.0)
    eps, i1 = 0.02, 0.3
    speed = eps * abs(bessel_j0(math.sqrt(2.0 * i1)))
    for y0 in [(0.5, 0.3), (2.0, 1.0), (1.0, 4.0)]:
        cls = classify_trajectory(p, eps, i1, y0)
        assert cls.kind == "closed"
        assert cls.winding == (0, -1)
        period = p.lattice.a22 / (speed * abs(math.sin(y0[0])))
        assert abs(cls.period / period - 1.0) < 1e-8


def test_energy_conservation_along_orbit():
    p = cosine_example(2.0, 1.0, 1.0)
    i1 = 0.3
    model = DriftModel(p, EPS, i1)
    graph = build_reeb_graph(p, EPS, i1)
    comp = trace_level_set(p, EPS, i1, graph_mid_level(graph, "i2"))[0]
    y0 = comp.points[5]
    orbit = _orbit_once(model, y0, Tolerance(3e-14, 3e-14, 400))
    assert orbit.closed
    e0 = model.energy(y0)
    e1 = model.energy(orbit.end_point)
    assert abs(e1 - e0) <= 1e-8 * max(abs(e0), 1e-10)


# ---------------------------------------------------------- critical series

def test_series_merged_for_proportional_amplitudes():
    p = cosine_example(2.0, 1.0, 1.0)
    series = critical_i1_series(p, EPS, 16.0)
    z1 = 0.5 * bessel_j0_zero(1) ** 2
    z2 = 0.5 * bessel_j0_zero(2) ** 2
    assert any(abs(v - z1) < 1e-8 for v in series.separable)
    assert any(abs(v - z2) < 1e-8 for v in series.separable)
    assert series.merged  # collisions coincide with the separable series
    assert not series.continuum


def test_series_continuum_flag():
    # one-dimensional at every I1: the cosine series with A = B, beta = 1
    # and the generic scan on two one-dimensional general potentials
    lattice = Lattice(0.0, 2 * math.pi)
    one_mode = FourierPotential(lattice, {(1, 0): 0.5, (-1, 0): 0.5})
    two_modes = FourierPotential(lattice, {
        (1, 0): 0.5, (-1, 0): 0.5, (2, 0): 0.2 + 0.1j, (-2, 0): 0.2 - 0.1j})
    for p, i1_max in [(cosine_example(1.0, 1.0, 1.0), 5.0),
                      (one_mode, 0.45), (two_modes, 0.45)]:
        series = critical_i1_series(p, EPS, i1_max)
        assert series.continuum
        assert series.saddle_collision == []


def test_series_distinct_for_beta_two():
    p = cosine_example(1.0, 1.0, 2.0)
    series = critical_i1_series(p, EPS, 4.0)
    assert series.saddle_collision
    assert series.separable
    # saddle collisions are where |J0(r)| = |J0(2r)|, not a Bessel zero
    for v in series.saddle_collision:
        if v in series.merged:
            continue
        r = math.sqrt(2 * v)
        assert abs(abs(bessel_j0(r)) - abs(bessel_j0(2 * r))) < 1e-9


def test_drift_flips_across_collision():
    p = cosine_example(1.0, 1.0, 2.0)
    series = critical_i1_series(p, EPS, 4.0)
    c = [v for v in series.saddle_collision
         if v not in series.merged and v > 0.1][0]
    g_lo = build_reeb_graph(p, EPS, c - 0.05)
    g_hi = build_reeb_graph(p, EPS, c + 0.05)
    d_lo = g_lo.edge("i2").drift.d
    d_hi = g_hi.edge("i2").drift.d
    assert {d_lo, d_hi} == {(1, 0), (0, 1)}


def _translated(p):
    """p with its (1, 0) and (0, 1) amplitudes times e^(0.7i) and e^(-1.1i):
    a translate of p, which the cosine closed form does not accept."""
    phase = {(1, 0): 0.7, (-1, 0): -0.7, (0, 1): -1.1, (0, -1): 1.1}
    return FourierPotential(p.lattice, {
        k: c * complex(math.cos(phase[k]), math.sin(phase[k]))
        for k, c in p.coeffs.items()})


TRANSLATED_CASES = [((1.0, 1.0, 2.0), 4.0), ((2.0, 1.0, 1.0), 16.0),
                    ((1.0, 1.5, 1.3), 3.0), ((3.0, 1.0, 1.0), 1.0)]


def test_generic_series_matches_cosine_series_on_translated_cosines():
    # shifting the cosine modes' phases translates the potential: the
    # topology is the cosine's, but the generic scan has to find the
    # transversal saddle collisions between its sample nodes, and the
    # level saddles at the ends of the scan (cosine(1, 1, 2) at I1 = 0)
    for args, i1_max in TRANSLATED_CASES:
        p = cosine_example(*args)
        shifted = _translated(p)
        closed = critical_i1_series(p, EPS, i1_max).saddle_collision
        generic = critical_i1_series(shifted, EPS, i1_max).saddle_collision
        assert len(generic) == len(closed), (args, generic, closed)
        for a, b in zip(generic, closed):
            assert abs(a - b) < 1e-8, (args, a, b)
        if args == (1.0, 1.0, 2.0):
            assert generic[0] == 0.0
    assert closed == []  # cosine(3, 1, 1) below I1 = 1


def _scalar_golden_min(p, eps, a, b):
    """Golden section on one bracket, one Newton pass per evaluation (the
    search of earlier versions)."""
    def f(i1):
        return classical._saddle_gap(*classical._slices(p, eps, [i1])[0])[0]

    inv = 0.5 * (math.sqrt(5.0) - 1.0)
    c, d = b - inv * (b - a), a + inv * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def test_lockstep_golden_sections_match_one_at_a_time(monkeypatch):
    # every local minimum of a scan's saddle gap is refined in lockstep,
    # one _slices call per golden step; each bracket's result is the
    # one-at-a-time search's, bit for bit, and so are the collisions
    calls = []
    real = classical._slices

    def counted(p, eps, i1s):
        calls.append(len(i1s))
        return real(p, eps, i1s)

    for args, i1_max in TRANSLATED_CASES[:3]:
        shifted = _translated(cosine_example(*args))
        xs = np.linspace(0.0, i1_max, 201)
        gaps = np.array([classical._saddle_gap(*sl)[0]
                         for sl in classical._slices(shifted, EPS, xs)])
        tol = 1e-9 * shifted.coeff_l1
        mid = np.flatnonzero((gaps[1:-1] > tol) & (gaps[1:-1] < gaps[:-2])
                             & (gaps[1:-1] < gaps[2:])) + 1
        assert mid.size
        want = [_scalar_golden_min(shifted, EPS, float(xs[j - 1]),
                                   float(xs[j + 1])) for j in mid]
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(classical, "_slices", counted)
            x, gap = classical._golden_min(shifted, EPS, xs[mid - 1],
                                           xs[mid + 1])
        assert calls == [2 * mid.size] + [mid.size] * 60
        assert x.tolist() == [w[0] for w in want]
        assert gap.tolist() == [w[1] for w in want]
        nodes = xs[gaps <= tol].tolist()
        series = critical_i1_series(shifted, EPS, i1_max)
        assert series.saddle_collision == sorted(
            nodes + [xw for xw, gw in want if gw <= tol])


def test_generic_series_reports_a_continuum_on_translated_cosine():
    # cosine(1, 1, 1) has level saddles at every I1: the closed form
    # reports a continuum, and so must the scan of its translate
    p = cosine_example(1.0, 1.0, 1.0)
    closed = critical_i1_series(p, 0.01, 4.0)
    generic = critical_i1_series(_translated(p), 0.01, 4.0)
    assert closed.continuum and closed.saddle_collision == []
    assert generic.continuum and generic.saddle_collision == []


# ----------------------------------------------------------------- regimes

def test_boundary_curves_match_analytic():
    A, B, beta = 2.0, 1.0, 1.0
    p = cosine_example(A, B, beta)
    chart = build_regimes(p, EPS, 1.0, delta=0.0, grid=21)
    for i1, emin, emax, elo, ehi in zip(chart.i1_grid, chart.curves["E_min"],
                                        chart.curves["E_max"],
                                        chart.curves["E_lower_saddle"],
                                        chart.curves["E_upper_saddle"]):
        r = math.sqrt(2 * i1)
        a = A * abs(bessel_j0(r))
        b = B * abs(bessel_j0(beta * r))
        assert abs(emin - (i1 - EPS * (a + b))) < 1e-8
        assert abs(emax - (i1 + EPS * (a + b))) < 1e-8
        assert abs(ehi - (i1 + EPS * abs(a - b))) < 1e-8
        assert abs(elo - (i1 - EPS * abs(a - b))) < 1e-8


def test_regimes_collapse_at_zero_eps():
    p = cosine_example(2.0, 1.0, 1.0)
    chart = build_regimes(p, 0.0, 1.0, grid=11)
    assert chart.collapsed
    assert np.allclose(chart.curves["E_min"], chart.i1_grid)


def test_regime_kinds():
    p = cosine_example(2.0, 1.0, 1.0)
    chart = build_regimes(p, EPS, 1.0, delta=0.0, grid=21)
    kinds = {(r.reeb_edge, r.kind) for r in chart.regimes}
    assert ("i1", "boundary") in kinds
    assert ("i2", "interior") in kinds
    for r in chart.regimes:
        if r.kind == "interior":
            assert r.drift.d != (0, 0)
        else:
            assert r.drift.d == (0, 0)


# ------------------------------------------------- lifted-orbit invariance

def test_lifted_hamiltonian_stays_within_band():
    p = cosine_example(2.0, 1.0, 1.0)
    i1 = 0.3
    model = DriftModel(p, EPS, i1)
    graph = build_reeb_graph(p, EPS, i1)
    comp = trace_level_set(p, EPS, i1, graph_mid_level(graph, "i2"))[0]
    lo, hi = lifted_hamiltonian_range(p, EPS, i1, comp.points)
    assert hi - lo <= 2.0 * EPS * p.coeff_l1 + 1e-12


# ------------------------------------------------------------ small helpers

def test_conjugate_vector():
    for d in [(1, 0), (0, 1), (2, 3), (-3, 5), (1, -4)]:
        f = conjugate_vector(d)
        assert d[0] * f[0] + d[1] * f[1] == 1


def test_lexicographic_rule():
    assert lexicographic_positive((-1, 0)) == (1, 0)
    assert lexicographic_positive((0, -2)) == (0, 2)
    assert lexicographic_positive((2, -1)) == (2, -1)


def _bisection_orbit(model, y0, tol):
    """Reference closure: the bracketing step of _orbit_once, then 60-step
    bisection of the section, re-integrating from the step start per probe
    (the closure search of earlier versions, kept here as an oracle)."""
    from driftband.numerics import integrate_ode
    lat = model.lattice

    def field(t, state):
        d1, d2 = model.grad(state[0], state[1])
        return (-d2, d1, state[0] * d1)

    z0 = lat.to_lattice(np.array(y0))
    f0 = field(0.0, (*y0, 0.0))
    n_lat = np.array([(f0[0] - lat.a21 * f0[1] / lat.a22) / (2 * math.pi),
                      f0[1] / lat.a22])
    n_lat /= np.linalg.norm(n_lat)
    cell_diam = math.hypot(2 * math.pi + abs(lat.a21), lat.a22)
    speed = math.hypot(f0[0], f0[1])

    def sigma(y):
        dz = lat.to_lattice(np.asarray(y[:2])) - z0
        w = dz - np.round(dz)
        return float(n_lat @ w), float(np.max(np.abs(w)))

    hit = {}

    def observer(ta, sa, tb, sb, dense):
        (sg0, w0), (sg1, w1) = sigma(sa), sigma(sb)
        if ta > 0.0 and sg0 < 0.0 <= sg1 and min(w0, w1) < 0.2:
            hit["bracket"] = (ta, sa, tb)
            return tb
        return None

    integrate_ode(field, (*y0, 0.0), 400.0 * cell_diam / speed, tol,
                  step_observer=observer, first_step=0.01 * cell_diam / speed)
    ta, sa, tb = hit["bracket"]

    def state_at(dt):
        if dt <= 0.0:
            return sa
        return tuple(integrate_ode(field, sa, dt, tol, first_step=dt).ys[-1])

    lo, hi = 0.0, tb - ta
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if sigma(state_at(mid))[0] < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * max(tb, 1.0):
            break
    s_end = state_at(hi)
    assert sigma(s_end)[1] < 1e-6  # no false alarm on these orbits
    winding = np.round(lat.to_lattice(np.array(s_end[:2])) - z0).astype(int)
    return ta + hi, (int(winding[0]), int(winding[1])), s_end[2]


@pytest.mark.parametrize("edge,winding", [("i1", (0, 0)), ("i2", (0, 1))])
def test_orbit_closure_matches_bisection(edge, winding, monkeypatch):
    p = cosine_example(2.0, 1.0, 1.0)
    i1 = 0.3
    model = DriftModel(p, EPS, i1)
    graph = build_reeb_graph(p, EPS, i1)
    comp = [c for c in trace_level_set(p, EPS, i1, graph_mid_level(graph, edge))
            if c.winding == winding][0]
    y0 = tuple(comp.points[3])
    tol = Tolerance(3e-14, 3e-14, 400)
    period, ref_winding, area = _bisection_orbit(
        model, y0, Tolerance(1e-14, 1e-14, 400))
    calls = []
    lanes = classical.orbit_lanes

    def counted(model, y0s, *args, **kwargs):
        calls.append(len(y0s))
        return lanes(model, y0s, *args, **kwargs)

    monkeypatch.setattr(classical, "orbit_lanes", counted)
    orbit = _orbit_once(model, y0, tol)
    assert orbit.closed
    assert calls == [1]  # one orbit_lanes call with one lane
    # and no scalar integrator to re-integrate the closing step with
    assert not hasattr(classical, "integrate_ode")
    assert orbit.winding == ref_winding == winding
    assert abs(orbit.period - period) < 1e-10
    assert abs(orbit.area - area) < 1e-10


def _mixed_seeds():
    """40 seeds on the i1, i2 and i4 levels of cosine(2, 1, 1)."""
    p = cosine_example(2.0, 1.0, 1.0)
    i1 = 0.3
    graph = build_reeb_graph(p, EPS, i1)
    seeds = []
    for edge in ("i1", "i2", "i4"):
        lo, hi = graph.edge(edge).energy_range
        for f in (0.02, 0.25, 0.5, 0.75, 0.98):
            for comp in trace_level_set(p, EPS, i1, lo + f * (hi - lo)):
                seeds += [tuple(comp.points[k]) for k in (1, 9)]
    return DriftModel(p, EPS, i1), seeds


def test_lane_bits_do_not_depend_on_the_batch():
    model, seeds = _mixed_seeds()
    assert len(seeds) == 40
    tol = _ORBIT_TOL
    batch = orbit_lanes(model, seeds, tol)
    assert all(o.closed for o in batch)
    assert {o.winding for o in batch} == {(0, 0), (0, 1), (0, -1)}
    for k in (0, 17, len(seeds) - 1):
        assert orbit_lanes(model, [seeds[k]], tol)[0] == batch[k]
    # reversed order: every lane still gives the same bits
    assert orbit_lanes(model, seeds[::-1], tol)[::-1] == batch
    # arc lanes, each to the other traced point of its component
    targets = [seeds[k ^ 1] for k in range(len(seeds))]
    arcs = orbit_lanes(model, seeds, tol, targets=targets)
    assert all(o.closed for o in arcs)
    for k in (0, 17, len(seeds) - 1):
        assert orbit_lanes(model, [seeds[k]], tol,
                           targets=[targets[k]])[0] == arcs[k]
    assert orbit_lanes(model, seeds[::-1], tol,
                       targets=targets[::-1])[::-1] == arcs
    # the two arcs of a closed contractible orbit add up to it
    lat = model.lattice
    for k in range(0, len(seeds), 2):
        if batch[k].winding != (0, 0):
            continue
        w1, w2 = arcs[k].winding, arcs[k + 1].winding
        assert (w1[0] + w2[0], w1[1] + w2[1]) == (0, 0)
        s1 = w1[0] * lat.a1 + w1[1] * lat.a2
        area = arcs[k].area + arcs[k + 1].area + s1[0] * (
            seeds[k][1] - s1[1] - seeds[k + 1][1])
        assert abs(area - batch[k].area) < 1e-10
        assert abs(arcs[k].period + arcs[k + 1].period
                   - batch[k].period) < 1e-9


def test_fixed_point_lane_fails_alone():
    model, seeds = _mixed_seeds()
    assert model.grad(0.0, 0.0) == (0.0, 0.0)  # the maximum of the cosine
    picked = [seeds[3], (0.0, 0.0), seeds[20]]
    tol = _ORBIT_TOL
    out = orbit_lanes(model, picked, tol)
    assert out[1] == classical.OrbitResult(closed=False)
    assert out[0] == orbit_lanes(model, [seeds[3]], tol)[0]
    assert out[2] == orbit_lanes(model, [seeds[20]], tol)[0]
    assert out[0].closed and out[2].closed
    # a time cap too short to close fails every lane, and only that way
    capped = orbit_lanes(model, picked, tol, t_cap=1e-3)
    assert capped == [classical.OrbitResult(closed=False)] * 3


def test_mixed_lanes_take_few_lockstep_steps(monkeypatch):
    # at the action lanes' tolerance; Dormand-Prince 5(4) lanes took 389
    # lockstep steps on this batch at 1e-11, the tolerance they ran at
    model, seeds = _mixed_seeds()
    steps = []
    step = classical.dop853_lane_step

    def counted(field, y, h, k, tol):
        steps.append(y.shape[1])
        return step(field, y, h, k, tol)

    monkeypatch.setattr(classical, "dop853_lane_step", counted)
    out = orbit_lanes(model, seeds, _ORBIT_TOL)
    assert all(o.closed for o in out)
    assert steps[0] == len(seeds)
    assert len(steps) <= 200


# ------------------------------------- array topology vs scalar cell loops

def _potential(a21, a22, modes):
    """Real potential from one coefficient per conjugate pair."""
    coeffs = dict(modes)
    coeffs.update({(-k1, -k2): c.conjugate() for (k1, k2), c in modes.items()})
    return FourierPotential(Lattice(a21, a22), coeffs)


def _sheared_few_mode():
    """Two dominant modes and two weak oblique ones on a sheared lattice."""
    return _potential(0.3, 5.5, {(1, 0): 0.5 + 0.05j, (0, 1): 0.32 - 0.04j,
                                 (1, 1): 0.04 + 0.01j, (1, -1): 0.03 - 0.015j})


TOPOLOGY_CASES = [
    (cosine_example(2.0, 1.0, 1.0), 0.3),
    (cosine_example(1.0, 1.6, 1.0), 0.3),
    (_sheared_few_mode(), 0.2),
]


def _scalar_segments(model, lev, n):
    """Marching squares one cell at a time (the loops of earlier versions),
    with edges numbered as _level_segments numbers them; also returns the
    number of saddle cells (cases 5 and 10)."""
    lat = model.lattice
    v = model.grid_vbar(n) - lev
    if np.any(v == 0.0):
        v = v + 1e-13 * max(model.l1, 1.0)
    pos = v > 0.0
    cross = {}
    for i in range(n):
        for j in range(n):
            a = v[i, j]
            b = v[(i + 1) % n, j]
            if (a > 0.0) != (b > 0.0):
                cross[i * n + j] = a / (a - b)
            b = v[i, (j + 1) % n]
            if (a > 0.0) != (b > 0.0):
                cross[n * n + i * n + j] = a / (a - b)
    segments = []
    saddle_cells = 0
    for i in range(n):
        for j in range(n):
            idx = (int(pos[i, j]) | int(pos[(i + 1) % n, j]) << 1
                   | int(pos[(i + 1) % n, (j + 1) % n]) << 2
                   | int(pos[i, (j + 1) % n]) << 3)
            if idx in (0, 15):
                continue
            edges = (i * n + j, n * n + ((i + 1) % n) * n + j,
                     i * n + (j + 1) % n, n * n + i * n + j)
            if idx in (5, 10):
                saddle_cells += 1
                center = lat.to_cartesian(np.array([(i + 0.5) / n,
                                                    (j + 0.5) / n]))
                cpos = model.vbar(center[0], center[1]) - lev > 0.0
                if idx == 5:
                    pairs = [(3, 0), (1, 2)] if cpos else [(3, 2), (1, 0)]
                else:
                    pairs = [(0, 1), (2, 3)] if cpos else [(0, 3), (2, 1)]
            else:
                pairs = classical._MS_SEGMENTS[idx]
            local = {}
            for side, key in enumerate(edges):
                if key in cross:
                    t = cross[key]
                    local[side] = np.array(
                        [(i + t, j), (i + 1.0, j + t), (i + t, j + 1.0),
                         (i, j + t)][side])
            for ein, eout in pairs:
                if ein in local and eout in local:
                    segments.append((edges[ein], edges[eout],
                                     local[ein] / n, local[eout] / n))
    return segments, saddle_cells


def _scalar_refine(model, ys, lev, iterations=4):
    out = ys.copy()
    for _ in range(iterations):
        for idx in range(len(out)):
            y1, y2 = out[idx]
            d1, d2 = model.grad(y1, y2)
            n2 = d1 * d1 + d2 * d2
            if n2 < 1e-30:
                continue
            r = model.vbar(y1, y2) - lev
            out[idx, 0] -= r * d1 / n2
            out[idx, 1] -= r * d2 / n2
    return out


def _as_arrays(segments):
    """A list of (edge_in, edge_out, point_in, point_out) as the arrays
    _level_segments returns."""
    e_in, e_out, p_in, p_out = zip(*segments)
    return (np.array(e_in), np.array(e_out), np.array(p_in),
            np.array(p_out))


def _walk_per_segment(model, v, lev):
    """Successor walk one segment at a time (the loop of earlier versions):
    a running integer offset aligns each entry point with the previous
    exit; each component is refined on its own."""
    lat = model.lattice
    segments = list(zip(*classical._level_segments(model, v, [lev])))
    succ = {int(seg[0]): sid for sid, seg in enumerate(segments)}
    used = [False] * len(segments)
    components = []
    for start in range(len(segments)):
        if used[start]:
            continue
        chain = []
        sid = start
        offset = np.zeros(2)
        prev_pt = None
        while True:
            used[sid] = True
            _, e_out, pt_in, pt_out = segments[sid]
            if prev_pt is not None:
                offset = offset + np.round(prev_pt - (pt_in + offset))
            chain.append(pt_in + offset)
            prev_pt = pt_out + offset
            sid = succ[int(e_out)]
            if sid == start:
                chain.append(prev_pt)
                break
        st = np.array(chain)
        winding = np.round(st[-1] - st[0]).astype(int)
        ys = classical._refine_polyline(model, lat.to_cartesian(st), lev)
        components.append(classical.LevelSetComponent(
            points=ys, winding=(int(winding[0]), int(winding[1])),
            energy=model.i1 + model.eps * lev, level=lev))
    components.sort(key=lambda c: (c.winding, float(c.points[0, 0])))
    return components


def _assert_trace_matches_scalar(model, lev, n, monkeypatch):
    """Segments must be identical to the cell loops'; components identical
    to the per-segment walk's on the same grid, and equal to those traced
    from the scalar segments and the scalar refinement (up to the last bit
    of sin/cos, which numpy and libm may round differently)."""
    ref_segments, saddle_cells = _scalar_segments(model, lev, n)
    v = model.grid_vbar(n)
    segments = classical._level_segments(model, v, [lev])
    assert len(segments[0]) == len(ref_segments) > 0
    for got, want in zip(segments, _as_arrays(ref_segments)):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    comps = classical._level_components(model, v, lev)
    walked = _walk_per_segment(model, v, lev)
    assert [c.winding for c in comps] == [c.winding for c in walked]
    for c, w in zip(comps, walked):
        assert np.array_equal(c.points, w.points)
    with monkeypatch.context() as m:
        m.setattr(classical, "_level_segments",
                  lambda model, v, levels: _as_arrays(
                      _scalar_segments(model, levels[0], n)[0]))
        m.setattr(classical, "_refine_polyline", _scalar_refine)
        ref = classical._level_components(model, v, lev)
    assert [c.winding for c in comps] == [c.winding for c in ref]
    for c, r in zip(comps, ref):
        assert c.points.shape == r.points.shape
        assert np.max(np.abs(c.points - r.points)) <= 1e-12
    return comps, saddle_cells


def _assert_crossed_edges_paired(model, lev, n):
    """Every grid edge whose end signs differ is the edge_in of exactly one
    segment and the edge_out of exactly one."""
    v = model.grid_vbar(n)
    d = v - lev
    if np.any(d == 0.0):
        d = d + 1e-13 * max(model.l1, 1.0)
    pos = d > 0.0
    i, j = np.nonzero(pos != np.roll(pos, -1, axis=0))
    crossed = (i * n + j).tolist()
    i, j = np.nonzero(pos != np.roll(pos, -1, axis=1))
    crossed += (n * n + i * n + j).tolist()
    e_in, e_out, _, _ = classical._level_segments(model, v, [lev])
    assert sorted(e_in.tolist()) == sorted(crossed)
    assert sorted(e_out.tolist()) == sorted(crossed)


def _assert_along_the_drift(model, comps):
    """At every interior point the central chord has a positive component
    along the drift J grad(vbar): the orientation comes from the
    marching-squares table alone."""
    for comp in comps:
        pts = comp.points
        _, (d1, d2) = model.value_grad(pts[1:-1, 0], pts[1:-1, 1])
        chord = pts[2:] - pts[:-2]
        assert np.all(-d2 * chord[:, 0] + d1 * chord[:, 1] > 0.0)


@pytest.mark.parametrize("case", range(len(TOPOLOGY_CASES)))
def test_level_segments_match_cell_loops(case, monkeypatch):
    p, i1 = TOPOLOGY_CASES[case]
    model = DriftModel(p, EPS, i1)
    graph = build_reeb_graph(p, EPS, i1)
    assert graph.kind == "simple"
    for eid in ("i1", "i2", "i4"):
        lev = model.level_of(graph_mid_level(graph, eid))
        for n in (48, 192):
            comps, _ = _assert_trace_matches_scalar(model, lev, n, monkeypatch)
            assert len(comps) == (2 if eid == "i2" else 1)
            _assert_crossed_edges_paired(model, lev, n)
            _assert_along_the_drift(model, comps)


def test_saddle_cells_on_coarse_grid(monkeypatch):
    # a strong (1, 1) mode tilts the saddles against the grid; on grids 8
    # and 10 one cell sits on the lower saddle and, at a level just above
    # it, has diagonal corner signs (these grids are too coarse for the
    # true topology, one contractible loop is traced instead of two open
    # lines, but the loop must still match the scalar cells and close)
    p = _potential(0.5, 6.0, {(1, 0): 0.4 + 0.13j, (0, 1): 0.29 - 0.11j,
                              (1, 1): 0.15 + 0.0j})
    model = DriftModel(p, EPS, 0.0)
    levels = sorted(c.level for c in find_critical_points(p, EPS, 0.0))
    lev = levels[1] + 0.1 * (levels[2] - levels[1])
    seen = 0
    for n in (8, 10):
        comps, saddle_cells = _assert_trace_matches_scalar(model, lev, n,
                                                           monkeypatch)
        _assert_crossed_edges_paired(model, lev, n)
        seen += saddle_cells
        for comp in comps:
            assert comp.closure_defect(p.lattice) < 1e-8
    assert seen > 0


def test_reeb_graph_evaluates_the_grid_once(monkeypatch):
    sizes = []
    real = DriftModel.grid_vbar

    def counted(self, n):
        sizes.append(n)
        return real(self, n)

    monkeypatch.setattr(DriftModel, "grid_vbar", counted)
    graph = build_reeb_graph(cosine_example(2.0, 1.0, 1.0), EPS, 0.3)
    assert graph.kind == "simple"
    assert sizes == [192]


def _walk_cycles(succ, p_in, p_out):
    """Cycles by the Python successor walk (the loop of earlier versions):
    per segment the least index of its cycle, and per cycle its unwrapped
    chain and winding, in order of that index."""
    succ = succ.tolist()
    label = [None] * len(succ)
    chains, windings = [], []
    for start in range(len(succ)):
        if label[start] is not None:
            continue
        cycle = [start]
        label[start] = start
        sid = succ[start]
        while sid != start:
            cycle.append(sid)
            label[sid] = start
            sid = succ[sid]
        pin, pout = p_in[cycle], p_out[cycle]
        off = np.zeros_like(pin)
        off[1:] = np.cumsum(np.round(pout[:-1] - pin[1:]), axis=0)
        st = np.concatenate([pin + off, pout[-1:] + off[-1]])
        chains.append(st)
        w = np.round(st[-1] - st[0]).astype(int)
        windings.append((int(w[0]), int(w[1])))
    return label, chains, windings


def _probe_levels(model, cps, fractions):
    lo, hi = min(c.level for c in cps), max(c.level for c in cps)
    return [lo + f * (hi - lo) for f in fractions]


@pytest.mark.parametrize("case", range(len(TOPOLOGY_CASES)))
def test_cycle_labels_and_windings_match_the_walk(case):
    p, i1 = TOPOLOGY_CASES[case]
    model = DriftModel(p, EPS, i1)
    cps = find_critical_points(p, EPS, i1)
    levels = _probe_levels(model, cps, (0.03, 0.2, 0.41, 0.5, 0.63, 0.8,
                                        0.97))
    for n in (48, 192):
        v = model.grid_vbar(n)
        segments = classical._level_segments(model, v, levels)
        cycles = classical._trace_components(model, v, levels)
        label, chains, windings = _walk_cycles(cycles.succ, *segments[2:])
        assert cycles.label.tolist() == label
        assert [tuple(w) for w in cycles.winding.tolist()] == windings
        got = cycles.chains()
        assert len(got) == len(chains)
        for a, b in zip(got, chains):
            assert np.array_equal(a, b)
        # one pass over all levels traces what each level alone traces
        for k, lev in enumerate(levels):
            alone = classical._trace_components(model, v, [lev])
            assert cycles.windings(k) == alone.windings(0)
            e_in, e_out, p_in, p_out = classical._level_segments(model, v,
                                                                 [lev])
            mine = segments[0] // (2 * n * n) == k
            assert np.array_equal(segments[0][mine] - 2 * k * n * n, e_in)
            assert np.array_equal(segments[1][mine] - 2 * k * n * n, e_out)
            assert np.array_equal(segments[2][mine], p_in)
            assert np.array_equal(segments[3][mine], p_out)


def test_reeb_graph_refines_no_polyline(monkeypatch):
    # the probes read windings only, which come from the unrefined chain
    calls = []
    real = classical._refine_polyline

    def counted(model, ys, lev):
        calls.append(len(ys))
        return real(model, ys, lev)

    monkeypatch.setattr(classical, "_refine_polyline", counted)
    for p, i1 in TOPOLOGY_CASES:
        graph = build_reeb_graph(p, EPS, i1)
        assert graph.kind == "simple"
    assert calls == []
    # trace_level_set refines every component of its level in one call
    trace_level_set(p, EPS, i1, graph_mid_level(graph, "i2"))
    assert len(calls) == 1


def _oblique(a21, a22):
    """The 8-mode oblique potential of the operator-oracle plan."""
    return _potential(a21, a22, {(1, 0): 0.5, (0, 1): 0.3, (1, 1): 0.1,
                                 (1, -1): 0.05j})


@pytest.mark.parametrize("p", [cosine_example(2.0, 1.0, 1.0),
                               _sheared_few_mode(),
                               _oblique(0.0, 2 * math.pi),
                               _oblique(1.3, 5.0)],
                         ids=["cosine", "sheared", "oblique", "oblique-a21"])
def test_grid_vbar_matches_direct_evaluation(p):
    model = DriftModel(p, EPS, 0.2)
    for n in (8, 9, 10, 48, 191, 192, 512):
        s = np.arange(n) / n
        st = np.stack(np.meshgrid(s, s, indexing="ij"), axis=-1)
        direct = model.averaged.value(p.lattice.to_cartesian(st))
        grid = model.grid_vbar(n)
        assert grid.shape == (n, n)
        assert np.max(np.abs(grid - direct)) <= 1e-14 * model.l1


def _scalar_critical_points(model, seeds):
    """Newton from one seed at a time (the loop of earlier versions)."""
    lat = model.lattice
    gscale = max(model.grad_scale, 1e-300)
    hscale = max(model.hess_scale, 1e-300)
    roots = []
    for i in range(seeds):
        for j in range(seeds):
            y = lat.to_cartesian(np.array([(i + 0.5) / seeds,
                                           (j + 0.5) / seeds]))
            y1, y2 = float(y[0]), float(y[1])
            for _ in range(40):
                d1, d2 = model.grad(y1, y2)
                if math.hypot(d1, d2) <= 1e-12 * gscale:
                    roots.append((y1, y2))
                    break
                h11, h12, h22 = model.hessian(y1, y2)
                det = h11 * h22 - h12 * h12
                if abs(det) < 1e-13 * hscale * hscale:
                    break
                dy1 = (h22 * d1 - h12 * d2) / det
                dy2 = (h11 * d2 - h12 * d1) / det
                step = math.hypot(dy1, dy2)
                cap = 0.35 * min(2 * math.pi, lat.a22)
                if step > cap:
                    dy1 *= cap / step
                    dy2 *= cap / step
                y1 -= dy1
                y2 -= dy2
    found = {}
    for y1, y2 in roots:
        st = lat.to_lattice((y1, y2)) % 1.0
        key = (round(st[0] * 1e7) % int(1e7), round(st[1] * 1e7) % int(1e7))
        if any(min(abs(key[0] - k[0]), 1e7 - abs(key[0] - k[0])) < 1e3
               and min(abs(key[1] - k[1]), 1e7 - abs(key[1] - k[1])) < 1e3
               for k in found):
            continue
        yy = lat.to_cartesian(st)
        h11, h12, h22 = model.hessian(yy[0], yy[1])
        det = h11 * h22 - h12 * h12
        kind = ("saddle" if det <= 0.0 else
                "minimum" if h11 + h22 > 0.0 else "maximum")
        found[key] = (model.vbar(yy[0], yy[1]), (float(yy[0]), float(yy[1])),
                      kind)
    return sorted(found.values()), len(roots) > seeds * seeds // 2


@pytest.mark.parametrize("seeds", [16, 32])
def test_critical_points_match_scalar_newton(seeds):
    # on the oblique-only potential fewer than half the seeds converge
    # (480 of 32x32; the rest run into the 40-step cap or a singular
    # Hessian), so its set is flagged incomplete; a second cosine of
    # amplitude 1e-14 makes every Hessian singular, so every lane stops at
    # once and nothing is found
    oblique = _potential(0.0, 2 * math.pi, {(1, 1): 0.5 + 0j,
                                            (1, -1): 0.3 + 0j})
    cases = TOPOLOGY_CASES + [(oblique, 0.1),
                              (cosine_example(1.5, 1e-14, 1.0), 0.1)]
    completes = []
    for p, i1 in cases:
        model = DriftModel(p, EPS, i1)
        cps = classical._critical_points_of_model([model], seeds)[0]
        ref, complete = _scalar_critical_points(model, seeds)
        assert cps.complete == complete
        completes.append(complete)
        assert len(cps) == len(ref)
        for c, (level, y, kind) in zip(cps, ref):
            assert c.kind == kind
            assert max(abs(c.y[0] - y[0]), abs(c.y[1] - y[1])) <= 1e-12
            assert abs(c.level - level) <= 1e-12
    assert completes == [True, True, True, False, False]


@pytest.mark.parametrize("count", [1, 15, 16, 17, 201])
def test_batched_slices_match_single_slice_search(count):
    # 16 slices of 16 x 16 seeds fill one Newton pass: 15, 16 and 17 end
    # on either side of a pass, 201 (a critical-action scan) spans 13
    for p in (_sheared_few_mode(), cosine_example(2.0, 1.0, 1.0)):
        models = [DriftModel(p, EPS, float(i1))
                  for i1 in np.linspace(0.05, 3.0, count)]
        batch = classical._critical_points_of_model(models, 16)
        assert len(batch) == count
        for model, cps in zip(models, batch):
            alone = classical._critical_points_of_model([model], 16)[0]
            assert cps.complete == alone.complete
            assert cps.points == alone.points


def _dedup_per_slice(model, y1, y2, ok, seeds):
    """The critical point set of one model from its own Newton lanes, one
    unique key at a time (the per-slice pass of earlier versions)."""
    lat = model.lattice
    hscale = max(model.hess_scale, 1e-300)
    conv = np.nonzero(ok)[0]
    st = lat.to_lattice(np.stack([y1[conv], y2[conv]], axis=-1)) % 1.0
    keys = (np.rint(st * 1e7) % 1e7).astype(np.int64)
    _, first = np.unique(keys[:, 0] * 10**7 + keys[:, 1], return_index=True)
    found = {}
    for k in np.sort(first).tolist():
        key = (int(keys[k, 0]), int(keys[k, 1]))
        if any(min(abs(key[0] - k2[0]), 1e7 - abs(key[0] - k2[0])) < 1e3
               and min(abs(key[1] - k2[1]), 1e7 - abs(key[1] - k2[1])) < 1e3
               for k2 in found):
            continue
        yy = lat.to_cartesian(st[k])
        h11, h12, h22 = model.hessian(yy[0], yy[1])
        det = h11 * h22 - h12 * h12
        kind = ("saddle" if det <= 0.0 else
                "minimum" if h11 + h22 > 0.0 else "maximum")
        lev = model.vbar(yy[0], yy[1])
        found[key] = classical.CriticalPoint(
            y=(float(yy[0]), float(yy[1])), kind=kind,
            value=model.i1 + model.eps * lev, level=lev, hess_det=det,
            degenerate=abs(det) < 1e-8 * hscale * hscale)
    return CriticalPointSet(
        points=sorted(found.values(), key=lambda c: (c.level, c.y)),
        complete=len(conv) > seeds * seeds // 2)


def test_one_dedup_pass_matches_per_slice_dedup(monkeypatch):
    # a 201-slice scan of a four-mode potential: each Newton pass's lanes
    # are deduplicated in one pass, equal to each slice's own pass
    passes = []
    real = classical._deduplicated

    def recorded(models, y1, y2, ok, seeds):
        got = real(models, y1, y2, ok, seeds)
        passes.append((models, y1.copy(), y2.copy(), ok.copy(), seeds, got))
        return got

    monkeypatch.setattr(classical, "_deduplicated", recorded)
    p = _sheared_few_mode()
    models = [DriftModel(p, EPS, float(i1))
              for i1 in np.linspace(0.0, 3.0, 201)]
    sets = classical._critical_points_of_model(models, 16)
    assert len(passes) == 13
    n = 16 * 16
    total = 0
    for models_, y1, y2, ok, seeds, got in passes:
        for j, (model, cps) in enumerate(zip(models_, got)):
            lanes = slice(j * n, (j + 1) * n)
            want = _dedup_per_slice(model, y1[lanes], y2[lanes], ok[lanes],
                                    seeds)
            assert cps.points == want.points
            assert cps.complete == want.complete
            assert cps is sets[total]
            total += 1
    assert total == 201
    # near-duplicates across the rounding boundary collapse as before: two
    # lanes 3e-5 cells apart (300 key units) give one point
    model = DriftModel(p, EPS, 0.2)
    cps = find_critical_points(p, EPS, 0.2)
    y = np.array([c.y for c in cps])
    st = p.lattice.to_lattice(y)
    nudged = p.lattice.to_cartesian(st + 3e-5)
    # 3 x 3 lanes per model: the points, the nudged points and the first
    # point again; none of the second model's lanes converged
    y1 = np.concatenate([y[:, 0], nudged[:, 0], y[:1, 0], np.zeros(9)])
    y2 = np.concatenate([y[:, 1], nudged[:, 1], y[:1, 1], np.zeros(9)])
    ok = np.arange(18) < 9
    got = real([model, model], y1, y2, ok, 3)
    want = _dedup_per_slice(model, y1[:9], y2[:9], ok[:9], 3)
    assert got[0].points == want.points and len(want.points) == 4
    assert got[1].points == [] and not got[1].complete


# ------------------------------------------------- sheared few-mode drift

def test_sheared_open_components_wind_oppositely():
    p = _sheared_few_mode()
    i1 = 0.2
    graph = build_reeb_graph(p, EPS, i1)
    comps = trace_level_set(p, EPS, i1, graph_mid_level(graph, "i2"))
    open_comps = [c for c in comps if not c.contractible]
    assert len(open_comps) == 2
    w0, w1 = open_comps[0].winding, open_comps[1].winding
    assert w1 == (-w0[0], -w0[1])
    assert math.gcd(abs(w0[0]), abs(w0[1])) == 1
    assert {w0, w1} == {graph.edge("i2").drift.d, graph.edge("i3").drift.d}
    for comp in open_comps:
        cls = classify_trajectory(p, EPS, i1,
                                  comp.points[len(comp.points) // 3])
        assert cls.kind == "closed"
        assert cls.winding == comp.winding


# ------------------------------------------ incomplete critical-point sets

def _patched_points(monkeypatch, keep=None, complete=True):
    # every seed search, one slice or a batch, goes through this function
    real = classical._critical_points_of_model

    def fake(models, seeds=32):
        return [CriticalPointSet(
            points=[c for c in cps if keep is None or c.kind in keep],
            complete=complete) for cps in real(models, seeds)]

    monkeypatch.setattr(classical, "_critical_points_of_model", fake)


def test_reeb_graph_rejects_incomplete_points(monkeypatch, tmp_path):
    p = cosine_example(2.0, 1.0, 1.0)
    expected = list(find_critical_points(p, EPS, 0.3))
    _patched_points(monkeypatch, complete=False)
    with pytest.raises(UnsupportedTopologyError) as info:
        build_reeb_graph(p, EPS, 0.3)
    assert info.value.points == expected
    cfg = tmp_path / "reeb.json"
    cfg.write_text(json.dumps({
        "potential": {"cosine": {"A": 2.0, "B": 1.0, "beta": 1.0}},
        "params": {"h": 0.1, "epsilon": EPS}, "i1": 0.3}))
    out = tmp_path / "out"
    assert main(["reeb", "--config", str(cfg), "--out", str(out)]) == 3


def test_incomplete_points_error_names_the_counts(tmp_path, capsys):
    # the oblique-only potential has a complete 2/4/2 set, yet fewer than
    # half of the Newton lanes converge; the gate stays, and the message
    # says what was found
    cfg = tmp_path / "oblique.json"
    cfg.write_text(json.dumps({
        "potential": {
            "lattice": {"a21": 0.0, "a22": 2 * math.pi},
            "coefficients": [
                {"k1": k1, "k2": k2, "re": re, "im": 0.0}
                for k1, k2, re in [(1, 1, 0.5), (-1, -1, 0.5),
                                   (1, -1, 0.3), (-1, 1, 0.3)]],
        },
        "params": {"h": 0.1, "epsilon": EPS}, "i1": 0.1}))
    out = tmp_path / "out"
    assert main(["reeb", "--config", str(cfg), "--out", str(out)]) == 3
    message = json.loads(capsys.readouterr().err)["message"]
    for count in ("2 minima", "4 saddles", "2 maxima"):
        assert count in message


@pytest.mark.parametrize("keep", [("maximum", "saddle"),
                                  ("minimum", "saddle")])
def test_regimes_reject_missing_extremum(keep, monkeypatch):
    p = cosine_example(2.0, 1.0, 1.0)
    _patched_points(monkeypatch, keep=keep)
    with pytest.raises(UnsupportedTopologyError) as info:
        build_regimes(p, EPS, 1.0, grid=5)
    kinds = {c.kind for c in info.value.points}
    assert kinds == set(keep)

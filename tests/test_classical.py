import math

import numpy as np
import pytest

from driftband.classical import (DriftData, DriftModel, SeparatrixProximityError,
                                 TrajectoryClass, UnsupportedTopologyError,
                                 build_reeb_graph, build_regimes,
                                 classify_trajectory, conjugate_vector,
                                 critical_i1_series, drift_field,
                                 find_critical_points, lexicographic_positive,
                                 lifted_hamiltonian_range, trace_level_set,
                                 _orbit_once)
from driftband.numerics import Tolerance, bessel_j0, bessel_j0_zero
from driftband.potential import cosine_example

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


def test_energy_conservation_along_orbit():
    p = cosine_example(2.0, 1.0, 1.0)
    i1 = 0.3
    model = DriftModel(p, EPS, i1)
    graph = build_reeb_graph(p, EPS, i1)
    comp = trace_level_set(p, EPS, i1, graph_mid_level(graph, "i2"))[0]
    y0 = comp.points[5]
    orbit = _orbit_once(model, y0, Tolerance(1e-12, 1e-12, 400))
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
    p = cosine_example(1.0, 1.0, 1.0)
    series = critical_i1_series(p, EPS, 5.0)
    assert series.continuum


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
    from driftband import classical
    p = cosine_example(2.0, 1.0, 1.0)
    i1 = 0.3
    model = DriftModel(p, EPS, i1)
    graph = build_reeb_graph(p, EPS, i1)
    comp = [c for c in trace_level_set(p, EPS, i1, graph_mid_level(graph, edge))
            if c.winding == winding][0]
    y0 = tuple(comp.points[3])
    tol = Tolerance(1e-12, 1e-12, 400)
    period, ref_winding, area = _bisection_orbit(model, y0, tol)
    calls = []
    integrate = classical.integrate_ode

    def counted(*args, **kwargs):
        calls.append(args[2])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(classical, "integrate_ode", counted)
    orbit = _orbit_once(model, y0, tol)
    assert orbit.closed
    assert len(calls) == 1  # the closure is found without re-integrating
    assert orbit.winding == ref_winding == winding
    assert abs(orbit.period - period) < 1e-10
    assert abs(orbit.area - area) < 1e-10

import math

import numpy as np
import pytest

from driftband import actions
from driftband.actions import (ActionComputer, EdgeActionTable,
                               build_edge_table, build_edge_tables,
                               closed_form_outer_action,
                               energy_from_actions, action_i2,
                               separatrix_limits, separatrix_web_actions,
                               _log_ratio_integral)
from driftband.classical import (OrbitResult, DriftModel, build_reeb_graph,
                                 orbit_lanes)
from driftband.numerics import (ConvergenceError, DomainError, Tolerance,
                                bessel_j0, find_root, integrate_ode)
from driftband.potential import FourierPotential, Lattice, cosine_example

EPS = 0.02


@pytest.fixture(scope="module")
def cosine21():
    p = cosine_example(2.0, 1.0, 1.0)
    graph = build_reeb_graph(p, EPS, 0.0)
    return p, graph


# ------------------------------------------------------------- basic laws

def test_outer_action_vanishes_at_bottom(cosine21):
    p, graph = cosine21
    e = graph.edge("i1")
    g_min = e.energy_range[0]
    span = e.energy_range[1] - g_min
    vals = [action_i2(p, EPS, 0.0, g_min + f * span, "i1", graph)
            for f in (0.002, 0.001)]
    assert abs(vals[1]) < abs(vals[0])
    assert abs(vals[1]) < 5e-3


def test_harmonic_area_law(cosine21):
    # near the minimum the action grows linearly with slope 1/omega
    p, graph = cosine21
    model = DriftModel(p, EPS, 0.0)
    cmin = graph.critical_points.by_kind("minimum")[0]
    h11, h12, h22 = model.hessian(cmin.y[0], cmin.y[1])
    omega = EPS * math.sqrt(h11 * h22 - h12 * h12)
    dg = 1e-3 * EPS
    val = action_i2(p, EPS, 0.0, cmin.value + dg, "i1", graph)
    assert abs(val - dg / omega) < 0.05 * dg / omega


def test_action_bound(cosine21):
    p, graph = cosine21
    bound = p.lattice.cell_area / (2 * math.pi)
    for eid in ("i1", "i4"):
        e = graph.edge(eid)
        g = 0.5 * (e.energy_range[0] + e.energy_range[1])
        assert abs(action_i2(p, EPS, 0.0, g, eid, graph)) <= bound + 1e-9


def test_sign_conventions(cosine21):
    p, graph = cosine21
    e1 = graph.edge("i1")
    e4 = graph.edge("i4")
    g1 = 0.5 * sum(e1.energy_range)
    g4 = 0.5 * sum(e4.energy_range)
    assert action_i2(p, EPS, 0.0, g1, "i1", graph) > 0.0
    assert action_i2(p, EPS, 0.0, g4, "i4", graph) < 0.0


def test_monotone_in_energy(cosine21):
    p, graph = cosine21
    for eid in ("i1", "i2", "i3", "i4"):
        e = graph.edge(eid)
        lo, hi = e.energy_range
        gs = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 5)
        vals = [action_i2(p, EPS, 0.0, float(g), eid, graph) for g in gs]
        assert np.all(np.diff(vals) > 0.0), eid


def test_wrong_energy_rejected(cosine21):
    p, graph = cosine21
    e4 = graph.edge("i4")
    with pytest.raises(DomainError):
        action_i2(p, EPS, 0.0, e4.energy_range[1] + 1.0, "i4", graph)


def test_lift_shift_changes_action_by_cell_area(cosine21):
    # recompute an open-edge action from a seed translated by the lattice
    # vector transverse to the drift: the action moves by one cell/2pi
    p, graph = cosine21
    comp = ActionComputer(p, EPS, 0.0, graph)
    e = graph.edge("i2")
    g = 0.5 * sum(e.energy_range)
    seeds = comp.seeds_for_edge("i2", g)
    for y0 in seeds:
        orbit = comp._orbit(y0)
        if orbit.winding != e.drift.d:
            continue
        base = comp.action_from_orbit(y0, orbit)
        f = e.drift.f
        shift = -f[1] * p.lattice.a1 + f[0] * p.lattice.a2  # J f . a
        y_shifted = np.asarray(y0) + shift
        orbit2 = comp._orbit(y_shifted)
        moved = comp.action_from_orbit(y_shifted, orbit2)
        cell = p.lattice.cell_area / (2 * math.pi)
        assert abs(abs(moved - base) - cell) < 1e-8
        break
    else:
        pytest.fail("no matching component")


# -------------------------------------------------------------- limits

def test_kirchhoff_identities(cosine21):
    p, graph = cosine21
    lim = separatrix_limits(p, EPS, 0.0, graph)
    k1, k2 = lim.kirchhoff_residuals()
    a22 = p.lattice.a22
    assert abs(k1) <= 1e-6 * a22
    assert abs(k2) <= 1e-6 * a22


def test_outer_symmetry(cosine21):
    p, graph = cosine21
    lim = separatrix_limits(p, EPS, 0.0, graph)
    assert abs(lim.i2_1p + lim.i2_4m) < 1e-7


def test_limits_match_web_oracle(cosine21):
    p, graph = cosine21
    lim = separatrix_limits(p, EPS, 0.0, graph)
    web = separatrix_web_actions(p, EPS, 0.0, graph)
    assert abs(web["i2_1p"] - lim.i2_1p) < 1e-6
    assert abs(web["i2_4m"] - lim.i2_4m) < 1e-6
    assert abs(web["i2_2m"] - lim.i2_2m) < 1e-6
    assert abs(web["i2_3m"] - lim.i2_3m) < 1e-6
    cell = lim.cell_over_2pi
    for key, ref in (("i2_2p_mod", lim.i2_2p), ("i2_3p_mod", lim.i2_3p)):
        k = round((ref - web[key]) / cell)
        assert abs(web[key] + k * cell - ref) < 1e-6


# ---------------------------------------------------------- closed form

def test_log_integral_value():
    series = 2.0 * sum(0.5 ** (2 * k + 1) / (2 * k + 1) ** 2
                       for k in range(80))
    assert abs(_log_ratio_integral(0.5) - series) < 1e-12


def test_closed_form_small_ratio_limit():
    # Gamma -> 0 as B -> 0 relative to A
    val = closed_form_outer_action(1.0, 1e-6, 1.0, 0.0)
    assert val < 1e-2


def test_closed_form_value_at_half_ratio():
    # A=2, B=1, beta=1: Gamma = 1/2 independent of I1
    val = closed_form_outer_action(2.0, 1.0, 1.0, 0.0)
    series = 2.0 * sum(math.sqrt(0.5) ** (2 * k + 1) / (2 * k + 1) ** 2
                       for k in range(120))
    assert abs(val - (4.0 / math.pi) * series) < 1e-10
    assert abs(val - 1.9253919) < 1e-6


def test_closed_form_equal_ratio():
    assert abs(closed_form_outer_action(1.0, 1.0, 2.0, 0.0)
               - math.pi / 2.0) < 1e-12


def test_closed_form_matches_separatrix_route(cosine21):
    p, graph = cosine21
    lim = separatrix_limits(p, EPS, 0.0, graph)
    cf = closed_form_outer_action(2.0, 1.0, 1.0, 0.0)
    assert abs(cf - lim.i2_1p) / cf < 1e-6


def test_closed_form_at_generic_action():
    i1 = 0.37
    p = cosine_example(2.0, 1.0, 1.0)
    lim = separatrix_limits(p, EPS, i1)
    cf = closed_form_outer_action(2.0, 1.0, 1.0, i1)
    assert abs(cf - lim.i2_1p) / cf < 1e-6


# ------------------------------------------------------------- tables

@pytest.fixture(scope="module")
def table_i1(cosine21):
    p, graph = cosine21
    return p, graph, build_edge_table(p, EPS, 0.0, "i1", graph, nodes=32)


def test_table_roundtrip(table_i1):
    p, graph, table = table_i1
    lo, hi = table.g_range
    for g in np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), 7):
        i2 = table.i2_of_energy(float(g))
        back = table.energy_of_i2(i2)
        assert abs(back - g) < 1e-8


def test_table_matches_direct_action(table_i1):
    p, graph, table = table_i1
    lo, hi = table.g_range
    for g in (lo + 0.3 * (hi - lo), lo + 0.7 * (hi - lo)):
        direct = action_i2(p, EPS, 0.0, float(g), "i1", graph)
        assert abs(table.i2_of_energy(float(g)) - direct) < 1e-8


def test_table_declares_small_error(table_i1):
    _, _, table = table_i1
    assert table.interp_error < 1e-6


def test_energy_from_actions_endpoint(table_i1):
    p, graph, table = table_i1
    # I2 -> 0 recovers the bottom of the well
    g_min = graph.edge("i1").energy_range[0]
    i2_small = table.i2_range[0]
    e = energy_from_actions(table, 0.0, i2_small)
    assert e < g_min + 0.01 * (graph.edge("i1").energy_range[1] - g_min)


def test_energy_from_actions_checks_i1(table_i1):
    _, _, table = table_i1
    with pytest.raises(DomainError):
        energy_from_actions(table, 1.0, table.i2_range[0])


# ------------------------------------------- batched orbits vs scalar orbits

# the scalar reference runs far tighter than the lanes' 1e-11, so that it
# measures their error rather than a shared method's
_REF_TOL = Tolerance(1e-14, 1e-14, 400)


def _scalar_orbit(model, y0, tol):
    """Reference: one orbit integrated alone by the scalar integrate_ode,
    its closure found by Brent's method on the crossing step's dense output
    (the single-orbit engine of earlier versions, kept here as an oracle)."""
    a21, a22 = model.lattice.a21, model.lattice.a22
    two_pi = 2.0 * math.pi

    def field(t, state):
        d1, d2 = model.grad(state[0], state[1])
        return (-d2, d1, state[0] * d1)

    def to_lattice(y):
        t = y[1] / a22
        return (y[0] - a21 * t) / two_pi, t

    s0, t0 = to_lattice(y0)
    f0 = field(0.0, (*y0, 0.0))
    speed = math.hypot(f0[0], f0[1])
    n1, n2 = (f0[0] - a21 * f0[1] / a22) / two_pi, f0[1] / a22
    norm = math.hypot(n1, n2)
    n1, n2 = n1 / norm, n2 / norm
    cell_diam = math.hypot(two_pi + abs(a21), a22)
    t_cap = 400.0 * cell_diam / speed

    def sigma(y):
        s, t = to_lattice(y)
        ws, wt = s - s0, t - t0
        ws -= round(ws)
        wt -= round(wt)
        return n1 * ws + n2 * wt, max(abs(ws), abs(wt))

    t_base, state = 0.0, (*y0, 0.0)
    last = [sigma(state)]
    bracket = []

    def observer(ta, sa, tb, sb, dense):
        (sg0, w0), (sg1, w1) = last[0], sigma(sb)
        last[0] = sg1, w1
        if t_base + ta > 0.0 and sg0 < 0.0 <= sg1 and min(w0, w1) < 0.2:
            bracket.append((ta, tb, sb, dense))
            return tb
        return None

    while True:
        bracket.clear()
        integrate_ode(field, state, t_cap - t_base, tol,
                      step_observer=observer,
                      first_step=0.01 * cell_diam / speed)
        ta, tb, sb, dense = bracket[0]
        sg_b = last[0][0]
        theta = find_root(lambda th: sg_b if th >= 1.0 else
                          sigma(dense(th))[0], 0.0, 1.0,
                          Tolerance(1e-15, 1e-15, 200))
        s_end = sb if theta >= 1.0 else dense(theta)
        if sigma(s_end)[1] < 1e-6:
            s_l, t_l = to_lattice(s_end)
            return OrbitResult(closed=True,
                               period=t_base + ta + theta * (tb - ta),
                               winding=(round(s_l - s0), round(t_l - t0)),
                               area=s_end[2])
        t_base += tb
        state = sb


def _scalar_action(comp, edge_id, g):
    for y0 in comp.seeds_for_edge(edge_id, g):
        orbit = _scalar_orbit(comp.model, tuple(y0), _REF_TOL)
        if orbit.winding == comp.graph.edge(edge_id).drift.d:
            return comp.action_from_orbit(y0, orbit)
    raise AssertionError("no orbit with the edge's drift")


def test_batched_actions_match_scalar_orbits():
    """Three potentials x I1 0.3/0.9 x every edge x g at 1/30/70/99 % of
    the edge: 96 actions from one batch per graph (ODE tolerance 1e-11)."""
    errors = []
    for abc in ((2.0, 1.0, 1.0), (1.0, 0.7, 1.0), (1.5, 1.0, 2.0)):
        p = cosine_example(*abc)
        for i1 in (0.3, 0.9):
            comp = ActionComputer(p, EPS, i1)
            requests = []
            for e in comp.graph.edges:
                lo, hi = e.energy_range
                requests += [(e.id, lo + f * (hi - lo))
                             for f in (0.01, 0.3, 0.7, 0.99)]
            batch = comp.actions(requests)
            for (edge_id, g), value in zip(requests, batch):
                errors.append(abs(value - _scalar_action(comp, edge_id, g)))
    assert len(errors) == 96
    assert max(errors) < 1e-10
    assert max(errors) < 1e-11


def test_lanes_resume_after_false_alarms_as_scalar_orbits(monkeypatch):
    # drift lines of winding (6, 1) pass 6/37 of a cell from lattice copies
    # of the seed, inside the 0.2 section window, before they close
    p = FourierPotential(Lattice(0.0, 2.0 * math.pi),
                         {(1, -6): 0.5, (-1, 6): 0.5, (1, 0): 0.02,
                          (-1, 0): 0.02})
    model = DriftModel(p, EPS, 0.0)
    seeds = [(0.3, 0.2), (1.0, 2.5)]
    lanes = orbit_lanes(model, seeds, actions._ORBIT_TOL)
    attempts = []
    integrate = integrate_ode

    def counted(*args, **kwargs):
        attempts.append(args[2])
        return integrate(*args, **kwargs)

    monkeypatch.setitem(globals(), "integrate_ode", counted)
    for y0, orbit in zip(seeds, lanes):
        attempts.clear()
        ref = _scalar_orbit(model, y0, _REF_TOL)
        assert len(attempts) == 3  # two false alarms, then the closure
        assert orbit.closed and orbit.winding == ref.winding == (6, 1)
        assert abs(orbit.period - ref.period) < 1e-10
        assert abs(orbit.area - ref.area) < 1e-10


# ------------------------------------------------------------- table rules

def test_equal_saddles_tables_reach_target_at_32_nodes():
    # the equal-saddles spectrum config: cosine(1, 1, 1), h 0.1, i1 <= 0.6
    p = cosine_example(1.0, 1.0, 1.0)
    for i1 in (0.05, 0.25, 0.55):
        graph = build_reeb_graph(p, EPS, i1)
        assert graph.kind == "equal_saddles"
        tables = build_edge_tables(p, EPS, i1, ("i1", "i4"), graph,
                                   nodes=32, target=1e-6, max_nodes=32)
        assert [t.edge for t in tables] == ["i1", "i4"]
        assert max(t.interp_error for t in tables) <= 1e-6


def test_table_nodes_stop_at_cap_and_missed_target_raises(cosine21,
                                                          monkeypatch):
    p, graph = cosine21
    sizes = []
    fit = actions._fit_table

    def recorded(edge, i1, eps, lo, hi, template, gs, *rest):
        sizes.append(len(gs))
        return fit(edge, i1, eps, lo, hi, template, gs, *rest)

    monkeypatch.setattr(actions, "_fit_table", recorded)
    with pytest.raises(ConvergenceError) as info:
        build_edge_table(p, EPS, 0.0, "i2", graph, nodes=10, target=1e-30,
                         max_nodes=30)
    assert sizes == [10, 20, 30]
    assert isinstance(info.value.best, EdgeActionTable)
    assert info.value.error == info.value.best.interp_error > 1e-30
    sizes.clear()
    table = build_edge_table(p, EPS, 0.0, "i2", graph, nodes=48, target=1.0,
                             max_nodes=24)
    assert sizes == [24]
    assert table.interp_error <= 1.0

import cmath
import math

import numpy as np
import pytest

from driftband import bloch
from driftband.actions import EdgeActionTable, build_edge_tables
from driftband.bloch import (DispersionCrossing, QuasiMomentum,
                             boundary_bloch_coeffs, boundary_family,
                             degeneracy_counts, dispersion_crossings,
                             interior_bloch_coeffs, interior_general_d_solve,
                             seed_gram_matrix, verify_boundary_conditions)
from driftband.classical import build_reeb_graph
from driftband.numerics import DomainError, find_root
from driftband.potential import (FluxRatio, FourierPotential, Lattice,
                                 cosine_example)
from driftband.spectra import landau_level

FLUXES = [(1, 1), (2, 1), (3, 2), (5, 3), (7, 5)]


# ------------------------------------------------------------- boundary

def test_coeffs_are_unit_phases_or_zero():
    rng = np.random.default_rng(1)
    flux = FluxRatio(5, 3)
    q = QuasiMomentum(0.1, 0.7)
    for _ in range(40):
        s = int(rng.integers(0, 3))
        j = int(rng.integers(0, 3))
        l = (int(rng.integers(-6, 7)), int(rng.integers(-6, 7)))
        c = boundary_bloch_coeffs(flux, q, s, j, l, a21=0.4)
        assert abs(c) < 1e-14 or abs(abs(c) - 1.0) < 1e-14


def test_support_rule():
    flux = FluxRatio(3, 2)
    q = QuasiMomentum(0.2, 0.5)
    for s in range(2):
        for j in range(2):
            for l2 in range(-4, 5):
                c = boundary_bloch_coeffs(flux, q, s, j, (1, l2))
                if (l2 + j - s) % 2 == 0:
                    assert abs(c) == pytest.approx(1.0)
                else:
                    assert c == 0.0


def test_m_equals_one_reduction():
    flux = FluxRatio(3, 1)
    q = QuasiMomentum(0.0, 0.2)
    # single member: every l2 supported, a1 relation is the plain Bloch law
    for l2 in (-2, 0, 3):
        c = boundary_bloch_coeffs(flux, q, 0, 0, (0, l2))
        assert abs(abs(c) - 1.0) < 1e-14
    rep = verify_boundary_conditions(flux, q, 0, window=4)
    assert rep.max_residual < 1e-12


def test_closed_form_equals_propagation():
    rng = np.random.default_rng(7)
    for N, M in FLUXES:
        flux = FluxRatio(N, M)
        q = QuasiMomentum(rng.uniform(0, 1 / M), rng.uniform(0, 1))
        s = int(rng.integers(0, M))
        a21 = rng.uniform(-1.0, 1.0)
        fam = boundary_family(flux, q, s, 5, a21)
        for (j, l1, l2), c in fam.items():
            cf = boundary_bloch_coeffs(flux, q, s, j, (l1, l2), a21)
            assert abs(c - cf) < 1e-12


def test_translation_relations_hold():
    rng = np.random.default_rng(3)
    for N, M in FLUXES:
        flux = FluxRatio(N, M)
        for _ in range(4):
            q = QuasiMomentum(rng.uniform(0, 1 / M), rng.uniform(0, 1))
            s = int(rng.integers(0, M))
            a21 = rng.uniform(-1.0, 1.0)
            rep = verify_boundary_conditions(flux, q, s, window=4, a21=a21)
            assert rep.max_residual <= 1e-12
            assert rep.support_ok
            assert rep.unit_modulus


def test_seed_independence_exact():
    for N, M in FLUXES:
        flux = FluxRatio(N, M)
        gram = seed_gram_matrix(flux, QuasiMomentum(0.03, 0.61))
        assert np.max(np.abs(gram - np.eye(M))) < 1e-14


# ----------------------------------------------------------- degeneracy

def test_degeneracy_counts():
    assert degeneracy_counts(FluxRatio(5, 1), "boundary") == 1
    assert degeneracy_counts(FluxRatio(5, 3), "boundary") == 9
    assert degeneracy_counts(FluxRatio(5, 3), "interior") == 6


# ------------------------------------------------------------- interior

def test_interior_action_rule():
    flux = FluxRatio(5, 3)
    q = QuasiMomentum(0.11, 0.3)
    fam = interior_bloch_coeffs(flux, q, +1, n=0)
    assert fam.i2_over_h == pytest.approx(-q.q1)
    fam0 = interior_bloch_coeffs(flux, QuasiMomentum(0.0, 0.3), +1, n=0)
    assert fam0.i2_over_h == 0.0


def test_interior_shift_n_by_m():
    flux = FluxRatio(5, 3)
    q = QuasiMomentum(0.11, 0.3)
    f1 = interior_bloch_coeffs(flux, q, +1, n=2)
    f2 = interior_bloch_coeffs(flux, q, +1, n=2 + 3)
    # shifting n by M moves the drift action by one whole h
    assert f2.i2_over_h - f1.i2_over_h == pytest.approx(1.0)
    assert f2.s == f1.s


def test_interior_consistency_identity():
    rng = np.random.default_rng(9)
    for N, M in FLUXES:
        flux = FluxRatio(N, M)
        q = QuasiMomentum(rng.uniform(0, 1 / M), rng.uniform(0, 1))
        for sign in (+1, -1):
            fam = interior_bloch_coeffs(flux, q, sign,
                                        n=int(rng.integers(-4, 5)),
                                        window=7, a21=rng.uniform(-1, 1))
            assert fam.consistency_residual < 1e-12
            for c in fam.coefficients.values():
                assert abs(abs(c) - 1.0) < 1e-13


def test_interior_m1_pure_phases():
    flux = FluxRatio(4, 1)
    q = QuasiMomentum(0.0, 0.27)
    a21 = 0.6
    fam = interior_bloch_coeffs(flux, q, +1, n=0, window=6, a21=a21)
    eta = flux.eta
    for (j, k), c in fam.coefficients.items():
        expect = cmath.exp(1j * eta * k * k * a21 / 2.0)
        # sigma wraps contribute the q2 phase each time j passes M-1 = 0
        expect *= cmath.exp(2j * math.pi * q.q2 * k)
        assert abs(c - expect) < 1e-12


def test_general_solver_matches_closed_form():
    flux = FluxRatio(5, 3)
    q = QuasiMomentum(0.07, 0.33)
    a21 = 0.3
    sol = interior_general_d_solve(flux, q, (1, 0), (1, 0), window=6,
                                   a21=a21, scan=360)
    assert sol.nullspace_dimension == 3
    fam = interior_bloch_coeffs(flux, q, +1, n=4, window=6, a21=a21)
    t_want = fam.i2_over_h % 1.0
    t_star, coeffs = min(
        sol.families,
        key=lambda fc: abs((fc[0] - t_want + 0.5) % 1.0 - 0.5))
    assert abs((t_star - t_want + 0.5) % 1.0 - 0.5) < 1e-6
    key0 = (fam.s, 0)
    ratio = fam.coefficients[key0] / coeffs[key0]
    for key, c in fam.coefficients.items():
        if key in coeffs and abs(key[1]) <= 4:
            assert abs(coeffs[key] * ratio - fam.coefficients[key]) < 1e-10


def test_general_solver_vertical_drift_all_nonzero():
    flux = FluxRatio(5, 3)
    q = QuasiMomentum(0.09, 0.41)
    sol = interior_general_d_solve(flux, q, (0, 1), (0, 1), window=4,
                                   a21=0.2, scan=360)
    assert sol.nullspace_dimension == 3
    t_star, coeffs = sol.families[0]
    slots = 3 * (2 * 4 + 1)
    nonzero = sum(1 for v in coeffs.values() if abs(v) > 1e-10)
    assert nonzero == slots


def test_general_solver_rejects_bad_conjugate():
    flux = FluxRatio(5, 3)
    q = QuasiMomentum(0.0, 0.0)
    with pytest.raises(DomainError):
        interior_general_d_solve(flux, q, (1, 0), (0, 1))


# ------------------------------------------------------------ crossings

@pytest.fixture(scope="module")
def crossing_setup():
    # second cosine dominates: drift (1, 0); eta = 5/2
    p = cosine_example(1.0, 2.0, 1.0)
    flux = FluxRatio(5, 2)
    h = p.lattice.a22 * flux.M / flux.N
    return p, flux, h


def test_crossings_exist_and_match_energy(crossing_setup):
    p, flux, h = crossing_setup
    out = dispersion_crossings(p, 0.01, h, flux, mu=0)
    assert not out["degenerate"]
    assert out["drift"] == (1, 0)
    crossings = out["crossings"]
    assert crossings
    for c in crossings:
        assert 0.0 <= c.q1_star <= 1.0 / flux.M + 1e-12


def test_crossing_actions_form_half_lattice(crossing_setup):
    # crossing drift actions sit on a lattice of spacing h/(2M)
    p, flux, h = crossing_setup
    out = dispersion_crossings(p, 0.01, h, flux, mu=0)
    step = h / (2.0 * flux.M)
    i2s = sorted(c.i2_plus for c in out["crossings"])
    offsets = [(v / step) % 1.0 for v in i2s]
    offsets = [min(o, 1.0 - o) for o in offsets]
    assert max(offsets) < 1e-6


def _pair_loop_crossings(p, eps, h, flux, mu):
    """dispersion_crossings' crossings with each (n_plus, n_minus) pair
    sampled on its own, both branches inverted at every q1 sample."""
    i1 = (mu + 0.5) * h
    graph = build_reeb_graph(p, eps, i1)
    t2, t3 = build_edge_tables(graph, ("i2", "i3"), nodes=32,
                               target=1e-7)
    m = flux.M
    (lo2, hi2), (lo3, hi3) = sorted(t2.i2_range), sorted(t3.i2_range)
    qs = [float(t) for t in np.linspace(0.0, 1.0 / m, 33)]
    found = []
    for n_p in range(math.floor(m * lo2 / h) - 1, math.ceil(m * hi2 / h) + 2):
        for n_m in range(math.floor(m * lo3 / h) - 1,
                         math.ceil(m * hi3 / h) + 2):
            def diff(q1):
                a, b = h * (n_p / m - q1), h * (n_m / m + q1)
                if not (lo2 <= a <= hi2 and lo3 <= b <= hi3):
                    return None
                return t2.energy_of_i2(a) - t3.energy_of_i2(b)

            vals = [diff(q1) for q1 in qs]
            for qa, qb, fa, fb in zip(qs[:-1], qs[1:], vals[:-1], vals[1:]):
                if fa is None or fb is None or fa * fb > 0.0:
                    continue
                q_star = qa if fa == 0.0 else find_root(
                    diff, qa, qb, 1e-12)
                e_star = t2.energy_of_i2(h * (n_p / m - q_star))
                if abs(q_star - 1.0 / m) <= 1e-10:
                    # on the cell edge: the same crossing as q1 = 0 of
                    # (n_p - 1, n_m + 1), where dispersion_crossings puts it
                    q_star, n_p_q, n_m_q = q_star - 1.0 / m, n_p - 1, n_m + 1
                else:
                    n_p_q, n_m_q = n_p, n_m
                # a crossing exactly on a sample (the cell edge included)
                # ends one interval and starts the next: count it once
                if any(c[1:3] == (n_p_q, n_m_q) and abs(c[0] - q_star) <= 1e-10
                       for c in found):
                    continue
                found.append((q_star, n_p_q, n_m_q, e_star))
    return sorted(found, key=lambda c: (c[0], c[3]))


def _oblique_potential():
    # the (0, 1) mode dominates, so edge i2 drifts along (1, 0)
    return FourierPotential(Lattice(0.2, 5.5), {
        (1, 0): 0.15, (-1, 0): 0.15, (0, 1): 0.5, (0, -1): 0.5,
        (1, 1): 0.04 + 0.01j, (-1, -1): 0.04 - 0.01j})


@pytest.mark.parametrize("case", ["cosine-h0.3", "cosine-flux-h",
                                  "oblique"])
def test_crossings_match_pair_loop_reference(case, monkeypatch):
    flux = FluxRatio(5, 2)
    m = flux.M
    p = _oblique_potential() if case == "oblique" \
        else cosine_example(1.0, 2.0, 1.0)
    h = p.lattice.a22 * m / flux.N if case == "cosine-flux-h" else 0.3
    expected = _pair_loop_crossings(p, 0.01, h, flux, 0)
    i1 = landau_level(0, h)
    t2, t3 = build_edge_tables(build_reeb_graph(p, 0.01, i1), ("i2", "i3"),
                               nodes=32, target=1e-7)
    invert = EdgeActionTable.energy_of_i2
    roots = []
    root = bloch.find_root

    def no_inversion(table, i2):
        raise AssertionError("dispersion_crossings inverted a table")

    def counted(*args, **kwargs):
        roots.append(args[1:3])
        return root(*args, **kwargs)

    monkeypatch.setattr(EdgeActionTable, "energy_of_i2", no_inversion)
    monkeypatch.setattr(bloch, "find_root", counted)
    crossings = dispersion_crossings(p, 0.01, h, flux, mu=0)["crossings"]
    assert expected and len(roots) == len(crossings)
    found = {(c.n_plus, c.n_minus): c for c in crossings}
    assert len(found) == len(crossings)
    for q_star, n_p, n_m, e in expected:
        c = found.pop((n_p, n_m))
        assert abs(c.q1_star - q_star) <= 1e-10
        assert abs(c.e_star - e) <= 1e-12
    # a crossing the 32-sample scan cannot see lies next to a table end
    (lo2, hi2), (lo3, hi3) = t2.i2_range, t3.i2_range
    for c in found.values():
        a = h * (c.n_plus / m - c.q1_star)
        b = h * (c.n_minus / m + c.q1_star)
        assert abs(invert(t2, a) - invert(t3, b)) <= 1e-10
        assert 0.0 <= c.q1_star < 1.0 / m
        exits = (c.n_plus / m - lo2 / h, c.n_plus / m - hi2 / h,
                 lo3 / h - c.n_minus / m, hi3 / h - c.n_minus / m)
        assert min(abs(c.q1_star - x) for x in exits) <= 1.0 / (32 * m)
    # one crossing per integer k in [M S(g_lo) / h, M S(g_hi) / h]
    ks = range(math.ceil(m * (lo2 + lo3) / h),
               math.floor(m * (hi2 + hi3) / h) + 1)
    assert len(crossings) == len(ks)
    assert [c.n_plus + c.n_minus for c in crossings] == list(ks)
    assert all(a.e_star < b.e_star for a, b in zip(crossings, crossings[1:]))


def test_crossing_on_the_cell_edge_is_reported_at_q1_zero(monkeypatch):
    # straight stand-in tables: the one crossing (k = 2 at g = 1/2) sits
    # 1e-11 above M I2 / h = 1, which is q1 = 0 of n+ = 1, not q1 = 1/M
    # of n+ = 2
    class Line:
        g_range = (0.0, 1.0)

        def __init__(self, at_half):
            self.at_half = at_half

        def i2_of_energy(self, g):
            return self.at_half + 0.1 * (g - 0.5)

    h, flux = 0.3, FluxRatio(5, 2)
    i2 = h / flux.M * (1.0 + 1e-11)
    monkeypatch.setattr(bloch, "build_edge_tables",
                        lambda *args, **kwargs: (Line(i2), Line(h - i2)))
    out = dispersion_crossings(cosine_example(1.0, 2.0, 1.0), 0.01, h, flux,
                               mu=0)
    [c] = out["crossings"]
    assert (c.n_plus, c.n_minus, c.q1_star) == (1, 1, 0.0)
    assert abs(c.e_star - 0.5) <= 1e-14


def test_crossings_degenerate_at_zero_eps(crossing_setup):
    p, flux, h = crossing_setup
    out = dispersion_crossings(p, 0.0, h, flux, mu=0)
    assert out["degenerate"]

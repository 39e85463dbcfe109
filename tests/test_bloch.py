import cmath
import math
from collections import Counter

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
from driftband.numerics import DomainError, Tolerance, find_root
from driftband.potential import FluxRatio, cosine_example
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
    t2, t3 = build_edge_tables(p, eps, i1, ("i2", "i3"), graph, nodes=32,
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
                    diff, qa, qb, Tolerance(1e-12, 1e-12, 200))
                found.append((q_star, n_p, n_m,
                              t2.energy_of_i2(h * (n_p / m - q_star))))
    return sorted(found, key=lambda c: (c[0], c[3]))


def test_crossings_invert_each_branch_sample_once(monkeypatch):
    p = cosine_example(1.0, 2.0, 1.0)
    flux, h = FluxRatio(5, 2), 0.3
    expected = _pair_loop_crossings(p, 0.01, h, flux, 0)
    # every energy_of_i2 call outside Brent's refinement, by (table, I2)
    sampled = []
    refining = []
    energy_of_i2, root = EdgeActionTable.energy_of_i2, bloch.find_root

    def counted(table, i2):
        if not refining:
            sampled.append((id(table), i2))
        return energy_of_i2(table, i2)

    def refine(*args, **kwargs):
        refining.append(True)
        try:
            return root(*args, **kwargs)
        finally:
            refining.pop()

    monkeypatch.setattr(EdgeActionTable, "energy_of_i2", counted)
    monkeypatch.setattr(bloch, "find_root", refine)
    out = dispersion_crossings(p, 0.01, h, flux, mu=0)
    assert len(expected) > 4
    assert [(c.q1_star, c.n_plus, c.n_minus, c.e_star)
            for c in out["crossings"]] == expected
    # neighbouring n share the samples at q1 = 0 and 1/M; the pair loop
    # inverts each sample once for every n of the other branch
    assert max(Counter(sampled).values()) <= 2


def test_crossings_degenerate_at_zero_eps(crossing_setup):
    p, flux, h = crossing_setup
    out = dispersion_crossings(p, 0.0, h, flux, mu=0)
    assert out["degenerate"]

import math

import numpy as np
import pytest

from driftband.numerics import DomainError, Tolerance, bessel_j0, bessel_j0_zero
from driftband.potential import (FluxRatio, FourierPotential, IrrationalFlux,
                                 Lattice, PhysicalParams, averaged_potential,
                                 averaged_potential_oracle, cosine_example,
                                 eval_potential, flux_ratio,
                                 physical_to_dimensionless)

TOL = Tolerance(1e-13, 1e-13, 400)


def random_potential(rng, degree=3, lattice=None):
    lattice = lattice or Lattice(rng.uniform(-1.0, 1.0), rng.uniform(2.0, 9.0))
    coeffs = {}
    for k1 in range(-degree, degree + 1):
        for k2 in range(-degree, degree + 1):
            if (k1, k2) <= (0, 0):
                continue
            if rng.uniform() < 0.4:
                c = rng.normal() + 1j * rng.normal()
                coeffs[(k1, k2)] = c
                coeffs[(-k1, -k2)] = c.conjugate()
    coeffs[(0, 0)] = rng.normal()
    return FourierPotential(lattice, coeffs)


# ------------------------------------------------------------- evaluation

def test_cosine_example_at_origin():
    p = cosine_example(1.0, 1.0, 1.0)
    assert abs(eval_potential(p, (0.0, 0.0)) - 2.0) < 1e-14


def test_cosine_example_at_antinode():
    A, B, beta = 1.3, 0.8, 2.0
    p = cosine_example(A, B, beta)
    val = eval_potential(p, (math.pi, math.pi / beta))
    assert abs(val - (-A - B)) < 1e-13


def test_periodicity_random():
    rng = np.random.default_rng(5)
    for _ in range(5):
        p = random_potential(rng)
        y = rng.uniform(-3.0, 3.0, size=2)
        shifted = y + p.lattice.a1 + p.lattice.a2
        assert abs(p.value(y) - p.value(shifted)) < 1e-12 * (1 + p.coeff_l1)


def test_realness():
    rng = np.random.default_rng(8)
    p = random_potential(rng)
    vals = p.value(rng.uniform(-5, 5, size=(50, 2)))
    assert np.all(np.isreal(vals))


def test_conjugate_symmetry_enforced():
    with pytest.raises(DomainError):
        FourierPotential(Lattice(), {(1, 0): 1.0 + 0.5j, (-1, 0): 1.0 + 0.5j})


# --------------------------------------------------------------- averaging

def test_average_collapses_at_zero_action():
    rng = np.random.default_rng(2)
    p = random_potential(rng)
    for _ in range(5):
        y = rng.uniform(-2.0, 2.0, size=2)
        assert abs(averaged_potential(p, 0.0, y) - p.value(y)) < 1e-13 * (
            1 + p.coeff_l1)


def test_cosine_average_vanishes_at_bessel_zero():
    p = cosine_example(1.0, 1.0, 1.0)
    i1 = 0.5 * bessel_j0_zero(1) ** 2
    rng = np.random.default_rng(4)
    for y in rng.uniform(0.0, 2 * math.pi, size=(6, 2)):
        assert abs(averaged_potential(p, i1, y)) < 1e-10


def test_average_matches_oracle_random():
    rng = np.random.default_rng(12)
    for _ in range(4):
        p = random_potential(rng, degree=2)
        for _ in range(4):
            i1 = rng.uniform(0.0, 10.0)
            y = rng.uniform(-4.0, 4.0, size=2)
            series = averaged_potential(p, i1, y)
            quad = averaged_potential_oracle(p, i1, y, TOL)
            assert abs(series - quad) <= 1e-10 * (1 + p.coeff_l1)


def test_oracle_on_pure_cosine():
    p = cosine_example(1.0, 0.0, 1.0)
    val = averaged_potential_oracle(p, 0.5, (0.0, 0.0), TOL)
    assert abs(val - bessel_j0(1.0)) < 1e-11


def test_constant_potential_averages_to_itself():
    p = FourierPotential(Lattice(), {(0, 0): 3.25})
    assert abs(averaged_potential_oracle(p, 2.0, (0.4, -1.0), TOL) - 3.25) < 1e-11


def test_mean_is_preserved():
    rng = np.random.default_rng(21)
    p = random_potential(rng)
    for i1 in (0.0, 0.3, 4.0):
        assert p.damped(i1).mean == pytest.approx(p.mean, abs=1e-15)


def test_average_bounded_by_l1():
    rng = np.random.default_rng(23)
    p = random_potential(rng)
    for i1 in (0.0, 1.0, 7.5):
        ys = rng.uniform(-5, 5, size=(40, 2))
        vals = p.damped(i1).value(ys)
        assert np.all(np.abs(vals) <= p.coeff_l1 + 1e-12)


def test_average_periodicity():
    rng = np.random.default_rng(31)
    p = random_potential(rng)
    damped = p.damped(0.8)
    y = rng.uniform(-2, 2, size=2)
    for shift in (p.lattice.a1, p.lattice.a2):
        assert abs(damped.value(y) - damped.value(y + shift)) < 1e-12 * (
            1 + p.coeff_l1)


def test_damped_over_an_array_matches_each_action():
    # one J0 array pass for every (action, mode): the coefficients of each
    # potential are those of damped at that action alone, bit for bit,
    # also where sqrt(2 i1)|G| passes the series cut at 8
    rng = np.random.default_rng(41)
    p = random_potential(rng)
    i1s = np.concatenate([[0.0], np.linspace(0.01, 9.0, 37)])
    many = p.damped(i1s)
    assert len(many) == len(i1s)
    for i1, q in zip(i1s, many):
        alone = p.damped(float(i1))
        assert q.coeffs == alone.coeffs
        assert q._half == alone._half
    with pytest.raises(DomainError):
        p.damped(np.array([0.5, -1e-3]))


def test_negative_action_rejected():
    p = cosine_example(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        averaged_potential(p, -0.1, (0.0, 0.0))


# ---------------------------------------------------------- cosine example

def test_cosine_coefficients():
    p = cosine_example(1.0, 1.0, 1.0)
    assert p.coeffs == {(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.5, (0, -1): 0.5}


def test_cosine_lattice_scaling():
    p = cosine_example(1.0, 1.0, 2.0)
    assert np.allclose(p.lattice.a2, [0.0, math.pi])


def test_cosine_average_small_action():
    p = cosine_example(1.0, 1.0, 1.0)
    val = averaged_potential(p, 0.05, (0.0, 0.0))
    assert abs(val - 2.0 * bessel_j0(math.sqrt(0.1))) < 1e-13
    assert abs(val - 1.950312) < 1e-5


def test_cosine_average_closed_form():
    A, B, beta = 1.7, 0.6, 2.0
    p = cosine_example(A, B, beta)
    rng = np.random.default_rng(3)
    for _ in range(5):
        i1 = rng.uniform(0.0, 5.0)
        y = rng.uniform(-3, 3, size=2)
        r = math.sqrt(2 * i1)
        expect = (A * bessel_j0(r) * math.cos(y[0])
                  + B * bessel_j0(beta * r) * math.cos(beta * y[1]))
        assert abs(averaged_potential(p, i1, y) - expect) < 1e-12


# ------------------------------------------------------------------ units

def _params(**over):
    base = dict(B_field=1.0, L0=2 * math.pi, mass=1.0, charge=1.0,
                light_speed=1.0, hbar=1.0, Vmax=1.0)
    base.update(over)
    return PhysicalParams(**base)


def test_h_is_one_when_magnetic_length_matches():
    # l_M = L0 / (2 pi) <=> h = 1; with the defaults l_M = 1
    params, _ = physical_to_dimensionless(_params())
    assert abs(params.h - 1.0) < 1e-14


def test_epsilon_equals_h_at_cyclotron_energy():
    pp = _params(Vmax=1.0)  # hbar * omega_c = 1 here
    params, _ = physical_to_dimensionless(pp)
    assert abs(params.epsilon - params.h) < 1e-14


def test_field_doubling_scaling():
    p1, _ = physical_to_dimensionless(_params(B_field=1.0))
    p2, _ = physical_to_dimensionless(_params(B_field=2.0))
    assert abs(p2.h - 0.5 * p1.h) < 1e-14


def test_energy_scale_value():
    _, scale = physical_to_dimensionless(_params())
    expect = (1.0 * 1.0 * 2 * math.pi) ** 2 / (4 * math.pi ** 2)
    assert abs(scale - expect) < 1e-14


# ------------------------------------------------------------------- flux

def test_flux_integer():
    f = flux_ratio(Lattice(0.0, 2 * math.pi), 2 * math.pi / 5)
    assert (f.N, f.M) == (5, 1)


def test_flux_rational():
    f = flux_ratio(Lattice(0.0, 2 * math.pi), 4 * math.pi / 5)
    assert (f.N, f.M) == (5, 2)


def test_flux_irrational():
    f = flux_ratio(Lattice(0.0, 2 * math.pi), 2 * math.pi / math.sqrt(2.0))
    assert isinstance(f, IrrationalFlux)


def test_flux_with_large_numerator_is_irrational():
    # a22 / h = 600/1 has a small denominator, but the Harper reduction
    # would need 600 x 600 Bloch matrices: both terms are capped
    f = flux_ratio(Lattice(0.0, 2 * math.pi), 2 * math.pi / 600)
    assert isinstance(f, IrrationalFlux)


def test_flux_ratio_lowest_terms_enforced():
    with pytest.raises(DomainError):
        FluxRatio(4, 2)

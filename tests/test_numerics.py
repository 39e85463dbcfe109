import math

import mpmath
import numpy as np
import pytest

from driftband import numerics
from driftband.numerics import (BracketError, DomainError, HermitianMatrix,
                                NonHermitianError, adaptive_quad,
                                bessel_j0, bessel_j0_array, bessel_j0_zero,
                                bracketed_newton, find_root,
                                hermitian_eigenvalues, integrate_ode,
                                _gk15, _GAUSS_WEIGHTS, _KRONROD_NODES,
                                _KRONROD_WEIGHTS)

TOL = 1e-12


# ---------------------------------------------------------------- bessel

def test_j0_at_zero():
    assert bessel_j0(0.0) == 1.0


def test_j0_first_zero_from_series_bracket():
    # independent oracle: bisect the raw power series on (2, 3)
    def series(x):
        z = 0.25 * x * x
        term, total, m = 1.0, 1.0, 0
        while abs(term) > 1e-18:
            m += 1
            term *= -z / (m * m)
            total += term
        return total

    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if series(lo) * series(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    assert abs(root - 2.404826) < 1e-6
    assert abs(bessel_j0(root)) < 1e-12
    assert abs(bessel_j0_zero(1) - root) < 1e-10


def test_j0_at_ten_matches_reference():
    assert abs(bessel_j0(10.0) - (-0.2459358)) < 1e-6


def test_j0_against_mpmath_sweep():
    mpmath.mp.dps = 30
    for x in np.linspace(0.0, 50.0, 301):
        exact = float(mpmath.besselj(0, mpmath.mpf(float(x))))
        assert abs(bessel_j0(x) - exact) < 1e-12


def test_j0_parity_exact():
    rng = np.random.default_rng(7)
    for x in rng.uniform(0.0, 40.0, 50):
        assert bessel_j0(x) == bessel_j0(-x)


def test_j0_branch_agreement_on_switchover():
    # both branches are near machine precision on [7, 9]
    from driftband.numerics import _j0_integral, _j0_series
    for x in np.linspace(7.0, 9.0, 41):
        assert abs(_j0_series(x) - _j0_integral(x)) < 1e-9


def test_j0_rejects_nonfinite():
    with pytest.raises(DomainError):
        bessel_j0(float("nan"))


def test_j0_array_matches_scalar_bit_for_bit():
    # the series lanes on [0, 8] and the trapezoid elements beyond 8 each
    # round as the scalar does
    rng = np.random.default_rng(11)
    x = np.concatenate([np.linspace(0.0, 8.0, 801), rng.uniform(-8.0, 8.0, 400),
                        [8.0, np.nextafter(8.0, 9.0), 1e-300],
                        np.linspace(8.0, 50.0, 211), -rng.uniform(8.0, 40.0, 20)])
    got = bessel_j0_array(x)
    want = np.array([bessel_j0(v) for v in x])
    assert got.shape == x.shape
    assert got.tobytes() == want.tobytes()
    grid = x[:600].reshape(20, 30)
    assert bessel_j0_array(grid).tobytes() == want[:600].tobytes()
    assert bessel_j0_array(np.array([])).shape == (0,)
    with pytest.raises(DomainError):
        bessel_j0_array([1.0, float("inf")])


# ------------------------------------------------------------ quadrature

def _log_kernel(x):
    # log((1+x)/(1-x))/x with its removable point at 0, on arrays
    small = x < 1e-8
    safe = np.where(small, 0.5, x)
    return np.where(small, 2.0 + 2.0 * x * x / 3.0,
                    np.log((1.0 + safe) / (1.0 - safe)) / safe)


def test_quad_sin():
    assert abs(adaptive_quad(np.sin, 0.0, math.pi, TOL) - 2.0) < 1e-11


def test_quad_cos_squared():
    val = adaptive_quad(lambda x: np.cos(x) ** 2, 0.0, 2 * math.pi, TOL)
    assert abs(val - math.pi) < 1e-11


def test_quad_log_kernel_vs_series():
    # int_0^{1/2} log((1+x)/(1-x))/x dx = 2 sum (1/2)^(2k+1) / (2k+1)^2
    series = 2.0 * sum(0.5 ** (2 * k + 1) / (2 * k + 1) ** 2
                       for k in range(60))
    val = adaptive_quad(_log_kernel, 0.0, 0.5, TOL)
    assert abs(val - series) < 1e-11
    assert abs(val - 1.0306) < 1e-3


def test_quad_linearity():
    f = np.sin
    g = np.cos
    a, b = 0.3, 2.1
    lhs = adaptive_quad(lambda x: 2.5 * f(x) - 1.25 * g(x), a, b, TOL)
    rhs = 2.5 * adaptive_quad(f, a, b, TOL) - 1.25 * adaptive_quad(g, a, b, TOL)
    assert abs(lhs - rhs) < 1e-10


def _scalar_gk15(f, a, b):
    # the 15-node Gauss-Kronrod panel as a loop of scalar calls, node pair
    # by node pair
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    kron = gauss = 0.0
    for i, t in enumerate(_KRONROD_NODES):
        fv = f(c) if t == 0.0 else f(c + h * t) + f(c - h * t)
        kron += _KRONROD_WEIGHTS[i] * fv
        gauss += _GAUSS_WEIGHTS.get(i, 0.0) * fv
    return h * kron, abs(h * (kron - gauss))


@pytest.mark.parametrize("f, a, b", [
    (np.sin, 0.3, 2.1),
    (lambda x: np.cos(x) ** 2, 0.0, 2.0 * math.pi),
    (_log_kernel, 0.0, 0.5),
    (_log_kernel, 0.1, 0.9),
])
def test_array_panel_equals_scalar_panel(f, a, b):
    val, err = _gk15(f, a, b)
    ref_val, ref_err = _scalar_gk15(lambda x: float(f(np.float64(x))), a, b)
    assert abs(val - ref_val) <= 1e-15 * abs(ref_val)
    assert abs(err - ref_err) <= 1e-15 * abs(ref_val)


@pytest.mark.parametrize("f, a, b", [
    (np.sin, 0.0, 30.0),
    (_log_kernel, 0.0, 0.99),
    (lambda x: np.sqrt(np.abs(x - 0.3)), 0.0, 1.0),
])
def test_quad_calls_f_once_per_panel(f, a, b):
    panels = []

    def spy(x):
        assert isinstance(x, np.ndarray) and x.shape == (15,)
        c, h = 0.5 * (x[0] + x[-1]), 0.5 * (x[-1] - x[0]) / _KRONROD_NODES[0]
        panels.append((c - h, c + h))
        return f(x)

    adaptive_quad(spy, a, b, TOL)
    # the first panel is [a, b]; every later one is a new half of an
    # earlier panel, so no panel is evaluated twice (panel ends are read
    # back from the nodes, to rounding)
    eps = 1e-13 * (b - a)
    assert len(panels) > 1
    assert panels[0] == pytest.approx((a, b), abs=eps)
    for k, (lo, hi) in enumerate(panels[1:], start=1):
        parents = [(plo, phi) for plo, phi in panels[:k]
                   if abs(phi - plo - 2.0 * (hi - lo)) <= eps
                   and (abs(plo - lo) <= eps or abs(phi - hi) <= eps)]
        assert parents, (lo, hi)
        assert not any(abs(plo - lo) <= eps and abs(phi - hi) <= eps
                       for plo, phi in panels[:k])


# ------------------------------------------------------------ root finder

def test_root_sqrt2():
    r = find_root(lambda x: x * x - 2.0, 1.0, 2.0, TOL)
    assert abs(r - math.sqrt(2.0)) < 1e-10


def test_root_j0():
    r = find_root(bessel_j0, 2.0, 3.0, TOL)
    assert abs(r - 2.4048256) < 1e-7


def test_root_cos():
    r = find_root(math.cos, 1.0, 2.0, TOL)
    assert abs(r - math.pi / 2.0) < 1e-12


def test_root_requires_bracket():
    with pytest.raises(BracketError):
        find_root(lambda x: 1.0 + x * x, 0.0, 1.0, TOL)


def test_newton_pass_bisects_past_an_overstated_slope():
    # x - 1 with its slope overstated tenfold: each Newton step takes a
    # tenth of the error, far too slow for the iteration cap, so the pass
    # bisects wherever a step is over half the one before
    root = bracketed_newton(lambda x, lanes: (x - 1.0, np.full(x.shape, 10.0)),
                            [0.0], [3.0], [0.0], np.zeros_like)
    assert abs(root[0] - 1.0) <= 2.0 * np.finfo(float).eps


# ------------------------------------------------------------ eigenvalues

def test_eigs_identity():
    lam = hermitian_eigenvalues(np.eye(3))
    assert np.allclose(lam, [1.0, 1.0, 1.0], atol=1e-13)


def test_eigs_pauli_x():
    lam = hermitian_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(lam, [-1.0, 1.0], atol=1e-13)


def _char_poly_roots(a):
    # Faddeev-LeVerrier coefficients, then the companion-matrix roots;
    # no eigensolver of a Hermitian matrix is involved
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m).real / k)
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def test_eigs_random_vs_char_poly_and_lapack():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    a = 0.5 * (x + x.conj().T)
    lam = hermitian_eigenvalues(a)
    assert np.max(np.abs(lam - _char_poly_roots(a))) < 1e-8
    assert np.max(np.abs(lam - np.linalg.eigvalsh(a))) < 1e-10


def test_eigs_trace_identity():
    rng = np.random.default_rng(3)
    for n in (2, 4, 9, 17):
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = 0.5 * (x + x.conj().T)
        lam = hermitian_eigenvalues(a)
        norm = np.linalg.norm(a, 2)
        assert abs(lam.sum() - np.trace(a).real) < 1e-10 * max(norm, 1.0) * n


def test_eigs_stack_matches_single_calls():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    stack = 0.5 * (x + np.swapaxes(x, -1, -2).conj())
    lam = hermitian_eigenvalues(stack)
    assert lam.shape == (6, 4)
    for a, row in zip(stack, lam):
        assert np.array_equal(row, hermitian_eigenvalues(a))
        assert np.max(np.abs(row - _char_poly_roots(a))) < 1e-8


def test_eigs_stack_rejects_one_non_hermitian_member():
    stack = np.stack([np.eye(3), np.eye(3), np.eye(3)]).astype(complex)
    stack[1, 0, 2] = 1e-3
    with pytest.raises(NonHermitianError):
        hermitian_eigenvalues(stack)
    with pytest.raises(NonHermitianError):
        hermitian_eigenvalues(np.zeros((2, 3, 4)))


def test_eigs_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        HermitianMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))


# -------------------------------------------------------------- ODE

def test_ode_circle():
    traj = integrate_ode(lambda t, y: (y[1], -y[0]), (1.0, 0.0),
                         2.0 * math.pi, 1e-11)
    end = traj.ys[-1]
    assert abs(end[0] - 1.0) < 1e-8 and abs(end[1]) < 1e-8


def test_ode_zero_field():
    traj = integrate_ode(lambda t, y: (0.0, 0.0), (0.3, -0.7), 5.0)
    assert np.allclose(traj.ys, [0.3, -0.7])


def test_ode_energy_conservation():
    # pendulum H = p^2/2 - cos(q)
    def field(t, y):
        q, p = y
        return (p, -math.sin(q))

    tol = 1e-10
    traj = integrate_ode(field, (1.1, 0.0), 40.0, tol)
    h_vals = 0.5 * traj.ys[:, 1] ** 2 - np.cos(traj.ys[:, 0])
    drift = np.max(np.abs(h_vals - h_vals[0]))
    assert drift <= 10.0 * tol * 40.0


def test_ode_field_calls_per_attempted_step(monkeypatch):
    # first same as last: one call for the first k1, then six per attempt,
    # rejected attempts included
    from driftband import numerics
    attempts = []
    step = numerics._dp_step

    def counted_step(*args):
        attempts.append(args[3])
        return step(*args)

    monkeypatch.setattr(numerics, "_dp_step", counted_step)
    calls = []

    def field(t, y):
        calls.append(t)
        q, p = y
        return (p, -math.sin(q))

    traj = integrate_ode(field, (1.1, 0.0), 40.0, 1e-10, first_step=5.0)
    assert len(attempts) > len(traj) - 1  # the oversized first step is rejected
    assert len(calls) == 1 + 6 * len(attempts)


def test_ode_dense_output():
    # y'' = -y from (1, 0): y = (cos t, -sin t)
    steps = []

    def observer(t0, y0, t1, y1, dense):
        steps.append((t0, y0, t1, y1, dense))

    integrate_ode(lambda t, y: (y[1], -y[0]), (1.0, 0.0), 2.0 * math.pi,
                  1e-12, step_observer=observer)
    assert len(steps) > 5
    for t0, y0, t1, y1, dense in steps:
        assert max(abs(a - b) for a, b in zip(dense(0.0), y0)) <= 1e-15
        assert max(abs(a - b) for a, b in zip(dense(1.0), y1)) <= 1e-15
        for theta in (0.25, 0.5, 0.75):
            t = t0 + theta * (t1 - t0)
            y = dense(theta)
            assert abs(y[0] - math.cos(t)) < 1e-9
            assert abs(y[1] + math.sin(t)) < 1e-9

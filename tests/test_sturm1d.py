import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from driftband import sturm1d
from driftband.numerics import (DomainError, adaptive_quad,
                                bracketed_newton, find_root)
from driftband.sturm1d import (Potential1D, QuasimodeCheck, action_lower,
                               action_upper, agmon_distance, band_width_lower,
                               bs_levels_lower, dispersion_branch_action,
                               dispersion_upper, fd_bloch_oracle,
                               gap_ends_upper, lifshits_difference,
                               oracle_band_edges, period_integral,
                               quasimode_distance_check, reeb_1d,
                               weyl_count_1d, _fd_eigenvalues)


@pytest.fixture(scope="module")
def vcos():
    return Potential1D.cosine(1.0)


@pytest.fixture(scope="module")
def vtwo():
    # two modes with a complex second harmonic: asymmetric well
    return Potential1D({1: 0.5, -1: 0.5, 2: 0.08 + 0.03j, -2: 0.08 - 0.03j})


def test_extrema(vcos):
    assert abs(vcos.x_min - math.pi) < 1e-10
    assert abs(vcos.v_min + 1.0) < 1e-12
    assert abs(vcos.v_max - 1.0) < 1e-12
    assert abs(vcos.omega0 - math.sqrt(2.0)) < 1e-12


# ------------------------------------------------------------- oracle

def test_oracle_free_particle():
    v = Potential1D({})
    h, q = 0.1, 0.3
    eigs = fd_bloch_oracle(v, h, q, 256, count=7)
    exact = sorted((h * (n + q)) ** 2 for n in range(-4, 5))[:7]
    assert np.max(np.abs(eigs - exact)) < 1e-8


def test_oracle_q_periodicity(vcos):
    e0 = fd_bloch_oracle(vcos, 0.2, 0.0, 128, count=5)
    e1 = fd_bloch_oracle(vcos, 0.2, 1.0, 128, count=5)
    assert np.max(np.abs(e0 - e1)) < 1e-12


def test_oracle_grid_doubling(vcos):
    a = fd_bloch_oracle(vcos, 0.1, 0.25, 512, count=6)
    b = fd_bloch_oracle(vcos, 0.1, 0.25, 1024, count=6)
    assert np.max(np.abs(a - b)) < 1e-7
    # the extrapolation is fourth order: doubling gains a factor ~16
    c = fd_bloch_oracle(vcos, 0.1, 0.25, 256, count=6)
    r = np.max(np.abs(c - a)) / np.max(np.abs(a - b))
    assert 8.0 < r < 32.0


def test_oracle_full_spectrum_extends_the_subset(vcos):
    full = _fd_eigenvalues(vcos, 0.2, 0.3, 128)
    assert len(full) == 128
    head = _fd_eigenvalues(vcos, 0.2, 0.3, 128, count=5)
    assert np.max(np.abs(full[:5] - head)) < 1e-12


def _dense_oracle_matrix(v, h, q, n):
    """The central-difference Bloch matrix in grid order, built directly."""
    dx = 2.0 * math.pi / n
    hop = -h * h / dx ** 2
    phase = np.exp(2j * math.pi * q)
    a = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(a, 2.0 * h * h / dx ** 2 + v.value(np.arange(n) * dx))
    idx = np.arange(n - 1)
    a[idx, idx + 1] = hop
    a[idx + 1, idx] = hop
    a[n - 1, 0] = hop * phase
    a[0, n - 1] = hop * np.conj(phase)
    return a


@pytest.mark.parametrize("n", [64, 65, 128, 512])
def test_banded_oracle_matches_dense_eigh(vcos, vtwo, n):
    # counts are solved as momentum blocks or, when the block would be too
    # wide (small h, count 150, coarse n), by the band solve
    from scipy.linalg import eigh
    vthree = Potential1D({1: 0.4, -1: 0.4, 2: 0.1 + 0.05j, -2: 0.1 - 0.05j,
                          3: 0.06 - 0.07j, -3: 0.06 + 0.07j})
    vconst = Potential1D({0: 0.3})
    cases = [(0.2, 12), (0.45, 12), (0.05, 12), (0.02, 150)]
    for v in (vcos, vtwo, vthree, vconst):
        for h, count in cases:
            for q in (0.0, 0.5, 0.23, 0.77):
                dense = eigh(_dense_oracle_matrix(v, h, q, n),
                             eigvals_only=True)
                scale = np.max(np.abs(dense))   # the 2-norm of the matrix
                full = _fd_eigenvalues(v, h, q, n)
                head = _fd_eigenvalues(v, h, q, n, count=count)
                assert len(full) == n and len(head) == min(count, n)
                assert np.max(np.abs(full - dense)) <= 1e-12 * scale
                assert np.max(np.abs(head - dense[:len(head)])) <= (
                    1e-12 * scale)


@pytest.mark.parametrize("n", [64, 65])
def test_oracle_free_particle_is_exact(n):
    v = Potential1D({})
    h = 0.2
    dx = 2.0 * math.pi / n
    for q in (0.0, 0.5, 0.23, 0.77):
        exact = np.sort(4.0 * h * h / dx ** 2
                        * np.sin(math.pi * (np.arange(n) + q) / n) ** 2)
        scale = exact[-1]
        full = _fd_eigenvalues(v, h, q, n)
        head = _fd_eigenvalues(v, h, q, n, count=12)
        assert np.max(np.abs(full - exact)) <= 1e-14 * scale
        assert np.max(np.abs(head - exact[:12])) <= 1e-14 * scale


def test_oracle_bytes_do_not_depend_on_blas_threads():
    code = textwrap.dedent("""
        from driftband.sturm1d import Potential1D, fd_bloch_oracle
        v = Potential1D({1: 0.5, -1: 0.5, 2: 0.08 + 0.03j, -2: 0.08 - 0.03j})
        for q in (0.0, 0.5, 0.23):
            for count in (None, 28, 60):
                print(fd_bloch_oracle(v, 0.1, q, 512, count).tobytes().hex())
        """)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert len(outputs[0].split()) == 9
    assert outputs[0] == outputs[1]


def test_band_edges_at_q0_and_half(vcos):
    # interior quasimomentum values stay inside the band
    h = 0.2
    e0 = fd_bloch_oracle(vcos, h, 0.0, 256, count=4)
    e5 = fd_bloch_oracle(vcos, h, 0.5, 256, count=4)
    eq = fd_bloch_oracle(vcos, h, 0.23, 256, count=4)
    for nu in range(3):
        lo, hi = min(e0[nu], e5[nu]), max(e0[nu], e5[nu])
        assert lo - 1e-10 <= eq[nu] <= hi + 1e-10


def test_band_edge_parity(vcos):
    # which end of the band sits at q=0 alternates with the band index
    h = 0.25
    e0 = fd_bloch_oracle(vcos, h, 0.0, 512, count=6)
    e5 = fd_bloch_oracle(vcos, h, 0.5, 512, count=6)
    signs = np.sign(e5[:4] - e0[:4])
    assert np.all(signs[:-1] * signs[1:] < 0)


# --------------------------------------------------------- lower levels

def test_harmonic_limit(vcos):
    h = 0.01
    levels = bs_levels_lower(vcos, h)
    e0 = levels[0]
    assert abs(e0 - (-1.0 + h * math.sqrt(2.0) / 2.0)) <= 2.0 * h * h


def test_bs_level_count(vcos):
    h = 0.05
    levels = bs_levels_lower(vcos, h)
    cap = vcos.v_max - 0.1 * (vcos.v_max - vcos.v_min)
    expect = action_lower(vcos, cap) / h
    assert abs(len(levels) - expect) <= 1.0


def test_bs_matches_oracle_band_centers(vcos):
    h = 0.05
    levels = bs_levels_lower(vcos, h)
    edges = oracle_band_edges(vcos, h, vcos.v_max - 0.2, grid_size=1024)
    centers = [0.5 * (lo + hi) for lo, hi in edges]
    m = min(len(levels), len(centers))
    assert m >= 10
    err = max(abs(levels[k] - centers[k]) for k in range(m))
    assert err < 5e-3


def test_bs_error_scales_quadratically(vcos):
    errs = []
    hs = [0.1, 0.05, 0.025]
    for h in hs:
        levels = bs_levels_lower(vcos, h)
        edges = oracle_band_edges(vcos, h, vcos.v_max - 0.25,
                                  grid_size=1024 if h > 0.03 else 2048)
        centers = [0.5 * (lo + hi) for lo, hi in edges]
        m = min(len(levels), len(centers))
        errs.append(max(abs(levels[k] - centers[k]) for k in range(m)))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 2.0) < 0.3


# ------------------------------------- the nested-Brent level reference

_REF_TOL = 1e-12


def _brent_turning_points(v, e):
    x_right = v.x_max if v.x_max > v.x_min else v.x_max + 2.0 * math.pi

    def f(x):
        return v.value(x) - e

    def polish(x):
        step = f(x) / v.derivatives(x, (1,))[0]
        return x - step if abs(step) <= 10.0 * _REF_TOL else x

    return (polish(find_root(f, x_right - 2.0 * math.pi, v.x_min, _REF_TOL)),
            polish(find_root(f, v.x_min, x_right, _REF_TOL)))


def _brent_action(v, e):
    """The well action with both turning points rooted again by Brent and
    the sine-substituted integral by adaptive quadrature."""
    a, b = _brent_turning_points(v, e)
    span = b - a
    d1a, d2a, d3a = v.derivatives(a, (1, 2, 3))
    d1b, d2b, d3b = v.derivatives(b, (1, 2, 3))

    def w(x):
        dm, dp = x - a, b - x
        near_a = dm < 1e-5 * span
        near_b = ~near_a & (dp < 1e-5 * span)
        num = np.where(near_a, -(d1a + 0.5 * d2a * dm + d3a * dm * dm / 6.0),
                       np.where(near_b, d1b - 0.5 * d2b * dp
                                + d3b * dp * dp / 6.0, e - v.value(x)))
        den = np.where(near_a, dp, np.where(near_b, dm, dm * dp))
        return num / np.maximum(den, 1e-300)

    def g(theta):
        s, c = np.sin(theta), np.cos(theta)
        return (2.0 * span * span * (s * c) ** 2
                * np.sqrt(np.maximum(w(a + span * s * s), 0.0)))

    return adaptive_quad(g, 0.0, 0.5 * math.pi, _REF_TOL) / math.pi


def _brent_levels(v, h, delta=None):
    """bs_levels_lower as one Brent solve of _brent_action per level."""
    window = 0.1 * (v.v_max - v.v_min) if delta is None else delta
    cap = v.v_max - window
    top = _brent_action(v, cap)
    lo = v.v_min + 1e-12 * (v.v_max - v.v_min)
    levels = []
    while h * (len(levels) + 0.5) <= top:
        target = h * (len(levels) + 0.5)
        levels.append(find_root(lambda x: _brent_action(v, x) - target, lo,
                                cap, _REF_TOL))
    return levels


@pytest.mark.parametrize("shape", ["vcos", "vtwo"])
@pytest.mark.parametrize("h", [0.45, 0.23, 0.05, 0.01])
@pytest.mark.parametrize("delta", [None, 0.02])
def test_levels_match_nested_brent(shape, h, delta, request):
    v = request.getfixturevalue(shape)
    levels = bs_levels_lower(v, h, delta)
    reference = _brent_levels(v, h, delta)
    assert len(levels) == len(reference) > 0
    assert max(abs(a - b) for a, b in zip(levels, reference)) <= 1e-12


@pytest.mark.parametrize("shape", ["vcos", "vtwo"])
def test_lanes_do_not_depend_on_their_batch(shape, request):
    v = request.getfixturevalue(shape)
    h = 0.05
    levels = bs_levels_lower(v, h)
    lo = v.v_min + 1e-12 * (v.v_max - v.v_min)
    cap = v.v_max - 0.1 * (v.v_max - v.v_min)
    targets = [h * (nu + 0.5) for nu in range(len(levels))]
    for nu in (0, len(levels) // 2, len(levels) - 1):
        assert sturm1d._well_levels(v, [targets[nu]], lo, cap)[0] \
            == levels[nu]
    # the same lanes in another order and batch
    picked = [len(levels) - 1, 3, 0, 7]
    alone = sturm1d._well_levels(v, [targets[nu] for nu in picked], lo, cap)
    assert alone.tolist() == [levels[nu] for nu in picked]
    inside = [e for e in levels if v.v_min + 0.02 < e < v.v_max - 0.02]
    widths = band_width_lower(v, h, inside, delta=0.02)
    assert widths.tolist() == [band_width_lower(v, h, e, delta=0.02)
                               for e in inside]
    es = np.array(levels)
    actions, _ = sturm1d._well_actions(
        v, es, *sturm1d._turning_points(v, es)[:2])
    assert actions.tolist() == [action_lower(v, e) for e in levels]


def test_near_barrier_cap_uses_the_fallback(vcos, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[1:3])
        return adaptive_quad(*args)

    monkeypatch.setattr(sturm1d, "adaptive_quad", counted)
    delta = 2e-5   # 1e-5 of the barrier: the 48- and 32-point rules disagree
    levels = bs_levels_lower(vcos, 0.23, delta)
    # the cap's action and at least one Newton iterate at the cap
    assert len(calls) >= 2
    monkeypatch.undo()
    reference = _brent_levels(vcos, 0.23, delta)
    assert len(levels) == len(reference)
    assert max(abs(a - b) for a, b in zip(levels, reference)) <= 1e-12
    # the top level's action, redone by the fallback, inverts to 1e-12
    e = vcos.v_max - 3e-5
    target = action_lower(vcos, e)
    cap = vcos.v_max - delta
    assert abs(sturm1d._well_levels(vcos, [target], -1.0, cap)[0] - e) \
        <= 1e-12


@pytest.mark.parametrize("shape", ["vcos", "vtwo"])
def test_array_derivatives_equal_scalar_values(shape, request):
    v = request.getfixturevalue(shape)
    xs = np.linspace(-1.0, 8.0, 37)
    for f in [v.value] + [lambda x, k=k: v.derivatives(x, (k,))[0]
                          for k in (1, 2, 3)]:
        values = f(xs)
        assert values.shape == xs.shape
        assert values.tolist() == [f(float(x)) for x in xs]
        assert isinstance(f(1.0), float)
        assert f(xs.reshape(37, 1)).shape == (37, 1)


@pytest.mark.parametrize("h,e_cap", [(0.3, 1e12), (1e-6, 3.0)])
def test_upper_sweep_over_100000_ends_is_refused(vcos, h, e_cap):
    # counted before any end is listed: these lists held 6.7 and 3.4
    # million ends
    with pytest.raises(DomainError, match=f"e_cap = {e_cap} at h = {h}"):
        gap_ends_upper(vcos, h, e_cap)


def test_one_dimensional_mode_sum_matches_a_plain_mode_loop():
    v = Potential1D({0: 0.3, 1: 0.5 - 0.2j, -1: 0.5 + 0.2j, 2: 0.1j,
                     -2: -0.1j, 3: -0.07 + 0.04j, -3: -0.07 - 0.04j})
    xs = np.random.default_rng(3).uniform(-7.0, 7.0, 50)
    got = v.derivatives(xs, (0, 1, 2, 3))
    for i, x in enumerate(xs.tolist()):
        # the k-th derivatives of 2 (re cos mx - im sin mx), mode by mode
        modes = [(m, c.real, c.imag, math.cos(m * x), math.sin(m * x))
                 for m, c in sorted(v.coeffs.items()) if m > 0]
        for k, sign, odd in ((0, 2.0, False), (1, -2.0, True),
                             (2, -2.0, False), (3, 2.0, True)):
            terms = [sign * m ** k * (re * sn + im * cs if odd
                                      else re * cs - im * sn)
                     for m, re, im, cs, sn in modes]
            mean = 0.3 if k == 0 else 0.0
            ref = mean + math.fsum(terms)
            size = mean + sum(map(abs, terms))
            assert abs(got[k][i] - ref) <= 4 * math.ulp(size)


def test_no_warning_from_a_newton_step_at_an_extremum(vcos):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # r = x^3 - 1/8 starts at its stationary point x = 0, slope 0
        root = bracketed_newton(
            lambda x, lanes: (x ** 3 - 0.125, 3.0 * x * x), [0.0], [1.0],
            [0.0], lambda x: 1e-15)
        assert abs(root[0] - 0.5) <= 1e-15
        # energies one float from the extrema; -cos has its minimum at 0
        for v in (vcos, Potential1D({1: -0.5, -1: -0.5})):
            es = np.array([np.nextafter(v.v_min, math.inf),
                           np.nextafter(v.v_max, -math.inf)])
            xm, xp, _ = sturm1d._turning_points(v, es)
            assert np.all(xm <= v.x_min) and np.all(v.x_min <= xp)
            # within the rounding floor 4 eps (|e| + sum |2 c_k|)
            floor = 4.0 * np.finfo(float).eps * (np.abs(es) + 1.0)
            assert np.all(np.abs(v.value(xm) - es) <= floor)
            assert np.all(np.abs(v.value(xp) - es) <= floor)
            assert np.all(np.isfinite(sturm1d._well_actions(v, es, xm, xp)[0]))


# ------------------------------------------ integrals against mpmath

def _mp_potential(v, mpmath):
    terms = [(k, 2 * mpmath.mpf(c.real), 2 * mpmath.mpf(c.imag))
             for k, c in v.coeffs.items() if k > 0]
    mean = mpmath.mpf(v.coeffs.get(0, 0.0).real)
    return lambda x: mean + mpmath.fsum(
        re * mpmath.cos(k * x) - im * mpmath.sin(k * x) for k, re, im in terms)


@pytest.mark.parametrize("shape", ["vcos", "vtwo"])
def test_integrals_match_mpmath(shape, request):
    mpmath = pytest.importorskip("mpmath")
    v = request.getfixturevalue(shape)
    vm = _mp_potential(v, mpmath)
    two_pi = 2 * mpmath.pi
    x_right = v.x_max if v.x_max > v.x_min else v.x_max + 2.0 * math.pi
    with mpmath.workdps(30):
        for frac in (0.15, 0.5, 0.85):
            e = v.v_min + frac * (v.v_max - v.v_min)
            xm = mpmath.findroot(lambda x: vm(x) - e,
                                 (x_right - 2.0 * math.pi, v.x_min),
                                 solver="anderson")
            xp = mpmath.findroot(lambda x: vm(x) - e, (v.x_min, x_right),
                                 solver="anderson")
            lower = mpmath.quad(lambda x: mpmath.sqrt(e - vm(x)),
                                [xm, v.x_min, xp]) / mpmath.pi
            period = mpmath.quad(lambda x: 1 / mpmath.sqrt(e - vm(x)),
                                 [xm, v.x_min, xp])
            agmon = mpmath.quad(lambda x: mpmath.sqrt(vm(x) - e),
                                [xp, x_right, xm + two_pi])
            assert abs(action_lower(v, e) - lower) <= 1e-11
            assert abs(period_integral(v, e) - period) <= 1e-11
            assert abs(agmon_distance(v, e) - agmon) <= 1e-11
        for above in (0.05, 0.5, 2.0):
            e = v.v_max + above
            upper = mpmath.quad(lambda x: mpmath.sqrt(e - vm(x)),
                                [x_right - two_pi, x_right]) / two_pi
            assert abs(action_upper(v, e) - upper) <= 1e-11


# ------------------------------------------------------------ widths

def test_width_monotone_in_level(vcos):
    h = 0.2
    levels = bs_levels_lower(vcos, h)[:4]
    widths = [band_width_lower(vcos, h, e, delta=0.02) for e in levels]
    assert np.all(np.diff(widths) > 0.0)
    rhos = [agmon_distance(vcos, e) for e in levels]
    assert np.all(np.diff(rhos) < 0.0)


def test_width_exponent_matches_oracle(vcos):
    h = 0.2
    levels = bs_levels_lower(vcos, h)
    edges = oracle_band_edges(vcos, h, vcos.v_max - 0.2, grid_size=1024)
    for nu in range(4):
        w_formula = band_width_lower(vcos, h, levels[nu], delta=0.02)
        w_oracle = edges[nu][1] - edges[nu][0]
        rho = agmon_distance(vcos, levels[nu])
        assert w_oracle > 0.0
        assert abs(math.log(w_formula) - math.log(w_oracle)) <= 0.15 * rho / h


@pytest.mark.parametrize("shape", ["vcos", "vtwo"])
@pytest.mark.parametrize("delta", [0.02, None])
def test_width_uses_the_listed_level(shape, delta, request):
    # the width is the tunneling formula at the level it is handed, and
    # raises exactly outside the window (v_min + delta, v_max - delta)
    v = request.getfixturevalue(shape)
    h = 0.2
    levels = bs_levels_lower(v, h, delta)
    window = 0.1 * (v.v_max - v.v_min) if delta is None else delta
    assert len(levels) >= 4
    for e in levels:
        if e <= v.v_min + window:
            with pytest.raises(DomainError):
                band_width_lower(v, h, e, delta)
            continue
        omega = 2.0 * math.pi / period_integral(v, e)
        rho = agmon_distance(v, e)
        expect = 2.0 * (omega * h / math.pi) * math.exp(-rho / h)
        assert band_width_lower(v, h, e, delta) == expect
    for e in (v.v_min + window, v.v_max - window, v.v_max - 0.5 * window):
        with pytest.raises(DomainError):
            band_width_lower(v, h, e, delta)


def test_dispersion_shape_factor(vcos):
    # E(q) - E- tracks (-1)^(nu+1) cos(2 pi q) + 1 across the low bands
    h = 0.25
    qs = [0.0, 0.25, 0.5]
    spectra = [fd_bloch_oracle(vcos, h, q, 512, count=4) for q in qs]
    for nu in (0, 1, 2):
        es = np.array([s[nu] for s in spectra])
        emin = es.min()
        swing = es.max() - emin
        shape = [((-1) ** (nu + 1) * math.cos(2 * math.pi * q) + 1.0) / 2.0
                 for q in qs]
        predicted = emin + swing * np.array(shape)
        assert np.max(np.abs(predicted - es)) < 0.2 * swing + 1e-12


# ------------------------------------------------------- upper domain

def test_gap_ends_free_case():
    v = Potential1D({})
    h = 0.1
    # degenerate well: every action equals sqrt(E), ends at (h nu / 2)^2
    ends = gap_ends_upper(v, h, 1.0, delta=0.05)
    for nu, e in ends:
        assert abs(e - (h * nu / 2.0) ** 2) < 1e-8


def test_gap_ends_match_oracle(vcos):
    h = 0.05
    ends = gap_ends_upper(vcos, h, 2.5)
    count = int(2.2 * math.sqrt(3.5) / h) + 10
    e0 = fd_bloch_oracle(vcos, h, 0.0, 1024, count=count)
    e5 = fd_bloch_oracle(vcos, h, 0.5, 1024, count=count)
    oracle = np.sort(np.concatenate([e0, e5]))
    for nu, e in ends:
        if e < vcos.v_max + 0.5:
            continue
        assert np.min(np.abs(oracle - e)) < 5e-3


def test_gaps_above_barrier_are_tiny(vcos):
    h = 0.05
    count = int(2.2 * math.sqrt(3.0) / h) + 10
    e0 = fd_bloch_oracle(vcos, h, 0.0, 1024, count=count)
    e5 = fd_bloch_oracle(vcos, h, 0.5, 1024, count=count)
    edges = np.sort(np.concatenate([e0, e5]))
    edges = edges[edges > vcos.v_max + 0.5]
    gaps = np.diff(edges)[0::2]
    assert np.all(gaps[gaps > 0] < h * h)


def test_dispersion_branch_action_rules():
    h = 0.1
    # free case through the even branch at q = 1/4
    v = Potential1D({})
    e = dispersion_upper(v, h, 4, 0.25)
    assert abs(e - (h * (2.0 + 0.25)) ** 2) < 1e-10
    # continuity at q = 1/2 for both parities
    for nu in (4, 5):
        lo = dispersion_branch_action(nu, 0.5 - 1e-9, h)
        hi = dispersion_branch_action(nu, 0.5 + 1e-9, h)
        assert abs(lo - hi) < 1e-7


def test_dispersion_inverts_to_its_branch_actions():
    # every branch of nu 30-59 above the barrier, at 11 quasimomenta: a
    # Newton pass that stopped on a 1e-10 (1 + |E|) step once left these
    # up to 6.4e-11 off in the action
    v = Potential1D({1: 0.5, -1: 0.5, 2: 0.2 - 0.1j, -2: 0.2 + 0.1j})
    h = 0.05
    qs = np.linspace(0.05, 0.95, 11)
    branches = 0
    for nu in range(30, 60):
        targets = [dispersion_branch_action(nu, float(q), h) for q in qs]
        if min(targets) < v.barrier_action:
            continue
        branches += 1
        for e, target in zip(dispersion_upper(v, h, nu, qs), targets):
            assert abs(action_upper(v, float(e)) - target) <= 1e-13
    assert branches == 15


def test_dispersion_matches_oracle(vcos):
    h = 0.05
    # pick a band around E ~ 2 by matching the action index
    nu = int(round(2.0 * action_upper(vcos, 2.0) / h))
    qs = np.linspace(0.05, 0.95, 7)
    count = int(2.2 * math.sqrt(3.0) / h) + 10
    for q in qs:
        e_formula = dispersion_upper(vcos, h, nu, float(q))
        oracle = fd_bloch_oracle(vcos, h, float(q), 512, count=count)
        assert np.min(np.abs(oracle - e_formula)) < 5e-3


# ------------------------------------------------------------ lifshits

def _oracle_eigenpair(v, h, q, n, which):
    dx = 2 * math.pi / n
    xs = np.arange(n) * dx
    diag = 2.0 * h * h / dx ** 2 + v.value(xs)
    hop = -h * h / dx ** 2
    a = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(a, diag)
    idx = np.arange(n - 1)
    a[idx, idx + 1] = hop
    a[idx + 1, idx] = hop
    phase = np.exp(2j * math.pi * q)
    a[n - 1, 0] = hop * phase
    a[0, n - 1] = hop * np.conj(phase)
    w, vecs = np.linalg.eigh(a)
    return xs, w[which].real, vecs[:, which]


def _extend_bloch(xs, psi, q, periods):
    # continue a Bloch grid function over several periods, endpoint included
    chunks = []
    for l in range(periods):
        chunks.append(psi * np.exp(2j * math.pi * q * l))
    full = np.concatenate(chunks + [psi[:1] * np.exp(2j * math.pi * q * periods)])
    return full


def test_lifshits_vanishes_for_same_solution(vcos):
    h = 0.1
    n = 512
    xs, e, psi = _oracle_eigenpair(vcos, h, 0.2, n, 3)
    full = _extend_bloch(xs, psi, 0.2, 1)
    val = lifshits_difference(full, e, full, e, 0.0, 2 * math.pi, h)
    assert abs(val) < 1e-10


def test_lifshits_reproduces_energy_difference(vcos):
    # one full period window with the band fiber localized inside it; h is
    # large enough that the tunneling width is well above rounding noise
    h = 0.4
    n = 1024
    band = 1
    xs, e1, psi1 = _oracle_eigenpair(vcos, h, 0.2, n, band)
    _, e2, psi2 = _oracle_eigenpair(vcos, h, 0.35, n, band)
    f1 = _extend_bloch(xs, psi1, 0.2, 1)
    f2 = _extend_bloch(xs, psi2, 0.35, 1)
    val = lifshits_difference(f1, e1, f2, e2, 0.0, 2 * math.pi, h)
    diff = e1 - e2
    assert abs(diff) > 1e-9
    assert abs(val - diff) < 0.05 * abs(diff)


def test_lifshits_scales_with_h_squared(vcos):
    rng = np.random.default_rng(3)
    xs = np.linspace(0.0, 1.0, 64)
    p1 = np.sin(math.pi * xs) + 0.1
    p2 = np.cos(0.5 * math.pi * xs) + 0.2
    v1 = lifshits_difference(p1, 0.0, p2, 0.0, 0.0, 1.0, 0.1)
    v2 = lifshits_difference(p1, 0.0, p2, 0.0, 0.0, 1.0, 0.2)
    assert abs(v2 / v1 - 4.0) < 1e-10


# ----------------------------------------------------------- quasimode

def test_quasimode_synthetic_quadratic():
    # potential exactly quadratic around the minimum on the grid window
    # is emulated by a very small h so the Gaussian sits deep inside
    v = Potential1D.cosine(1.0)
    h = 0.002
    out = quasimode_distance_check(v, h, 0, grid=2048)
    assert out.residual_ratio < 5e-4
    assert out.oracle_distance <= out.residual_ratio + 10 * (2 * math.pi / 2048) ** 2


def test_quasimode_residual_scaling(vcos):
    h1 = quasimode_distance_check(vcos, 0.05, 0, grid=1024)
    h2 = quasimode_distance_check(vcos, 0.0125, 0, grid=1024)
    # the cosine well is symmetric, so the cubic anharmonicity vanishes
    # and the residual scales like h^2: ratio ~ 4^2 = 16
    ratio = h1.residual_ratio / h2.residual_ratio
    assert 8.0 < ratio < 32.0


def test_quasimode_bound_holds(vcos):
    for nu, h in [(0, 0.05), (1, 0.05), (0, 0.1), (2, 0.08)]:
        out = quasimode_distance_check(vcos, h, nu, grid=1024)
        slack = 10.0 * (2 * math.pi / out.grid) ** 2
        assert out.oracle_distance <= out.residual_ratio + slack


# ---------------------------------------------------------------- reeb

def test_reeb_free_case():
    v = Potential1D({})
    graph = reeb_1d(v, e_cap=4.0)
    assert not graph.has_well
    for e in (0.5, 1.0, 2.0):
        assert abs(graph.action("i2", e) - math.sqrt(e)) < 1e-10
        assert abs(graph.energy("i2", math.sqrt(e)) - e) < 1e-9
    with pytest.raises(DomainError):
        graph.energy("i1", 0.1)


def test_reeb_outer_limit_value(vcos):
    graph = reeb_1d(vcos)
    exact = 4.0 * math.sqrt(2.0) / math.pi
    assert abs(graph.outer_limit - exact) < 1e-10
    quad = action_lower(vcos, vcos.v_max - 1e-9)
    assert abs(quad - exact) < 1e-4


def test_reeb_kirchhoff(vcos, vtwo):
    # the well action at the barrier top, one adaptive pass from x_max, is
    # twice the open-edge action there by the trapezoid rule and its
    # fallback over [0, 2 pi]
    for v in (vcos, vtwo):
        graph = reeb_1d(v)
        assert abs(graph.outer_limit - 2.0 * action_upper(v, v.v_max)) < 1e-10


def test_reeb_inverse_maps(vcos):
    graph = reeb_1d(vcos)
    for e in (-0.5, 0.0, 0.6):
        i = graph.action("i1", e)
        assert abs(graph.energy("i1", i) - e) < 1e-9
    for e in (1.5, 2.5):
        i = graph.action("i2", e)
        assert abs(graph.energy("i2", i) - e) < 1e-9


def test_reeb_inverse_maps_two_mode(vtwo):
    graph = reeb_1d(vtwo)
    span = vtwo.v_max - vtwo.v_min
    for frac in (0.01, 0.3, 0.7, 0.99):
        e = vtwo.v_min + frac * span
        assert abs(graph.energy("i1", graph.action("i1", e)) - e) < 1e-9
    for e in (vtwo.v_max + 0.01, vtwo.v_max + 1.0, graph.e_cap):
        i = graph.action("i3", e)
        assert abs(graph.energy("i3", i) - e) < 1e-9


def test_reeb_open_energy_right_above_the_barrier_top(vcos):
    # the array Newton pass stopped on a 1e-10 (1 + |E|) step: 1.6e-10 off
    # at v_max + 1e-6 on the first potential; on the cosine its clipped
    # first guess sat at v_max, where it stopped for every E below ~1.14
    skewed = Potential1D({1: 0.5, -1: 0.5, 2: 0.2 - 0.1j, -2: 0.2 + 0.1j})
    for v in (skewed, vcos):
        graph = reeb_1d(v)
        for d in (0.1, 1e-2, 1e-6, 1e-8, 0.0):
            e = v.v_max + d
            for edge in ("i2", "i3"):
                got = graph.energy(edge, graph.action(edge, e))
                assert abs(got - e) <= 1e-12


def test_reeb_energy_outside_edge_raises(vtwo):
    graph = reeb_1d(vtwo, e_cap=vtwo.v_max + 2.0)
    with pytest.raises(DomainError):
        graph.energy("i2", graph.action("i2", graph.e_cap) + 1e-3)
    with pytest.raises(DomainError):
        graph.energy("i1", graph.outer_limit + 1e-3)
    with pytest.raises(DomainError):
        graph.energy("i2", graph.upper_limit - 1e-3)


def test_reeb_keeps_a_zero_cap():
    # v in [-4, -2]: a cap of 0.0 is a real cap, not an absent one
    v = Potential1D({0: -3.0, 1: 0.5, -1: 0.5})
    graph = reeb_1d(v, e_cap=0.0)
    assert graph.e_cap == 0.0
    top = graph.action("i2", 0.0)
    assert abs(graph.energy("i2", top - 1e-3) - 0.0) < 0.01
    with pytest.raises(DomainError):
        graph.energy("i2", top + 1e-3)
    free = reeb_1d(Potential1D({0: -1.0}), e_cap=0.0)
    assert free.e_cap == 0.0


# ---------------------------------------------------------------- weyl

def test_weyl_free_case():
    v = Potential1D({})
    h = 0.1
    out = weyl_count_1d(v, 1.0, h)
    # gap ends at (h nu/2)^2 <= 1: nu <= 2/h
    assert abs(out.value - 2.0 / h) < 1.0


def test_weyl_matches_oracle_count(vcos):
    h = 0.05
    e_target = 2.0
    out = weyl_count_1d(vcos, e_target, h)
    edges = oracle_band_edges(vcos, h, e_target + 0.5, grid_size=1024)
    n_oracle = sum(1 for lo, hi in edges if 0.5 * (lo + hi) <= e_target)
    assert abs(out.value - n_oracle) <= 2.0


def test_weyl_layer_flag(vcos):
    out = weyl_count_1d(vcos, vcos.v_max, 0.05)
    assert out.layer
    assert out.lower_value is not None and out.upper_value is not None


def test_weyl_zero_below_minimum(vcos):
    assert weyl_count_1d(vcos, -2.0, 0.1).value == 0.0

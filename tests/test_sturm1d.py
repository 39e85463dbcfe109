import math

import numpy as np
import pytest

from driftband import sturm1d
from driftband.numerics import DomainError
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


def test_oracle_solves_on_one_lapack_thread(vcos, monkeypatch):
    import scipy.linalg
    control = sturm1d._lapack_threads()
    if control is None:
        pytest.skip("scipy.linalg is not linked against OpenBLAS")
    get, put = control
    original = get()
    seen = []
    eigh = scipy.linalg.eigh

    def spy(*args, **kwargs):
        seen.append(get())
        return eigh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    put(2)
    try:
        fd_bloch_oracle(vcos, 0.2, 0.3, 128, count=5)
        after = get()
    finally:
        put(original)
    assert seen == [1, 1]
    assert after == 2


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


# ------------------------------------------------------------ widths

def test_width_monotone_in_level(vcos):
    h = 0.2
    widths = [band_width_lower(vcos, h, nu, delta=0.02) for nu in range(4)]
    assert np.all(np.diff(widths) > 0.0)
    rhos = [agmon_distance(vcos, e) for e in bs_levels_lower(vcos, h)[:4]]
    assert np.all(np.diff(rhos) < 0.0)


def test_width_exponent_matches_oracle(vcos):
    h = 0.2
    levels = bs_levels_lower(vcos, h)
    edges = oracle_band_edges(vcos, h, vcos.v_max - 0.2, grid_size=1024)
    for nu in range(4):
        w_formula = band_width_lower(vcos, h, nu, delta=0.02)
        w_oracle = edges[nu][1] - edges[nu][0]
        rho = agmon_distance(vcos, levels[nu])
        assert w_oracle > 0.0
        assert abs(math.log(w_formula) - math.log(w_oracle)) <= 0.15 * rho / h


@pytest.mark.parametrize("shape", ["vcos", "vtwo"])
@pytest.mark.parametrize("delta", [0.02, None])
def test_width_uses_the_listed_level(shape, delta, request):
    # one level solve per width gives exactly the level bs_levels_lower lists
    v = request.getfixturevalue(shape)
    h = 0.2
    levels = bs_levels_lower(v, h, delta)
    window = 0.1 * (v.v_max - v.v_min) if delta is None else delta
    assert len(levels) >= 4
    for nu, e in enumerate(levels):
        if e <= v.v_min + window:
            with pytest.raises(DomainError):
                band_width_lower(v, h, nu, delta)
            continue
        omega = 2.0 * math.pi / period_integral(v, e)
        rho = agmon_distance(v, e)
        expect = 2.0 * (omega * h / math.pi) * math.exp(-rho / h)
        assert band_width_lower(v, h, nu, delta) == expect
    with pytest.raises(DomainError):
        band_width_lower(v, h, len(levels), delta)


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
    e = dispersion_upper(v, h, 4, 0.25, e_cap=4.0)
    assert abs(e - (h * (2.0 + 0.25)) ** 2) < 1e-10
    # continuity at q = 1/2 for both parities
    for nu in (4, 5):
        lo = dispersion_branch_action(nu, 0.5 - 1e-9, h)
        hi = dispersion_branch_action(nu, 0.5 + 1e-9, h)
        assert abs(lo - hi) < 1e-7


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


def test_reeb_kirchhoff(vcos):
    graph = reeb_1d(vcos)
    assert abs(graph.kirchhoff_residual()) < 1e-10


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


def test_reeb_energy_outside_edge_raises(vtwo):
    graph = reeb_1d(vtwo, e_cap=vtwo.v_max + 2.0)
    with pytest.raises(DomainError):
        graph.energy("i2", graph.action("i2", graph.e_cap) + 1e-3)
    with pytest.raises(DomainError):
        graph.energy("i1", graph.outer_limit + 1e-3)
    with pytest.raises(DomainError):
        graph.energy("i2", graph.upper_limit - 1e-3)


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

import math
from fractions import Fraction

import numpy as np
import pytest

from driftband import harper
from driftband.harper import (BandTable, CommensurabilityError, HarperModel,
                              band_table, bloch_matrix, general_symbol_matrix,
                              harper_from_landau)
from driftband.numerics import bessel_j0, bessel_j0_zero, hermitian_eigenvalues
from driftband.potential import FluxRatio, cosine_example


def make_model(hop=1.0, pot=1.0, m=1, n=3):
    # beta = 1 and h chosen so that beta h / 2 pi = m/n
    h = 2 * math.pi * m / n
    return HarperModel(hop=hop, pot=pot, beta=1.0, h_step=h, i1_mu=0.5 * h,
                       eps=0.01)


# ----------------------------------------------------------- reduction

def test_reduction_amplitudes():
    p = cosine_example(1.3, 0.7, 2.0)
    h, eps = 0.1, 0.01
    model = harper_from_landau(p, 2, h, eps)
    i1 = 2.5 * h
    r = math.sqrt(2 * i1)
    assert abs(model.hop - 1.3 * bessel_j0(r)) < 1e-14
    assert abs(model.pot - 0.7 * bessel_j0(2 * r)) < 1e-14
    assert model.h_step == h


def test_lambda_map_roundtrip():
    p = cosine_example(1.0, 1.0, 1.0)
    model = harper_from_landau(p, 0, 0.1, 0.01)
    lam = 0.37
    e = model.lambda_to_energy(lam)
    assert abs(e - (0.05 + 0.01 * lam)) < 1e-15
    assert abs(model.energy_to_lambda(e) - lam) < 1e-12


def test_hop_dies_at_bessel_zero():
    # choose h so that the first Landau action sits on the first J0 zero
    z = bessel_j0_zero(1)
    h = z * z  # i1 = h/2 = z^2/2
    p = cosine_example(1.0, 1.0, 2.0)
    model = harper_from_landau(p, 0, h, 0.01)
    assert abs(model.hop) < 1e-12
    assert abs(model.pot) > 0.1


# ---------------------------------------------------------- bloch matrix

def test_single_site():
    model = make_model(m=1, n=1)
    for th, ph in [(0.3, 1.1), (2.0, 0.2)]:
        a = bloch_matrix(model, Fraction(1, 1), th, ph).entries
        assert a.shape == (1, 1)
        expect = model.hop * math.cos(th) + model.pot * math.cos(ph)
        assert abs(a[0, 0] - expect) < 1e-14


def test_free_hopping_circulant():
    model = make_model(pot=0.0, m=1, n=5)
    th = 0.21
    lam = hermitian_eigenvalues(bloch_matrix(model, Fraction(1, 5), th, 0.0))
    expect = np.sort([model.hop * math.cos(th + 2 * math.pi * k / 5)
                      for k in range(5)])
    assert np.max(np.abs(lam - expect)) < 1e-12


def test_trace_is_potential_sum():
    model = make_model(m=2, n=5)
    ph = 0.7
    a = bloch_matrix(model, Fraction(2, 5), 0.1, ph).entries
    expect = model.pot * sum(math.cos(ph + 2 * math.pi * 2 * j / 5)
                             for j in range(5))
    assert abs(np.trace(a).real - expect) < 1e-13


def test_incommensurate_rejected():
    model = HarperModel(hop=1.0, pot=1.0, beta=1.0, h_step=1.0, i1_mu=0.5,
                        eps=0.01)
    with pytest.raises(CommensurabilityError):
        bloch_matrix(model, Fraction(1, 3), 0.0, 0.0)


# ------------------------------------------------------------ band table

def test_free_hopping_single_band():
    model = make_model(pot=0.0, m=1, n=3)
    table = band_table(model, Fraction(1, 3), grid=(24, 4))
    assert len(table.touching) == 2  # all three slots merge
    assert abs(table.bands[0][0] + abs(model.hop)) < 1e-6
    assert abs(table.bands[-1][1] - abs(model.hop)) < 1e-6


def test_three_band_symmetry():
    model = make_model(hop=1.0, pot=1.0, m=1, n=3)
    # an even, unrefined grid is invariant under the symmetry that flips
    # the spectrum, so the band table is antisymmetric to rounding
    table = band_table(model, Fraction(1, 3), grid=(24, 24), refine=0)
    assert table.count == 3
    flat = np.array(table.bands).ravel()
    assert np.max(np.abs(np.sort(flat) + np.sort(-flat)[::-1])) < 1e-9
    assert min(table.gaps()) > 1e-9


def test_total_band_measure_bound():
    model = make_model(hop=0.8, pot=1.1, m=1, n=3)
    table = band_table(model, Fraction(1, 3), grid=(16, 16))
    measure = sum(hi - lo for lo, hi in table.bands)
    assert measure <= 2 * (abs(model.hop) + abs(model.pot)) + 1e-9


def test_eigenvalue_continuity_along_sweep():
    model = make_model(hop=1.0, pot=1.0, m=2, n=5)
    c = 2 * math.pi * (abs(model.hop) + abs(model.pot))
    grid = 32
    prev = None
    for th in np.linspace(0.0, 2 * math.pi / 5, grid):
        lam = hermitian_eigenvalues(bloch_matrix(model, Fraction(2, 5), th, 0.4))
        if prev is not None:
            assert np.max(np.abs(lam - prev)) <= c / grid
        prev = lam


def _pointwise_band_table(model, frac, grid, refine):
    # reference sweep: one LAPACK solve per point; strict comparisons in
    # theta-outer, phi-inner order pick the refinement anchors
    n = frac.denominator

    def eig(th, ph):
        return np.linalg.eigvalsh(bloch_matrix(model, frac, th, ph).entries)

    mins, maxs = np.full(n, np.inf), np.full(n, -np.inf)
    anchors = [[None, None] for _ in range(n)]
    for th in np.linspace(0.0, 2 * math.pi / n, grid[0], endpoint=False):
        for ph in np.linspace(0.0, 2 * math.pi, grid[1], endpoint=False):
            lam = eig(th, ph)
            for b in range(n):
                if lam[b] < mins[b]:
                    mins[b], anchors[b][0] = lam[b], (th, ph)
                if lam[b] > maxs[b]:
                    maxs[b], anchors[b][1] = lam[b], (th, ph)
    dth, dph = 2 * math.pi / n / grid[0], 2 * math.pi / grid[1]
    for b in range(n if refine > 0 else 0):
        for side, (th0, ph0) in enumerate(anchors[b]):
            for th in np.linspace(th0 - dth, th0 + dth, 2 * refine + 1):
                for ph in np.linspace(ph0 - dph, ph0 + dph, 2 * refine + 1):
                    lam = eig(th, ph)[b]
                    if side == 0:
                        mins[b] = min(mins[b], lam)
                    else:
                        maxs[b] = max(maxs[b], lam)
    return np.stack([mins, maxs], axis=1)


@pytest.mark.parametrize("refine", [0, 2])
@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (1, 3), (2, 5), (3, 7)])
def test_band_table_matches_pointwise_eigvalsh(m, n, refine):
    model = make_model(hop=0.9, pot=1.2, m=m, n=n)
    grid = (6, 7)
    table = band_table(model, Fraction(m, n), grid=grid, refine=refine)
    expect = _pointwise_band_table(model, Fraction(m, n), grid, refine)
    assert np.max(np.abs(np.array(table.bands) - expect)) < 1e-12


def test_band_table_independent_of_stack_chunking(monkeypatch):
    # stacks split into many small chunks give the same table bit for bit
    model = make_model(hop=0.9, pot=1.2, m=2, n=5)
    whole = band_table(model, Fraction(2, 5), grid=(8, 8), refine=2)
    monkeypatch.setattr(harper, "_STACK_ENTRIES", 7 * 25)
    split = band_table(model, Fraction(2, 5), grid=(8, 8), refine=2)
    assert split.bands == whole.bands


def test_flux_half_closed_form():
    # at 1/2 both hops land on the same off-diagonal entry, which becomes
    # hop e^(-i theta) cos theta: lambda = +-sqrt(pot^2 cos^2 phi
    # + hop^2 cos^2 theta)
    model = make_model(hop=0.9, pot=1.3, m=1, n=2)

    def closed(th, ph):
        return math.sqrt((model.pot * math.cos(ph)) ** 2
                         + (model.hop * math.cos(th)) ** 2)

    for th, ph in [(0.0, 0.0), (0.4, 1.1), (1.3, 2.9), (2.0, 0.3)]:
        lam = hermitian_eigenvalues(bloch_matrix(model, Fraction(1, 2), th, ph))
        r = closed(th, ph)
        assert np.max(np.abs(lam - [-r, r])) < 1e-13
    grid = (8, 8)
    table = band_table(model, Fraction(1, 2), grid=grid, refine=0)
    r = [closed(th, ph)
         for th in np.linspace(0.0, math.pi, grid[0], endpoint=False)
         for ph in np.linspace(0.0, 2 * math.pi, grid[1], endpoint=False)]
    expect = [(-max(r), -min(r)), (min(r), max(r))]
    assert np.max(np.abs(np.array(table.bands) - expect)) < 1e-13


# ------------------------------------------------- general symbol matrix

def test_general_matrix_matches_cosine_reduction():
    p = cosine_example(1.0, 1.0, 1.0)
    m, n = 2, 5
    h = 2 * math.pi * m / n
    model = harper_from_landau(p, 0, h, 0.01)
    for th, ph in [(0.0, 0.0), (0.13, 0.8), (1.0, 2.2)]:
        a = bloch_matrix(model, Fraction(m, n), th, ph).entries
        b = general_symbol_matrix(p, 0, h, 0.01, Fraction(m, n),
                                  (th, ph)).entries
        assert np.max(np.abs(a - b)) < 1e-13


def test_pure_potential_is_diagonal():
    p = cosine_example(0.0, 1.0, 1.0)
    m, n = 1, 4
    h = 2 * math.pi * m / n
    a = general_symbol_matrix(p, 0, h, 0.01, Fraction(m, n), (0.3, 0.5)).entries
    off = a - np.diag(np.diag(a))
    assert np.max(np.abs(off)) == 0.0


def test_general_matrix_hermitian():
    p = cosine_example(1.1, 0.6, 1.0)
    m, n = 1, 6
    h = 2 * math.pi * m / n
    a = general_symbol_matrix(p, 1, h, 0.02, Fraction(m, n), (0.7, 1.9)).entries
    assert np.max(np.abs(a - a.conj().T)) < 1e-14


# --------------------------------------------- flux ratio interoperability

def test_main_flux_to_harper_fraction():
    # eta = N/M = 5/2 with a22 = 2 pi means beta h/(2 pi) = 2/5
    p = cosine_example(1.0, 1.0, 1.0)
    h = p.lattice.a22 * 2 / 5
    model = harper_from_landau(p, 0, h, 0.01)
    assert model.flux_fraction() == Fraction(2, 5)
    flux = FluxRatio(5, 2)
    a = bloch_matrix(model, flux, 0.0, 0.0)
    assert a.dim == 5

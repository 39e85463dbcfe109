import math

import numpy as np
import pytest

from driftband import spectra
from driftband.actions import build_edge_table
from driftband.classical import DriftModel, build_reeb_graph
from driftband.numerics import DomainError, bessel_j0
from driftband.potential import FluxRatio, cosine_example
from driftband.spectra import (HomologicalSolution, KirchhoffViolation,
                               LandauBand, QuantizedState, Spectrum,
                               first_order_generating_residual,
                               generating_function, homological_grid_residual,
                               landau_band_width, landau_level,
                               maslov_indices, merge_intervals,
                               quantize_boundary, quantize_interior,
                               semiclassical_spectrum, solve_homological,
                               subband_count)

EPS = 0.01


# ------------------------------------------------------------ landau

def test_landau_levels():
    assert landau_level(0, 0.1) == pytest.approx(0.05)
    assert landau_level(4, 0.1) == pytest.approx(0.45)
    spacing = landau_level(5, 0.1) - landau_level(4, 0.1)
    assert spacing == pytest.approx(0.1)


def test_maslov():
    assert maslov_indices("torus") == (2, 2)
    assert maslov_indices("cylinder") == (2,)
    # the half-integer offsets in the quantization rules are index/4
    assert maslov_indices("torus")[0] / 4 == 0.5


# ------------------------------------------------------- quantization

@pytest.fixture(scope="module")
def setup_mu1():
    p = cosine_example(2.0, 1.0, 1.0)
    h = 0.1
    i1 = landau_level(1, h)
    graph = build_reeb_graph(p, EPS, i1)
    return p, h, i1, graph


def test_boundary_state_count(setup_mu1):
    p, h, i1, graph = setup_mu1
    table = build_edge_table(graph, "i1", nodes=24, target=1e-6)
    h_small = 0.01
    states = quantize_boundary(table, h_small, delta=0.0)
    i2_top = max(table.i2_range)
    assert abs(len(states) - i2_top / h_small) <= 1.0


def test_boundary_energies_increase_with_nu(setup_mu1):
    p, h, i1, graph = setup_mu1
    table = build_edge_table(graph, "i1", nodes=24, target=1e-6)
    states = quantize_boundary(table, 0.02, delta=0.0, mu=1)
    es = [s.energy for s in states]
    assert np.all(np.diff(es) > 0.0)
    assert all(s.mu == 1 for s in states)
    assert [s.nu for s in states] == list(range(len(states)))


def test_harmonic_bottom_spacing(setup_mu1):
    # lowest state sits h*omega/2 above the well bottom
    p, h, i1, graph = setup_mu1
    table = build_edge_table(graph, "i1", nodes=24, target=1e-6)
    h_small = 0.001  # h << eps
    states = quantize_boundary(table, h_small, delta=0.0)
    model = DriftModel(p, EPS, i1)
    cmin = graph.critical_points.by_kind("minimum")[0]
    h11, h12, h22 = model.hessian(cmin.y[0], cmin.y[1])
    omega = EPS * math.sqrt(h11 * h22 - h12 * h12)
    gap = states[0].energy - cmin.value
    assert abs(gap - 0.5 * h_small * omega) < 0.2 * 0.5 * h_small * omega


def test_interior_interval_endpoints(setup_mu1):
    p, h, i1, graph = setup_mu1
    table = build_edge_table(graph, "i2", nodes=24, target=1e-6)
    state = quantize_interior(table, h, delta=1e-6)
    g_lo, g_hi = graph.edge("i2").energy_range
    assert state.energy[0] == pytest.approx(g_lo, abs=2e-3 * EPS)
    assert state.energy[1] == pytest.approx(g_hi, abs=2e-3 * EPS)


def test_interior_trim_shrinks_interval(setup_mu1):
    p, h, i1, graph = setup_mu1
    table = build_edge_table(graph, "i2", nodes=24, target=1e-6)
    wide = quantize_interior(table, h, delta=1e-6)
    narrow = quantize_interior(table, h, delta=0.05)
    assert narrow.energy[0] > wide.energy[0]
    assert narrow.energy[1] < wide.energy[1]


# ----------------------------------------------------------- spectrum

def test_spectrum_degenerate_at_zero_eps():
    p = cosine_example(1.0, 1.0, 1.0)
    spec = semiclassical_spectrum(p, 0.0, 0.1, delta=0.3, i1_max=0.5)
    for band in spec.bands:
        assert band.width == 0.0
        assert band.e_min == band.e_max == band.i1


@pytest.fixture(scope="module")
def equal_saddles_spectrum():
    # cosine(1, 1, 1) has equal saddles at every I1; h = 0.1 keeps the
    # bands apart, eps (g_max - g_min) ~ 0.04 < h
    return semiclassical_spectrum(cosine_example(1.0, 1.0, 1.0), EPS, 0.1,
                                  i1_max=0.6, delta=0.01)


def test_spectrum_band_widths_cosine(equal_saddles_spectrum):
    spec = equal_saddles_spectrum
    for band in spec.bands:
        r = math.sqrt(2.0 * band.i1)
        expect = 2.0 * EPS * (abs(bessel_j0(r)) + abs(bessel_j0(r)))
        assert abs(band.width - expect) < 1e-10


def test_spectrum_width_value_mu0():
    p = cosine_example(1.0, 1.0, 1.0)
    spec = semiclassical_spectrum(p, EPS, 0.1, i1_max=0.1, delta=0.01)
    band = spec.bands[0]
    assert abs(band.width - 0.0390) < 2e-4
    assert abs(band.width - 4 * EPS * bessel_j0(math.sqrt(0.1))) < 1e-12


def test_band_disjointness(equal_saddles_spectrum):
    spec = equal_saddles_spectrum
    for b1, b2 in zip(spec.bands[:-1], spec.bands[1:]):
        assert b1.e_max < b2.e_min


def test_spectrum_states_inside_band():
    p = cosine_example(2.0, 1.0, 1.0)
    spec = semiclassical_spectrum(p, EPS, 0.1, i1_max=0.35, delta=0.005)
    bands = {b.mu: b for b in spec.bands}
    assert spec.series, "expected quantized series"
    for series in spec.series:
        for st in series.states:
            band = bands[st.mu]
            if st.is_interval:
                assert band.e_min - 1e-9 <= st.energy[0] <= st.energy[1] \
                    <= band.e_max + 1e-9
            else:
                assert band.e_min - 1e-9 <= st.energy <= band.e_max + 1e-9


def test_interior_and_boundary_series_present():
    p = cosine_example(2.0, 1.0, 1.0)
    spec = semiclassical_spectrum(p, EPS, 0.1, i1_max=0.35, delta=0.005)
    kinds = {s.kind for s in spec.series}
    assert kinds == {"points", "intervals"}


def test_spectrum_keeps_largest_table_error(monkeypatch):
    built = []
    build = spectra.build_edge_tables

    def recorded(*args, **kwargs):
        tables = build(*args, **kwargs)
        built.append([t.interp_error for t in tables])
        if len(built) == 2:  # mark the i3 table of the middle level
            tables[-1].interp_error = 0.5
        return tables

    monkeypatch.setattr(spectra, "build_edge_tables", recorded)
    p = cosine_example(2.0, 1.0, 1.0)
    spec = semiclassical_spectrum(p, EPS, 0.1, i1_max=0.25, delta=0.005)
    assert [len(errs) for errs in built] == [4, 4, 4]  # one call per level
    assert max(max(errs) for errs in built) <= 1e-6
    assert spec.table_err_max == 0.5


def test_projection_merges_overlaps():
    merged = merge_intervals([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)])
    assert merged == [(0.0, 2.0), (3.0, 4.0)]


# ---------------------------------------------------------- subbands

def test_subband_count_five_halves():
    p = cosine_example(1.0, 1.0, 1.0)
    flux = FluxRatio(5, 2)
    h = p.lattice.a22 * flux.M / flux.N
    # need distinct saddle values: use A != B to stay non-degenerate
    p = cosine_example(2.0, 1.0, 1.0)
    graph = build_reeb_graph(p, EPS, landau_level(0, h))
    count = subband_count(graph, h, flux)
    assert count == 5


def test_subband_count_seven_thirds():
    p = cosine_example(2.0, 1.0, 1.0)
    flux = FluxRatio(7, 3)
    h = p.lattice.a22 * flux.M / flux.N
    graph = build_reeb_graph(p, EPS, landau_level(0, h))
    count = subband_count(graph, h, flux)
    assert count == 7


def test_subband_count_integer_flux():
    p = cosine_example(2.0, 1.0, 1.0)
    flux = FluxRatio(4, 1)
    h = p.lattice.a22 / 4
    graph = build_reeb_graph(p, EPS, landau_level(0, h))
    count = subband_count(graph, h, flux)
    assert count == 4


# -------------------------------------------------------- homological

def test_homological_single_mode():
    g = {(1, 0): 0.5, (-1, 0): 0.5}  # cos(phi1)
    sol = solve_homological(g, 1.0, 0.0, eps=0.01)
    # f should be sin(phi1) = (e^i - e^-i) / 2i
    assert abs(sol.f[(1, 0)] - 0.5 / 1j) < 1e-15
    assert abs(sol.f[(-1, 0)] - (-0.5 / 1j)) < 1e-15
    assert sol.mean_shift == 0.0
    assert sol.residual_norm == 0.0


def test_homological_constant():
    sol = solve_homological({(0, 0): 3.7}, 1.0, 0.01, eps=0.01)
    assert sol.f == {}
    assert sol.mean_shift == -3.7


def test_homological_grid_residual_bounded():
    rng = np.random.default_rng(5)
    for eps_prime in (0.1, 0.01):
        g = {}
        for _ in range(12):
            k = (int(rng.integers(-6, 7)), int(rng.integers(-6, 7)))
            if k == (0, 0):
                continue
            c = complex(rng.normal(), rng.normal())
            g[k] = c
            g[(-k[0], -k[1])] = c.conjugate()
        g[(0, 0)] = 1.3
        sol = solve_homological(g, 1.0, eps_prime, eps=eps_prime)
        resid = homological_grid_residual(sol, g, 1.0, eps_prime)
        assert resid <= sol.residual_norm + 1e-12


def test_homological_kept_modes_exact():
    g = {(2, 1): 1.0 + 0.5j, (-2, -1): 1.0 - 0.5j, (0, 0): 0.2}
    omega = (1.0, 0.013)
    sol = solve_homological(g, *omega, eps=0.01)
    assert (2, 1) in sol.kept
    resid = homological_grid_residual(sol, g, *omega, grid=64)
    assert resid < 1e-12


# ------------------------------------------------ generating residual

def test_generating_residual_constant_potential():
    from driftband.potential import FourierPotential, Lattice
    p = FourierPotential(Lattice(), {(0, 0): 2.0})
    res = first_order_generating_residual(p, [0.3], sample_count=3)
    assert res < 1e-12
    assert abs(generating_function(p, 0.3, (0.1, 0.2), 1.0)) < 1e-12


def test_generating_residual_cosine():
    p = cosine_example(1.0, 1.0, 1.0)
    res = first_order_generating_residual(p, [0.5], sample_count=4)
    assert res < 1e-6


def test_generating_function_bounded_at_small_action():
    p = cosine_example(1.0, 1.0, 1.0)
    vals = [abs(generating_function(p, i1, (0.7, 1.1), 2.0))
            for i1 in (1e-2, 1e-4, 1e-6)]
    assert vals[0] < 1.0
    assert vals[1] < 0.1 * vals[0] + 1e-6
    assert vals[2] < vals[1] + 1e-8

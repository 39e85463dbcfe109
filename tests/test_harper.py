import json
import math
from fractions import Fraction

import numpy as np
import pytest

from driftband import harper
from driftband.cli import main
from driftband.harper import (CommensurabilityError, HarperModel, band_table,
                              bloch_matrix, harper_from_landau)
from driftband.numerics import bessel_j0, bessel_j0_zero, hermitian_eigenvalues
from driftband.potential import (FluxRatio, FourierPotential, Lattice,
                                 cosine_example)


def make_model(hop=1.0, pot=1.0, m=1, n=3):
    # beta = 1 and h chosen so that beta h / 2 pi = m/n
    h = 2 * math.pi * m / n
    return HarperModel(symbol=cosine_example(hop, pot, 1.0), h_step=h,
                       i1_mu=0.5 * h, eps=0.01)


def reference_matrix(p, mu, h, flux, theta):
    """Bloch matrix of the averaged symbol, built one entry at a time.

    Mode (k1, k2) of the averaged potential acts as a k1-site hop times an
    on-site wave, Weyl-symmetrized: the entry at column j carries the phase
    of the wave evaluated midway along the hop.  Coefficients come damped
    by the cyclotron average at the mu-th Landau action.
    """
    m, n = flux.numerator, flux.denominator
    theta1, phi0 = theta
    beta = 2 * math.pi / p.lattice.a22
    assert abs(beta * h / (2 * math.pi) - m / n) <= 1e-9
    damped = p.damped((mu + 0.5) * h)
    ys = phi0 / beta + h * np.arange(n)
    a = np.zeros((n, n), dtype=complex)
    for (k1, k2), c in damped.coeffs.items():
        if (k1, k2) == (0, 0):
            a += np.eye(n) * c.real
            continue
        _, kappa = p.lattice.dual_vector(k1, k2)
        # the wave must close around the N-cycle
        closure = kappa * n * h / (2 * math.pi)
        assert abs(closure - round(closure)) <= 1e-9
        for j in range(n):
            col_raw = j + k1
            wrap = col_raw // n
            col = col_raw % n
            # Weyl symmetrization: the wave is evaluated midway of the hop
            phase = np.exp(1j * kappa * (ys[j] + 0.5 * k1 * h))
            bloch = np.exp(1j * n * theta1 * wrap)
            a[j, col] += c * phase * bloch
    return a


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
    model = HarperModel(symbol=cosine_example(1.0, 1.0, 1.0), h_step=1.0,
                        i1_mu=0.5, eps=0.01)
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


def _sweep_bands(model, frac, grid, refine):
    # the sweep band_table runs outside Harper's equation, here on any symbol
    lo, hi, _ = harper._sweep_edges(model, frac, grid, refine)
    return np.stack([lo, hi], axis=1)


@pytest.mark.parametrize("refine", [0, 2])
@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (1, 3), (2, 5), (3, 7)])
def test_band_table_matches_pointwise_eigvalsh(m, n, refine):
    model = make_model(hop=0.9, pot=1.2, m=m, n=n)
    grid = (6, 7)
    swept = _sweep_bands(model, Fraction(m, n), grid, refine)
    expect = _pointwise_band_table(model, Fraction(m, n), grid, refine)
    assert np.max(np.abs(swept - expect)) < 1e-12


def test_band_table_independent_of_stack_chunking(monkeypatch):
    # stacks split into many small chunks give the same edges bit for bit
    model = make_model(hop=0.9, pot=1.2, m=2, n=5)
    whole = _sweep_bands(model, Fraction(2, 5), (8, 8), 2)
    monkeypatch.setattr(harper, "_STACK_ENTRIES", 7 * 25)
    split = _sweep_bands(model, Fraction(2, 5), (8, 8), 2)
    assert split.tobytes() == whole.tobytes()


# ------------------------------------------- exact edges (Chambers' relation)

def _harper_case(kind, n):
    """A cosine-family model of one kind at the least flux M/N whose damped
    amplitudes (hop, pot) pass the kind's test."""
    with_mean = FourierPotential(Lattice(0.0, 2 * math.pi), {
        (0, 0): 0.4, (1, 0): 0.65, (-1, 0): 0.65, (0, 1): 0.35, (0, -1): 0.35})
    # beta = 2: the (0, 1) mode is damped by J0(2r), the hop by J0(r)
    p, mu, accept = {
        "mean": (with_mean, 0, lambda a, b: True),
        "opposite": (cosine_example(1.3, 0.7, 2.0), 1,
                     lambda a, b: a * b < 0 and min(abs(a), abs(b)) > 0.05),
        "negative": (cosine_example(1.3, 0.7, 1.0), 2,
                     lambda a, b: max(a, b) < -0.05),
        "pot0": (cosine_example(1.1, 0.0, 1.0), 1, lambda a, b: True),
        "hop0": (cosine_example(0.0, 0.9, 1.0), 2, lambda a, b: True),
    }[kind]
    for m in range(1, 4 * n + 1):
        if math.gcd(m, n) == 1:
            model = harper_from_landau(p, mu, p.lattice.a22 * m / n, 0.01)
            if accept(model.hop, model.pot):
                return model, Fraction(m, n)
    raise AssertionError(f"no flux M/{n} gives a {kind} model")


KINDS = ("mean", "opposite", "negative", "pot0", "hop0")
# every kind up to N = 16; the 64^2 reference sweep costs about 1 s at
# N = 31 and 8 s at N = 63, so those take fewer kinds
EXACT_CASES = ([(kind, n) for n in (1, 2, 3, 4, 5, 7, 8, 16) for kind in KINDS]
               + [("opposite", 31), ("hop0", 31), ("negative", 63)])


@pytest.mark.parametrize("kind,n", EXACT_CASES)
def test_exact_edges_match_refined_sweep(kind, n):
    model, frac = _harper_case(kind, n)
    table = band_table(model, frac)
    assert table.bloch_solves == 4
    bands = np.array(table.bands)
    swept = _sweep_bands(model, frac, (64, 64), 4)
    tol = 1e-13 * max(1.0, np.abs(swept).max())
    assert np.max(np.abs(bands - swept)) <= tol
    # off the sweep grid, every eigenvalue lies in its band
    rng = np.random.default_rng(n)
    for th, ph in rng.uniform(0.0, 2 * math.pi, (12, 2)):
        lam = np.linalg.eigvalsh(bloch_matrix(model, frac, th, ph).entries)
        assert np.all(bands[:, 0] - tol <= lam)
        assert np.all(lam <= bands[:, 1] + tol)


# just outside the family: a complex (0, 1) amplitude, an added (1, 1)
# mode, hops that carry a wave (a21 = pi at even M), the oblique symbol
OUTSIDE = {
    "complex": {(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.3 + 0.2j,
                (0, -1): 0.3 - 0.2j},
    "mode_1_1": {(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.3, (0, -1): 0.3,
                 (1, 1): 0.1, (-1, -1): 0.1},
    "a21_pi": {(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.3, (0, -1): 0.3},
}


@pytest.mark.parametrize("name", ["complex", "mode_1_1", "a21_pi", "oblique"])
def test_symbols_outside_the_family_keep_the_sweep(name):
    coeffs = OBLIQUE if name == "oblique" else OUTSIDE[name]
    a21 = math.pi if name == "a21_pi" else 0.0
    p = FourierPotential(Lattice(a21, 2 * math.pi), coeffs)
    m, n, grid = 2, 5, (8, 6)
    refine = 0 if name == "oblique" else 2
    model = harper_from_landau(p, 1, 2 * math.pi * m / n, 0.01)
    table = band_table(model, Fraction(m, n), grid=grid, refine=refine)
    lo, hi, solves = harper._sweep_edges(model, Fraction(m, n), grid, refine)
    assert table.bands == [(float(a), float(b)) for a, b in zip(lo, hi)]
    patches = 2 * n * (2 * refine + 1) ** 2 if refine else 0
    assert table.bloch_solves == solves == 8 * 6 + patches
    expect = _pointwise_band_table(model, Fraction(m, n), grid, refine)
    assert np.max(np.abs(np.array(table.bands) - expect)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
@pytest.mark.parametrize("hop,pot,mean", [(1.1, 0.0, 0.0), (0.0, 0.9, 0.0),
                                          (0.0, 0.0, 0.3)])
def test_degenerate_harper_symbols_take_the_exact_path(n, hop, pot, mean):
    # one vanishing amplitude: the N bands close into one interval of width
    # 2 |amplitude|; all vanishing (the flat symbol): N bands at the mean
    coeffs = {(0, 0): mean, (1, 0): hop / 2, (-1, 0): hop / 2,
              (0, 1): pot / 2, (0, -1): pot / 2}
    p = FourierPotential(Lattice(0.0, 2 * math.pi), coeffs)
    model = HarperModel(p, 2 * math.pi / n, math.pi / n, 0.01)
    table = band_table(model, Fraction(1, n))
    assert table.bloch_solves == 4
    assert table.count == n
    assert table.touching == list(range(n - 1))
    assert abs(table.bands[0][0] - (mean - hop - pot)) < 1e-14
    assert abs(table.bands[-1][1] - (mean + hop + pot)) < 1e-14


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
        b = reference_matrix(p, 0, h, Fraction(m, n), (th, ph))
        assert np.max(np.abs(a - b)) < 1e-13


def test_pure_potential_is_diagonal():
    p = cosine_example(0.0, 1.0, 1.0)
    m, n = 1, 4
    h = 2 * math.pi * m / n
    a = bloch_matrix(harper_from_landau(p, 0, h, 0.01), Fraction(m, n),
                     0.3, 0.5).entries
    off = a - np.diag(np.diag(a))
    assert np.max(np.abs(off)) == 0.0


def test_general_matrix_hermitian():
    p = cosine_example(1.1, 0.6, 1.0)
    m, n = 1, 6
    h = 2 * math.pi * m / n
    a = bloch_matrix(harper_from_landau(p, 1, h, 0.02), Fraction(m, n),
                     0.7, 1.9).entries
    assert np.max(np.abs(a - a.conj().T)) < 1e-14


# the oblique potential of the operator-oracle plan, on the square lattice
OBLIQUE = {(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.3, (0, -1): 0.3,
           (1, 1): 0.1, (-1, -1): 0.1, (1, -1): 0.05j, (-1, 1): -0.05j}


def random_symbol(rng, lattice, degree=3):
    # conjugate-symmetric random modes, as in the acceptance suite
    coeffs = {(0, 0): rng.normal()}
    for k1 in range(-degree, degree + 1):
        for k2 in range(-degree, degree + 1):
            if (k1, k2) > (0, 0) and rng.uniform() < 0.4:
                c = rng.normal() + 1j * rng.normal()
                coeffs[(k1, k2)] = c
                coeffs[(-k1, -k2)] = c.conjugate()
    return FourierPotential(lattice, coeffs)


def _general_cases():
    rng = np.random.default_rng(11)
    yield FourierPotential(Lattice(0.0, 2 * math.pi), OBLIQUE), 0, 2, 5
    # rectangular lattices: every mode closes at any flux; k1 up to 3
    # wraps more than once around the small cycles
    for mu, (m, n) in zip((0, 1, 2, 0), [(1, 1), (1, 2), (2, 5), (3, 7)]):
        lattice = Lattice(0.0, rng.uniform(2.0, 9.0))
        yield random_symbol(rng, lattice), mu, m, n
    # a21 = pi: odd k1 carry s = -1/2 (mod 1), which closes at even M
    yield random_symbol(rng, Lattice(math.pi, 3.0), degree=2), 1, 2, 5


@pytest.mark.parametrize("p,mu,m,n", list(_general_cases()),
                         ids=["oblique", "rect-1/1", "rect-1/2", "rect-2/5",
                              "rect-3/7", "a21_pi-2/5"])
def test_general_stack_matches_reference(p, mu, m, n):
    h = p.lattice.a22 * m / n
    model = harper_from_landau(p, mu, h, 0.01)
    for th, ph in [(0.0, 0.0), (0.13, 0.8), (1.0, 2.2), (-0.4, 5.9)]:
        a = bloch_matrix(model, Fraction(m, n), th, ph).entries
        b = reference_matrix(p, mu, h, Fraction(m, n), (th, ph))
        assert np.max(np.abs(a - b)) < 1e-13
        assert np.max(np.abs(a - a.conj().T)) < 1e-13


def test_unclosed_mode_names_it():
    p = FourierPotential(Lattice(1.0, 2 * math.pi), OBLIQUE)
    model = harper_from_landau(p, 0, 2 * math.pi * 2 / 5, 0.01)
    with pytest.raises(CommensurabilityError, match=r"mode \(-1, -1\)"):
        bloch_matrix(model, Fraction(2, 5), 0.0, 0.0)


# ------------------------------------------------ harper command, any symbol

def _oblique_config(a21, grid=(8, 8)):
    return {"potential": {
                "lattice": {"a21": a21, "a22": 2 * math.pi},
                "coefficients": [{"k1": k1, "k2": k2, "re": complex(c).real,
                                  "im": complex(c).imag}
                                 for (k1, k2), c in OBLIQUE.items()]},
            "params": {"h": 2 * math.pi * 2 / 5, "epsilon": 0.01},
            "flux": {"N": 5, "M": 2},
            "grids": {"harper_grid": list(grid)}}


def _run_harper(tmp_path, cfg):
    tmp_path.mkdir(exist_ok=True)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["harper", "--config", str(cfgfile), "--out", str(out)])
    return code, out


@pytest.mark.parametrize("A,B", [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0)])
def test_harper_degenerate_cosine(tmp_path, A, B):
    # a vanishing amplitude drops its modes; the band table still has N rows
    code, out = _run_harper(tmp_path, {
        "potential": {"cosine": {"A": A, "B": B, "beta": 1.0}},
        "params": {"h": 2 * math.pi / 3, "epsilon": 0.01},
        "flux": {"N": 3, "M": 1},
        "grids": {"harper_grid": [8, 8]}})
    assert code == 0
    payload = json.loads((out / "harper.json").read_text())["payload"]
    assert payload["bands"] == 3
    assert payload["hop"] == 0.0 or payload["pot"] == 0.0
    assert payload["touching"] == [0, 1]
    if A == B == 0.0:
        assert payload["hop"] == payload["pot"] == 0.0
        assert payload["lambda_extent"] == 0.0


def test_harper_oblique_bands_hold_reference_eigenvalues(tmp_path):
    g = 8
    code, out = _run_harper(tmp_path, _oblique_config(0.0, (g, g)))
    assert code == 0
    payload = json.loads((out / "harper.json").read_text())["payload"]
    assert payload["bands"] == 5
    rows = (out / "harper_bands.csv").read_text().splitlines()[1:]
    bands = [tuple(float(x) for x in r.split(",")[3:]) for r in rows]
    assert len(bands) == 5
    p = FourierPotential(Lattice(0.0, 2 * math.pi), OBLIQUE)
    thetas = np.linspace(0.0, 2 * math.pi / 5, g, endpoint=False)
    phis = np.linspace(0.0, 2 * math.pi, g, endpoint=False)
    for th, ph in [(thetas[0], phis[0]), (thetas[3], phis[5]),
                   (thetas[7], phis[2])]:
        lam = np.linalg.eigvalsh(reference_matrix(
            p, 0, 2 * math.pi * 2 / 5, Fraction(2, 5), (th, ph)))
        for (lo, hi), x in zip(bands, lam):
            assert lo - 1e-12 <= x <= hi + 1e-12


def test_harper_payload_counts_bloch_solves(tmp_path):
    # 4 Bloch matrices per cosine table; g1 g2 + 2 N (2 refine + 1)^2 per
    # swept table at the default refine = 4; summed over a butterfly
    cosine = {"potential": {"cosine": {"A": 1.0, "B": 0.6, "beta": 1.0}},
              "params": {"h": 2 * math.pi * 2 / 5, "epsilon": 0.01},
              "flux": {"N": 5, "M": 2},
              "grids": {"harper_grid": [8, 6]}}

    def butterfly(cfg):
        return {**{k: v for k, v in cfg.items() if k != "flux"},
                "harper_farey_max": 4}

    # five fluxes up to 3/4; at a21 = pi only 2/3 closes
    for k, (cfg, solves) in enumerate([
            (cosine, 4), (_oblique_config(0.0, (8, 6)), 48 + 2 * 5 * 81),
            (butterfly(cosine), 4 * 5),
            (butterfly(_oblique_config(math.pi)), 64 + 2 * 3 * 81)]):
        code, out = _run_harper(tmp_path / str(k), cfg)
        assert code == 0
        payload = json.loads((out / "harper.json").read_text())["payload"]
        assert payload["bloch_solves"] == solves


def test_harper_unclosed_mode_exits_2(tmp_path, capsys):
    code, _ = _run_harper(tmp_path, _oblique_config(1.0))
    assert code == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert "mode (-1, -1) does not close" in message


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

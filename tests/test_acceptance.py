"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import hashlib
import json
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from driftband.actions import (closed_form_outer_action, separatrix_limits)
from driftband.bloch import (QuasiMomentum, interior_bloch_coeffs,
                             interior_general_d_solve, seed_gram_matrix,
                             verify_boundary_conditions)
from driftband.classical import (build_reeb_graph, build_regimes,
                                 classify_trajectory, critical_i1_series,
                                 lifted_hamiltonian_range, trace_level_set,
                                 DriftModel)
from driftband.cli import run as cli_run
from driftband.harper import band_table, bloch_matrix, harper_from_landau
from driftband.numerics import (Tolerance, bessel_j0, hermitian_eigenvalues,
                                integrate_ode)
from driftband.potential import (FluxRatio, FourierPotential, Lattice,
                                 averaged_potential, averaged_potential_oracle,
                                 cosine_example)
from driftband.spectra import (homological_grid_residual, landau_level,
                               solve_homological, subband_count)
from driftband import sturm1d

EPS = 0.01


def report(num, name, detail=""):
    print(f"\nACCEPTANCE {num:02d} {name}: PASS {detail}")


def random_trig_potential(rng, degree=3):
    lattice = Lattice(rng.uniform(-1.0, 1.0), rng.uniform(2.0, 9.0))
    coeffs = {(0, 0): rng.normal()}
    for k1 in range(-degree, degree + 1):
        for k2 in range(-degree, degree + 1):
            if (k1, k2) <= (0, 0):
                continue
            if rng.uniform() < 0.4:
                c = rng.normal() + 1j * rng.normal()
                coeffs[(k1, k2)] = c
                coeffs[(-k1, -k2)] = c.conjugate()
    return FourierPotential(lattice, coeffs)


# ----------------------------------------------------------------------

def test_c01_averaging_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(101)
    pots = [cosine_example(1.0, 0.7, 1.0)] + \
        [random_trig_potential(rng) for _ in range(3)]
    tol = Tolerance(1e-12, 1e-12, 600)
    worst_rel = 0.0
    for p in pots:
        bound = 1e-10 * (1.0 + p.coeff_l1)
        for _ in range(50):
            i1 = rng.uniform(0.0, 10.0)
            y = rng.uniform(-4.0, 4.0, size=2)
            series = averaged_potential(p, i1, y)
            quad = averaged_potential_oracle(p, i1, y, tol)
            assert abs(series - quad) <= bound
            worst_rel = max(worst_rel, abs(series - quad) / bound)
    dt = time.time() - t0
    assert dt < 10.0
    report(1, "averaging-oracle-equivalence",
           f"(worst {worst_rel:.2e} of budget, {dt:.1f}s)")


@pytest.fixture(scope="module")
def kirchhoff_data():
    p = cosine_example(2.0, 1.0, 1.0)
    i1s = np.linspace(0.05, 2.2, 10)
    t0 = time.time()
    limits = [separatrix_limits(p, EPS, float(v)) for v in i1s]
    return p, i1s, limits, time.time() - t0


def test_c02_kirchhoff_identities(kirchhoff_data):
    p, i1s, limits, dt = kirchhoff_data
    a22 = p.lattice.a22
    worst = 0.0
    for lim in limits:
        k1, k2 = lim.kirchhoff_residuals()
        assert abs(k1) <= 1e-6 * a22
        assert abs(k2) <= 1e-6 * a22
        worst = max(worst, abs(k1), abs(k2))
    assert dt < 60.0
    report(2, "kirchhoff-law", f"(worst residual {worst:.2e}, {dt:.1f}s)")


def test_c03_closed_form_vs_separatrix(kirchhoff_data):
    p, i1s, limits, _ = kirchhoff_data
    worst = 0.0
    for i1, lim in zip(i1s, limits):
        cf = closed_form_outer_action(2.0, 1.0, 1.0, float(i1))
        rel = abs(cf - lim.i2_1p) / abs(cf)
        assert rel <= 1e-6
        worst = max(worst, rel)
    report(3, "closed-form-outer-action", f"(worst rel {worst:.2e})")


def test_c04_winding_consistency_and_drift_flips():
    t0 = time.time()
    checked = 0
    for A, B in ((2.0, 1.0), (1.0, 2.0)):
        p = cosine_example(A, B, 1.0)
        for i1 in (0.1, 0.3, 0.55):
            graph = build_reeb_graph(p, EPS, i1)
            for eid in ("i1", "i2", "i4"):
                e = graph.edge(eid)
                g = 0.5 * (e.energy_range[0] + e.energy_range[1])
                for comp in trace_level_set(p, EPS, i1, g, grid=192):
                    y0 = comp.points[len(comp.points) // 3]
                    cls = classify_trajectory(p, EPS, i1, y0)
                    assert cls.kind == "closed"
                    assert cls.winding == comp.winding
                    checked += 1
    assert checked >= 20
    # drift flips between (1,0) and (0,1) across every saddle collision
    p = cosine_example(1.0, 1.0, 2.0)
    series = critical_i1_series(p, EPS, 3.0)
    flips = 0
    for c in series.saddle_collision:
        if c in series.merged or not (0.1 < c < 3.0):
            continue
        d_lo = build_reeb_graph(p, EPS, c - 0.04).edge("i2").drift.d
        d_hi = build_reeb_graph(p, EPS, c + 0.04).edge("i2").drift.d
        assert {d_lo, d_hi} == {(1, 0), (0, 1)}
        flips += 1
    assert flips >= 1
    report(4, "winding-consistency",
           f"({checked} levels, {flips} drift flips, {time.time()-t0:.1f}s)")


@pytest.mark.parametrize("N,M", [(5, 2), (7, 3)])
def test_c05_harper_band_and_subband_count(N, M):
    t0 = time.time()
    p = cosine_example(2.0, 1.0, 1.0)
    flux = FluxRatio(N, M)
    h = p.lattice.a22 * M / N
    model = harper_from_landau(p, 0, h, EPS)
    table = band_table(model, Fraction(M, N), grid=(40, 40))
    assert table.count == N
    assert not table.touching
    assert min(table.gaps()) > 1e-9
    count = subband_count(p, EPS, h, landau_level(0, h), flux)
    assert count == N
    dt = time.time() - t0
    assert dt < 60.0
    report(5, f"harper-band-count-{N}-{M}",
           f"(N={N} bands, min gap {min(table.gaps()):.2e}, {dt:.1f}s)")


def test_c06_landau_width_crosscheck():
    t0 = time.time()
    p = cosine_example(1.0, 1.0, 1.0)
    a22 = p.lattice.a22
    gaps = []
    hs_used = []
    for h_req in (0.2, 0.1, 0.05):
        frac = Fraction(h_req / a22).limit_denominator(256)
        h = a22 * float(frac)
        n = frac.denominator
        model = harper_from_landau(p, 0, h, EPS)
        # coarse sweep of the full spectrum extent plus local refinement
        lam_min, lam_max = math.inf, -math.inf
        arg_min = arg_max = (0.0, 0.0)
        for th in np.linspace(0.0, 2 * math.pi / n, 8, endpoint=False):
            for ph in np.linspace(0.0, 2 * math.pi, 32, endpoint=False):
                lam = hermitian_eigenvalues(bloch_matrix(model, frac, th, ph))
                if lam[0] < lam_min:
                    lam_min, arg_min = lam[0], (th, ph)
                if lam[-1] > lam_max:
                    lam_max, arg_max = lam[-1], (th, ph)
        for which, (th0, ph0) in (("min", arg_min), ("max", arg_max)):
            for th in np.linspace(th0 - 0.8 / n, th0 + 0.8 / n, 7):
                for ph in np.linspace(ph0 - 0.2, ph0 + 0.2, 7):
                    lam = hermitian_eigenvalues(
                        bloch_matrix(model, frac, th, ph))
                    lam_min = min(lam_min, lam[0])
                    lam_max = max(lam_max, lam[-1])
        i1 = landau_level(0, h)
        model_range = 4.0 * abs(bessel_j0(math.sqrt(2.0 * i1)))
        gap = abs((lam_max - lam_min) - model_range)
        assert gap <= 5.0 * h
        gaps.append(gap)
        hs_used.append(h)
    slope = np.polyfit(np.log(hs_used), np.log(gaps), 1)[0]
    assert slope >= 0.8
    report(6, "landau-width-crosscheck",
           f"(gaps {['%.3f' % g for g in gaps]}, slope {slope:.2f}, "
           f"{time.time()-t0:.1f}s)")


def test_c07_sturm_suite():
    t0 = time.time()
    v = sturm1d.Potential1D.cosine(1.0)

    # (a) free case gap ends
    free = sturm1d.Potential1D({})
    for nu, e in sturm1d.gap_ends_upper(free, 0.1, 1.0, delta=0.05):
        assert abs(e - (0.1 * nu / 2.0) ** 2) <= 1e-8

    # (b) Bohr-Sommerfeld vs oracle band centers, h^2 scaling
    errs = []
    hs = (0.1, 0.05, 0.025)
    for h in hs:
        levels = sturm1d.bs_levels_lower(v, h)
        grid = 1024 if h > 0.03 else 2048
        edges = sturm1d.oracle_band_edges(v, h, v.v_max - 0.25,
                                          grid_size=grid)
        centers = [0.5 * (lo + hi) for lo, hi in edges]
        m = min(len(levels), len(centers))
        errs.append(max(abs(levels[k] - centers[k]) for k in range(m)))
    assert errs[1] < 5e-3
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 2.0) <= 0.3

    # (c) harmonic bottom
    h = 0.05
    e0 = sturm1d.bs_levels_lower(v, h)[0]
    assert abs(e0 - (v.v_min + h * v.omega0 / 2.0)) <= 2.0 * h * h

    # (d) tunneling exponent of the low-band widths (h chosen so that the
    # widths are representable in double precision)
    h_w = 0.2
    levels = sturm1d.bs_levels_lower(v, h_w)
    edges = sturm1d.oracle_band_edges(v, h_w, v.v_max - 0.2, grid_size=1024)
    for nu in range(4):
        w_formula = sturm1d.band_width_lower(v, h_w, levels[nu], delta=0.02)
        w_oracle = edges[nu][1] - edges[nu][0]
        rho = sturm1d.agmon_distance(v, levels[nu])
        assert abs(math.log(w_formula) - math.log(w_oracle)) \
            <= 0.15 * rho / h_w

    # (e) upper-domain dispersion vs oracle over a q grid
    h = 0.05
    nu_ref = int(round(2.0 * sturm1d.action_upper(v, 2.0) / h))
    count = int(2.2 * math.sqrt(3.0) / h) + 10
    for q in np.linspace(0.1, 0.9, 5):
        e_formula = sturm1d.dispersion_upper(v, h, nu_ref, float(q))
        oracle = sturm1d.fd_bloch_oracle(v, h, float(q), 512, count=count)
        assert np.min(np.abs(oracle - e_formula)) <= 5e-3

    dt = time.time() - t0
    assert dt < 120.0
    report(7, "sturm-1d-suite",
           f"(bs slope {slope:.2f}, errs {['%.1e' % e for e in errs]}, "
           f"{dt:.1f}s)")


def test_c08_magneto_bloch_algebra():
    t0 = time.time()
    rng = np.random.default_rng(88)
    worst = 0.0
    for N, M in ((1, 1), (2, 1), (3, 2), (5, 3), (7, 5)):
        flux = FluxRatio(N, M)
        for _ in range(20):
            q = QuasiMomentum(rng.uniform(0.0, 1.0 / M),
                              rng.uniform(0.0, 1.0))
            s = int(rng.integers(0, M))
            a21 = rng.uniform(-1.0, 1.0)
            rep = verify_boundary_conditions(flux, q, s, window=3, a21=a21)
            assert rep.max_residual <= 1e-12
            assert rep.support_ok and rep.unit_modulus
            worst = max(worst, rep.max_residual)
        gram = seed_gram_matrix(flux, QuasiMomentum(0.01, 0.43))
        assert np.max(np.abs(gram - np.eye(M))) < 1e-14
    # interior closed form vs the truncated general-drift solver
    flux = FluxRatio(5, 3)
    q = QuasiMomentum(0.07, 0.33)
    a21 = 0.3
    sol = interior_general_d_solve(flux, q, (1, 0), (1, 0), window=6,
                                   a21=a21, scan=360)
    assert sol.nullspace_dimension == 3
    fam = interior_bloch_coeffs(flux, q, +1, n=4, window=6, a21=a21)
    t_want = fam.i2_over_h % 1.0
    t_star, coeffs = min(sol.families,
                         key=lambda fc: abs((fc[0] - t_want + 0.5) % 1.0 - 0.5))
    key0 = (fam.s, 0)
    ratio = fam.coefficients[key0] / coeffs[key0]
    for key, c in fam.coefficients.items():
        if key in coeffs and abs(key[1]) <= 4:
            assert abs(coeffs[key] * ratio - c) <= 1e-10
    dt = time.time() - t0
    assert dt < 30.0
    report(8, "magneto-bloch-algebra",
           f"(worst residual {worst:.2e}, {dt:.1f}s)")


def test_c09_homological_solver():
    rng = np.random.default_rng(9)
    for eps_prime in (0.1, 0.01):
        for _ in range(5):
            g = {(0, 0): float(rng.normal())}
            for _ in range(10):
                k = (int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
                if k == (0, 0):
                    continue
                c = complex(rng.normal(), rng.normal())
                g[k] = c
                g[(-k[0], -k[1])] = c.conjugate()
            sol = solve_homological(g, 1.0, eps_prime, eps=eps_prime)
            # E = -g_00 exactly
            assert sol.mean_shift == -g[(0, 0)].real
            # kept modes solve their equations to machine precision
            g_kept = {k: g[k] for k in sol.kept}
            g_kept[(0, 0)] = g[(0, 0)]
            kept_resid = homological_grid_residual(sol, g_kept, 1.0,
                                                   eps_prime)
            assert kept_resid <= 1e-12
            # the full grid residual stays under the reported tail bound
            resid = homological_grid_residual(sol, g, 1.0, eps_prime)
            assert resid <= sol.residual_norm + 1e-12
    report(9, "homological-solver")


def test_c10_conservation_and_lift():
    t0 = time.time()
    p = cosine_example(2.0, 1.0, 1.0)
    model_tol = Tolerance(1e-12, 1e-12, 400)
    checked = 0
    for i1 in (0.12, 0.6):
        graph = build_reeb_graph(p, EPS, i1)
        model = DriftModel(p, EPS, i1)
        seeds = []
        for eid in ("i1", "i2", "i3", "i4"):
            e = graph.edge(eid)
            lo, hi = e.energy_range
            for frac in (0.35, 0.65):
                g = lo + frac * (hi - lo)
                comps = trace_level_set(p, EPS, i1, g, grid=128)
                seeds.append(comps[0].points[2])
                if len(seeds) >= 5:
                    break
            if len(seeds) >= 5:
                break
        # pad with open-edge components for variety
        e = graph.edge("i2")
        g = 0.5 * sum(e.energy_range)
        for comp in trace_level_set(p, EPS, i1, g, grid=128):
            seeds.append(comp.points[4])
        for y0 in seeds[:5]:
            cls = classify_trajectory(p, EPS, i1, y0)
            assert cls.kind == "closed"

            def field(t, y):
                d1, d2 = model.grad(y[0], y[1])
                return (-EPS * d2, EPS * d1)

            traj = integrate_ode(field, tuple(y0), cls.period, model_tol)
            h_vals = np.array([model.energy(y) for y in traj.ys])
            drift = (h_vals.max() - h_vals.min()) / abs(h_vals.mean())
            assert drift <= 1e-8
            lo, hi = lifted_hamiltonian_range(p, EPS, i1, traj.ys)
            assert hi - lo <= 2.0 * EPS * p.coeff_l1 + 1e-12
            checked += 1
    assert checked == 10
    report(10, "conservation-and-lift",
           f"({checked} orbits, {time.time()-t0:.1f}s)")


def _hash_dir(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_c11_cli_determinism(tmp_path):
    t0 = time.time()
    base = {
        "potential": {"cosine": {"A": 2.0, "B": 1.0, "beta": 1.0}},
        "params": {"h": 0.1, "epsilon": 0.01},
        "i1": 0.15, "i1_max": 0.15, "delta": 0.01, "mu": 0,
        "flux": {"N": 5, "M": 2},
        "bloch": {"q": [0.05, 0.3], "s": 1, "window": 5},
    }
    harper_cfg = {
        "potential": {"cosine": {"A": 2.0, "B": 1.0, "beta": 1.0}},
        "params": {"h": 2.0 * math.pi * 2.0 / 5.0, "epsilon": 0.01},
        "flux": {"N": 5, "M": 2}, "mu": 0,
        "grids": {"harper_grid": [12, 12]},
    }
    units_cfg = {"physical": {"B_field": 1.0, "L0": 2 * math.pi, "mass": 1.0,
                              "charge": 1.0, "light_speed": 1.0, "hbar": 1.0,
                              "Vmax": 1.0}}
    sturm_cfg = {"sturm": {"cosine_amplitude": 1.0, "h": 0.2, "e_cap": 1.5,
                           "q_points": 2, "oracle_grid": 128}}
    configs = {
        "units": units_cfg, "average": base, "reeb": base, "regimes": base,
        "actions": base, "spectrum": base, "bands": base, "harper": harper_cfg,
        "bloch": base, "sturm": sturm_cfg,
    }
    for command, cfg in configs.items():
        c1 = json.loads(json.dumps(cfg))
        c2 = json.loads(json.dumps(cfg))
        c1["threads"] = 1
        c2["threads"] = 2
        out1 = tmp_path / f"{command}_1"
        out2 = tmp_path / f"{command}_2"
        cli_run(command, c1, str(out1))
        cli_run(command, c2, str(out2))
        assert _hash_dir(str(out1)) == _hash_dir(str(out2)), command
    report(11, "cli-determinism",
           f"({len(configs)} commands, {time.time()-t0:.1f}s)")

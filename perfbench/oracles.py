"""Independent correctness checks of the files each job wrote.

Every check reads the job's envelope and CSV files back from disk after the
timed interval and compares them with a route that does not go through the
code being timed: sampled band widths instead of orbits, LAPACK instead of
the hand-written QL solver, the finite-difference oracle columns instead of
the Bohr-Sommerfeld formulas.  Bounds are the ones the tier-1 tests use,
except on sturm1d, whose h lies outside the range those tests cover.
``check`` returns a list of problems; an empty list means the job passed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from fractions import Fraction

import numpy as np

from driftband import cli
from driftband.harper import bloch_matrix, harper_from_landau
from driftband.spectra import landau_band_width, landau_level

WIDTH_TOL = 1e-10          # test_spectrum_band_widths_cosine
STATE_TOL = 1e-9           # test_spectrum_states_inside_band
KIRCHHOFF_REL = 1e-6       # c02: |residual| <= 1e-6 a22
BLOCH_RESIDUAL = 1e-12     # c08
SERIES_VS_QUAD = 1e-10     # c01: 1e-10 (1 + coefficient l1)
EIG_TOL = 1e-9             # c05 gap floor
# A Bohr-Sommerfeld level may miss its oracle band centre by at most this
# share of the distance to the nearest other band centre.  The largest share
# seen at the seed, over twenty seeds' draws from the benchmark's sturm job
# ranges, is 0.064; a dropped Maslov 1/2 moves a level by about 0.5.
BS_SPACING_SHARE = 0.15
# The dispersion sweep's E_formula must lie within this share of the mean
# level spacing of the band it names, in a Bloch spectrum rebuilt here, and
# of the CLI's E_oracle.  The largest share seen at the seed, over ten
# seeds' draws from the same ranges, is 0.037; the nearest other band lies
# about 0.2 mean spacings away or more at q = 0.05 and 0.95, and half a
# quantum about one.
DISPERSION_SPACING_SHARE = 0.1
FD_GRID = 256              # off the CLI's Richardson oracle by < 0.02 spacing
STURM_CAP_MARGIN = 0.25    # test_bs_error_scales_quadratically: v_max - 0.25
# Sampled widths of few-mode potentials miss the true extremes by at most
# the grid's quadratic sampling error; 1e-4 relative covers a 512^2 grid.
SAMPLED_WIDTH_REL = 1e-4


def _envelope(out_dir, command):
    with open(os.path.join(out_dir, f"{command}.json")) as fh:
        return json.load(fh)


def _rows(out_dir, name):
    with open(os.path.join(out_dir, name), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return [dict(zip(header, row)) for row in reader]


def _setup(cfg):
    canonical = cli.validate_config(cfg)
    p = cli.build_potential(canonical) if "potential" in canonical else None
    params = cli.resolve_params(canonical) if p is not None else None
    return canonical, p, params


def _width_problems(p, eps, i1, width, what, rel=0.0):
    want = landau_band_width(p, eps, i1)
    tol = WIDTH_TOL + rel * abs(want)
    if not abs(width - want) <= tol:
        return [f"{what}: width {width!r} vs sampled {want!r}"]
    return []


def check_spectrum(cfg, out_dir):
    _, p, params = _setup(cfg)
    env = _envelope(out_dir, "spectrum")
    problems = []
    bands = {}
    for b in env["payload"]["bands"]:
        bands[b["mu"]] = b
        problems += _width_problems(p, params.epsilon, b["i1"], b["width"],
                                    f"band mu={b['mu']}")
    for row in _rows(out_dir, "spectrum.csv"):
        band = bands.get(int(row["mu"]))
        lo, hi = float(row["E_low"]), float(row["E_high"])
        if band is None or not (band["e_min"] - STATE_TOL <= lo <= hi
                                <= band["e_max"] + STATE_TOL):
            problems.append(f"state {row} outside its band")
    if env["payload"]["series_count"] == 0 and not env["payload"]["skipped_mu"]:
        problems.append("no quantized series")
    return problems


def check_bands(cfg, out_dir):
    _, p, params = _setup(cfg)
    problems = []
    for row in _rows(out_dir, "bands.csv"):
        width = float(row["width"])
        if abs(float(row["E_max"]) - float(row["E_min"]) - width) > STATE_TOL:
            problems.append(f"band {row} width is not E_max - E_min")
        problems += _width_problems(p, params.epsilon, float(row["i1"]), width,
                                    f"band mu={row['mu']}")
    return problems


def check_actions(cfg, out_dir):
    _, p, params = _setup(cfg)
    env = _envelope(out_dir, "actions")
    payload = env["payload"]
    graph = payload["graph"]
    energies = [v["energy"] for v in graph["vertices"]]
    problems = _width_problems(p, params.epsilon, payload["i1"],
                               max(energies) - min(energies), "reeb graph")
    a22 = p.lattice.a22
    lim = payload.get("limits")
    if graph["kind"] == "simple" and lim is None:
        problems.append("simple graph without separatrix limits")
    if lim is not None:
        for key in ("kirchhoff_saddle", "kirchhoff_cell"):
            if not abs(lim[key]) <= KIRCHHOFF_REL * a22:
                problems.append(f"{key} residual {lim[key]!r}")
    for name in env["files"]:
        i2 = [float(r["i2"]) for r in _rows(out_dir, name)]
        if not all(b > a for a, b in zip(i2, i2[1:])):
            problems.append(f"{name}: action not increasing in energy")
    return problems


def check_bloch(cfg, out_dir):
    canonical, p, params = _setup(cfg)
    env = _envelope(out_dir, "bloch")
    payload = env["payload"]
    problems = []
    for key in ("residual_a1", "residual_a2"):
        if not payload[key] <= BLOCH_RESIDUAL:
            problems.append(f"{key} {payload[key]!r}")
    if not (payload["support_ok"] and payload["unit_modulus"]):
        problems.append("boundary family support or modulus check failed")
    if "crossings.csv" in env["files"]:
        i1 = landau_level(canonical.get("mu", 0), params.h)
        half = 0.5 * landau_band_width(p, params.epsilon, i1)
        for row in _rows(out_dir, "crossings.csv"):
            e = float(row["E_star"])
            # cosine potentials have zero mean: the band is centred on I1
            if not abs(e - i1) <= half + STATE_TOL:
                problems.append(f"crossing energy {e!r} outside the band")
    return problems


def _harper_bracket(model, frac, grid, bands, rng, samples=4):
    """LAPACK eigenvalues at sampled sweep-grid points lie in the bands."""
    n = frac.denominator
    if len(bands) != n:
        return [f"flux {frac}: {len(bands)} bands, expected {n}"]
    g1, g2 = grid
    problems = []
    for _ in range(samples):
        th = 2.0 * math.pi / n * rng.randrange(g1) / g1
        ph = 2.0 * math.pi * rng.randrange(g2) / g2
        lam = np.linalg.eigvalsh(bloch_matrix(model, frac, th, ph).entries)
        tol = EIG_TOL * max(1.0, float(np.abs(lam).max()))
        for b, (lo, hi) in enumerate(bands):
            if not lo - tol <= lam[b] <= hi + tol:
                problems.append(f"flux {frac} band {b}: {lam[b]!r} "
                                f"outside [{lo!r}, {hi!r}]")
    return problems


def check_harper(cfg, out_dir):
    canonical, p, params = _setup(cfg)
    mu = canonical.get("mu", 0)
    grid = tuple(canonical["grids"]["harper_grid"])
    rng = random.Random(json.dumps(canonical, sort_keys=True))
    problems = []
    if "harper_farey_max" in canonical:
        per_flux = {}
        for row in _rows(out_dir, "butterfly.csv"):
            per_flux.setdefault(row["flux_m_over_n"], []).append(
                (float(row["lambda_low"]), float(row["lambda_high"])))
        cap = canonical["harper_farey_max"]
        want = {Fraction(m, n) for n in range(2, cap + 1)
                for m in range(1, n) if math.gcd(m, n) == 1}
        if {Fraction(k) for k in per_flux} != want:
            problems.append("butterfly fluxes differ from the Farey set")
        for key, bands in per_flux.items():
            frac = Fraction(key)
            model = harper_from_landau(p, mu, p.lattice.a22 * float(frac),
                                       params.epsilon)
            problems += _harper_bracket(model, frac, grid, bands, rng,
                                        samples=2)
        return problems
    frac = Fraction(canonical["flux"]["M"], canonical["flux"]["N"])
    model = harper_from_landau(p, mu, params.h, params.epsilon)
    bands = [(float(r["lambda_low"]), float(r["lambda_high"]))
             for r in _rows(out_dir, "harper_bands.csv")]
    return _harper_bracket(model, frac, grid, bands, rng)


def check_reeb(cfg, out_dir):
    canonical, p, params = _setup(cfg)
    graph = _envelope(out_dir, "reeb")["payload"]
    kinds = [v["kind"] for v in graph["vertices"]]
    euler = kinds.count("minimum") - kinds.count("saddle") \
        + kinds.count("maximum")
    problems = [] if euler == 0 else [f"Euler characteristic {euler} != 0"]
    energies = [v["energy"] for v in graph["vertices"]]
    return problems + _width_problems(
        p, params.epsilon, graph["i1"], max(energies) - min(energies),
        "reeb graph", rel=SAMPLED_WIDTH_REL)


def check_regimes(cfg, out_dir):
    problems = []
    for row in _rows(out_dir, "regime_boundaries.csv"):
        e = [float(row[k]) for k in ("E_min", "E_lower_saddle",
                                     "E_upper_saddle", "E_max")]
        if not all(b >= a for a, b in zip(e, e[1:])):
            problems.append(f"critical energies out of order at {row}")
    if not _envelope(out_dir, "regimes")["payload"]["regimes"]:
        problems.append("no regimes")
    return problems


def check_average(cfg, out_dir):
    _, p, _ = _setup(cfg)
    payload = _envelope(out_dir, "average")["payload"]
    worst = payload["max_series_vs_quadrature"]
    if not worst <= SERIES_VS_QUAD * (1.0 + p.coeff_l1):
        return [f"series vs quadrature {worst!r}"]
    return []


def fd_bloch_spectrum(scfg, h, q, n=FD_GRID):
    """Bloch eigenvalues of -h^2 d^2/dx^2 + V on a 2 pi periodic grid, by
    second-order differences and LAPACK, built from the config alone."""
    if "coefficients" in scfg:
        coeffs = {c["k"]: complex(c["re"], c["im"])
                  for c in scfg["coefficients"]}
    else:
        a = scfg.get("cosine_amplitude", 1.0)
        coeffs = {1: 0.5 * a, -1: 0.5 * a}
    x = 2.0 * math.pi * np.arange(n) / n
    v = sum((c * np.exp(1j * k * x)).real for k, c in coeffs.items())
    hop = -(h * n / (2.0 * math.pi)) ** 2
    a = np.diag(v - 2.0 * hop).astype(complex)
    idx = np.arange(n - 1)
    a[idx, idx + 1] = a[idx + 1, idx] = hop
    a[n - 1, 0] = hop * np.exp(2j * math.pi * q)
    a[0, n - 1] = np.conj(a[n - 1, 0])
    return np.linalg.eigvalsh(a)


def check_sturm(cfg, out_dir):
    scfg = cli.validate_config(cfg)["sturm"]
    env = _envelope(out_dir, "sturm")["payload"]
    problems = []
    for row in _rows(out_dir, "sturm_dispersion.csv"):
        nu, e = int(row["nu"]), float(row["E_formula"])
        spec = fd_bloch_spectrum(scfg, scfg["h"], float(row["q"]))
        lo, hi = max(nu - 2, 0), nu + 2
        tol = DISPERSION_SPACING_SHARE * (spec[hi] - spec[lo]) / (hi - lo)
        for what, ref in (("band", spec[nu]),
                          ("E_oracle", float(row["E_oracle"]))):
            if not abs(e - ref) <= tol:
                problems.append(f"dispersion nu={nu} q={row['q']}: "
                                f"{e!r} vs {what} {ref!r}")
    bands = _rows(out_dir, "sturm_bands.csv")
    centres = [0.5 * (float(r["E_low"]) + float(r["E_high"])) for r in bands]
    compared = 0
    for k, row in enumerate(bands):
        if not float(row["E_high"]) <= env["v_max"] - STURM_CAP_MARGIN:
            continue
        spacing = min((abs(centres[j] - centres[k]) for j in (k - 1, k + 1)
                       if 0 <= j < len(centres) and math.isfinite(centres[j])),
                      default=math.nan)
        err = abs(float(row["bohr_sommerfeld"]) - centres[k])
        compared += 1
        if not err <= BS_SPACING_SHARE * spacing:
            problems.append(f"BS level nu={row['nu']}: error {err!r}, "
                            f"oracle spacing {spacing!r}")
    if compared == 0:
        problems.append("no Bohr-Sommerfeld level below the barrier window")
    return problems


CHECKS = {
    "spectrum": check_spectrum,
    "bands": check_bands,
    "actions": check_actions,
    "bloch": check_bloch,
    "harper": check_harper,
    "reeb": check_reeb,
    "regimes": check_regimes,
    "average": check_average,
    "sturm": check_sturm,
}


def check(job, out_dir):
    return CHECKS[job["command"]](job["config"], out_dir)

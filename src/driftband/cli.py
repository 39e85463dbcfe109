"""Command-line surface: config ingestion, pipeline dispatch, exports.

Every command reads one JSON config, computes through the library and
writes a result envelope (JSON) plus plot-ready CSV files.  Outputs are
bit-stable: canonical key order, shortest-roundtrip float text in JSON and
17-significant-digit floats in CSV, LF line endings, and merges that never
depend on the worker-pool size.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np

from . import __version__
from .classical import (SeparatrixProximityError, UnsupportedTopologyError,
                        build_reeb_graph, build_regimes)
from .actions import build_edge_tables, separatrix_limits
from .bloch import (QuasiMomentum, boundary_family, dispersion_crossings,
                    verify_boundary_conditions)
from .harper import CommensurabilityError, band_table, harper_from_landau
from .numerics import ConvergenceError, DomainError, NumericsError, Tolerance
from .potential import (FluxRatio, FourierPotential, IrrationalFlux, Lattice,
                        PhysicalParams, SpectralParams, averaged_potential,
                        averaged_potential_oracle, cosine_example, flux_ratio,
                        physical_to_dimensionless)
from .spectra import landau_bands, landau_level, semiclassical_spectrum
from . import sturm1d

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_CONFIG = 2
EXIT_TOPOLOGY = 3
EXIT_CONVERGENCE = 4

COMMANDS = ("average", "reeb", "regimes", "actions", "spectrum", "bands",
            "bloch", "harper", "sturm", "units")


class ConfigError(ValueError):
    pass


# ----------------------------------------------------------------------
# Config schema and canonicalization
# ----------------------------------------------------------------------

# read once at import; the same file ships as package data
with open(os.path.join(os.path.dirname(__file__), "schema.json"),
          encoding="utf-8") as _fh:
    _SCHEMA = json.load(_fh)

_DEFAULTS = {
    "delta": None,          # resolved per command (3 h)
    "threads": 1,
    "grids": {"i1_grid": 81, "table_nodes": 32, "harper_grid": [48, 48],
              "average_grid": 6},
}


@functools.cache
def _schema_validator():
    """The schema's validator, built and checked against its metaschema
    once per process (jsonschema is imported here, not with the package)."""
    from jsonschema.validators import validator_for
    cls = validator_for(_SCHEMA)
    cls.check_schema(_SCHEMA)
    return cls(_SCHEMA)


def validate_config(cfg: dict) -> dict:
    # the error jsonschema.validate would raise, from the cached validator
    from jsonschema.exceptions import best_match
    error = best_match(_schema_validator().iter_errors(cfg))
    if error is not None:
        raise ConfigError(str(error)) from error
    if "params" in cfg and "physical" in cfg:
        raise ConfigError("give either params or physical, not both")
    canonical = json.loads(json.dumps(cfg, sort_keys=True))
    # fill defaults explicitly so nothing stays silent
    for key, val in _DEFAULTS.items():
        if key == "grids":
            grids = dict(val)
            grids.update(canonical.get("grids", {}))
            canonical["grids"] = grids
        elif key not in canonical:
            canonical[key] = val
    return canonical


def build_potential(cfg: dict) -> FourierPotential:
    pot = cfg.get("potential")
    if pot is None:
        raise ConfigError("config needs a potential block")
    if "cosine" in pot:
        c = pot["cosine"]
        return cosine_example(c["A"], c["B"], c["beta"])
    if "lattice" not in pot or "coefficients" not in pot:
        raise ConfigError("potential needs cosine or lattice+coefficients")
    lat = Lattice(pot["lattice"]["a21"], pot["lattice"]["a22"])
    coeffs = {}
    for item in pot["coefficients"]:
        coeffs[(item["k1"], item["k2"])] = complex(item["re"], item["im"])
    try:
        return FourierPotential(lat, coeffs)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def resolve_params(cfg: dict) -> SpectralParams:
    if "params" in cfg:
        return SpectralParams(h=cfg["params"]["h"],
                              epsilon=cfg["params"]["epsilon"])
    if "physical" in cfg:
        params, _ = physical_to_dimensionless(PhysicalParams(**cfg["physical"]))
        return params
    raise ConfigError("config needs params or physical")


def resolve_flux(cfg: dict, p: FourierPotential, h: float):
    if "flux" in cfg:
        return FluxRatio(N=cfg["flux"]["N"], M=cfg["flux"]["M"])
    return flux_ratio(p.lattice, h)


# ----------------------------------------------------------------------
# Deterministic serialization
# ----------------------------------------------------------------------

def _canonical(obj):
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(),
                                                         key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    # before the integer branch: bool is a subclass of int
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.ndarray):
        return [_canonical(v) for v in obj.tolist()]
    return obj


def dump_json(obj) -> str:
    return json.dumps(_canonical(obj), sort_keys=True, indent=1,
                      ensure_ascii=True) + "\n"


def format_float(x) -> str:
    return format(float(x), ".17g")


def write_csv(path: str, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_float(v) if isinstance(v, (float, np.floating))
                             else v for v in row])


def parallel_map(fn, items, threads: int):
    """Order-preserving map; the result never depends on the pool size."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ----------------------------------------------------------------------
# Command implementations: each returns (payload_dict, files_dict) where
# files maps name -> (header, rows)
# ----------------------------------------------------------------------

def cmd_units(cfg, p, out):
    if "physical" not in cfg:
        raise ConfigError("units needs the physical block")
    params, scale = physical_to_dimensionless(PhysicalParams(**cfg["physical"]))
    payload = {"h": params.h, "epsilon": params.epsilon,
               "energy_scale": scale}
    return payload, {}


def cmd_average(cfg, p, out):
    params = resolve_params(cfg)
    grids = cfg["grids"]
    n = grids["average_grid"]
    i1_max = cfg.get("i1_max", 2.0)
    i1s = np.linspace(0.0, i1_max, n)
    tol = Tolerance(1e-11, 1e-11, 600)
    rows = []
    worst = 0.0
    # the n x n cell grid in row-major (s, t) order, evaluated as one array
    # per I1
    ss = np.linspace(0.0, 1.0, n, endpoint=False)
    ys = p.lattice.to_cartesian(
        np.stack(np.meshgrid(ss, ss, indexing="ij"), axis=-1).reshape(-1, 2))
    y1s, y2s = ys[:, 0].tolist(), ys[:, 1].tolist()
    for i1, damped in zip(i1s.tolist(), p.damped(i1s)):
        rows += zip([i1] * len(y1s), y1s, y2s, damped.value(ys).tolist())
    # oracle spot checks on a shorter deterministic list
    for i1 in i1s[:: max(1, n // 3)]:
        y = p.lattice.to_cartesian(np.array([0.37, 0.61]))
        series = float(averaged_potential(p, float(i1), y))
        quad = averaged_potential_oracle(p, float(i1), y, tol)
        worst = max(worst, abs(series - quad))
    payload = {"i1_max": i1_max, "samples": len(rows),
               "max_series_vs_quadrature": worst,
               "coefficient_l1": p.coeff_l1}
    files = {"average.csv": (("i1", "y1", "y2", "vbar"), rows)}
    return payload, files


def _graph_payload(graph):
    return {
        "kind": graph.kind,
        "i1": graph.i1,
        "vertices": [{"kind": k, "energy": g} for k, g in graph.vertices],
        "edges": [{
            "id": e.id,
            "energy_range": list(e.energy_range),
            "contractible": e.contractible,
            "drift": list(e.drift.d),
            "conjugate": list(e.drift.f) if e.drift.f else None,
        } for e in graph.edges],
    }


def cmd_reeb(cfg, p, out):
    params = resolve_params(cfg)
    i1 = cfg.get("i1", landau_level(cfg.get("mu", 0), params.h))
    graph = build_reeb_graph(p, params.epsilon, i1)
    return _graph_payload(graph), {}


def _band_window(cfg, h):
    """(i1_max, delta) of a config: 10 h and 3 h unless given."""
    i1_max = cfg.get("i1_max", 10.0 * h)
    delta = cfg["delta"] if cfg["delta"] is not None else 3.0 * h
    return i1_max, delta


def cmd_regimes(cfg, p, out):
    params = resolve_params(cfg)
    i1_max, delta = _band_window(cfg, params.h)
    chart = build_regimes(p, params.epsilon, i1_max, delta,
                          grid=cfg["grids"]["i1_grid"])
    payload = {
        "collapsed": chart.collapsed,
        "delta": delta,
        "regimes": [{
            "id": r.id, "kind": r.kind, "edge": r.reeb_edge,
            "i1_interval": list(r.i1_interval), "drift": list(r.drift.d),
        } for r in chart.regimes],
        "critical_i1": {
            "saddle_collision": chart.series.saddle_collision if chart.series else [],
            "separable": chart.series.separable if chart.series else [],
            "continuum": bool(chart.series.continuum) if chart.series else False,
        },
    }
    rows = [(float(a), float(b), float(c), float(d), float(e))
            for a, b, c, d, e in zip(chart.i1_grid, chart.curves["E_min"],
                                     chart.curves["E_lower_saddle"],
                                     chart.curves["E_upper_saddle"],
                                     chart.curves["E_max"])]
    files = {"regime_boundaries.csv": (
        ("i1", "E_min", "E_lower_saddle", "E_upper_saddle", "E_max"), rows)}
    return payload, files


def cmd_actions(cfg, p, out):
    params = resolve_params(cfg)
    i1 = cfg.get("i1", landau_level(cfg.get("mu", 0), params.h))
    graph = build_reeb_graph(p, params.epsilon, i1)
    files = {}
    nodes = cfg["grids"]["table_nodes"]
    edges = [e.id for e in graph.edges]
    tables = build_edge_tables(p, params.epsilon, i1, edges, graph,
                               nodes=nodes, target=1e-7)
    for eid, table in zip(edges, tables):
        gs = np.linspace(table.g_range[0], table.g_range[1], 101)
        rows = [(float(g), float(table.i2_of_energy(float(g)))) for g in gs]
        files[f"action_{eid}.csv"] = (("energy", "i2"), rows)
    payload = {"i1": i1, "graph": _graph_payload(graph)}
    if graph.kind == "simple":
        lim = separatrix_limits(p, params.epsilon, i1, graph)
        k1, k2 = lim.kirchhoff_residuals()
        payload["limits"] = {
            "i2_1p": lim.i2_1p, "i2_2m": lim.i2_2m, "i2_2p": lim.i2_2p,
            "i2_3m": lim.i2_3m, "i2_3p": lim.i2_3p, "i2_4m": lim.i2_4m,
            "kirchhoff_saddle": k1, "kirchhoff_cell": k2,
            "cell_over_2pi": lim.cell_over_2pi,
        }
    return payload, files


def cmd_spectrum(cfg, p, out):
    params = resolve_params(cfg)
    i1_max, delta = _band_window(cfg, params.h)
    spec = semiclassical_spectrum(p, params.epsilon, params.h, delta=delta,
                                  i1_max=i1_max,
                                  table_nodes=cfg["grids"]["table_nodes"])
    rows = []
    for series in spec.series:
        for st in series.states:
            if st.is_interval:
                rows.append((float(st.energy[0]), float(st.energy[1]),
                             float(st.i1), series.regime_id, st.mu, ""))
            else:
                rows.append((float(st.energy), float(st.energy),
                             float(st.i1), series.regime_id, st.mu, st.nu))
    rows.sort(key=lambda r: (r[4], r[3], str(r[5])))
    payload = {
        "h": params.h, "epsilon": params.epsilon, "delta": spec.delta,
        "series_count": len(spec.series),
        "skipped_mu": spec.skipped_mu,
        "table_err_max": spec.table_err_max,
        "bands": [{
            "mu": b.mu, "i1": b.i1, "e_min": b.e_min, "e_max": b.e_max,
            "width": b.width, "degenerate": b.degenerate,
        } for b in spec.bands],
        "projection": [list(seg) for seg in spec.projection()],
    }
    files = {"spectrum.csv": (
        ("E_low", "E_high", "I1", "regime", "mu", "nu"), rows)}
    return payload, files


def cmd_bands(cfg, p, out):
    params = resolve_params(cfg)
    i1_max, delta = _band_window(cfg, params.h)
    bands = landau_bands(p, params.epsilon, params.h, delta, i1_max)
    rows = [(b.mu, float(b.i1), float(b.e_min), float(b.e_max),
             float(b.width), int(b.degenerate)) for b in bands]
    payload = {"bands": len(rows), "delta": delta}
    files = {"bands.csv": (
        ("mu", "i1", "E_min", "E_max", "width", "degenerate"), rows)}
    return payload, files


def cmd_harper(cfg, p, out):
    params = resolve_params(cfg)
    mu = cfg.get("mu", 0)
    files = {}
    payload = {}
    if "harper_farey_max" in cfg:
        cap = cfg["harper_farey_max"]
        fracs = sorted({Fraction(m, n) for n in range(2, cap + 1)
                        for m in range(1, n) if math.gcd(m, n) == 1})
        threads = cfg["threads"]

        def one(frac):
            # h realizing beta h / (2 pi) = frac is a22 * frac
            h = p.lattice.a22 * float(frac)
            model = harper_from_landau(p, mu, h, params.epsilon)
            try:
                return band_table(model, frac,
                                  grid=tuple(cfg["grids"]["harper_grid"]))
            except CommensurabilityError as exc:
                return exc  # a mode does not close at this flux

        tables = parallel_map(one, fracs, threads)
        skipped = [frac for frac, table in zip(fracs, tables)
                   if isinstance(table, CommensurabilityError)]
        if len(skipped) == len(fracs):
            raise CommensurabilityError(
                f"no flux with denominator at most {cap} closes: {tables[0]}")
        solved = [(frac, table) for frac, table in zip(fracs, tables)
                  if not isinstance(table, CommensurabilityError)]
        rows = [(f"{frac.numerator}/{frac.denominator}", b,
                 float(lo), float(hi))
                for frac, table in solved
                for b, (lo, hi) in enumerate(table.bands)]
        files["butterfly.csv"] = (("flux_m_over_n", "band", "lambda_low",
                                   "lambda_high"), rows)
        payload["flux_count"] = len(fracs)
        payload["skipped_flux"] = [[f.numerator, f.denominator]
                                   for f in skipped]
        payload["bloch_solves"] = sum(t.bloch_solves for _, t in solved)
    else:
        flux = resolve_flux(cfg, p, params.h)
        if isinstance(flux, IrrationalFlux):
            frac = Fraction(params.h / p.lattice.a22).limit_denominator(64)
            if frac == 0:
                raise ConfigError(
                    f"flux h/a22 = {params.h / p.lattice.a22:.6g} is under "
                    f"1/128 and snaps to 0; pass `flux` or `harper_farey_max`")
            payload["snapped_flux"] = [frac.numerator, frac.denominator]
            h = p.lattice.a22 * float(frac)
        else:
            frac = Fraction(flux.M, flux.N)
            h = params.h
        model = harper_from_landau(p, mu, h, params.epsilon)
        table = band_table(model, frac, grid=tuple(cfg["grids"]["harper_grid"]))
        rows = [(b, float(e_lo), float(e_hi), float(l_lo), float(l_hi))
                for b, ((l_lo, l_hi), (e_lo, e_hi))
                in enumerate(zip(table.bands, table.e_bands))]
        files["harper_bands.csv"] = (
            ("band", "E_low", "E_high", "lambda_low", "lambda_high"), rows)
        payload.update({
            "mu": mu, "hop": model.hop, "pot": model.pot,
            "bands": len(table.bands), "touching": table.touching,
            "lambda_extent": table.lambda_extent,
            "bloch_solves": table.bloch_solves,
        })
    return payload, files


def cmd_bloch(cfg, p, out):
    params = resolve_params(cfg)
    flux = resolve_flux(cfg, p, params.h)
    if isinstance(flux, IrrationalFlux):
        raise ConfigError("bloch command needs rational flux")
    bcfg = cfg.get("bloch", {})
    qvals = bcfg.get("q", [0.0, 0.0])
    q = QuasiMomentum(q1=float(qvals[0]), q2=float(qvals[1]))
    q.check(flux.M)
    s = bcfg.get("s", 0)
    window = min(bcfg.get("window", 8), 16)
    a21 = p.lattice.a21
    fam = boundary_family(flux, q, s, window, a21)
    rep = verify_boundary_conditions(flux, q, s, window=min(window, 6),
                                     a21=a21)
    coeff_rows = [{"j": j, "l1": l1, "l2": l2,
                   "re": c.real, "im": c.imag}
                  for (j, l1, l2), c in sorted(fam.items())]
    payload = {
        "flux": [flux.N, flux.M],
        "q": [q.q1, q.q2], "s": s, "window": window,
        "residual_a1": rep.residual_a1,
        "residual_a2": rep.residual_a2,
        "support_ok": rep.support_ok,
        "unit_modulus": rep.unit_modulus,
        "coefficients": coeff_rows,
    }
    files = {}
    mu = cfg.get("mu", 0)
    try:
        crossings = dispersion_crossings(p, params.epsilon, params.h, flux,
                                         mu, table_nodes=cfg["grids"]["table_nodes"])
        if not crossings.get("degenerate"):
            rows = [(mu, c.n_plus, c.n_minus, float(c.q1_star),
                     float(c.e_star)) for c in crossings["crossings"]]
            files["crossings.csv"] = (
                ("mu", "n_plus", "n_minus", "q1_star", "E_star"), rows)
            payload["crossings"] = len(rows)
        else:
            payload["crossings"] = "degenerate"
    except (DomainError, UnsupportedTopologyError) as exc:
        payload["crossings"] = f"unavailable: {exc}"
    return payload, files


def cmd_sturm(cfg, p, out):
    scfg = cfg.get("sturm", {})
    if "coefficients" in scfg:
        coeffs = {item["k"]: complex(item["re"], item["im"])
                  for item in scfg["coefficients"]}
        v = sturm1d.Potential1D(coeffs)
    else:
        v = sturm1d.Potential1D.cosine(scfg.get("cosine_amplitude", 1.0))
    h = scfg.get("h", cfg.get("params", {}).get("h", 0.1))
    e_cap = scfg.get("e_cap", v.v_max + 2.0)
    oracle_grid = scfg.get("oracle_grid", 512)
    levels = sturm1d.bs_levels_lower(v, h)
    edges = sturm1d.oracle_band_edges(v, h, v.v_max, grid_size=oracle_grid)
    # widths of the levels inside the 0.02 tunneling window, in one pass
    inside = [nu for nu, e in enumerate(levels)
              if v.v_min + 0.02 < e < v.v_max - 0.02]
    try:
        widths = dict(zip(inside, sturm1d.band_width_lower(
            v, h, [levels[nu] for nu in inside], delta=0.02)))
    except ConvergenceError:
        widths = {}
    rows = []
    for nu, e in enumerate(levels):
        lo, hi = edges[nu] if nu < len(edges) else (math.nan, math.nan)
        width = widths.get(nu, math.nan)
        rows.append((nu, float(lo), float(hi), float(e), float(width)))
    files = {"sturm_bands.csv": (
        ("nu", "E_low", "E_high", "bohr_sommerfeld", "width_formula"), rows)}
    # upper-domain dispersion sweep
    qn = scfg.get("q_points", 9)
    ends = sturm1d.gap_ends_upper(v, h, e_cap)
    disp_rows = []
    if ends:
        nu_ref = ends[len(ends) // 2][0]
        # the spectrum at q is ordered by band: branch nu_ref is index nu_ref
        count = nu_ref + 2
        qs = np.linspace(0.05, 0.95, qn)
        formula = sturm1d.dispersion_upper(v, h, nu_ref, qs, e_cap=e_cap + 2.0)
        for qv, e_formula in zip(qs, formula):
            oracle = sturm1d.fd_bloch_oracle(v, h, float(qv), oracle_grid,
                                             count=count)
            e_oracle = float(oracle[np.argmin(np.abs(oracle - e_formula))])
            disp_rows.append((nu_ref, float(qv), float(e_formula), e_oracle))
    files["sturm_dispersion.csv"] = (
        ("nu", "q", "E_formula", "E_oracle"), disp_rows)
    payload = {"h": h, "levels_below_barrier": len(levels),
               "v_min": v.v_min, "v_max": v.v_max,
               "outer_action": sturm1d.reeb_1d(v).outer_limit
               if v.v_max > v.v_min else 0.0}
    return payload, files


_HANDLERS = {
    "units": cmd_units,
    "average": cmd_average,
    "reeb": cmd_reeb,
    "regimes": cmd_regimes,
    "actions": cmd_actions,
    "spectrum": cmd_spectrum,
    "bands": cmd_bands,
    "harper": cmd_harper,
    "bloch": cmd_bloch,
    "sturm": cmd_sturm,
}


def run(command: str, cfg: dict, out_dir: str) -> dict:
    """Dispatch a command and write its envelope and CSV files."""
    if command not in _HANDLERS:
        raise ConfigError(f"unknown command {command!r}")
    canonical = validate_config(cfg)
    needs_potential = command not in ("units", "sturm")
    p = build_potential(canonical) if needs_potential else None
    payload, files = _HANDLERS[command](canonical, p, out_dir)
    os.makedirs(out_dir, exist_ok=True)
    file_names = sorted(files)
    for name in file_names:
        header, rows = files[name]
        write_csv(os.path.join(out_dir, name), header, rows)
    # the worker-pool size is an execution knob, not a modeling input:
    # results are independent of it, so it stays out of the written bytes
    echo = {k: v for k, v in canonical.items() if k != "threads"}
    envelope = {
        "command": command,
        "toolkit_version": __version__,
        "config": echo,
        "accuracy": {"order_in_h": 2, "order_in_eps": 2},
        "payload": payload,
        "files": file_names,
    }
    with open(os.path.join(out_dir, f"{command}.json"), "w",
              newline="") as fh:
        fh.write(dump_json(envelope))
    return envelope


def export_plotdata(envelope, source_dir: str, target: str) -> list:
    """Copy an envelope's plot-ready CSV files into a target directory.

    The files were written with stable column order, LF endings and
    17-significant-digit floats; the copy is byte-identical.  Returns the
    list of written paths.
    """
    if isinstance(envelope, str):
        with open(envelope) as fh:
            envelope = json.load(fh)
    os.makedirs(target, exist_ok=True)
    written = []
    for name in envelope.get("files", []):
        src = os.path.join(source_dir, name)
        dst = os.path.join(target, name)
        try:
            with open(src, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise NumericsError(f"cannot read {src}: {exc}") from exc
        with open(dst, "wb") as fh:
            fh.write(data)
        written.append(dst)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="driftband",
        description="Semiclassical band toolkit for drifting cyclotron "
                    "orbits in a periodic potential")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(EXIT_CONFIG, "config", str(exc))
        return EXIT_CONFIG
    if args.threads is not None:
        cfg["threads"] = args.threads
    try:
        run(args.command, cfg, args.out)
    except (ConfigError, DomainError) as exc:
        _fail(EXIT_CONFIG, "config", str(exc))
        return EXIT_CONFIG
    except UnsupportedTopologyError as exc:
        _fail(EXIT_TOPOLOGY, "topology", str(exc))
        return EXIT_TOPOLOGY
    except (ConvergenceError, SeparatrixProximityError) as exc:
        _fail(EXIT_CONVERGENCE, "convergence", str(exc))
        return EXIT_CONVERGENCE
    except NumericsError as exc:
        _fail(EXIT_OTHER, "numerics", str(exc))
        return EXIT_OTHER
    return EXIT_OK


def _fail(code: int, kind: str, message: str):
    sys.stderr.write(dump_json({"error": kind, "message": message,
                                "exit_code": code}))


def schema() -> dict:
    """The shipped, versioned config schema."""
    return json.loads(json.dumps(_SCHEMA))


if __name__ == "__main__":
    sys.exit(main())

import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from driftband.cli import (ConfigError, build_potential, dump_json, run,
                           schema, validate_config, main)


def out_hashes(path):
    digests = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


BASE = {
    "potential": {"cosine": {"A": 2.0, "B": 1.0, "beta": 1.0}},
    "params": {"h": 0.1, "epsilon": 0.01},
    "i1": 0.15,
    "i1_max": 0.25,
    "delta": 0.01,
    "flux": {"N": 5, "M": 2},
    "bloch": {"q": [0.05, 0.3], "s": 1, "window": 5},
}


# ------------------------------------------------------------ validation

def test_schema_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        validate_config({"nonsense": 1})


def test_params_xor_physical():
    cfg = dict(BASE)
    cfg["physical"] = {k: 1.0 for k in ("B_field", "L0", "mass", "charge",
                                        "light_speed", "hbar", "Vmax")}
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_defaults_are_echoed():
    canonical = validate_config(dict(BASE))
    assert "threads" in canonical
    assert "grids" in canonical
    assert canonical["grids"]["table_nodes"] > 0


def test_canonical_roundtrip():
    c1 = validate_config(dict(BASE))
    c2 = validate_config(json.loads(json.dumps(c1)))
    assert dump_json(c1) == dump_json(c2)


def test_potential_from_coefficients():
    cfg = validate_config({
        "potential": {
            "lattice": {"a21": 0.0, "a22": 2 * math.pi},
            "coefficients": [
                {"k1": 1, "k2": 0, "re": 0.5, "im": 0.0},
                {"k1": -1, "k2": 0, "re": 0.5, "im": 0.0},
            ],
        },
        "params": {"h": 0.1, "epsilon": 0.01},
    })
    p = build_potential(cfg)
    assert abs(p.value((0.0, 0.3)) - 1.0) < 1e-14


def test_shipped_schema_matches():
    here = os.path.join(os.path.dirname(__file__), "..", "src", "driftband",
                        "schema.json")
    with open(here) as fh:
        shipped = json.load(fh)
    assert shipped == json.loads(dump_json(schema()).strip() or "{}") \
        or shipped == json.loads(dump_json(schema()))


def test_schema_is_valid_draft7():
    # the config schema is read from schema.json, so that file must be a
    # schema a validator accepts (booleans stay booleans)
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.Draft7Validator.check_schema(schema())


@pytest.mark.parametrize("cfg", [
    {"nonsense": 1},
    {"params": {"h": "0.1", "epsilon": 0.01}},
    {"threads": 0},
    {"sturm": {"oracle_grid": 32, "q_points": 1}},
    {"potential": {"cosine": {"A": 1.0}}, "params": {"h": 0.1}},
    {"sturm": {"coefficients": [{"k": 1.5, "re": 0.5}]}},
    {"grids": {"level_grid": 192}},
])
def test_config_errors_match_jsonschema_validate(cfg):
    jsonschema = pytest.importorskip("jsonschema")
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(cfg, schema())
    with pytest.raises(ConfigError) as got:
        validate_config(cfg)
    assert str(got.value) == str(expected.value)


def test_schema_is_checked_once(monkeypatch):
    from jsonschema.validators import validator_for
    from driftband import cli
    cls = validator_for(schema())
    calls = []
    check = cls.check_schema

    def counting_check(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(cls, "check_schema", counting_check)
    cli._schema_validator.cache_clear()
    try:
        validate_config(dict(BASE))
        assert len(calls) == 1
        validate_config(dict(BASE))
        with pytest.raises(ConfigError):
            validate_config({"nonsense": 1})
        assert len(calls) == 1
    finally:
        cli._schema_validator.cache_clear()


def test_package_import_leaves_jsonschema_unloaded():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = ("import sys, driftband.cli; "
            "sys.exit('jsonschema' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=120).returncode == 0


# ------------------------------------------------------------- commands

def test_units_command(tmp_path):
    cfg = {"physical": {"B_field": 1.0, "L0": 2 * math.pi, "mass": 1.0,
                        "charge": 1.0, "light_speed": 1.0, "hbar": 1.0,
                        "Vmax": 1.0}}
    env = run("units", cfg, str(tmp_path))
    assert abs(env["payload"]["h"] - 1.0) < 1e-12
    assert abs(env["payload"]["epsilon"] - 1.0) < 1e-12


def test_invalid_config_exit_code(tmp_path):
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(json.dumps({"nonsense": True}))
    code = main(["reeb", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert code == 2
    # no partial envelope was written
    assert not (tmp_path / "reeb.json").exists()


def test_reeb_command_payload(tmp_path):
    env = run("reeb", dict(BASE), str(tmp_path))
    assert env["payload"]["kind"] == "simple"
    assert [e["id"] for e in env["payload"]["edges"]] == ["i1", "i2", "i3",
                                                          "i4"]


def test_regimes_writes_boundary_curves(tmp_path):
    env = run("regimes", dict(BASE), str(tmp_path))
    assert "regime_boundaries.csv" in env["files"]
    text = (tmp_path / "regime_boundaries.csv").read_text()
    header = text.splitlines()[0]
    assert header == "i1,E_min,E_lower_saddle,E_upper_saddle,E_max"
    assert "\r" not in text


def test_average_rows_match_the_scalar_triple_loop(tmp_path):
    # each I1's damped series is evaluated once over the whole grid: the
    # rows are those of one evaluation per point, bit for bit
    from driftband.cli import cmd_average
    cfg = {"potential": {
        "lattice": {"a21": 0.2, "a22": 5.5},
        "coefficients": [
            {"k1": 1, "k2": 0, "re": 0.5, "im": 0.05},
            {"k1": -1, "k2": 0, "re": 0.5, "im": -0.05},
            {"k1": 0, "k2": 1, "re": 0.32, "im": -0.04},
            {"k1": 0, "k2": -1, "re": 0.32, "im": 0.04},
            {"k1": 2, "k2": 1, "re": 0.04, "im": 0.01},
            {"k1": -2, "k2": -1, "re": 0.04, "im": -0.01}]},
        "params": {"h": 0.1, "epsilon": 0.01}, "i1_max": 30.0,
        "grids": {"average_grid": 7}}
    canonical = validate_config(cfg)
    p = build_potential(canonical)
    _, files = cmd_average(canonical, p, str(tmp_path))
    header, rows = files["average.csv"]
    assert header == ("i1", "y1", "y2", "vbar")
    want = []
    ss = np.linspace(0.0, 1.0, 7, endpoint=False)
    for i1 in np.linspace(0.0, 30.0, 7):
        damped = p.damped(float(i1))
        for s in ss:
            for t in ss:
                y = p.lattice.to_cartesian(np.array([s, t]))
                want.append((float(i1), float(y[0]), float(y[1]),
                             float(damped.value(y))))
    assert rows == want


def test_empty_spectrum_headers_only(tmp_path):
    cfg = dict(BASE)
    cfg["params"] = {"h": 0.1, "epsilon": 0.0}
    env = run("spectrum", cfg, str(tmp_path))
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines == ["E_low,E_high,I1,regime,mu,nu"]


def test_spectrum_example_dataset(tmp_path):
    cfg = {
        "potential": {"cosine": {"A": 1.0, "B": 1.0, "beta": 1.0}},
        "params": {"h": 0.1, "epsilon": 0.01},
        "i1_max": 0.25,
        "delta": 0.01,
    }
    env = run("spectrum", cfg, str(tmp_path))
    bands = env["payload"]["bands"]
    assert bands
    from driftband.numerics import bessel_j0
    for b in bands:
        expect = 4 * 0.01 * abs(bessel_j0(math.sqrt(2 * b["i1"])))
        assert abs(b["width"] - expect) < 1e-10


def test_spectrum_envelope_carries_table_error(tmp_path):
    cfg = {
        "potential": {"cosine": {"A": 2.0, "B": 1.0, "beta": 1.0}},
        "params": {"h": 0.1, "epsilon": 0.01},
        "i1_max": 0.15,
        "delta": 0.005,
    }
    env = run("spectrum", cfg, str(tmp_path))
    assert 0.0 < env["payload"]["table_err_max"] <= 1e-6


J0_ZERO = 2.404825557695773

BAND_CONFIGS = {
    "readme": ({"potential": {"cosine": {"A": 2.0, "B": 1.0, "beta": 1.0}},
                "params": {"h": 0.1, "epsilon": 0.01}, "i1_max": 0.45,
                "delta": 0.01}, []),
    "equal_saddles": ({
        "potential": {"cosine": {"A": 1.0, "B": 1.0, "beta": 1.0}},
        "params": {"h": 0.1, "epsilon": 0.01}, "i1_max": 0.45,
        "delta": 0.01}, []),
    "zero_eps": ({"potential": {"cosine": {"A": 2.0, "B": 1.0, "beta": 1.0}},
                  "params": {"h": 0.1, "epsilon": 0.0}, "i1_max": 0.45}, []),
    # mu = 0 sits at I1 = z^2 / 2, where both damping factors vanish
    "flat": ({"potential": {"cosine": {"A": 2.0, "B": 1.0, "beta": 1.0}},
              "params": {"h": J0_ZERO ** 2, "epsilon": 0.01},
              "i1_max": J0_ZERO ** 2}, [0]),
    "one_dimensional": ({
        "potential": {
            "lattice": {"a21": 0.0, "a22": 2 * math.pi},
            "coefficients": [
                {"k1": 1, "k2": 0, "re": 0.5, "im": 0.0},
                {"k1": -1, "k2": 0, "re": 0.5, "im": 0.0},
            ],
        },
        "params": {"h": 0.1, "epsilon": 0.01}, "i1_max": 0.45},
        [0, 1, 2, 3, 4]),
    # the saddles of cosine(1, 1.2, 1.5) collide at I1 = 0.2595...
    "near_critical": ({
        "potential": {"cosine": {"A": 1.0, "B": 1.2, "beta": 1.5}},
        "params": {"h": 0.1, "epsilon": 0.01}, "i1_max": 0.25,
        "delta": 0.02}, [2]),
}


@pytest.mark.parametrize("name", sorted(BAND_CONFIGS))
def test_bands_match_spectrum_without_edge_tables(tmp_path, monkeypatch,
                                                  name):
    from driftband import spectra
    cfg, skipped = BAND_CONFIGS[name]

    def no_tables(*args, **kwargs):
        raise AssertionError("bands built an edge table")

    with monkeypatch.context() as patch:
        patch.setattr(spectra, "build_edge_tables", no_tables)
        run("bands", json.loads(json.dumps(cfg)), str(tmp_path / "bands"))
    env = run("spectrum", json.loads(json.dumps(cfg)),
              str(tmp_path / "spectrum"))
    text = (tmp_path / "bands" / "bands.csv").read_text().splitlines()
    rows = [(int(mu), float(i1), float(lo), float(hi), float(w), int(deg))
            for mu, i1, lo, hi, w, deg in (r.split(",") for r in text[1:])]
    assert rows == [(b["mu"], b["i1"], b["e_min"], b["e_max"], b["width"],
                     int(b["degenerate"])) for b in env["payload"]["bands"]]
    assert env["payload"]["skipped_mu"] == skipped
    assert [r[0] for r in rows if r[5]] == skipped


# ----------------------------------------------------------- determinism

@pytest.mark.parametrize("command,cfg", [
    ("reeb", BASE),
    ("actions", BASE),
    ("bloch", BASE),
    ("sturm", {"sturm": {"cosine_amplitude": 1.0, "h": 0.2, "e_cap": 1.5,
                         "q_points": 2, "oracle_grid": 128}}),
])
def test_byte_identical_reruns(tmp_path, command, cfg):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    cfg1 = json.loads(json.dumps(cfg))
    cfg2 = json.loads(json.dumps(cfg))
    cfg1["threads"] = 1
    cfg2["threads"] = 2
    run(command, cfg1, str(out1))
    run(command, cfg2, str(out2))
    h1 = out_hashes(str(out1))
    h2 = out_hashes(str(out2))
    # the config echo records the thread count; payloads must match
    e1 = json.load(open(out1 / f"{command}.json"))
    e2 = json.load(open(out2 / f"{command}.json"))
    assert e1["payload"] == e2["payload"]
    csv1 = {k: v for k, v in h1.items() if k.endswith(".csv")}
    csv2 = {k: v for k, v in h2.items() if k.endswith(".csv")}
    assert csv1 == csv2


def test_same_config_same_bytes(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run("regimes", dict(BASE), str(out1))
    run("regimes", dict(BASE), str(out2))
    assert out_hashes(str(out1)) == out_hashes(str(out2))


def test_export_plotdata_copies_csv(tmp_path):
    from driftband.cli import export_plotdata
    out = tmp_path / "run"
    env = run("regimes", dict(BASE), str(out))
    target = tmp_path / "plots"
    written = export_plotdata(env, str(out), str(target))
    assert written
    for path in written:
        name = os.path.basename(path)
        assert (target / name).read_bytes() == (out / name).read_bytes()


def test_harper_butterfly_mode(tmp_path):
    cfg = {
        "potential": {"cosine": {"A": 1.0, "B": 1.0, "beta": 1.0}},
        "params": {"h": 0.5, "epsilon": 0.01},
        "harper_farey_max": 4,
        "grids": {"harper_grid": [8, 8]},
        "threads": 2,
    }
    env = run("harper", cfg, str(tmp_path))
    assert env["payload"]["flux_count"] == 5  # 1/2 1/3 2/3 1/4 3/4
    lines = (tmp_path / "butterfly.csv").read_text().splitlines()
    assert lines[0] == "flux_m_over_n,band,lambda_low,lambda_high"
    # one row per (flux, band): sum of denominators
    assert len(lines) - 1 == 2 + 3 + 3 + 4 + 4
    assert env["payload"]["skipped_flux"] == []


def _butterfly_config(a21):
    # modes (+-1, 0) and (0, +-1) on the lattice with second generator
    # (a21, 2 pi): a (1, 0) hop closes at flux M/N iff a21 M / (2 pi) is
    # integral
    coeffs = [{"k1": k1, "k2": k2, "re": c, "im": 0.0}
              for (k1, k2), c in (((1, 0), 0.5), ((-1, 0), 0.5),
                                  ((0, 1), 0.3), ((0, -1), 0.3))]
    return {"potential": {"lattice": {"a21": a21, "a22": 2 * math.pi},
                          "coefficients": coeffs},
            "params": {"h": 0.5, "epsilon": 0.01},
            "harper_farey_max": 4,
            "grids": {"harper_grid": [8, 8]}}


def test_harper_butterfly_skips_fluxes_that_do_not_close(tmp_path):
    # at a21 = pi only the even-M flux 2/3 closes; the sweep keeps it and
    # lists the other four
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(_butterfly_config(math.pi)))
    out = tmp_path / "out"
    assert main(["harper", "--config", str(cfgfile), "--out", str(out)]) == 0
    payload = json.loads((out / "harper.json").read_text())["payload"]
    assert payload["flux_count"] == 5
    assert payload["skipped_flux"] == [[1, 4], [1, 3], [1, 2], [3, 4]]
    lines = (out / "butterfly.csv").read_text().splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["2/3", "0"], ["2/3", "1"], ["2/3", "2"]]


def test_harper_butterfly_exits_2_when_no_flux_closes(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(_butterfly_config(1.0)))
    out = tmp_path / "out"
    assert main(["harper", "--config", str(cfgfile), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "denominator at most 4" in err["message"]
    assert "does not close" in err["message"]


def test_bloch_quasimomentum_outside_cell_exits_2(tmp_path, capsys):
    # at flux 5/2 the quasimomentum cell is q1 in [0, 1/2), q2 in [0, 1)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({**BASE, "bloch": {"q": [0.6, 0.3]}}))
    out = tmp_path / "out"
    assert main(["bloch", "--config", str(cfgfile), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "q1" in err["message"]
    assert not (out / "bloch.json").exists()


def test_booleans_are_written_as_json_booleans(tmp_path):
    run("regimes", dict(BASE), str(tmp_path / "regimes"))
    run("bloch", dict(BASE), str(tmp_path / "bloch"))
    regimes = json.loads((tmp_path / "regimes" / "regimes.json").read_text())
    bloch = json.loads((tmp_path / "bloch" / "bloch.json").read_text())
    assert regimes["payload"]["critical_i1"]["continuum"] is False
    assert bloch["payload"]["support_ok"] is True
    assert dump_json({"a": np.bool_(True)}) == '{\n "a": true\n}\n'


def test_harper_snaps_readme_example(tmp_path):
    # h = 0.1 on a 2 pi lattice is no small fraction: the command snaps it
    cfgfile = tmp_path / "readme.json"
    cfgfile.write_text(json.dumps({
        "potential": {"cosine": {"A": 1.0, "B": 1.0, "beta": 1.0}},
        "params": {"h": 0.1, "epsilon": 0.01},
        "i1_max": 0.45,
        "delta": 0.01,
    }))
    out = tmp_path / "out"
    assert main(["harper", "--config", str(cfgfile), "--out", str(out)]) == 0
    payload = json.loads((out / "harper.json").read_text())["payload"]
    assert payload["bands"] == payload["snapped_flux"][1]


@pytest.mark.parametrize("h,flux", [(2 * math.pi / 600, "0.00166667"),
                                    (0.001, "0.000159155")])
def test_harper_flux_under_snapping_range_is_config_error(tmp_path, capsys,
                                                          h, flux):
    # a flux under 1/128 would snap to 0/1; the command says how to go on
    cfgfile = tmp_path / "tiny.json"
    cfgfile.write_text(json.dumps({
        "potential": {"cosine": {"A": 1.0, "B": 1.0, "beta": 1.0}},
        "params": {"h": h, "epsilon": 0.01},
    }))
    out = tmp_path / "out"
    assert main(["harper", "--config", str(cfgfile), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert flux in err["message"]
    assert "flux" in err["message"] and "harper_farey_max" in err["message"]


def test_sturm_flat_potential(tmp_path):
    cfg = {"sturm": {"coefficients": [{"k": 1, "re": 0.0, "im": 0.0}],
                     "h": 0.2, "q_points": 2, "oracle_grid": 64}}
    env = run("sturm", cfg, str(tmp_path))
    assert env["payload"]["levels_below_barrier"] == 0
    assert env["payload"]["v_max"] == env["payload"]["v_min"] == 0.0
    for name in ("sturm.json", "sturm_bands.csv", "sturm_dispersion.csv"):
        assert (tmp_path / name).exists()
    rows = (tmp_path / "sturm_bands.csv").read_text().splitlines()
    assert rows == ["nu,E_low,E_high,bohr_sommerfeld,width_formula"]


def test_orbit_commands_leave_scipy_unloaded(tmp_path):
    # the orbit lanes carry their own DOP853 tableau: scipy.integrate (and
    # every other scipy module) costs start-up time the commands never pay
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    few_mode = {
        "potential": {
            "lattice": {"a21": 0.2, "a22": 5.5},
            "coefficients": [
                {"k1": 1, "k2": 0, "re": 0.5, "im": 0.05},
                {"k1": -1, "k2": 0, "re": 0.5, "im": -0.05},
                {"k1": 0, "k2": 1, "re": 0.32, "im": -0.04},
                {"k1": 0, "k2": -1, "re": 0.32, "im": 0.04},
                {"k1": 1, "k2": 1, "re": 0.04, "im": 0.01},
                {"k1": -1, "k2": -1, "re": 0.04, "im": -0.01}]},
        "params": {"h": 0.1, "epsilon": 0.01}, "i1_max": 1.0,
        "grids": {"i1_grid": 5}}
    jobs = [("actions", BASE), ("spectrum", BASE), ("regimes", few_mode)]
    code = textwrap.dedent(f"""
        import sys
        from driftband import cli
        for command, cfg in {jobs!r}:
            cli.run(command, cfg, {str(tmp_path)!r} + "/" + command)
        sys.exit(any(m.split(".")[0] == "scipy" for m in sys.modules))
        """)
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=120).returncode == 0
    for command in ("actions", "spectrum", "regimes"):
        assert (tmp_path / command / f"{command}.json").exists()


def test_sturm_leaves_scipy_linalg_unloaded(tmp_path):
    # the FD oracle solves these counts as momentum blocks with numpy alone
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = textwrap.dedent(f"""
        import sys
        from driftband import cli
        two_mode = [{{"k": 1, "re": 0.5, "im": 0.0}},
                    {{"k": -1, "re": 0.5, "im": 0.0}},
                    {{"k": 2, "re": 0.08, "im": 0.03}},
                    {{"k": -2, "re": 0.08, "im": -0.03}}]
        common = {{"h": 0.45, "q_points": 2, "oracle_grid": 128, "e_cap": 1.8}}
        cli.run("sturm", {{"sturm": dict(common, cosine_amplitude=1.1)}},
                {str(tmp_path / "cosine")!r})
        cli.run("sturm", {{"sturm": dict(common, coefficients=two_mode)}},
                {str(tmp_path / "two_mode")!r})
        sys.exit("scipy.linalg" in sys.modules)
        """)
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=120).returncode == 0
    for case in ("cosine", "two_mode"):
        rows = (tmp_path / case / "sturm_dispersion.csv").read_text()
        assert len(rows.splitlines()) == 3


def test_sturm_widths_use_the_listed_levels():
    # each width is the tunneling formula at the Bohr-Sommerfeld level of
    # its row, NaN exactly when that level is outside the 0.02 window
    from driftband import sturm1d
    from driftband.cli import cmd_sturm
    cfg = validate_config({"sturm": {"cosine_amplitude": 0.05, "h": 0.02,
                                     "q_points": 2, "oracle_grid": 128}})
    _, files = cmd_sturm(cfg, None, None)
    v = sturm1d.Potential1D.cosine(0.05)
    levels = sturm1d.bs_levels_lower(v, 0.02)
    rows = files["sturm_bands.csv"][1]
    assert [row[3] for row in rows] == levels
    inside = [v.v_min + 0.02 < e < v.v_max - 0.02 for e in levels]
    assert any(inside) and not all(inside[:3]) and not all(inside[-2:])
    for (_, _, _, e, width), ok in zip(rows, inside):
        if ok:
            assert width == sturm1d.band_width_lower(v, 0.02, e, delta=0.02)
        else:
            assert math.isnan(width)


README_GENERAL = {
    "potential": {
        "lattice": {"a21": 0.0, "a22": 2 * math.pi},
        "coefficients": [
            {"k1": 1, "k2": 0, "re": 0.5, "im": 0.0},
            {"k1": -1, "k2": 0, "re": 0.5, "im": 0.0},
        ],
    },
    "params": {"h": 0.1, "epsilon": 0.01},
}


def test_regimes_of_one_dimensional_potential_are_a_continuum(tmp_path):
    # one-dimensional at every I1: no collision splits the I1 axis, so the
    # one slice carries the two open edges
    env = run("regimes", json.loads(json.dumps(README_GENERAL)),
              str(tmp_path))
    payload = env["payload"]
    assert payload["critical_i1"] == {"saddle_collision": [],
                                      "separable": [], "continuum": True}
    assert [r["edge"] for r in payload["regimes"]] == ["i2", "i3"]


def test_actions_refuse_one_dimensional_graph(tmp_path, capsys):
    cfgfile = tmp_path / "general.json"
    cfgfile.write_text(json.dumps(README_GENERAL))
    out = tmp_path / "out"
    assert main(["actions", "--config", str(cfgfile), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "one_dimensional" in err["message"]

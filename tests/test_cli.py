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
    # a conforming config never builds the validator; the first rejection
    # checks the schema against its metaschema and later ones reuse it
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
        validate_config(dict(BLOCH_CROSSINGS))
        assert len(calls) == 0
        with pytest.raises(ConfigError):
            validate_config({"nonsense": 1})
        assert len(calls) == 1
        with pytest.raises(ConfigError):
            validate_config({"threads": 0})
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


def test_conforming_run_leaves_jsonschema_unloaded(tmp_path):
    # a conforming config is accepted by the walk of schema.json alone;
    # jsonschema is imported to word the first rejection
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    harper = {"potential": {"cosine": {"A": 2.0, "B": 1.0, "beta": 1.0}},
              "params": {"h": 2 * math.pi * 2 / 5, "epsilon": 0.01},
              "flux": {"N": 5, "M": 2}, "grids": {"harper_grid": [8, 8]}}
    code = textwrap.dedent(f"""
        import sys
        from driftband import cli
        cli.run("harper", {harper!r}, {str(tmp_path)!r})
        if "jsonschema" in sys.modules or "argparse" in sys.modules:
            sys.exit(1)
        try:
            cli.validate_config({{"flux": {{"N": 0, "M": 1}}}})
        except cli.ConfigError:
            sys.exit("jsonschema" not in sys.modules)
        sys.exit(2)
        """)
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=120).returncode == 0
    assert (tmp_path / "harper_bands.csv").exists()


def _schema_keywords(node):
    # the keywords of a schema and of every subschema under it
    found = set(node)
    subschemas = list(node.get("properties", {}).values())
    subschemas += [node[k] for k in ("items", "additionalProperties")
                   if isinstance(node.get(k), dict)]
    for sub in subschemas:
        found |= _schema_keywords(sub)
    return found


def test_walk_implements_every_schema_keyword():
    # a keyword the walk does not know sends every config to jsonschema
    from driftband import cli
    assert _schema_keywords(schema()) <= cli._WALKED


_MUTANTS = [0, 1, -1, 2, -3, 3.0, 2.5, -0.0, 7, 8, 16, 17, 63, 64, 1e300,
            math.nan, math.inf, -math.inf, True, False, None, "3", [], {},
            [1, 2], [4.0, 4], [4, 4, 4], [0.1], {"N": 5, "M": 2},
            {"k": 1, "re": 0.5, "im": 0.0}]
_NEW_KEYS = ["N", "M", "h", "q", "window", "grids", "table_nodes", "re",
             "k1", "cosine", "nonsense"]


def _mutate(cfg, rng):
    # one random edit somewhere in cfg: move a number to a neighbour,
    # replace a value, delete an entry or add one
    node = cfg
    while True:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        if not keys:
            break
        key = rng.choice(list(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and rng.random() < 0.7:
            node = child
            continue
        edit = rng.random()
        if edit < 0.3 and type(child) in (int, float):
            node[key] = rng.choice([child - 1, child + 1, child + 0.5,
                                    float(child), -child, math.nan])
            return
        if edit < 0.6:
            node[key] = json.loads(json.dumps(rng.choice(_MUTANTS)))
            return
        if edit < 0.8:
            del node[key]
            return
        break
    value = json.loads(json.dumps(rng.choice(_MUTANTS)))
    if isinstance(node, dict):
        node[rng.choice(_NEW_KEYS)] = value
    else:
        node.append(value)


def test_walk_agrees_with_jsonschema_on_mutated_configs():
    jsonschema = pytest.importorskip("jsonschema")
    import random
    from driftband import cli
    oracle = jsonschema.Draft7Validator(schema())
    units = {"physical": {k: 1.0 for k in ("B_field", "L0", "mass", "charge",
                                           "light_speed", "hbar", "Vmax")}}
    sturm = {"sturm": {"cosine_amplitude": 1.0, "h": 0.2, "e_cap": 1.5,
                       "q_points": 2, "oracle_grid": 128,
                       "coefficients": [{"k": 1, "re": 0.5, "im": 0.0}]}}
    # every bound of the schema, met exactly
    edges = {**BASE, "mu": 0, "threads": 1, "delta": 0.0,
             "harper_farey_max": 2, "flux": {"N": 1, "M": 1},
             "bloch": {"q": [0.0, 0.0], "s": 0, "window": 16},
             "grids": {"i1_grid": 3, "average_grid": 2, "table_nodes": 8,
                       "harper_grid": [4, 4]},
             "sturm": {"q_points": 2, "oracle_grid": 64}}
    seeds = [BASE, BLOCH_CROSSINGS, _butterfly_config(math.pi), units, sturm,
             edges]
    rng = random.Random(20041)
    valid = 0
    for case in range(2400):
        cfg = json.loads(json.dumps(seeds[case % len(seeds)]))
        for _ in range(rng.randint(1, 3)):
            _mutate(cfg, rng)
        expected = oracle.is_valid(cfg)
        assert cli._conforms(cli._SCHEMA, cfg) == expected, cfg
        valid += expected
    # both verdicts are well represented
    assert 300 < valid < 2100


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


def test_band_window_defaults_to_3h_and_10h(tmp_path):
    # neither delta nor i1_max given: the cli's window is delta = 3h and
    # every band with (mu + 1/2) h <= 10h
    h = 0.1
    cfg = {"potential": {"cosine": {"A": 2.0, "B": 1.0, "beta": 1.0}},
           "params": {"h": h, "epsilon": 0.01}}
    env = run("bands", cfg, str(tmp_path))
    assert env["payload"]["delta"] == 3.0 * h
    text = (tmp_path / "bands.csv").read_text().splitlines()
    mus = [int(r.split(",")[0]) for r in text[1:]]
    assert mus == [mu for mu in range(20) if (mu + 0.5) * h <= 10.0 * h]
    assert env["payload"]["bands"] == len(mus) == 10


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
    # the orbit lanes are Taylor series of the mode sum: scipy.integrate (and
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


@pytest.mark.parametrize("cfg,h", [
    ({"sturm": {"h": 0.0, "q_points": 2, "oracle_grid": 64}}, 0.0),
    ({"params": {"h": -0.2, "epsilon": 0.01},
      "sturm": {"q_points": 2, "oracle_grid": 64}}, -0.2),
], ids=["sturm.h", "params.h"])
def test_sturm_nonpositive_h_is_config_error(tmp_path, capsys, cfg, h):
    # h 0 listed 100,001 levels and then divided by zero; h < 0 indexed
    # past the end of its levels
    cfgfile = tmp_path / "h.json"
    cfgfile.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["sturm", "--config", str(cfgfile), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert f"h = {h}" in err["message"]


def test_sturm_integrates_the_barrier_top_action_once(tmp_path, monkeypatch):
    # the dispersion's barrier check and the payload's outer action read
    # the one barrier-top action of the potential
    from driftband import sturm1d
    calls = []
    quad = sturm1d.adaptive_quad

    def counted(*args):
        calls.append(args[1:3])
        return quad(*args)

    monkeypatch.setattr(sturm1d, "adaptive_quad", counted)
    run("sturm", {"sturm": {"cosine_amplitude": 1.0, "h": 0.2, "e_cap": 1.5,
                            "q_points": 3, "oracle_grid": 64}}, str(tmp_path))
    rows = (tmp_path / "sturm_dispersion.csv").read_text().splitlines()
    assert len(rows) == 4
    assert len(calls) == 1


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


# the drifting cosine of the Bloch tests: A < B gives edge i2 drift (1, 0),
# so the crossings build the i2 and i3 tables
BLOCH_CROSSINGS = {
    "potential": {"cosine": {"A": 1.0, "B": 1.6, "beta": 1.0}},
    "params": {"h": 0.3, "epsilon": 0.01}, "flux": {"N": 5, "M": 2},
    "bloch": {"q": [0.1, 0.3], "s": 1, "window": 5},
    "grids": {"table_nodes": 12},
}


def test_each_slice_builds_one_drift_model(tmp_path, monkeypatch):
    # a Reeb graph carries its slice's model: the edge tables, the
    # separatrix limits and the crossings reuse it instead of building
    # their own
    from driftband import classical
    from driftband.actions import ActionComputer
    built = []
    init = classical.DriftModel.__init__

    def counted(self, *args, **kwargs):
        built.append(args[2] if len(args) > 2 else kwargs["i1"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(classical.DriftModel, "__init__", counted)
    for command, cfg, slices in (("actions", BASE, 1),
                                 ("spectrum", {**BASE, "i1_max": 0.2}, 2),
                                 ("bloch", BLOCH_CROSSINGS, 1)):
        built.clear()
        run(command, json.loads(json.dumps(cfg)), str(tmp_path / command))
        assert len(built) == len(set(built)) == slices, command
    graph = classical.build_reeb_graph(
        build_potential(validate_config(dict(BASE))), 0.01, 0.15)
    assert ActionComputer(graph).model is graph.model


@pytest.mark.parametrize("window,code", [(16, 0), (17, 2)])
def test_bloch_window_bound(tmp_path, capsys, window, code):
    cfg = json.loads(json.dumps(BLOCH_CROSSINGS))
    cfg["bloch"]["window"] = window
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["bloch", "--config", str(cfgfile), "--out", str(out)]) == code
    if code == 0:
        env = json.loads((out / "bloch.json").read_text())
        assert env["payload"]["window"] == 16
    else:
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not (out / "bloch.json").exists()


# flux 1/3 for harper (h / 2 pi = M / N) and for bloch
_HARPER_FLUX = {"potential": {"cosine": {"A": 2.0, "B": 1.0, "beta": 1.0}},
                "params": {"h": 2 * math.pi / 3, "epsilon": 0.01},
                "flux": {"N": 3, "M": 1}, "grids": {"harper_grid": [8, 8]}}
_BLOCH_FLUX = {**BLOCH_CROSSINGS, "flux": {"N": 3, "M": 1},
               "bloch": {"q": [0.1, 0.3], "s": 0, "window": 5}}
_STURM = {"sturm": {"cosine_amplitude": 1.0, "h": 0.45, "q_points": 2,
                    "oracle_grid": 128, "e_cap": 1.8}}


@pytest.mark.parametrize("command,cfg,path,value", [
    ("harper", _butterfly_config(math.pi), ("harper_farey_max",), 3.0),
    ("harper", _HARPER_FLUX, ("flux", "N"), 3.0),
    ("harper", _HARPER_FLUX, ("flux", "M"), 1.0),
    ("bloch", _BLOCH_FLUX, ("flux", "N"), 3.0),
    ("bloch", _BLOCH_FLUX, ("flux", "M"), 1.0),
    ("regimes", BASE, ("grids", "i1_grid"), 5.0),
    ("average", BASE, ("grids", "average_grid"), 4.0),
    ("sturm", _STURM, ("sturm", "q_points"), 3.0),
    ("bloch", BLOCH_CROSSINGS, ("bloch", "window"), 4.0),
], ids=["harper_farey_max", "harper-flux.N", "harper-flux.M", "bloch-flux.N",
        "bloch-flux.M", "i1_grid", "average_grid", "q_points", "window"])
def test_integral_float_in_integer_field_runs_as_int(tmp_path, command, cfg,
                                                     path, value):
    # draft-7 integer accepts 3.0; range() and Fraction raised TypeError on
    # it, so the canonical config carries the int
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 0
    echo = json.loads((out / f"{command}.json").read_text())["config"]
    for key in path:
        echo = echo[key]
    assert type(echo) is int and echo == value


@pytest.mark.parametrize("command", ["harper", "bloch"])
@pytest.mark.parametrize("n", [0, -3])
def test_flux_denominator_below_one_is_config_error(tmp_path, capsys,
                                                    command, n):
    # harper divided by N = 0; bloch wrote a payload at zero or negative flux
    cfg = json.loads(json.dumps(_HARPER_FLUX))
    cfg["flux"]["N"] = n
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "['flux']['N']" in err["message"]
    assert not (out / f"{command}.json").exists()


_STURM_FAST = {"cosine_amplitude": 1.0, "h": 0.3, "q_points": 2,
               "oracle_grid": 64}


def _limited_memory():
    # an unchecked infinite e_cap grows a list of gap ends without bound
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("command,cfg,key", [
    ("sturm", {"sturm": {**_STURM_FAST, "e_cap": math.inf}},
     "['sturm']['e_cap']"),
    ("sturm", {"sturm": {**_STURM_FAST, "h": -math.inf}}, "['sturm']['h']"),
    ("reeb", {**BASE, "params": {"h": 0.1, "epsilon": math.nan}},
     "['params']['epsilon']"),
    ("reeb", {**BASE, "params": {"h": 0.1, "epsilon": math.inf}},
     "['params']['epsilon']"),
    ("reeb", {**BASE, "potential": {"cosine": {"A": math.nan, "B": 1.0,
                                               "beta": 1.0}}},
     "['potential']['cosine']['A']"),
], ids=["e_cap-inf", "sturm.h--inf", "epsilon-nan", "epsilon-inf", "A-nan"])
def test_non_finite_number_is_config_error(tmp_path, command, cfg, key):
    # json.load reads NaN and Infinity and draft-7 number accepts them: an
    # infinite e_cap never returned, the others exited 3 or named no key
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(cfg))
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-m", "driftband.cli", command, "--config",
         str(cfgfile), "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=30, preexec_fn=_limited_memory)
    assert proc.returncode == 2
    err = json.loads(proc.stderr)
    assert err["error"] == "config"
    assert key in err["message"]
    assert not (tmp_path / "out").exists()


def test_sturm_upper_sweep_over_the_cap_is_config_error(tmp_path, capsys):
    # 6.7 million gap ends up to e_cap 1e12 at h 0.3 asked for a 6.9 GB
    # trapezoid array
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"sturm": {**_STURM_FAST, "e_cap": 1e12}}))
    out = tmp_path / "out"
    assert main(["sturm", "--config", str(cfgfile), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "e_cap = 1000000000000.0" in err["message"]
    assert "h = 0.3" in err["message"]


def test_out_naming_a_file_is_config_error(tmp_path, capsys):
    # os.makedirs raised FileExistsError after the whole computation
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"sturm": {**_STURM_FAST, "e_cap": 1.5}}))
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["sturm", "--config", str(cfgfile), "--out", str(taken)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert str(taken) in err["message"]
    assert taken.read_text() == ""

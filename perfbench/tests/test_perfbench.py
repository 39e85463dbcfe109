"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import csv
import itertools
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402

cli = run.import_driftband()

import layers  # noqa: E402
import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.ROUNDS)


def _first_jobs(workload, seed, n=12):
    jobs = itertools.chain.from_iterable(workloads.rounds(workload, seed))
    return json.dumps(list(itertools.islice(jobs, n)), sort_keys=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert _first_jobs(workload, 7) == _first_jobs(workload, 7)
    assert _first_jobs(workload, 7) != _first_jobs(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generated_configs_pass_the_schema(workload):
    for job in json.loads(_first_jobs(workload, 3, n=20)):
        assert job["command"] in cli.COMMANDS
        cli.validate_config(job["config"])


def test_malformed_config_counts_as_failed(tmp_path):
    bad = {"command": "reeb", "tag": "malformed",
           "config": {"potential": {"cosine": {"A": 1.0}},
                      "params": {"h": 0.1, "epsilon": 0.01}}}
    good = workloads.quick_job("average")
    records = run.run_jobs(cli, [bad, good], str(tmp_path), oracles.check)
    assert [r["error"] is not None for r in records] == [True, False]
    assert "ConfigError" in records[0]["error"]
    assert run.outcomes(records) == (1, 0)  # fail_ratio 1/2, wrong_ratio 0
    assert records[1]["problems"] == []
    assert not run.all_correct(records)
    assert run.all_correct(records[1:])


def test_sturm_check_catches_a_dropped_maslov_half(tmp_path):
    from driftband import sturm1d
    from driftband.numerics import find_root

    job = workloads.quick_job("sturm")
    [rec] = run.run_jobs(cli, [job], str(tmp_path), oracles.check)
    assert rec["error"] is None and rec["problems"] == []
    path = os.path.join(rec["out"], "sturm_bands.csv")
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    scfg = job["config"]["sturm"]
    v = sturm1d.Potential1D.cosine(scfg["cosine_amplitude"])
    lo, hi = v.v_min + 1e-9, v.v_max - 1e-9
    col = header.index("bohr_sommerfeld")
    for row in rows:
        # the level of action h nu instead of h (nu + 1/2)
        target = scfg["h"] * int(row[header.index("nu")])
        row[col] = repr(v.v_min if target == 0 else find_root(
            lambda e: sturm1d.action_lower(v, e) - target, lo, hi))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + rows)
    problems = oracles.check(job, rec["out"])
    assert problems and all("BS level" in p for p in problems)


def test_sturm_check_catches_a_dispersion_on_the_wrong_band(tmp_path):
    job = {"command": "sturm", "tag": "cosine",
           "config": {"sturm": {"cosine_amplitude": 0.8, "h": 0.48,
                                "e_cap": 1.6, "q_points": 2,
                                "oracle_grid": 128}}}
    [rec] = run.run_jobs(cli, [job], str(tmp_path), oracles.check)
    assert rec["error"] is None and rec["problems"] == []
    path = os.path.join(rec["out"], "sturm_dispersion.csv")
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert rows
    scfg = job["config"]["sturm"]
    for row in rows:
        # the next band up, reported as if formula and oracle agreed on it
        spec = oracles.fd_bloch_spectrum(scfg, scfg["h"], float(row[1]))
        row[2] = row[3] = repr(float(spec[int(row[0]) + 1]))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header] + rows)
    problems = oracles.check(job, rec["out"])
    assert len(problems) == len(rows)
    assert all("vs band" in p for p in problems)


@pytest.mark.parametrize("kind", sorted(workloads.QUICK))
def test_traced_and_untraced_outputs_are_byte_identical(kind, tmp_path):
    job = workloads.quick_job(kind)
    plain = run.run_jobs(cli, [job], str(tmp_path / "plain"), oracles.check)
    tr = tracer.Tracer()
    with tr:
        traced = run.run_jobs(cli, [job], str(tmp_path / "traced"),
                              oracles.check)
    assert plain[0]["error"] is None and traced[0]["error"] is None
    assert plain[0]["problems"] == [] and traced[0]["problems"] == []
    hashes = run.hash_dir(plain[0]["out"])
    assert hashes and hashes == run.hash_dir(traced[0]["out"])
    assert any(span[0] == "cli.run" for span in tr.spans)
    # uninstall restored the original objects
    assert not hasattr(cli.run, "__wrapped__")


def test_tracer_reports_every_per_layer_metric(tmp_path):
    reeb = {"command": "reeb", "tag": "cosine",
            "config": {"potential": {"cosine": {"A": 1.0, "B": 1.6,
                                                "beta": 1.0}},
                       "params": {"h": 0.1, "epsilon": 0.01}, "i1": 0.2}}
    tr = tracer.Tracer()
    with tr:
        records = run.run_jobs(cli, [workloads.quick_job("harper"), reeb],
                               str(tmp_path), oracles.check)
    assert [r["problems"] for r in records] == [[], []]
    metrics, _ = layers.layer_metrics(tr.spans)
    assert set(metrics) | {"trace.overhead_ratio"} == set(layers.names())
    assert metrics["harper.band_table.calls"]["value"] == 1
    assert metrics["harper.eigensolves_per_band_table"]["value"] > 0
    assert metrics["numerics.integrate_ode.calls"]["value"] == 0
    # spans on the private cores reached through build_reeb_graph
    assert metrics["classical.find_critical_points.calls"]["value"] > 0
    assert metrics["classical.trace_level_set.calls"]["value"] > 0


def test_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, None, None], ["b", 1.0, 4.0, 0, None],
             ["b", 3.0, 6.0, 0, None], ["c", 2.0, 3.0, 1, None]]
    stats, _ = tracer.summarize(spans)
    assert stats["a"]["self_s"] == pytest.approx(5.0)
    assert stats["b"]["busy_s"] == pytest.approx(6.0)
    assert stats["b"]["self_s"] == pytest.approx(5.0)


def test_tail_has_ten_jobs_beyond():
    value, pct, beyond = run.tail([float(k) for k in range(40)])
    assert (value, beyond) == (29.0, 10) and pct == pytest.approx(75.0)
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 0)


def test_benchmark_json_lists_the_metrics_the_run_prints():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == layers.names()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)

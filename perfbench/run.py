"""Outside-in benchmark of the driftband CLI chain.

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 40 --trace 0

Generates the workload's configs from the seed and drives them in-process
through ``driftband.cli.run``, one job at a time (a closed loop with one
client: the next job starts after the previous job's files are on disk).
Jobs come in rounds of fixed kinds, each about ``workloads.ROUND_SECONDS``
long; a run is the whole number of rounds nearest to ``--seconds`` (at
least one), so every run of a workload does the same kinds of work.  Every
job's output is then checked against an independent oracle
(perfbench/oracles.py), outside the timed interval.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same jobs twice,
untraced and then traced, reports per-layer metrics from the traced pass,
checks that both passes wrote byte-identical files, and writes the raw spans
to .perfbench/spans-<workload>-<seed>.jsonl.gz.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The package is
imported from ``src/`` of the checkout; without it the run exits non-zero.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from importlib import metadata

import layers
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 5       # child processes whose set-up time is measured
PROBE_TIMEOUT_S = 150
TAIL_BEYOND = 10       # jobs that must lie beyond the reported tail
# End-to-end metrics of the result line.  fail_ratio and wrong_ratio are
# printed with them but are 0 on a healthy run, so the result line carries
# them as its "failed" count and "correct" flag instead: any job that raised
# or failed its oracle makes the run incorrect.
END_TO_END = ("setup_s", "job_p50_s", "job_tail_s", "jobs_per_s",
              "peak_rss_mb")


def import_driftband():
    """Import the package from the checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "driftband", "__init__.py")):
        sys.exit(f"perfbench: no driftband package under {SRC}")
    sys.path.insert(0, SRC)
    import driftband
    from driftband import cli
    if not os.path.abspath(driftband.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: driftband imported from {driftband.__file__}")
    return cli


def run_job(cli, job, out_dir):
    """Run one job; return (seconds, error text or None)."""
    config = copy.deepcopy(job["config"])
    t0 = time.perf_counter()
    try:
        cli.run(job["command"], config, out_dir)
        error = None
    except (cli.NumericsError, cli.ConfigError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # a defect, not a domain error: keep going
        traceback.print_exc(file=sys.stderr)
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, error


def _record(cli, job, out_dir):
    seconds, error = run_job(cli, job, out_dir)
    return {"job": job, "out": out_dir, "seconds": seconds, "error": error,
            "problems": None}


def run_jobs(cli, jobs, out_root, check=None):
    """Run jobs in order, then check each output; returns job records."""
    records = [_record(cli, job, os.path.join(out_root, f"job{k:04d}"))
               for k, job in enumerate(jobs)]
    return check_records(records, check) if check else records


def check_records(records, check):
    for rec in records:
        if rec["error"] is None:
            try:
                rec["problems"] = check(rec["job"], rec["out"])
            except Exception as exc:  # unreadable output counts as wrong
                rec["problems"] = [f"check raised {type(exc).__name__}: {exc}"]
    return records


def outcomes(records):
    """(jobs that raised, jobs whose output failed its check)."""
    return (sum(r["error"] is not None for r in records),
            sum(bool(r["problems"]) for r in records))


def all_correct(records):
    """True only if no job raised and every output passed its check."""
    return outcomes(records) == (0, 0)


def run_rounds(cli, workload, seed, seconds, out_root):
    """Closed loop over the run's whole rounds; returns (records, wall)."""
    records = []
    t0 = time.perf_counter()
    for jobs in itertools.islice(workloads.rounds(workload, seed),
                                 workloads.round_count(seconds)):
        for job in jobs:
            out_dir = os.path.join(out_root, f"job{len(records):04d}")
            records.append(_record(cli, job, out_dir))
    return records, time.perf_counter() - t0


def hash_dir(path):
    """sha256 of every file in a job's output directory (as c11 does)."""
    out = {}
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            with open(os.path.join(path, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def tail(times):
    """Highest nearest-rank percentile with TAIL_BEYOND jobs beyond it."""
    xs = sorted(times)
    n = len(xs)
    if n > TAIL_BEYOND:
        k = n - TAIL_BEYOND - 1
        return xs[k], 100.0 * (k + 1) / n, TAIL_BEYOND
    # too few jobs for any percentile to have ten beyond: report the maximum
    return xs[-1], 100.0, 0


def provenance(workload, seed):
    import numpy
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version"),
                "config": dep.get("openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        blas = {"name": "unknown"}
    # unset variables leave the library at its default of one thread per CPU
    blas["threads_env"] = {k: os.environ.get(k) for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if os.environ.get(k) is not None}

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": version("scipy"),
            "jsonschema": version("jsonschema"), "blas": blas,
            "git_commit": commit or "unknown (not a git checkout)",
            "machine": platform.machine()}


def set_up(workload, scratch):
    """Import the package and run one untimed warm-up job, whose cli.run
    makes the first validate_config call (which imports jsonschema)."""
    cli = import_driftband()
    _, error = run_job(cli, workloads.warmup_job(workload),
                       os.path.join(scratch, "warmup"))
    if error is not None:
        sys.exit(f"perfbench: warm-up job failed: {error}")
    return cli


def probe_setup(workload):
    """Set-up times of fresh interpreters, one after the other: from the
    start of each child process until it reports that set-up is done."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--probe-setup"], stdout=subprocess.PIPE,
                text=True) as child:
            watchdog = threading.Timer(PROBE_TIMEOUT_S, child.kill)
            watchdog.start()
            try:
                line = child.stdout.readline()
                seconds = time.perf_counter() - t0
                child.stdout.read()
                child.wait()
            finally:
                watchdog.cancel()
        if child.returncode != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: set-up probe failed ({child.returncode})")
        samples.append(seconds)
    return samples


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, cli, setup_samples, scratch):
    import oracles  # needs driftband on the path
    records, wall = run_rounds(cli, args.workload, args.seed, args.seconds,
                               scratch)
    check_records(records, oracles.check)
    n = len(records)
    failed, wrong = outcomes(records)
    ok = n - failed - wrong
    times = [r["seconds"] for r in records]
    t_tail, pct, beyond = tail(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "job_p50_s": metric(statistics.median(times), "s"),
        "job_tail_s": metric(t_tail, "s"),
        "jobs_per_s": metric(ok / wall, "1/s"),
        "fail_ratio": metric(failed / n, "ratio"),
        "wrong_ratio": metric(wrong / n, "ratio"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} set-ups "
                   f"{[round(s, 4) for s in setup_samples]}",
        "job_p50_s": f"{n} jobs",
        "job_tail_s": f"p{pct:.1f} of {n} jobs, {beyond} beyond",
        "jobs_per_s": f"{ok} passing jobs in {wall:.3f} s",
        "fail_ratio": f"{failed}/{n} jobs raised",
        "wrong_ratio": f"{wrong}/{n} jobs failed their oracle",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    for name, m in report.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}  ({notes[name]})")
    print("job times " + " ".join(
        f"{r['job']['command']}/{r['job']['tag']}={r['seconds']:.3f}"
        for r in sorted(records, key=lambda r: r["seconds"])))
    return records, {name: report[name] for name in END_TO_END}


def per_layer(args, cli, scratch):
    import oracles  # needs driftband on the path
    plain, wall_plain = run_rounds(cli, args.workload, args.seed,
                                   args.seconds, os.path.join(scratch,
                                                              "untraced"))
    tr = tracer.Tracer()
    with tr:
        traced = run_jobs(cli, [r["job"] for r in plain],
                          os.path.join(scratch, "traced"))
    wall_traced = sum(r["seconds"] for r in traced)
    check_records(plain, oracles.check)
    check_records(traced, oracles.check)
    for a, b in zip(plain, traced):
        if hash_dir(a["out"]) != hash_dir(b["out"]):
            b["problems"] = (b["problems"] or []) + [
                "traced output differs from untraced output"]
    os.makedirs(WORK, exist_ok=True)
    tr.write(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl.gz"))
    metrics, top = layers.layer_metrics(tr.spans)
    metrics["trace.overhead_ratio"] = metric(
        wall_traced / sum(r["seconds"] for r in plain), "ratio")
    print(f"traced {len(traced)} jobs; untraced wall {wall_plain:.3f} s")
    print("top self time: " + ", ".join(f"{name} {s:.3f} s"
                                         for name, s in top))
    return plain + traced, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    scratch = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        cli = set_up(args.workload, scratch)
        if args.probe_setup:
            print("ready", flush=True)
            return 0
        print("provenance " + json.dumps(provenance(args.workload, args.seed),
                                         sort_keys=True))
        if args.trace:
            records, metrics = per_layer(args, cli, scratch)
        else:
            setup_samples = probe_setup(args.workload)
            records, metrics = end_to_end(args, cli, setup_samples, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for rec in records:
        if rec["error"] or rec["problems"]:
            print(f"job {rec['job']['command']}/{rec['job']['tag']}: "
                  f"error={rec['error']} problems={rec['problems']} "
                  f"config={json.dumps(rec['job']['config'], sort_keys=True)}")
    failed, _ = outcomes(records)
    result = {"correct": all_correct(records),
              "attempted": len(records), "failed": failed,
              "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded job generators, one per benchmark workload.

A job is a dict ``{"command", "config", "tag"}``: the command and config a
user would hand to ``driftband <command> --config``, plus a tag naming the
draw kind.  Each workload is an endless sequence of *rounds*.  A round fixes
the kinds of its jobs and every setting that sets a job's cost (matrix
sizes, grids, table nodes, Landau level counts, h bins); the seed draws the
order of the jobs and all other parameters.  So whole rounds do the same
amount of work whatever the seed, and run-to-run spread comes from the
program and the machine, not from the draw.

A round takes about ``ROUND_SECONDS`` on a 2-vCPU 2.1 GHz Xeon, and a run
is a whole number of rounds (one at the benchmark's 40 s).  The machine's
speed drifts by about 10 % between 45 s windows, so a run has to average
over tens of seconds: its statistics are medians and totals over many
jobs, never one job.  The kinds of job come from what each workload is for;
their counts were chosen for steady statistics, not taken from user
traffic.  The job kinds fall into cost classes whose counts put the median
job and the tail job (the eleventh slowest) inside a class, away from its
edges, so neither statistic jumps between classes from one run to the
next.  All parameters stay inside the domain documented in README.md; a job
that still fails is counted, never redrawn.
"""

from __future__ import annotations

import math
import os
import random

EPSILON = 0.01
TWO_PI = 2.0 * math.pi
THREADS = min(2, os.cpu_count() or 1)


def _cosine(a, b, beta):
    return {"cosine": {"A": a, "B": b, "beta": beta}}


def _few_mode(rng, oblique):
    """Two dominant cosine modes plus `oblique` weaker (1, +-1) modes."""
    a21 = rng.uniform(-0.4, 0.4)
    a22 = rng.uniform(4.5, 7.0)
    modes = [((1, 0), complex(rng.uniform(0.4, 0.6), rng.uniform(-0.1, 0.1))),
             ((0, 1), complex(rng.uniform(0.25, 0.4), rng.uniform(-0.1, 0.1)))]
    for k in rng.sample([(1, 1), (1, -1)], oblique):
        modes.append((k, complex(rng.uniform(0.02, 0.06),
                                 rng.uniform(-0.02, 0.02))))
    coeffs = []
    for (k1, k2), c in modes:
        coeffs.append({"k1": k1, "k2": k2, "re": c.real, "im": c.imag})
        coeffs.append({"k1": -k1, "k2": -k2, "re": c.real, "im": -c.imag})
    return {"lattice": {"a21": a21, "a22": a22}, "coefficients": coeffs}


def _simple_cosine(rng, a_below_b):
    """cosine(A, B, beta) with A != B, in the given orientation."""
    a = rng.uniform(0.8, 1.2)
    ratio = rng.uniform(1.5, 1.7)
    if a_below_b:
        return _cosine(a, a * ratio, rng.uniform(0.9, 1.1))
    return _cosine(a * ratio, a, rng.uniform(0.9, 1.1))


def _params(h):
    return {"h": h, "epsilon": EPSILON}


def _strata(rng, lo, hi, n):
    """n draws from [lo, hi], one from each of n equal bins, shuffled."""
    width = (hi - lo) / n
    out = [lo + width * (j + rng.random()) for j in range(n)]
    rng.shuffle(out)
    return out


def _shuffled(rng, values):
    out = list(values)
    rng.shuffle(out)
    return out


# ----------------------------------------------------------------------
# orbits: the orbit engine (spectrum, bands, bloch, actions) and drift
# topology (average, reeb, regimes)
# ----------------------------------------------------------------------

# The orbit engine's cost jumps with the potential's orientation, h and the
# table size (edge tables double their nodes when they miss the error
# target) and grows by one set of edge tables per Landau level, so the
# round fixes orientation, h, level count and table size per job slot and
# the seed draws only an overall amplitude within 3 %, the actions energy,
# the Bloch quantum numbers and the job order.
SPECTRUM_RATIO = 1.6                   # B / A of the simple potentials
SPECTRUM_NODES = 12
# (Landau levels, h, A < B) of the two simple spectrum jobs; the one-level
# job is followed by a bands job on the same config.
SPECTRUM_SLOTS = ((1, 0.22, True), (2, 0.15, False))
EQUAL_SADDLES_H = 0.28                 # one level
BLOCH_H = 0.3
BLOCH_FLUX = (5, 2)                    # (N, M)
ACTIONS_H = 0.2
ACTIONS_I1 = (0.55, 0.65)
ACTIONS_NODES = 16


def _orbit_units(rng):
    """Equal-saddles spectrum, one- and two-level simple spectrum (the
    first followed by bands on its config), bloch and actions."""
    def potential(a, b):
        scale = rng.uniform(0.97, 1.03)
        return _cosine(scale * a, scale * b, 1.0)

    def oriented(a_below_b):
        if a_below_b:
            return potential(1.0, SPECTRUM_RATIO)
        return potential(SPECTRUM_RATIO, 1.0)

    def level_cfg(pot, levels, h):
        # levels mu = 0 .. levels - 1 lie at (mu + 1/2) h <= levels h
        return {"potential": pot, "params": _params(h),
                "i1_max": levels * h,
                "grids": {"table_nodes": SPECTRUM_NODES}}

    n, m = BLOCH_FLUX
    # A < B gives drift (1, 0) and real dispersion crossings
    bloch = {"potential": potential(1.0, SPECTRUM_RATIO),
             "params": _params(BLOCH_H), "flux": {"N": n, "M": m},
             "grids": {"table_nodes": SPECTRUM_NODES},
             "bloch": {"q": [rng.uniform(0.0, 1.0 / m), rng.uniform(0.0, 1.0)],
                       "s": rng.randrange(m), "window": rng.randint(3, 8)}}
    actions = {"potential": oriented(False), "params": _params(ACTIONS_H),
               "i1": rng.uniform(*ACTIONS_I1),
               "grids": {"table_nodes": ACTIONS_NODES}}
    es = level_cfg(potential(1.0, 1.0), 1, EQUAL_SADDLES_H)
    units = [[("spectrum", es, "equal_saddles")],
             [("bloch", bloch, "simple")],
             [("actions", actions, "simple")]]
    for levels, h, a_below_b in SPECTRUM_SLOTS:
        simple = level_cfg(oriented(a_below_b), levels, h)
        unit = [("spectrum", simple, f"levels{levels}")]
        if levels == 1:
            unit.append(("bands", simple, "repeat"))
        units.append(unit)
    return units


def _topology_jobs(rng):
    """Four average (~0.02 s), twelve reeb (~0.75 s, the class of the
    median job), seven cosine regimes (~0.9 s, the class of the tail job)
    and one few-mode regimes job (~3.5 s).  Average and reeb jobs are half
    on cosine, half on few-mode potentials with three or four modes; reeb
    jobs are half at a drawn I1, half at Landau levels 0, 1 and 2; cosine
    regimes take i1_grid 5 and 9 twice each and 7 three times.  Draws that
    set a job's cost (h, I1, i1_max, orientation, mode count) are
    stratified, so every round has the same spread of them."""
    oblique = iter(_shuffled(rng, (1, 2) * 5))
    a_below_b = iter(_shuffled(rng, (True, False) * 8))
    grids = iter(_shuffled(rng, (5, 7, 9) * 2 + (7,)))
    hs = iter(_strata(rng, 0.08, 0.12, 24))

    def cfg(few_mode, **extra):
        pot = (_few_mode(rng, next(oblique)) if few_mode
               else _simple_cosine(rng, next(a_below_b)))
        c = {"potential": pot, "params": _params(next(hs))}
        c.update(extra)
        return c

    jobs = []
    for few_mode in (False, True):
        tag = "few_mode" if few_mode else "cosine"
        jobs += [("average", cfg(few_mode, i1_max=i1_max,
                                 grids={"average_grid": 6}), tag)
                 for i1_max in _strata(rng, 1.0, 4.0, 2)]
        jobs += [("reeb", cfg(few_mode, i1=i1), tag)
                 for i1 in _strata(rng, 0.05, 0.3, 3)]
        jobs += [("reeb", cfg(few_mode, mu=mu), tag) for mu in range(3)]
    jobs += [("regimes", cfg(False, grids={"i1_grid": next(grids)}), "cosine")
             for _ in range(7)]
    jobs.append(("regimes", cfg(True, grids={"i1_grid": 5}), "few_mode"))
    return jobs


def orbits_round(rng):
    """Thirty jobs: the six orbit-engine jobs of _orbit_units and the
    twenty-four topology jobs of _topology_jobs, in drawn order (a
    bands job always right after the spectrum job whose config it
    repeats)."""
    units = _orbit_units(rng) + [[job] for job in _topology_jobs(rng)]
    return [job for unit in _shuffled(rng, units) for job in unit]


# ----------------------------------------------------------------------
# kernels: Harper Bloch sweeps, scalar quadrature, root finding and the
# 1D finite-difference oracle
# ----------------------------------------------------------------------

# Farey sweeps with cap 5 and 6 (largest matrix size 5 and 6) on a 16 x 16
# grid with the thread pool; about a quarter of a round's time.
SWEEP_CAPS = (5, 6)
SWEEP_GRID = 16
# Single-flux jobs: (fluxes M/N of one matrix size N, grid, jobs per round).
HARPER_SLOTS = ((((1, 3), (2, 3)), 16, 10),
                (((1, 2),), 40, 13),
                (((2, 5), (3, 5)), 12, 10))
# Sturm jobs: (h range, oracle_grid, q_points, two-mode potential, jobs
# per round).  Two-mode jobs cost about twice as much as cosine jobs of the
# same h, fine jobs about three times as much as coarse cosine ones.
STURM_SLOTS = (((0.45, 0.5), 128, 2, False, 5),
               ((0.45, 0.5), 128, 2, True, 12),
               ((0.22, 0.24), 256, 3, False, 3))


def _harper_jobs(rng):
    def potential():
        return _cosine(rng.uniform(0.8, 2.5), rng.uniform(0.8, 2.5), 1.0)

    jobs = []
    for cap in SWEEP_CAPS:
        jobs.append(("harper", {"potential": potential(),
                                "params": _params(0.3),
                                "mu": rng.randint(0, 2),
                                "harper_farey_max": cap,
                                "threads": THREADS,
                                "grids": {"harper_grid": [SWEEP_GRID,
                                                          SWEEP_GRID]}},
                     f"sweep{cap}"))
    for fluxes, g, count in HARPER_SLOTS:
        for _ in range(count):
            m, n = rng.choice(fluxes)
            # h realizes beta h / (2 pi) = M/N on the rectangular lattice
            jobs.append(("harper", {"potential": potential(),
                                    "params": _params(TWO_PI * m / n),
                                    "flux": {"N": n, "M": m},
                                    "mu": rng.randint(0, 2),
                                    "grids": {"harper_grid": [g, g]}},
                         f"single{n}"))
    return jobs


def _sturm_jobs(rng):
    jobs = []
    for (lo, hi), grid, q_points, two_mode, count in STURM_SLOTS:
        for h, e_cap in zip(_strata(rng, lo, hi, count),
                            _strata(rng, 1.5, 2.0, count)):
            scfg = {"h": h, "q_points": q_points, "oracle_grid": grid,
                    "e_cap": e_cap}
            if two_mode:
                c1 = rng.uniform(0.4, 0.6)
                c2 = complex(rng.uniform(0.05, 0.12), rng.uniform(-0.05, 0.05))
                scfg["coefficients"] = [
                    {"k": 1, "re": c1, "im": 0.0},
                    {"k": -1, "re": c1, "im": 0.0},
                    {"k": 2, "re": c2.real, "im": c2.imag},
                    {"k": -2, "re": c2.real, "im": -c2.imag}]
            else:
                scfg["cosine_amplitude"] = rng.uniform(0.8, 1.2)
            tag = ("two_mode" if two_mode
                   else "fine" if grid == 256 else "cosine")
            jobs.append(("sturm", {"sturm": scfg}, tag))
    return jobs


def kernels_round(rng):
    """Fifty-five jobs, shuffled: two Farey sweeps (caps 5 and 6), thirty-
    three single-flux harper jobs (matrix size 3 ten times, 2 thirteen
    times, 5 ten times) and twenty sturm jobs (five coarse cosine, twelve
    coarse two-mode, three fine cosine; h one per bin of its range).  Size-5 harper and coarse cosine sturm jobs hold the median
    job, coarse two-mode sturm jobs the tail job."""
    return _shuffled(rng, _harper_jobs(rng) + _sturm_jobs(rng))


ROUNDS = {
    "orbits": orbits_round,
    "kernels": kernels_round,
}
ROUND_SECONDS = 40.0

# Quick fixed jobs of one command each: the warm-up jobs and test inputs.
QUICK = {
    "bloch": ("bloch", {"potential": _cosine(1.0, 1.0, 1.0),
                        "params": _params(0.2), "flux": {"N": 5, "M": 2}}),
    "average": ("average", {"potential": _cosine(2.0, 1.0, 1.0),
                            "params": _params(0.1)}),
    "harper": ("harper", {"potential": _cosine(2.0, 1.0, 1.0),
                          "params": _params(TWO_PI / 3.0),
                          "flux": {"N": 3, "M": 1},
                          "grids": {"harper_grid": [8, 8]}}),
    "sturm": ("sturm", {"sturm": {"cosine_amplitude": 1.0, "h": 0.5,
                                  "e_cap": 1.5, "q_points": 2,
                                  "oracle_grid": 64}}),
}
# The job each workload runs untimed before timing starts.
WARMUP = {"orbits": "average", "kernels": "harper"}


def rounds(workload: str, seed: int):
    """Endless, seed-determined sequence of job rounds of one workload."""
    make_round = ROUNDS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield [{"command": command, "config": config, "tag": tag}
               for command, config, tag in make_round(rng)]


def round_count(seconds: float) -> int:
    """Whole rounds of a run of about `seconds`."""
    return max(1, round(seconds / ROUND_SECONDS))


def quick_job(kind: str):
    command, config = QUICK[kind]
    return {"command": command, "config": config, "tag": "quick"}


def warmup_job(workload: str):
    return quick_job(WARMUP[workload])

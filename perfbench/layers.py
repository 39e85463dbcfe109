"""Per-layer metrics from the spans of a traced pass.

Names follow ``<module>.<public function>.<stat>``: ``calls`` counts calls,
``busy_s`` is inclusive time, ``self_s`` is inclusive time minus the time
covered by wrapped child spans.  Ratios whose base is zero on a workload
(for example ODE calls per action on ``kernels``) are reported as 0.
"""

from __future__ import annotations

from tracer import POOL_TASK, summarize

CALLS_SELF = (
    "numerics.integrate_ode", "numerics.hermitian_eigenvalues",
    "numerics.adaptive_quad", "numerics.find_root",
    "classical.find_critical_points", "classical.trace_level_set",
    "classical.build_reeb_graph", "classical.critical_i1_series",
    "classical.build_regimes", "actions.ActionComputer.action",
    "spectra.semiclassical_spectrum", "bloch.dispersion_crossings",
    "harper.band_table", "harper.bloch_matrix",
)
CALLS_BUSY = (
    "potential.FourierPotential.damped", "potential.averaged_potential_oracle",
    "sturm1d.fd_bloch_oracle",
)
CALLS_ONLY = ("numerics.bessel_j0", "actions.build_edge_table")
BUSY_ONLY = (
    "actions.separatrix_limits", "spectra.quantize_boundary",
    "spectra.quantize_interior", "bloch.boundary_family",
    "bloch.verify_boundary_conditions", "sturm1d.bs_levels_lower",
    "sturm1d.band_width_lower", "sturm1d.gap_ends_upper",
    "sturm1d.dispersion_upper", "sturm1d.reeb_1d", "cli.validate_config",
    "cli.write_csv", "cli.dump_json",
)
SELF_ONLY = ("cli.run",)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Returns (metrics dict, top five names by self time)."""
    stats, ancestors = summarize(spans)
    get = stats.get
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    out = {}

    def put(name, stat, unit):
        out[f"{name}.{stat}"] = {"value": (get(name) or empty)[stat],
                                 "unit": unit}

    for name in CALLS_SELF:
        put(name, "calls", "count")
        put(name, "self_s", "s")
    for name in CALLS_BUSY:
        put(name, "calls", "count")
        put(name, "busy_s", "s")
    for name in CALLS_ONLY:
        put(name, "calls", "count")
    for name in BUSY_ONLY:
        put(name, "busy_s", "s")
    for name in SELF_ONLY:
        put(name, "self_s", "s")

    ode_steps = 0
    table_busy = {"simple": 0.0, "equal_saddles": 0.0}
    err_max = 0.0
    actions_in_tables = eig_in_tables = ode_in_actions = 0
    pool_busy = pool_capacity = 0.0
    for span_id, (name, t0, t1, parent, extra) in enumerate(spans):
        if name == "numerics.integrate_ode" and extra is not None:
            ode_steps += extra
            ode_in_actions += ("actions.ActionComputer.action"
                               in ancestors[span_id])
        elif name == "actions.build_edge_table" and extra is not None:
            kind, err = extra
            if kind in table_busy and name not in ancestors[span_id]:
                table_busy[kind] += t1 - t0
            err_max = max(err_max, err)
        elif name == "actions.ActionComputer.action":
            actions_in_tables += ("actions.build_edge_table"
                                  in ancestors[span_id])
        elif name == "numerics.hermitian_eigenvalues":
            eig_in_tables += "harper.band_table" in ancestors[span_id]
        elif name == POOL_TASK:
            pool_busy += t1 - t0
        elif name == "cli.parallel_map" and extra is not None and extra > 1:
            pool_capacity += (t1 - t0) * extra

    def calls(name):
        return (get(name) or empty)["calls"]

    out["numerics.ode_steps"] = {"value": ode_steps, "unit": "count"}
    out["numerics.ode_calls_per_action"] = {
        "value": _ratio(ode_in_actions,
                        calls("actions.ActionComputer.action")),
        "unit": "ratio"}
    for kind, busy in table_busy.items():
        out[f"actions.build_edge_table.busy_s.{kind}"] = {"value": busy,
                                                          "unit": "s"}
    out["actions.actions_per_table"] = {
        "value": _ratio(actions_in_tables, calls("actions.build_edge_table")),
        "unit": "ratio"}
    out["actions.table_err_max"] = {"value": err_max, "unit": "abs"}
    out["harper.eigensolves_per_band_table"] = {
        "value": _ratio(eig_in_tables, calls("harper.band_table")),
        "unit": "ratio"}
    out["cli.parallel_map.efficiency"] = {
        "value": _ratio(pool_busy, pool_capacity), "unit": "ratio"}
    top = sorted(((name, s["self_s"]) for name, s in stats.items()),
                 key=lambda kv: -kv[1])[:5]
    return out, top


def names():
    """Every per-layer metric name, in BENCHMARK.json order."""
    out = []
    for name in CALLS_SELF:
        out += [f"{name}.calls", f"{name}.self_s"]
    for name in CALLS_BUSY:
        out += [f"{name}.calls", f"{name}.busy_s"]
    out += [f"{name}.calls" for name in CALLS_ONLY]
    out += [f"{name}.busy_s" for name in BUSY_ONLY]
    out += [f"{name}.self_s" for name in SELF_ONLY]
    return out + [
        "numerics.ode_steps", "numerics.ode_calls_per_action",
        "actions.build_edge_table.busy_s.simple",
        "actions.build_edge_table.busy_s.equal_saddles",
        "actions.actions_per_table", "actions.table_err_max",
        "harper.eigensolves_per_band_table", "cli.parallel_map.efficiency",
        "trace.overhead_ratio",
    ]

"""Outside-in spans around driftband's public functions.

The tracer replaces each target function with a timing wrapper in every
driftband module namespace that holds it (``classical.integrate_ode``,
``actions.find_root``, ...), and each target method on its class.  Spans are
kept in memory as ``[name, start, end, parent, extra]`` lists; parent links
come from a per-thread stack, and tasks that ``cli.parallel_map`` hands to
its thread pool get the pool call as their parent.  ``uninstall`` restores
every original object, so untraced runs execute unmodified code.
"""

from __future__ import annotations

import gzip
import json
import sys
import threading
import time
from collections import defaultdict

# (module, attribute path[, public name]) of every wrapped callable, grouped
# by layer; spans are named <module>.<public name or attribute path>.
TARGETS = (
    ("numerics", "integrate_ode"),
    ("numerics", "hermitian_eigenvalues"),
    ("numerics", "adaptive_quad"),
    ("numerics", "find_root"),
    ("numerics", "bessel_j0"),
    ("potential", "FourierPotential.damped"),
    ("potential", "averaged_potential_oracle"),
    # The CLI reaches critical points and level sets only through the cores
    # behind these two public functions, so the spans sit on the cores.
    ("classical", "_critical_points_of_model", "find_critical_points"),
    ("classical", "_trace_components", "trace_level_set"),
    ("classical", "build_reeb_graph"),
    ("classical", "critical_i1_series"),
    ("classical", "build_regimes"),
    ("actions", "ActionComputer.action"),
    ("actions", "build_edge_table"),
    ("actions", "separatrix_limits"),
    ("spectra", "semiclassical_spectrum"),
    ("spectra", "quantize_boundary"),
    ("spectra", "quantize_interior"),
    ("bloch", "boundary_family"),
    ("bloch", "verify_boundary_conditions"),
    ("bloch", "dispersion_crossings"),
    ("harper", "band_table"),
    ("harper", "bloch_matrix"),
    ("sturm1d", "fd_bloch_oracle"),
    ("sturm1d", "bs_levels_lower"),
    ("sturm1d", "band_width_lower"),
    ("sturm1d", "gap_ends_upper"),
    ("sturm1d", "dispersion_upper"),
    ("sturm1d", "reeb_1d"),
    ("cli", "validate_config"),
    ("cli", "write_csv"),
    ("cli", "dump_json"),
    ("cli", "run"),
    ("cli", "parallel_map"),
)

POOL_TASK = "cli.parallel_map.task"


def _graph_kind(args, kwargs):
    # build_edge_table(p, eps, i1, edge, graph=None, ...)
    graph = kwargs.get("graph", args[4] if len(args) > 4 else None)
    return getattr(graph, "kind", "unknown")


# Per-span extras taken from arguments or results, keyed by span name.
def _extra_integrate_ode(args, kwargs, result):
    return len(result) - 1  # accepted steps


def _extra_edge_table(args, kwargs, result):
    return (_graph_kind(args, kwargs), result.interp_error)


def _extra_parallel_map(args, kwargs, result):
    return kwargs.get("threads", args[2])  # parallel_map(fn, items, threads)


EXTRAS = {
    "numerics.integrate_ode": _extra_integrate_ode,
    "actions.build_edge_table": _extra_edge_table,
    "cli.parallel_map": _extra_parallel_map,
}


class Tracer:
    """Installs span wrappers into the driftband package and records spans."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    # -- span bookkeeping ----------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        span = [name, time.perf_counter(), None, stack[-1] if stack else None,
                None]
        with self._lock:  # a span's id is its index in self.spans
            span_id = len(self.spans)
            self.spans.append(span)
        stack.append(span_id)
        return span, span_id

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, name, fn):
        extra = EXTRAS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span, span_id = tracer._open(name)
            try:
                if name == "cli.parallel_map":
                    args = (tracer._pool_task(span_id, args[0]),) + args[1:]
                result = fn(*args, **kwargs)
                if extra is not None:
                    span[4] = extra(args, kwargs, result)
                return result
            finally:
                tracer._close(span)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _pool_task(self, parent_id, fn):
        """Wrap a parallel_map task so its spans hang below the pool call."""
        tracer = self

        def task(item):
            stack = tracer._stack()
            saved = list(stack)
            stack[:] = [parent_id]
            span, _ = tracer._open(POOL_TASK)
            try:
                return fn(item)
            finally:
                tracer._close(span)
                stack[:] = saved

        return task

    # -- installation --------------------------------------------------------

    def install(self, package="driftband"):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == package
                                         or n.startswith(package + "."))]
        for mod_name, path, *public in TARGETS:
            module = sys.modules[f"{package}.{mod_name}"]
            name = f"{mod_name}.{public[0] if public else path}"
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, orig))
                self._patches.append((cls, meth, orig))
                continue
            orig = getattr(module, path)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ----------------------------------------------------------------

    def write(self, path):
        """Write the raw spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt") as fh:
            for span_id, span in enumerate(self.spans):
                fh.write(json.dumps([span_id] + span) + "\n")


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans):
    """Per-name calls, busy and self time, plus each span's ancestor names.

    busy counts only the outermost span of a name on its path, so recursion
    does not count time twice; self is duration minus the union of the
    intervals of direct children.
    """
    children = defaultdict(list)
    for span_id, (_, t0, t1, parent, _) in enumerate(spans):
        if parent is not None:
            children[parent].append((t0, t1))
    stats = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    ancestors = []
    for span_id, (name, t0, t1, parent, _) in enumerate(spans):
        up = ancestors[parent] if parent is not None else frozenset()
        ancestors.append(up | {spans[parent][0]} if parent is not None else up)
        s = stats[name]
        s["calls"] += 1
        dur = t1 - t0
        if name not in ancestors[span_id]:
            s["busy_s"] += dur
        s["self_s"] += dur - _covered(children.get(span_id, ()))
    return stats, ancestors

"""Outside-in tracer for the atomlight layers.

The tracer wraps every public function of each layer module and records
one span per call: layer, function name, start, end, parent span and
whether the call raised.  Importers bind some functions by name at
import time (``atomlight.cli`` imports the propagator, point-gas,
dynamics and regime functions it uses; ``atomlight.qops`` binds
``hermite_gauss_eval``), so the wrapper replaces the original under
every name any atomlight module holds it by, plus the CLI's table of
analysis runners.  ``restore`` puts every original back.

Spans stay in memory; ``layer_metrics`` reduces the spans of one
iteration to per-layer counts and times, and ``write_spans`` dumps them
when the run ends.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import os
import time
from collections import Counter

LAYERS = ("cli", "propagator", "pointgas", "modes", "qops", "dynamics",
          "regime", "medium")

# Private CLI helpers wrapped as well: they are the artifact writers.
_CLI_WRITERS = ("_write_csv", "_write_json")

# Span record fields.
LAYER, NAME, START, END, PARENT, ERROR, OUTER = range(7)


def _coefficient_stats(obj) -> tuple[int, int]:
    """(operators, bytes) of the coefficient arrays inside a qops result.

    An operator is one (D, D) coefficient block: a QuadraticOperator
    counts once, an array of shape (..., D, D) counts prod(...) times.
    """
    import numpy as np

    if hasattr(obj, "coeff") and hasattr(obj, "basis"):
        return 1, obj.coeff.nbytes
    if isinstance(obj, np.ndarray):
        if obj.ndim < 2:
            return 0, obj.nbytes
        return int(np.prod(obj.shape[:-2], dtype=np.int64)), obj.nbytes
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    elif hasattr(obj, "__dataclass_fields__"):
        items = [getattr(obj, f) for f in obj.__dataclass_fields__
                 if f not in ("basis", "grid")]
    else:
        return 0, 0
    ops = nbytes = 0
    for item in items:
        o, b = _coefficient_stats(item)
        ops += o
        nbytes += b
    return ops, nbytes


def _regime_checks(obj) -> int:
    if hasattr(obj, "checks"):
        return len(obj.checks)
    if isinstance(obj, (list, tuple)):
        return sum(_regime_checks(item) for item in obj)
    return 1 if hasattr(obj, "passed") else 0


class Tracer:
    """Wraps the atomlight layers; use as a context manager."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._depth: Counter = Counter()
        self._patches: list = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("atomlight")
        modules = {layer: importlib.import_module(f"atomlight.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if name.startswith("_") and not (layer == "cli"
                                                 and name in _CLI_WRITERS):
                    continue
                wrappers[fn] = self._wrap(layer, name, fn)
        runners = modules["cli"]._RUNNERS
        for fn in runners.values():
            wrappers[fn] = self._wrap("cli", fn.__name__, fn)

        namespaces = [runners] + [vars(m) for m in vars(package).values()
                                  if inspect.ismodule(m)
                                  and m.__name__.startswith("atomlight.")]
        try:
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._patches.append((ns, key, value))
                        ns[key] = wrappers[value]
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patches:
            ns, key, original = self._patches.pop()
            ns[key] = original

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        counts, clock = self.counts, time.perf_counter
        hook, outer_only = self._hook(layer, name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = depth[layer] == 0
            span = [layer, name, 0.0, 0.0,
                    stack[-1] if stack else -1, False, outer]
            stack.append(len(spans))
            spans.append(span)
            depth[layer] += 1
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                depth[layer] -= 1
                stack.pop()
            if hook is not None and (outer or not outer_only):
                hook(counts, args, kwargs, result)
            return result

        return traced

    @staticmethod
    def _hook(layer: str, name: str, fn):
        """(counter update run after a call, whether only outermost calls count)."""
        if (layer, name) == ("propagator", "short_propagator_quadrature"):
            sig = inspect.signature(fn)

            def nodes(counts, args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts["propagator.nodes_evaluated"] += int(
                    bound.arguments["n_points"])
            return nodes, False
        if (layer, name) == ("pointgas", "density_correlation"):
            def clouds(counts, args, kwargs, result):
                counts["pointgas.clouds"] += int(result.n_batches)
                counts["pointgas.atoms"] += (int(result.n_batches)
                                             * int(result.n_atoms))
            return clouds, False
        if (layer, name) == ("modes", "hermite_gauss_eval"):
            def points(counts, args, kwargs, result):
                counts["modes.grid_points"] += int(getattr(result, "size", 1))
            return points, False
        if layer == "qops":
            def coefficients(counts, args, kwargs, result):
                ops, nbytes = _coefficient_stats(result)
                counts["qops.operators"] += ops
                counts["qops.coeff_bytes"] += nbytes
            return coefficients, True
        if layer == "regime":
            def checks(counts, args, kwargs, result):
                counts["regime.checks"] += _regime_checks(result)
            return checks, True
        if layer == "cli" and name in _CLI_WRITERS:
            def written(counts, args, kwargs, result):
                counts["cli.files_written"] += 1
                counts["cli.bytes_written"] += os.path.getsize(args[0])
            return written, False
        return None, False

    # -- reduction ---------------------------------------------------------

    def mark(self) -> int:
        """Position to pass to layer_metrics; also clears the counters."""
        self.counts.clear()
        return len(self.spans)

    def layer_metrics(self, first: int) -> dict:
        """Per-layer metrics of the spans recorded since mark() returned first."""
        spans = self.spans[first:]
        child = Counter()
        for sp in spans:
            if sp[PARENT] >= first:
                child[sp[PARENT]] += sp[END] - sp[START]
        m = Counter()
        for layer in LAYERS:
            for key in ("calls", "busy_s", "self_s", "errors"):
                m[f"{layer}.{key}"] = 0
        for i, sp in enumerate(spans, start=first):
            layer, name = sp[LAYER], sp[NAME]
            dur = sp[END] - sp[START]
            m[f"{layer}.calls"] += 1
            m[f"{layer}.self_s"] += dur - child[i]
            m[f"{layer}.errors"] += int(sp[ERROR])
            for metric in _NAMED_TIMES.get((layer, name), ()):
                m[metric] += dur
            if layer == "propagator" and name.startswith("short_propagator_"):
                kind = name.rsplit("_", 1)[1]
                m[f"propagator.{kind}_calls"] += 1
            elif layer == "modes" and name == "hermite_gauss_eval":
                m["modes.eval_calls"] += 1
            elif layer == "cli" and name.startswith("_analysis_"):
                m["cli.analysis_calls"] += 1
            if not sp[OUTER]:
                continue
            m[f"{layer}.busy_s"] += dur
            if layer == "dynamics":
                m["dynamics.maps"] += 1
                if "increment" in name:
                    m["dynamics.increment_s"] += dur
        m.update(self.counts)
        m["pointgas.bytes_computed"] = 24 * m["pointgas.atoms"]
        m["trace.spans"] = len(spans)
        return dict(m)

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["layer", "name", "start", "end", "parent",
                             "error"])
            for sp in self.spans:
                writer.writerow([sp[LAYER], sp[NAME], repr(sp[START]),
                                 repr(sp[END]), sp[PARENT], int(sp[ERROR])])


_NAMED_TIMES = {
    ("propagator", "short_propagator_quadrature"): ("propagator.quadrature_s",),
    ("propagator", "short_propagator_closed"): ("propagator.closed_s",),
    ("pointgas", "spawn_rngs"): ("pointgas.seed_s",),
    ("pointgas", "make_rng"): ("pointgas.seed_s",),
    ("pointgas", "sample_cloud"): ("pointgas.sample_s",),
    ("pointgas", "density_correlation"): ("pointgas.sum_s",),
    ("qops", "stokes_first_order"): ("qops.s1_s",),
    ("qops", "stokes_second_order_terms"): ("qops.s2_s",),
    ("qops", "stokes_field"): ("qops.field_s",),
    ("qops", "spin_first_order"): ("qops.spin_s",),
    ("qops", "spin_second_order_A_single_mode"): ("qops.spin_s",),
    ("qops", "spin_second_order_B"): ("qops.spin_s",),
    ("qops", "spin_incoherent_rate"): ("qops.spin_s",),
    ("modes", "hermite_gauss_eval"): ("modes.eval_s",),
    ("modes", "overlap_field"): ("modes.overlap_s",),
}

# Metrics every traced run reports, in the order BENCHMARK.json lists them.
PER_LAYER = [f"{layer}.{key}" for layer in LAYERS
             for key in ("calls", "busy_s", "self_s", "errors", "share")] + [
    "propagator.quadrature_calls", "propagator.quadrature_s",
    "propagator.closed_calls", "propagator.closed_s",
    "propagator.nodes_evaluated",
    "pointgas.seed_s", "pointgas.sample_s", "pointgas.sum_s",
    "pointgas.clouds", "pointgas.atoms", "pointgas.bytes_computed",
    "qops.s1_s", "qops.s2_s", "qops.field_s", "qops.spin_s",
    "qops.operators", "qops.coeff_bytes",
    "modes.eval_calls", "modes.grid_points", "modes.eval_s", "modes.overlap_s",
    "dynamics.maps", "dynamics.increment_s",
    "cli.files_written", "cli.bytes_written", "cli.analysis_calls",
    "regime.checks",
    "trace.spans", "trace.overhead_s",
]


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".share"):
        return "fraction"
    if "bytes" in metric:
        return "B"
    return "count"

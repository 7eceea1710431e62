"""Outside-in layer tracing for the end-to-end benchmark.

The program has no spans of its own yet, so the benchmark times each
layer from outside: :meth:`Recorder.install` rebinds the layers' public
entry points to wrappers, and :meth:`Recorder.uninstall` puts every
original back.  A method is rebound on its class; a function on every
loaded ``repro.*`` and ``workloads.*`` module that holds it.

A span wrapper records ``(layer, start, end, parent span)`` in memory;
a layer's self time is its spans' durations minus their child spans.
Calls too hot for a span (one per trace record) get count-only
wrappers.  Work done inside pool worker processes cannot be seen from
the parent and lands in the self time of ``parallel``.

This module imports nothing from the program until ``install`` runs,
so the runner can use :func:`layer_metrics` without the program.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import Any, Callable

__all__ = ["Recorder", "PER_LAYER", "SPAN_LAYERS", "layer_metrics"]

#: (layer, target, attributes): a target is ``"module"`` for functions
#: or ``"module:Class"`` for methods
SPAN_POINTS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("workloads.gen", "repro.workloads.ior:IORWorkload", ("columnar", "trace")),
    ("workloads.gen", "repro.workloads.arrivals:OpenArrivalWorkload", ("trace",)),
    (
        "tracing.sort",
        "repro.tracing.columnar:ColumnarTrace",
        ("sorted_by_time", "sorted_by_offset"),
    ),
    ("tracing.sort", "repro.tracing.record:Trace", ("sorted_by_time",)),
    (
        "features",
        "repro.core.features",
        ("extract_features", "extract_features_columnar"),
    ),
    ("grouping", "repro.core.grouping", ("group_requests",)),
    ("reorganizer", "repro.core.reorganizer", ("reorganize", "reorganize_arrays")),
    ("determinator", "repro.core.determinator", ("determine_stripes",)),
    ("parallel", "repro.core.parallel", ("parallel_map",)),
    ("kvstore.put", "repro.kvstore.hashdb:HashDB", ("put",)),
    ("kvstore.load", "repro.core.pipeline", ("load_plan",)),
    ("drt.translate", "repro.core.drt:DRT", ("translate_many",)),
    ("redirector.premap", "repro.core.redirector:Redirector", ("merged_runs",)),
    ("placer", "repro.core.placer", ("place_regions",)),
    ("schemes.def", "repro.schemes.default:DEFScheme", ("build",)),
    ("schemes.aal", "repro.schemes.aal:AALScheme", ("build",)),
    ("schemes.harl", "repro.schemes.harl:HARLScheme", ("build",)),
    ("schemes.mha", "repro.schemes.mha:MHAScheme", ("build",)),
    ("schemes.saw", "repro.schemes.straggler:StragglerAwareScheme", ("build",)),
    ("pfs.replay", "repro.pfs.replay", ("replay_trace",)),
    ("pfs.flat", "repro.pfs.flat", ("replay_flat",)),
    ("simulate.run", "repro.simulate.engine:Simulator", ("run",)),
    ("faults.attach", "repro.faults.plan:FaultPlan", ("attach",)),
    ("tenancy.build", "repro.tenancy.shard", ("build_tenant",)),
    ("tenancy.merge", "repro.tenancy.admission", ("admission_offsets",)),
    ("tenancy.merge", "repro.tenancy.qos", ("token_bucket_release", "wfq_emission")),
    ("tenancy.serve", "repro.tenancy.service", ("serve_scenario",)),
)

SPAN_LAYERS: tuple[str, ...] = tuple(dict.fromkeys(p[0] for p in SPAN_POINTS))


def _arg(index: int, name: str) -> Callable[[tuple, dict], Any]:
    return lambda args, kwargs: args[index] if len(args) > index else kwargs[name]


#: layer -> (counter, amount(args, kwargs, result)) added per call
WORK: dict[str, tuple[str, Callable[[tuple, dict, Any], int]]] = {
    "workloads.gen": ("workloads.gen.requests", lambda a, k, r: len(r)),
    "features": ("features.requests", lambda a, k, r: len(_arg(0, "trace")(a, k))),
    "reorganizer": (
        "reorganizer.requests",
        lambda a, k, r: len(_arg(0, "trace")(a, k)),
    ),
    "determinator": ("determinator.candidates", lambda a, k, r: r.candidates),
    "parallel": ("parallel.items", lambda a, k, r: len(_arg(1, "items")(a, k))),
    "drt.translate": (
        "drt.translate.requests",
        lambda a, k, r: len(_arg(2, "offsets")(a, k)),
    ),
    "pfs.flat": ("pfs.flat.requests", lambda a, k, r: len(_arg(2, "ordered")(a, k))),
}

#: per-layer metric name -> unit, as the runner reports them
PER_LAYER: dict[str, str] = {
    "trace.wall_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
    **{f"{layer}.self_frac": "ratio" for layer in SPAN_LAYERS},
    "workloads.gen.requests": "count",
    "tracing.record.calls": "count",
    "features.requests": "count",
    "grouping.calls": "count",
    "reorganizer.requests": "count",
    "determinator.searches": "count",
    "determinator.candidates": "count",
    "parallel.calls": "count",
    "parallel.items": "count",
    "parallel.pools": "count",
    "parallel.exit_errors": "count",
    "kvstore.puts": "count",
    "drt.translate.requests": "count",
    "drt.lru_lookups": "count",
    "drt.lru_hit_ratio": "ratio",
    "schemes.aal.builds": "count",
    "pfs.replays": "count",
    "pfs.flat.requests": "count",
    "pfs.flat_ratio": "ratio",
    "tenancy.builds": "count",
}

#: call counts reported under another name
_CALL_COUNTERS = {
    "grouping.calls": "grouping",
    "determinator.searches": "determinator",
    "parallel.calls": "parallel",
    "kvstore.puts": "kvstore.put",
    "schemes.aal.builds": "schemes.aal",
    "pfs.replays": "pfs.replay",
    "tenancy.builds": "tenancy.build",
}

#: a function is rebound wherever these packages hold it by name: the
#: program's modules and the benchmark's own workload modules
_SCANNED_PACKAGES = ("repro", "workloads")


class Recorder:
    """Spans and counters of one traced call; rebinding and restoring."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: Counter[str] = Counter()
        self.bindings: list[tuple[Any, str, Any]] = []
        self._stack: list[int] = []
        self._drts: list[Any] = []

    # -- wrappers -------------------------------------------------------

    def _span(self, layer: str, fn: Callable) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters
        work = WORK.get(layer)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append((layer, 0.0, 0.0, parent))
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (layer, start, end, parent)
            counters[layer] += 1
            # when a call of this layer wraps another (an arrival workload
            # around an IOR one), only the outer call counts the work
            if work is not None and not (parent >= 0 and spans[parent][0] == layer):
                counters[work[0]] += work[1](args, kwargs, result)
            return result

        return wrapper

    def _count(self, counter: str, fn: Callable) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _keep_drt(self, fn: Callable) -> Callable:
        drts = self._drts

        @functools.wraps(fn)
        def wrapper(self: Any, *args: Any, **kwargs: Any) -> None:
            fn(self, *args, **kwargs)
            drts.append(self)

        return wrapper

    # -- rebinding ------------------------------------------------------

    def _rebind(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        self.bindings.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _rebind_method(self, target: str, attr: str, make: Callable) -> None:
        module, _, cls_name = target.partition(":")
        cls = getattr(importlib.import_module(module), cls_name)
        original = cls.__dict__[attr]
        self._rebind(cls, attr, original, make(original))

    def _rebind_function(
        self, modules: list[Any], target: str, attr: str, make: Callable
    ) -> None:
        original = getattr(importlib.import_module(target), attr)
        wrapper = make(original)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._rebind(module, name, original, wrapper)

    def install(self) -> None:
        """Rebind every entry point; call :meth:`uninstall` afterwards."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and name.partition(".")[0] in _SCANNED_PACKAGES
        ]
        for layer, target, attrs in SPAN_POINTS:
            for attr in attrs:

                def make(fn: Callable, layer: str = layer) -> Callable:
                    return self._span(layer, fn)

                if ":" in target:
                    self._rebind_method(target, attr, make)
                else:
                    self._rebind_function(modules, target, attr, make)
        self._rebind_method(
            "repro.tracing.columnar:ColumnarTrace",
            "record",
            lambda fn: self._count("tracing.record.calls", fn),
        )
        self._rebind_method("repro.core.drt:DRT", "__init__", self._keep_drt)
        # a pool is spawned exactly where parallel_map constructs one
        self._rebind_function(
            modules,
            "repro.core.parallel",
            "ProcessPoolExecutor",
            lambda fn: self._count("parallel.pools", fn),
        )

    def uninstall(self) -> None:
        """Restore every rebound attribute to its original object."""
        while self.bindings:
            owner, attr, original = self.bindings.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def summary(self, wall_s: float) -> dict[str, Any]:
        """Spans (relative to the first), counters and per-layer self
        time, as JSON-ready data."""
        self_s: Counter[str] = Counter()
        for layer, start, end, _ in self.spans:
            self_s[layer] += end - start
        for _, start, end, parent in self.spans:
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        top = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        counters = dict(self.counters)
        counters["drt.lru_hits"] = sum(d.cache_hits for d in self._drts)
        counters["drt.lru_lookups"] = counters["drt.lru_hits"] + sum(
            d.cache_misses for d in self._drts
        )
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "wall_s": wall_s,
            "top_level_s": top,
            "self_s": {layer: self_s.get(layer, 0.0) for layer in SPAN_LAYERS},
            "counters": counters,
            "spans": [
                [layer, start - origin, end - origin, parent]
                for layer, start, end, parent in self.spans
            ],
        }


def layer_metrics(
    summary: dict[str, Any], untraced_wall_s: float, exit_errors: int
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced sample's summary.

    ``untraced_wall_s`` is the median wall time of the untraced samples,
    at the traced sample's host speed (the base of
    ``trace.overhead_frac``); ``exit_errors`` counts the
    run's samples whose stderr held ``Exception ignored``.
    """
    wall = summary["wall_s"]
    counters = summary["counters"]

    def count(name: str) -> int:
        return int(counters.get(name, 0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {
        "trace.wall_s": wall,
        "trace.coverage": ratio(summary["top_level_s"], wall),
        "trace.overhead_frac": ratio(wall, untraced_wall_s) - 1.0,
        "trace.spans": len(summary["spans"]),
    }
    for layer, seconds in summary["self_s"].items():
        out[f"{layer}.self_frac"] = ratio(seconds, wall)
    for name, unit in PER_LAYER.items():
        if name not in out and unit == "count":
            out[name] = count(_CALL_COUNTERS.get(name, name))
    out["parallel.exit_errors"] = exit_errors
    out["drt.lru_hit_ratio"] = ratio(count("drt.lru_hits"), count("drt.lru_lookups"))
    out["pfs.flat_ratio"] = ratio(count("pfs.flat"), count("pfs.replay"))
    return {name: out[name] for name in PER_LAYER}

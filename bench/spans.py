"""In-memory spans around the calls into each layer of ``macwtfb``.

The wrappers live here, not in the package: :func:`install` replaces a
function on every name its callers look up (module globals of every loaded
``macwtfb`` module, and function tables such as ``cli._GAUSSIAN_REGION_FNS``)
and returns a handle that puts the originals back.

``bench/README.md`` maps each layer to the end-to-end metric it should move
and the workload that exercises it.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time

# (span name, functions it wraps as (module, attribute)).
LAYERS = (
    ("cli.main", (("macwtfb.cli", "main"),)),
    ("channels.load_channel", (("macwtfb.channels", "load_channel"),)),
    ("channels.info_quantities", (("macwtfb.channels", "info_quantities"),)),
    ("info.mutual_information", (("macwtfb.info", "mutual_information"),)),
    ("info.conditional_entropy", (("macwtfb.info", "conditional_entropy"),)),
    ("discrete.search_inner", (("macwtfb.discrete", "search_inner"),)),
    ("discrete.search_outer", (("macwtfb.discrete", "search_outer"),)),
    ("regions.region_from_halfspaces", (("macwtfb.regions", "region_from_halfspaces"),)),
    ("regions.hull_of_regions", (("macwtfb.regions", "hull_of_regions"),)),
    ("regions.is_subset", (("macwtfb.regions", "is_subset"),)),
    ("regions.boundary_samples", (("macwtfb.regions", "boundary_samples"),)),
    ("gaussian.regions", (
        ("macwtfb.gaussian", "gaussian_df_region"),
        ("macwtfb.gaussian", "gaussian_hybrid_region"),
        ("macwtfb.gaussian", "tekin_yener_region"),
        ("macwtfb.gaussian", "gaussian_outer_region"),
    )),
    ("power.sweep", (("macwtfb.power", "sweep"),)),
    ("power.optimal_power", (("macwtfb.power", "optimal_power"),)),
    ("fm.verify_hybrid_region_projection", (("macwtfb.fm", "verify_hybrid_region_projection"),)),
    ("fm.rate_splitting_system", (("macwtfb.fm", "rate_splitting_system"),)),
    ("fm.project_to", (("macwtfb.fm", "project_to"),)),
    ("fm.exact_vertices", (("macwtfb.fm", "exact_vertices"),)),
)

_SPAN_METRICS = (("calls", "count"), ("s", "s"), ("self_s", "s"), ("errors", "count"))
_EXTRA_METRICS = (
    ("startup.import_s", "s"),
    ("discrete.search_inner.kept_ratio", "ratio"),
    ("discrete.df_outside_hybrid", "count"),
    ("trace.wall_s", "s"),
    ("trace.unspanned_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}.{suffix}": unit for name, _ in LAYERS for suffix, unit in _SPAN_METRICS}
    units.update(_EXTRA_METRICS)
    return units


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    error: bool = False


class Recorder:
    """Collects spans and counters of one traced round."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` recording one span per call; ``on_return(recorder, args,
        kwargs, result)`` runs after a successful call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self.clock(), parent=self._open[-1] if self._open else None)
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = self.clock()
                self._open.pop()
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return wrapper

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount


def write_json(spans: list[Span], path) -> None:
    """The spans as a JSON list of {name, start, end, parent, error}."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([dataclasses.asdict(span) for span in spans], fh)


def covered_length(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start) - covered_length(children.get(i, ()), span.start, span.end)
        for i, span in enumerate(spans)
    ]


def layer_metrics(recorder: Recorder, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced round that took ``wall`` seconds.

    A span's ``.s`` is inclusive time, counted once when the same layer is
    re-entered below itself.  ``trace.unspanned_s`` is the part of ``wall``
    outside every span, so the self times plus it add up to ``wall``.
    """
    spans = recorder.spans
    metrics = {f"{name}.{suffix}": 0 for name, _ in LAYERS for suffix, _ in _SPAN_METRICS}
    selfs = self_times(spans)
    for i, (span, self_s) in enumerate(zip(spans, selfs)):
        metrics[f"{span.name}.calls"] += 1
        metrics[f"{span.name}.self_s"] += self_s
        metrics[f"{span.name}.errors"] += span.error
        if not _has_ancestor_named(spans, i, span.name):
            metrics[f"{span.name}.s"] += span.end - span.start
    found = recorder.counters.get("discrete.search_inner.found", 0.0)
    kept = recorder.counters.get("discrete.search_inner.kept", 0.0)
    metrics["discrete.search_inner.kept_ratio"] = kept / found if found else 0.0
    metrics["trace.wall_s"] = wall
    metrics["trace.unspanned_s"] = wall - sum(selfs)
    return metrics


def _has_ancestor_named(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def _count_inner_candidates(search_inner):
    signature = inspect.signature(search_inner)

    def on_return(recorder, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        # search_inner keeps the nondominated subset of 3 candidates per |U|.
        recorder.count("discrete.search_inner.found", 3 * bound.arguments["config"].u_cardinality_max)
        recorder.count("discrete.search_inner.kept", len(result.candidates))

    return on_return


class Installed:
    """Wrappers in place; :meth:`remove` restores every replaced name."""

    def __init__(self):
        self._undo: list[tuple[dict, str, object]] = []

    def replace(self, table: dict, key: str, value) -> None:
        self._undo.append((table, key, table[key]))
        table[key] = value

    def remove(self) -> None:
        while self._undo:
            table, key, original = self._undo.pop()
            table[key] = original


def install(recorder: Recorder) -> Installed:
    """Wrap every layer function on each name a ``macwtfb`` module calls it by."""
    installed = Installed()
    tables = [
        table
        for module_name, module in list(sys.modules.items())
        if module_name == "macwtfb" or module_name.startswith("macwtfb.")
        for table in _name_tables(vars(module))
    ]
    for name, targets in LAYERS:
        for module_name, attribute in targets:
            original = getattr(importlib.import_module(module_name), attribute)
            on_return = _count_inner_candidates(original) if name == "discrete.search_inner" else None
            wrapper = recorder.wrap(name, original, on_return)
            for table in tables:
                for key, value in list(table.items()):
                    if value is original:
                        installed.replace(table, key, wrapper)
    return installed


def _name_tables(namespace: dict) -> list[dict]:
    """A module's globals plus the dicts among them (dispatch tables)."""
    return [namespace] + [value for value in namespace.values() if isinstance(value, dict)
                          and value is not namespace]

"""Span tracing from outside the program.

The traced run wraps the public entry point of every measured layer and
records one span per call: name, wall start/end, the calling thread's CPU
time, the parent span that was open on the same thread, and a context id
(the day, build or request the call served).  Wrappers are installed at
every place the name is bound inside ``repro``: module globals that
imported it, keyword defaults that captured it, and dispatch tables such
as ``SolverSession._MIGRATORS``.  Spans stay in memory and are written
out when the run ends; :func:`summarize` turns them into per-name totals
and self times (a span's duration minus the part its children cover).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import threading
import time
import weakref

from repro.runtime import instrument

#: (module, attribute, span name) for plain functions
FUNCTIONS = (
    ("repro.sim.engine", "simulate_day", "sim.simulate_day"),
    ("repro.core.migration", "mpareto_migration", "migration.mpareto"),
    ("repro.core.replication", "replication_step", "replication.step"),
    ("repro.core.placement", "dp_placement", "placement"),
    ("repro.graphs.metric_closure", "metric_closure", "graphs.metric_closure"),
    ("repro.faults.degrade", "degrade", "faults.degrade"),
    ("repro.faults.repair", "evacuate", "faults.evacuate"),
)

#: (module, class, method, span name) for methods, wrapped on the class
#: that defines them
METHODS = (
    ("repro.sim.policies", "MParetoPolicy", "step", "sim.step"),
    ("repro.sim.policies", "TomReplicationPolicy", "step", "sim.step"),
    ("repro.workload.dynamics", "RedrawnRates", "rates_at", "workload.rates_at"),
    ("repro.core.stroll", "StrollEngine", "batch_solve", "stroll.batch_solve"),
    ("repro.session", "SolverSession", "apply", "session.apply"),
    ("repro.session", "SolverSession", "solve", "session.solve"),
    ("repro.session", "SolverSession", "place_many", "session.place_many"),
)

#: span name -> the work one call did, read from its arguments (summed
#: per name by :func:`summarize`): ``batch_solve`` solves every source
SIZES = {
    "stroll.batch_solve": lambda args: args[0].m,
}


class Span:
    __slots__ = ("name", "start", "end", "cpu", "parent", "ctx", "child_cpu", "size")

    def __init__(self, name, start, parent, ctx):
        self.name = name
        self.start = start
        self.end = start
        self.cpu = 0.0
        self.parent = parent
        self.ctx = ctx
        self.child_cpu = 0.0
        self.size = 0


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: id of the day/build the harness is running (read at span entry)
        self.context = None
        #: id(FlowSet) -> request id, so spans inside serve's solver
        #: threads carry the request they answer
        self.request_ids: dict[int, int] = {}
        self.keep: list = []
        self._local = threading.local()
        self._undo: list = []

    # -- recording -------------------------------------------------------------

    def _resolve_ctx(self, args):
        if len(args) > 1:
            first = args[1]
            if isinstance(first, list) and first:
                first = first[0]
            found = self.request_ids.get(id(first))
            if found is not None:
                return found
        return self.context

    def wrap(self, name, fn, split_on=None):
        """``fn`` wrapped in a span.

        With ``split_on`` (a program counter), the span is named
        ``<name>.cold`` when the call moved that counter and
        ``<name>.warm`` when it did not.
        """
        local = self._local
        spans = self.spans
        size = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            ctx = parent.ctx if parent is not None else self._resolve_ctx(args)
            span = Span(name, time.perf_counter(), parent, ctx)
            if size is not None:
                span.size = size(args)
            spans.append(span)
            stack.append(span)
            before = instrument.counters().get(split_on, 0) if split_on else 0
            c0 = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                span.cpu = time.thread_time() - c0
                span.end = time.perf_counter()
                stack.pop()
                if split_on:
                    moved = instrument.counters().get(split_on, 0) > before
                    span.name = f"{name}.{'cold' if moved else 'warm'}"

        return traced

    def record(self, name, start, end, ctx, cpu=0.0) -> None:
        """Add a span measured by the caller (e.g. a request's wall latency)."""
        span = Span(name, start, None, ctx)
        span.end = end
        span.cpu = cpu
        self.spans.append(span)

    # -- patching --------------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        """Point every binding of ``original`` at ``wrapper``.

        Covers repro's modules and the benchmark's own ``workloads``
        module, which imports the entry points it drives.
        """
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not (name.startswith("repro") or name == "workloads"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append(("attr", module, attr, original))
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    for table in vars(value).values():
                        if isinstance(table, dict):
                            for key, entry in list(table.items()):
                                if entry is original:
                                    table[key] = wrapper
                                    self._undo.append(("item", table, key, original))
                if callable(value) and not isinstance(value, type):
                    inner = inspect.unwrap(value)
                    defaults = getattr(inner, "__kwdefaults__", None)
                    if defaults:
                        for key, entry in list(defaults.items()):
                            if entry is original:
                                defaults[key] = wrapper
                                self._undo.append(("item", defaults, key, original))

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span_name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            # a placement is cold when it had to build a stroll matrix
            split_on = "stroll_matrix_builds" if span_name == "placement" else None
            self._rebind(original, self.wrap(span_name, original, split_on))
        for module_name, cls_name, method, span_name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self.wrap(span_name, original))
            self._undo.append(("attr", cls, method, original))
        self._install_apsp()

    def _install_apsp(self) -> None:
        """Span the *first* ``graph.distances`` of each graph (the APSP solve)."""
        from repro.graphs.adjacency import CostGraph

        prop = CostGraph.__dict__["distances"]
        seen: weakref.WeakSet = weakref.WeakSet()
        first = self.wrap("graphs.apsp", prop.fget)

        def fget(graph):
            if graph in seen:
                return prop.fget(graph)
            seen.add(graph)
            return first(graph)

        CostGraph.distances = property(fget, doc=prop.__doc__)
        self._undo.append(("attr", CostGraph, "distances", prop))

    def uninstall(self) -> None:
        for kind, owner, key, original in reversed(self._undo):
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original
        self._undo.clear()

    # -- output ----------------------------------------------------------------

    def dump(self, path) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "cpu": s.cpu,
                "parent": index.get(id(s.parent)) if s.parent is not None else None,
                "ctx": s.ctx,
                "size": s.size,
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def summarize(spans) -> dict:
    """Per span name: calls, total and self CPU seconds, median call, work size."""
    for span in spans:
        span.child_cpu = 0.0
    for span in spans:
        if span.parent is not None:
            span.parent.child_cpu += span.cpu
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    return {
        name: {
            "calls": len(group),
            "total_s": sum(s.cpu for s in group),
            "self_s": sum(max(0.0, s.cpu - s.child_cpu) for s in group),
            "median_s": statistics.median(s.cpu for s in group),
            "size": sum(s.size for s in group),
        }
        for name, group in sorted(by_name.items())
    }

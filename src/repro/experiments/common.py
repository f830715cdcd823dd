"""Shared experiment infrastructure: results, scales, and the registry.

Every figure of the paper's evaluation section has one module here whose
``run(scale)`` regenerates it as an :class:`ExperimentResult` — a list of
rows (one per x-axis point) with one column per algorithm series, plus
free-form notes recording the qualitative checks (who wins, by how much).

Three scales are supported everywhere:

* ``smoke`` — seconds; used by the test suite.
* ``default`` — minutes on a laptop; used by ``pytest benchmarks/``.
* ``paper`` — the paper's fabric sizes (k=16, 20 replications); hours.
  Exact ("Optimal") series automatically degrade to restricted-exact or
  are skipped where the search is infeasible, and say so in the notes.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.errors import ReproError
from repro.runtime import instrument
from repro.runtime.executor import get_executor
from repro.runtime.resilience import (
    ResilienceConfig,
    TaskFailure,
    drain_failures,
    get_resilience,
    use_resilience,
)
from repro.utils.tables import rows_to_table
from repro.utils.timing import Timer

__all__ = [
    "SCALES",
    "ExperimentResult",
    "register",
    "get_experiment",
    "list_experiments",
    "map_points",
    "completed_only",
    "zip_completed",
    "accepts_workers",
    "run_experiment",
]

SCALES = ("smoke", "default", "paper")


@dataclass
class ExperimentResult:
    """One regenerated table/figure."""

    experiment: str
    description: str
    rows: list[dict]
    columns: list[str] | None = None
    notes: list[str] = field(default_factory=list)
    params: dict = field(default_factory=dict)

    def to_table(self) -> str:
        header = f"{self.experiment}: {self.description}"
        # dict-valued params (e.g. the runtime report) would swamp the
        # header; they stay in to_json and are rendered by --profile
        flat = {k: v for k, v in self.params.items() if not isinstance(v, dict)}
        if flat:
            header += "\nparams: " + ", ".join(
                f"{k}={v}" for k, v in sorted(flat.items())
            )
        body = rows_to_table(self.rows, columns=self.columns, title=header)
        if self.notes:
            body += "\n" + "\n".join(f"note: {note}" for note in self.notes)
        return body

    def to_dict(self) -> dict:
        """JSON-friendly view; inverse of :meth:`from_dict`.

        Nested solver results and fault states inside ``rows`` / ``params``
        are expected to already be in their own ``to_dict`` shapes
        (``{placement, cost, meta}`` / ``{failed_switches, ...}`` — the
        same schema :class:`~repro.serve.server.ServeResult` serializes),
        so experiment artifacts and serve traces share one reader.
        """
        return {
            "experiment": self.experiment,
            "description": self.description,
            "params": self.params,
            "rows": self.rows,
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        """Inverse of :meth:`to_dict` (columns are derived, not stored)."""
        return cls(
            experiment=str(data["experiment"]),
            description=str(data["description"]),
            rows=list(data["rows"]),
            notes=list(data.get("notes", [])),
            params=dict(data.get("params", {})),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, default=str)

    def column(self, name: str) -> list[Any]:
        return [row.get(name) for row in self.rows]

    def to_chart(self) -> str:
        """Sparkline chart of the numeric columns (see ``repro run --plot``).

        The first column is treated as the x axis; every other column
        whose values are numeric becomes a series.
        """
        from repro.utils.plotting import series_chart

        if not self.rows:
            return "(empty)"
        columns = list(self.rows[0].keys())
        x_name = columns[0]
        series = {}
        for name in columns[1:]:
            values = [row.get(name) for row in self.rows]
            # bool is an int subclass but True/False columns are flags,
            # not series — exclude them explicitly
            numeric = [
                float(v)
                if isinstance(v, (int, float)) and not isinstance(v, bool)
                else float("nan")
                for v in values
            ]
            if any(v == v for v in numeric):  # at least one non-NaN
                series[name] = numeric
        return series_chart(series, x_labels=self.column(x_name))


ExperimentFn = Callable[[str], ExperimentResult]

_REGISTRY: dict[str, tuple[str, ExperimentFn]] = {}


def register(name: str, description: str) -> Callable[[ExperimentFn], ExperimentFn]:
    """Decorator adding an experiment to the global registry."""

    def deco(fn: ExperimentFn) -> ExperimentFn:
        if name in _REGISTRY:
            raise ReproError(f"experiment {name!r} registered twice")
        _REGISTRY[name] = (description, fn)
        return fn

    return deco


def get_experiment(name: str) -> ExperimentFn:
    try:
        return _REGISTRY[name][1]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ReproError(f"unknown experiment {name!r}; known: {known}") from None


def list_experiments() -> Mapping[str, str]:
    """Name -> description of every registered experiment."""
    return {name: desc for name, (desc, _fn) in sorted(_REGISTRY.items())}


def check_scale(scale: str) -> str:
    if scale not in SCALES:
        raise ReproError(f"scale must be one of {SCALES}, got {scale!r}")
    return scale


def map_points(
    fn: Callable[[Any], Any],
    points: Sequence[Any],
    workers: int = 1,
    resilience: ResilienceConfig | None = None,
) -> list[Any]:
    """Map a sweep function over its points, optionally across processes.

    The shared fan-out helper for experiment modules: ``fn`` receives one
    point spec and returns that point's result; results come back in
    point order regardless of ``workers``, and for ``workers > 1`` both
    ``fn`` and every point must be picklable (module-level function,
    tuple/dataclass specs).  Each point must be self-contained — sweeps
    that thread state between points cannot fan out.

    ``resilience`` overrides the active execution policy (retries,
    timeouts, journal, chaos).  Under its ``skip`` failure policy a point
    that exhausts its retries yields its
    :class:`~repro.runtime.resilience.TaskFailure` in place of a result —
    use :func:`completed_only` / :func:`zip_completed` to degrade
    gracefully while keeping point alignment.
    """
    with get_executor(workers, resilience) as executor:
        return executor.map(fn, list(points))


def completed_only(results: Sequence[Any]) -> list[Any]:
    """Results with skipped :class:`TaskFailure` placeholders removed."""
    return [result for result in results if not isinstance(result, TaskFailure)]


def zip_completed(points: Sequence[Any], results: Sequence[Any]) -> list[tuple]:
    """Pair each sweep point with its result, dropping skipped failures.

    Keeps point/result alignment intact under ``--on-failure=skip``:
    because :func:`map_points` preserves positions (a failed point holds
    a placeholder rather than vanishing), zipping then filtering can
    never mispair a point with a neighbouring point's result.
    """
    return [
        (point, result)
        for point, result in zip(points, results)
        if not isinstance(result, TaskFailure)
    ]


def accepts_workers(fn: Callable) -> bool:
    """Whether an experiment function takes a ``workers`` keyword."""
    try:
        return "workers" in inspect.signature(fn).parameters
    except (TypeError, ValueError):  # builtins / odd callables
        return False


def run_experiment(
    name: str,
    scale: str = "default",
    workers: int = 1,
    resilience: ResilienceConfig | None = None,
) -> ExperimentResult:
    """Run a registered experiment with instrumentation and resilience.

    Resets the process instrumentation (counters, phase timers, cache
    statistics), installs the execution policy (``resilience`` or the
    active one) scoped to ``name@scale`` — so an attached checkpoint
    journal keys its fingerprints to this run — runs the experiment,
    passing ``workers`` through when the experiment supports it, and
    attaches the runtime report (worker count, per-phase wall time, cache
    hit rates, retry/salvage/resume counters, speedup, and any skipped
    tasks under ``"failures"``) as ``result.params["runtime"]``.  This is
    what ``repro run`` executes; ``--profile`` prints the attached report.
    """
    fn = get_experiment(name)
    # experiments that haven't adopted the executor yet just run serially
    effective_workers = workers if accepts_workers(fn) else 1
    instrument.reset()
    drain_failures()  # drop leftovers from any earlier, unreported run
    policy = resilience if resilience is not None else get_resilience()
    timer = Timer()
    with use_resilience(policy.scoped(f"{name}@{scale}")):
        with timer:
            if accepts_workers(fn):
                result = fn(scale, workers=effective_workers)
            else:
                result = fn(scale)
    report = instrument.report(workers=effective_workers, elapsed=timer.last)
    report["failures"] = [failure.to_dict() for failure in drain_failures()]
    result.params["runtime"] = report
    return result

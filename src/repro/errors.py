"""Exception hierarchy for :mod:`repro`.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch the whole family with one clause
while still being able to distinguish configuration mistakes from
infeasible problem instances.
"""

from __future__ import annotations

import builtins


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """A graph is malformed or an operation references unknown nodes."""


class TopologyError(ReproError):
    """A topology builder received inconsistent or unsupported parameters."""


class WorkloadError(ReproError):
    """A workload (flows, traffic model, SFC) is inconsistent."""


class PlacementError(ReproError):
    """A VNF placement is infeasible or violates the distinctness rule."""


class MigrationError(ReproError):
    """A VNF/VM migration request cannot be satisfied."""


class FaultError(ReproError):
    """A fault-injection request is malformed or unsupported.

    Raised by the :mod:`repro.faults` layer for invalid fault
    configurations and by policies that cannot run under a fault-aware
    simulation (the VM-migration baselines keep per-host capacity state
    that has no defined semantics when hosts die mid-day).
    """


class ConstraintError(ReproError):
    """A :class:`~repro.constraints.Constraints` object is malformed.

    Raised eagerly at construction time (zero or negative capacities,
    non-finite bounds, negative occupancy) — a malformed constraint set
    is a configuration mistake, distinct from a well-formed but
    unsatisfiable instance (:class:`InfeasibleError`).
    """


class InfeasibleError(ReproError):
    """The problem instance admits no feasible solution.

    Raised, for example, when an SFC has more VNFs than there are switches,
    or when a min-cost-flow instance cannot route the required amount.

    ``diagnosis`` optionally carries a JSON-friendly dict explaining *why*
    the instance is infeasible (the fault-aware simulator fills it with
    the failed-switch set, surviving component and the hour it happened,
    so an experiment sweep can report the event instead of crashing).
    """

    def __init__(self, message: str, *, diagnosis: dict | None = None) -> None:
        super().__init__(message)
        #: structured explanation of the infeasibility (may be empty)
        self.diagnosis: dict = diagnosis if diagnosis is not None else {}


class BudgetExceededError(ReproError):
    """An exact solver was asked to explore a search space beyond its guard.

    The exhaustive solvers (Algorithms 4 and 6 in the paper) are
    ``O(|V_s|^n)``; this error is raised instead of silently running for
    hours when the instance exceeds the configured node budget.
    """


class SolverError(ReproError):
    """An internal solver reached an inconsistent state (library bug)."""


class ShardError(ReproError):
    """The sharded day-loop layer cannot proceed (see :mod:`repro.shard`).

    Raised with a ``diagnosis`` dict naming the knob that would unblock
    the run: a shard whose block cannot fit the memory budget even after
    degrading to column strips, a supervisor whose shard exhausted its
    retry budget, or a plan/workload mismatch (e.g. streaming chunk size
    disagreeing with the shard plan's block size).
    """

    def __init__(self, message: str, *, diagnosis: dict | None = None) -> None:
        super().__init__(message)
        #: structured context for the failure (JSON-friendly)
        self.diagnosis = diagnosis or {}


class TaskError(ReproError):
    """A task failed inside an executor after exhausting its retry budget.

    Raised by the :mod:`repro.runtime.executor` layer when a mapped task
    keeps failing (or its worker process keeps dying) beyond the configured
    ``max_retries`` and the failure policy is ``"fail"``.  Unlike a plain
    re-raise, it carries the *worker-side* traceback text across the
    process boundary, plus which task failed and how many attempts it got.
    """

    def __init__(
        self,
        message: str,
        *,
        index: int | None = None,
        attempts: int | None = None,
        error: str = "",
        worker_traceback: str = "",
    ) -> None:
        super().__init__(message)
        #: position of the failed task in the mapped sequence
        self.index = index
        #: how many attempts the task was given before giving up
        self.attempts = attempts
        #: ``repr`` of the last attempt's error ("" if none)
        self.error = error
        #: formatted traceback captured in the worker process ("" if none)
        self.worker_traceback = worker_traceback


class TimeoutError(TaskError, builtins.TimeoutError):
    """A task exceeded its configured ``task_timeout``.

    Also derives from the builtin :class:`TimeoutError` so generic
    ``except TimeoutError`` handlers and the executor's timeout
    classification both catch it, whether the timeout was enforced by the
    parent (a hung worker) or injected by the chaos layer.
    """

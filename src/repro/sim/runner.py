"""Multi-seed experiment runner: the paper's "average of 20 runs, 95 % CI".

Every replication draws a fresh workload (VM pair placement, base rates,
cohort split, per-hour rate sequence) from an independent RNG stream,
computes one shared initial TOP placement, then runs *every* policy on
identical inputs — a paired design, so policy differences are never
workload noise.

Replications are independent by construction — each one's task spec
carries everything it needs (topology, traffic model, config, its
replication index) and derives its own random streams from the root seed
— so :func:`run_replications` fans them out across worker processes via
:mod:`repro.runtime.executor` when ``workers > 1``.  Serial and parallel
runs are bit-identical: same seed in, same :class:`ReplicationResult` s
out, regardless of ``workers``.  For parallel runs the policy factories
must be picklable (classes, ``functools.partial`` of classes, or
module-level functions — not lambdas).

Seed derivation (changed in PR 1, shifting figure outputs vs the seed
release): each replication's workload generator and its rate-process seed
are *separate spawned children* of the root
:class:`~numpy.random.SeedSequence` — previously the rate process reused
the ad-hoc ``seed * 100003 + rep``, which also seeded the cohort
assignment, so streams could collide across configurations.  See
:func:`repro.utils.rng.spawn_seed_sequences`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.errors import TaskError, WorkloadError
from repro.runtime.executor import get_executor
from repro.runtime.instrument import count
from repro.runtime.resilience import ResilienceConfig, TaskFailure
from repro.runtime.shm import (
    SharedArtifactRunner,
    export_session_artifacts,
    sharing_enabled,
)
from repro.session import SolverSession
from repro.sim.engine import DayResult, initial_placement, simulate_day
from repro.sim.policies import MigrationPolicy
from repro.topology.base import Topology
from repro.utils.rng import spawn_seed_sequences, spawn_seeds
from repro.utils.stats import ConfidenceInterval, summarize_runs
from repro.utils.timing import Timer
from repro.workload.diurnal import DiurnalModel, assign_cohorts, assign_cohorts_spatial
from repro.workload.dynamics import RateProcess, RedrawnRates, ScaledRates
from repro.workload.flows import FlowSet, place_vm_pairs
from repro.workload.traffic import TrafficModel

__all__ = ["RunConfig", "ReplicationResult", "run_replications"]

PolicyFactory = Callable[[Topology, float], MigrationPolicy]


@dataclass(frozen=True)
class RunConfig:
    """Parameters of a Fig. 11-style dynamic experiment.

    ``dynamics`` selects the hour-to-hour rate process (see
    :mod:`repro.workload.dynamics`): ``"redrawn"`` (default — per-flow
    churn every hour) or ``"scaled"`` (fixed base rates, diurnal scaling
    only).  ``cohorts`` selects the time-zone split: ``"random"`` (the
    literal 50/50 split) or ``"spatial"`` (east-coast flows occupy the
    first half of the racks).

    ``initial_placement`` selects where the day starts: ``"top-hour1"``
    runs Algorithm 3 on the first hour's rates (a warm start), while
    ``"hour0"`` draws an arbitrary distinct placement — the literal
    reading of the paper's framework, where TOP runs at hour 0 and Eq. 9
    gives ``τ_0 = 0``, so *every* placement ties as "initial optimal".
    The ``hour0`` mode is what makes the NoMigration baseline pay for its
    staleness (Fig. 11(c,d)); see EXPERIMENTS.md.
    """

    num_pairs: int
    num_vnfs: int
    mu: float
    intra_rack_fraction: float = 0.8
    diurnal: DiurnalModel = field(default_factory=DiurnalModel)
    cohorts: str = "random"
    cohort_offset_hours: float = 3.0
    dynamics: str = "redrawn"
    churn: float = 1.0
    initial_placement: str = "top-hour1"
    replications: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.cohorts not in ("random", "spatial"):
            raise WorkloadError(f"unknown cohorts mode {self.cohorts!r}")
        if self.dynamics not in ("redrawn", "scaled"):
            raise WorkloadError(f"unknown dynamics mode {self.dynamics!r}")
        if self.initial_placement not in ("top-hour1", "hour0"):
            raise WorkloadError(
                f"unknown initial_placement mode {self.initial_placement!r}"
            )


@dataclass(frozen=True)
class ReplicationResult:
    """One replication: the shared workload plus every policy's day."""

    flows: FlowSet
    placement: np.ndarray
    days: Mapping[str, DayResult]


def build_rate_process(
    topology: Topology,
    flows: FlowSet,
    traffic_model: TrafficModel,
    config: RunConfig,
    seed: int,
) -> RateProcess:
    """Assemble the configured rate process for one replication.

    ``seed`` is split into independent child seeds for the cohort
    assignment and the rate redraws, so the two streams never correlate.
    """
    cohort_seed, rates_seed = spawn_seeds(seed, 2)
    if config.cohorts == "spatial":
        offsets = assign_cohorts_spatial(
            topology, flows, offset_hours=config.cohort_offset_hours
        )
    else:
        offsets = assign_cohorts(
            flows.num_flows,
            offset_hours=config.cohort_offset_hours,
            seed=cohort_seed,
        )
    if config.dynamics == "scaled":
        return ScaledRates(flows, config.diurnal, offsets)
    return RedrawnRates(
        flows,
        config.diurnal,
        offsets,
        traffic_model,
        seed=rates_seed,
        churn=config.churn,
    )


@dataclass(frozen=True)
class _ReplicationTask:
    """Self-contained, picklable spec of one replication's work."""

    topology: Topology
    traffic_model: TrafficModel
    config: RunConfig
    rep: int
    policies: tuple[tuple[str, PolicyFactory], ...]


def _run_replication(task: _ReplicationTask) -> ReplicationResult:
    """Execute one replication (runs in the parent or a worker process)."""
    config = task.config
    topology = task.topology
    rep_seq = spawn_seed_sequences(config.seed, config.replications)[task.rep]
    workload_seq, process_seq = rep_seq.spawn(2)
    rng = np.random.default_rng(workload_seq)
    count("replications")
    with Timer.timed("replication"):
        flows = place_vm_pairs(
            topology,
            config.num_pairs,
            intra_rack_fraction=config.intra_rack_fraction,
            seed=rng,
        )
        flows = flows.with_rates(
            task.traffic_model.sample(config.num_pairs, rng=rng)
        )
        process = build_rate_process(
            topology,
            flows,
            task.traffic_model,
            config,
            seed=spawn_seeds(process_seq, 1)[0],
        )
        session = SolverSession(topology)
        if config.initial_placement == "hour0":
            # τ_0 = 0: every placement is TOP-optimal at hour zero, so the
            # day starts from an arbitrary one (seeded for reproducibility)
            placement = np.sort(
                rng.choice(topology.switches, size=config.num_vnfs, replace=False)
            )
        else:
            placement = initial_placement(
                topology, flows, config.num_vnfs, process, cache=session.cache
            )
        days: dict[str, DayResult] = {}
        for name, factory in task.policies:
            policy = factory(topology, config.mu)
            days[name] = simulate_day(
                topology, flows, policy, process, placement, session=session
            )
    return ReplicationResult(flows=flows, placement=placement, days=days)


def run_replications(
    topology: Topology,
    traffic_model: TrafficModel,
    config: RunConfig,
    policy_factories: Mapping[str, PolicyFactory],
    workers: int = 1,
    resilience: ResilienceConfig | None = None,
) -> tuple[list[ReplicationResult], dict[str, dict[str, ConfidenceInterval]]]:
    """Run all policies over ``config.replications`` paired workloads.

    ``workers > 1`` fans the replications out across processes (factories
    must then be picklable); results are bit-identical to ``workers=1``.
    ``resilience`` overrides the active execution policy (retries,
    timeouts, checkpoint journal, chaos — see
    :mod:`repro.runtime.resilience`); under its ``skip`` failure policy a
    replication that exhausts its retry budget stays in the returned list
    as its :class:`~repro.runtime.resilience.TaskFailure` record, and the
    confidence intervals summarize the surviving replications only.
    Returns the raw per-replication results and, per policy, confidence
    intervals over total cost, communication cost, migration cost and
    migration count.
    """
    policies = tuple(policy_factories.items())
    tasks = [
        _ReplicationTask(topology, traffic_model, config, rep, policies)
        for rep in range(config.replications)
    ]
    executor = get_executor(workers, resilience)
    fn = _run_replication
    export = None
    if executor.workers > 1 and sharing_enabled():
        # compute the per-topology artifacts once and hand workers
        # read-only shared-memory views instead of having each worker
        # re-derive them; tasks (and thus journal fingerprints) are
        # untouched, so resume stays bit-identical
        try:
            export = export_session_artifacts(
                topology, chain_sizes=(config.num_vnfs,)
            )
            fn = SharedArtifactRunner(_run_replication, export.shared)
        except Exception:
            export = None
            fn = _run_replication
    try:
        results = executor.map(fn, tasks)
    finally:
        executor.close()
        if export is not None:
            export.close()
    completed = [rep for rep in results if not isinstance(rep, TaskFailure)]
    if not completed:
        raise TaskError(
            f"all {config.replications} replications failed; "
            "nothing to summarize (see the recorded failures)"
        )

    summaries: dict[str, dict[str, ConfidenceInterval]] = {}
    for name in policy_factories:
        runs = [
            {
                "total_cost": rep.days[name].total_cost,
                "communication_cost": rep.days[name].total_communication_cost,
                "migration_cost": rep.days[name].total_migration_cost,
                "migrations": float(rep.days[name].total_migrations),
            }
            for rep in completed
        ]
        summaries[name] = summarize_runs(runs)
    return results, summaries

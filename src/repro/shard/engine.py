"""The sharded day loop: supervised per-block aggregation, exact books.

:func:`simulate_day_sharded` is the drop-in sharded counterpart of
:func:`repro.sim.engine.simulate_day` — same :class:`HourRecord` /
:class:`DayResult` surface, same policies, same fault-aware control flow
— with every per-flow reduction (attractions, ``Λ``, drop accounting,
replication serving) computed per block on the shared worker pool of
:mod:`repro.runtime.executor` and folded by the canonical ascending-block
left fold (:mod:`repro.shard.aggregate`).  The fold feeds an
:class:`~repro.core.costs.AggregatedFlows`, so every solver runs
unchanged; on single-block populations the day is byte-identical to the
unsharded loop, and at any scale it is bit-identical across shard
counts, worker kills, timeouts, retries and journal resumes — the
``verify.shard`` campaign family enforces both claims.

The policy is initialized once (first simulated hour) with the first
hour's aggregate — mirroring the classic loop's initialize-before-loop —
and re-bound to each later hour's aggregate via
:meth:`~repro.sim.policies.MigrationPolicy.rebind_flows`; every step
runs with ``rates=None`` because an aggregate already embeds its hour's
rates (``with_rates`` is the identity).

Interrupts (``KeyboardInterrupt``, and ``SIGTERM`` converted by
:func:`repro.sim.engine.deliver_interrupts`) end the day early but
cleanly: completed shard results are already flushed to the journal
record-by-record, and the partial :class:`DayResult` is returned with
``extra["interrupted"] = True`` — a later ``--resume`` salvages every
journalled shard byte-identically, mid-hour included.
"""

from __future__ import annotations

import numpy as np

from repro.core.costs import AggregatedFlows
from repro.errors import FaultError, InfeasibleError, ShardError
from repro.runtime.instrument import count
from repro.runtime.journal import Journal
from repro.runtime.resilience import ResilienceConfig
from repro.runtime.shm import content_fingerprint
from repro.sim.engine import DayResult, HourRecord, deliver_interrupts
from repro.sim.policies import MigrationPolicy
from repro.shard.aggregate import FoldedHour, fold_aggregates, fold_serving
from repro.shard.plan import ShardConfig, ShardPlan, stable_block_hash
from repro.shard.supervisor import ShardSupervisor
from repro.shard.worker import BlockPayload, ShardTask
from repro.topology.base import Topology
from repro.utils.timing import Timer
from repro.workload.diurnal import DiurnalModel
from repro.workload.dynamics import RateProcess
from repro.workload.flows import FlowSet
from repro.workload.stream import StreamingWorkload

__all__ = ["simulate_day_sharded", "initial_placement_sharded"]


class _DayRunner:
    """One sharded day's wiring: plan, supervisor, task builders, folds."""

    def __init__(
        self,
        topology: Topology,
        flows: FlowSet | StreamingWorkload,
        policy: MigrationPolicy,
        rate_process: RateProcess | None,
        config: ShardConfig,
        *,
        faults,
        diurnal: DiurnalModel | None,
        journal: Journal | None,
        resilience: ResilienceConfig | None = None,
    ) -> None:
        if not getattr(policy, "supports_sharding", False):
            raise ShardError(
                f"policy {policy.name!r} prices through per-flow/per-host "
                "state and cannot run sharded; run it unsharded",
                diagnosis={"policy": policy.name},
            )
        self.topology = topology
        self.policy = policy
        self.config = config
        self.streaming = isinstance(flows, StreamingWorkload)
        if self.streaming:
            self.stream: StreamingWorkload | None = flows
            self.flows: FlowSet | None = None
            self.diurnal = diurnal if diurnal is not None else (
                rate_process.diurnal if rate_process is not None else None
            )
            if self.diurnal is None:
                raise ShardError(
                    "streaming sharded days need a diurnal model "
                    "(pass diurnal= or a rate_process)"
                )
            self.plan = ShardPlan.for_stream(flows, config)
        else:
            self.stream = None
            self.flows = flows
            self.diurnal = None
            self.plan = ShardPlan.for_flows(flows, config)
        self.rate_process = rate_process

        # the journal scope is a content token of everything the day's
        # results depend on, so resumed fingerprints can only collide
        # with records computed from bit-identical inputs
        fault_spec = (
            None
            if faults is None
            else {"seed": faults.seed, "config": faults.config.to_dict()}
        )
        process_spec = self.diurnal if self.streaming else rate_process
        day_token = content_fingerprint(
            (topology, flows, process_spec, fault_spec, config.block_size)
        )
        self.supervisor = ShardSupervisor(
            config,
            scope=f"shard:{day_token[:16]}",
            journal=journal,
            resilience=resilience,
        )

    def close(self) -> None:
        self.supervisor.close()

    # -- task plumbing -------------------------------------------------------

    def hour_payloads(self, rates: np.ndarray | None):
        """Per-block ``BlockPayload`` table (materialized mode) or ``None``."""
        if self.streaming:
            return None
        flows = self.flows
        return {
            block.index: BlockPayload(
                sources=flows.sources[block.start : block.stop],
                destinations=flows.destinations[block.start : block.stop],
                rates=rates[block.start : block.stop],
            )
            for block in self.plan.blocks
        }

    def _tasks(
        self,
        hour: int,
        kind: str,
        payloads,
        dist_fields: dict,
        *,
        copies: np.ndarray | None = None,
        surviving_hosts: np.ndarray | None = None,
        park_host: int | None = None,
    ) -> list[ShardTask]:
        suffix = ""
        if copies is not None:
            suffix = f"|c{stable_block_hash(copies.tobytes()):016x}"
        tasks = []
        for shard, blocks in self.plan.shards():
            tasks.append(
                ShardTask(
                    key=f"h{hour}|{kind}|s{shard}{suffix}",
                    kind=kind,
                    hour=hour,
                    shard=shard,
                    blocks=blocks,
                    payloads=None
                    if payloads is None
                    else tuple(payloads[b.index] for b in blocks),
                    stream=self.stream,
                    diurnal=self.diurnal,
                    copies=copies,
                    surviving_hosts=surviving_hosts,
                    park_host=park_host,
                    mem_budget=self.config.mem_budget,
                    **dist_fields,
                )
            )
        return tasks

    def fold_hour(
        self,
        hour: int,
        payloads,
        dist_fields: dict,
        *,
        surviving_hosts: np.ndarray | None = None,
        park_host: int | None = None,
    ) -> FoldedHour:
        results = self.supervisor.run(
            self._tasks(
                hour,
                "agg",
                payloads,
                dist_fields,
                surviving_hosts=surviving_hosts,
                park_host=park_host,
            )
        )
        return fold_aggregates([results[b.index] for b in self.plan.blocks])

    def aggregated_flows(
        self,
        hour: int,
        folded: FoldedHour,
        payloads,
        dist_fields: dict,
        *,
        surviving_hosts: np.ndarray | None = None,
        park_host: int | None = None,
    ) -> AggregatedFlows:
        def serving_fn(copies: np.ndarray) -> float:
            copies = np.ascontiguousarray(np.asarray(copies, dtype=np.int64))
            results = self.supervisor.run(
                self._tasks(
                    hour,
                    "serve",
                    payloads,
                    dist_fields,
                    copies=copies,
                    surviving_hosts=surviving_hosts,
                    park_host=park_host,
                )
            )
            return fold_serving(
                [(b.index, results[b.index]) for b in self.plan.blocks]
            )

        return AggregatedFlows(
            num_flows=folded.num_flows,
            total_rate=folded.total_rate,
            ingress_attraction=folded.ingress,
            egress_attraction=folded.egress,
            serving_fn=serving_fn,
            meta={"hour": hour, "sharded": True},
        )


def simulate_day_sharded(
    topology: Topology,
    flows: FlowSet | StreamingWorkload,
    policy: MigrationPolicy,
    rate_process: RateProcess | None,
    placement: np.ndarray,
    hours: range | None = None,
    *,
    config: ShardConfig,
    session=None,
    faults=None,
    incremental: bool | None = None,
    journal: Journal | None = None,
    diurnal: DiurnalModel | None = None,
    resilience: ResilienceConfig | None = None,
    report: dict | None = None,
) -> DayResult:
    """Sharded counterpart of :func:`repro.sim.engine.simulate_day`.

    ``flows`` may be a materialized :class:`FlowSet` (with a
    ``rate_process``, exactly like the unsharded loop) or a
    :class:`StreamingWorkload` (workers regenerate their chunks; the
    parent never materializes the population — pass ``diurnal`` or a
    ``rate_process`` whose diurnal model applies).  ``resilience`` is
    the shard tasks' retry/timeout/chaos policy (``None`` = the active
    :func:`~repro.runtime.resilience.get_resilience`); the day's own
    ``journal``, a ``shard:<day token>`` scope and ``on_failure="fail"``
    override it.  ``report``, when given, receives the supervisor's
    counters (dispatches, retries, stalls, pool restarts, journal hits,
    degraded tasks).
    """
    from repro.sim.engine import incremental_enabled

    if incremental is None:
        incremental = incremental_enabled()
    runner = _DayRunner(
        topology,
        flows,
        policy,
        rate_process,
        config,
        faults=faults,
        diurnal=diurnal,
        journal=journal,
        resilience=resilience,
    )
    if hours is None:
        if rate_process is not None:
            hours = range(1, rate_process.diurnal.num_hours + 1)
        else:
            hours = range(1, runner.diurnal.num_hours + 1)
    try:
        if faults is not None:
            result = _run_faulty(
                runner, placement, hours, session=session, faults=faults,
                incremental=incremental,
            )
        else:
            result = _run_plain(
                runner, placement, hours, session=session, incremental=incremental,
            )
    finally:
        if report is not None:
            report.update(runner.supervisor.report)
        runner.close()
    return result


def _run_plain(
    runner: _DayRunner, placement, hours, *, session, incremental
) -> DayResult:
    policy = runner.policy
    healthy = runner.supervisor.dist_handle(
        "healthy", runner.topology.graph.distances
    )
    interrupted = False
    records: list[HourRecord] = []
    with Timer.timed("simulate_day_sharded"):
        if session is not None:
            policy.attach_session(session)
        first = True
        with deliver_interrupts():
            try:
                for hour in hours:
                    rates = (
                        None
                        if runner.streaming
                        else runner.rate_process.rates_at(hour)
                    )
                    payloads = runner.hour_payloads(rates)
                    folded = runner.fold_hour(hour, payloads, healthy)
                    agg = runner.aggregated_flows(hour, folded, payloads, healthy)
                    if incremental and session is not None and rates is not None:
                        # same pure epoch bump as the classic loop — nothing
                        # cached depends on rates, so skipping it in
                        # streaming mode changes no bits
                        session.advance(rates)
                    if first:
                        policy.initialize(agg, np.asarray(placement, dtype=np.int64))
                        first = False
                    else:
                        policy.rebind_flows(agg)
                    step = policy.step(None)
                    count("hours_simulated")
                    records.append(
                        HourRecord(
                            hour=hour,
                            communication_cost=step.communication_cost,
                            migration_cost=step.migration_cost,
                            num_migrations=step.num_migrations,
                            replication_cost=step.replication_cost,
                            sync_cost=step.sync_cost,
                            num_replications=step.num_replications,
                            num_replicas=step.num_replicas,
                        )
                    )
            except KeyboardInterrupt:
                interrupted = True
    extra = policy.day_extra()
    if interrupted:
        extra = dict(extra)
        extra["interrupted"] = True
    return DayResult(policy=policy.name, records=tuple(records), extra=extra)


def _run_faulty(
    runner: _DayRunner, placement, hours, *, session, faults, incremental
) -> DayResult:
    from repro.faults.degrade import degrade
    from repro.faults.repair import evacuate
    from repro.session import SolverSession

    policy = runner.policy
    topology = runner.topology
    if not policy.supports_faults:
        raise FaultError(
            f"policy {policy.name!r} does not support fault-aware simulation"
        )
    n = int(np.asarray(placement).size)
    healthy_distances = topology.graph.distances
    current = np.asarray(placement, dtype=np.int64).copy()
    records: list[HourRecord] = []
    fault_log: list[dict] = []
    views: dict = {}
    base_session = session
    if incremental and base_session is None:
        base_session = SolverSession(topology)
    interrupted = False
    first = True
    with Timer.timed("simulate_day_sharded_faulty"):
        with deliver_interrupts():
            try:
                for hour in hours:
                    state = faults.state_at(hour)
                    if state not in views:
                        if incremental:
                            views[state] = base_session.apply(state)
                        elif state.is_healthy:
                            healthy_session = (
                                session
                                if session is not None
                                else SolverSession(topology)
                            )
                            views[state] = (topology, None, healthy_session)
                        else:
                            degraded, audit = degrade(topology, state)
                            views[state] = (degraded, audit, SolverSession(degraded))
                    view, audit, view_session = views[state]
                    rates = (
                        None
                        if runner.streaming
                        else runner.rate_process.rates_at(hour)
                    )
                    if incremental and rates is not None:
                        view_session.advance(rates)

                    live_switches = (
                        audit.surviving_switches
                        if audit is not None
                        else topology.switches
                    )
                    if live_switches.size < n:
                        raise InfeasibleError(
                            f"hour {hour}: only {live_switches.size} surviving "
                            f"switches for a chain of {n} VNFs",
                            diagnosis={
                                "reason": "too_few_surviving_switches",
                                "hour": hour,
                                "num_vnfs": n,
                                "surviving_switches": live_switches.tolist(),
                                "failed_switches": list(state.failed_switches),
                                "components": [list(c) for c in audit.components]
                                if audit is not None
                                else [],
                            },
                        )

                    # 1. forced repair (identical to the unsharded loop:
                    # replica pruning, evacuation, μ-priced distance)
                    replica_rows = policy.replica_rows
                    lost_replicas: list[list[int]] = []
                    if (
                        replica_rows is not None
                        and replica_rows.shape[0]
                        and audit is not None
                    ):
                        live_set = {int(s) for s in live_switches.tolist()}
                        keep = [
                            r
                            for r in range(replica_rows.shape[0])
                            if all(int(s) in live_set for s in replica_rows[r])
                        ]
                        lost_replicas = [
                            [int(s) for s in replica_rows[r]]
                            for r in range(replica_rows.shape[0])
                            if r not in keep
                        ]
                        replica_rows = replica_rows[keep]
                    plan = evacuate(
                        current,
                        live_switches,
                        healthy_distances,
                        diagnosis={"hour": hour},
                        replica_rows=replica_rows,
                    )
                    current = np.asarray(plan.placement, dtype=np.int64)
                    repair_cost = policy.mu * plan.distance
                    if replica_rows is not None:
                        policy.force_replicas(plan.replica_rows)

                    # 2. drop + park, worker-side: each block applies the
                    # surviving-host mask, parks dead endpoints, zeroes
                    # their rates, and aggregates against the degraded APSP
                    live_hosts = (
                        audit.surviving_hosts
                        if audit is not None
                        else topology.hosts
                    )
                    park_host = int(
                        live_hosts[0] if live_hosts.size else topology.hosts[0]
                    )
                    state_key = "healthy" if audit is None else f"state:{state!r}"
                    dist_fields = runner.supervisor.dist_handle(
                        state_key, view.graph.distances
                    )
                    payloads = runner.hour_payloads(rates)
                    surviving = audit.surviving_hosts if audit is not None else None
                    folded = runner.fold_hour(
                        hour,
                        payloads,
                        dist_fields,
                        surviving_hosts=surviving,
                        park_host=park_host,
                    )

                    if folded.all_dropped or live_hosts.size == 0:
                        count("hours_simulated")
                        records.append(
                            HourRecord(
                                hour=hour,
                                communication_cost=0.0,
                                migration_cost=0.0,
                                num_migrations=0,
                                dropped_traffic=folded.dropped_rate,
                                repair_cost=repair_cost,
                                num_repairs=plan.num_moves,
                                num_replicas=(
                                    0
                                    if plan.replica_rows is None
                                    else int(plan.replica_rows.shape[0])
                                ),
                                num_failovers=plan.num_failovers,
                            )
                        )
                        fault_log.append(
                            _log_entry(
                                hour, state, audit, folded, plan, current,
                                replica_rows=plan.replica_rows,
                                lost_replicas=lost_replicas,
                            )
                        )
                        continue

                    agg = runner.aggregated_flows(
                        hour,
                        folded,
                        payloads,
                        dist_fields,
                        surviving_hosts=surviving,
                        park_host=park_host,
                    )

                    # 3. the policy's step on the hour's fabric view
                    if first:
                        # mirror the unsharded loop's initialize-before-loop
                        # (replication state reset) before the first refit
                        policy.initialize(agg, current)
                    first = False
                    policy.refit(
                        view,
                        view_session,
                        agg,
                        current,
                        candidate_switches=live_switches
                        if audit is not None
                        else None,
                    )
                    step = policy.step(None)
                    current = np.asarray(policy.placement, dtype=np.int64)
                    count("hours_simulated")
                    records.append(
                        HourRecord(
                            hour=hour,
                            communication_cost=step.communication_cost,
                            migration_cost=step.migration_cost,
                            num_migrations=step.num_migrations,
                            dropped_traffic=folded.dropped_rate,
                            repair_cost=repair_cost,
                            num_repairs=plan.num_moves,
                            replication_cost=step.replication_cost,
                            sync_cost=step.sync_cost,
                            num_replications=step.num_replications,
                            num_replicas=step.num_replicas,
                            num_failovers=plan.num_failovers,
                        )
                    )
                    fault_log.append(
                        _log_entry(
                            hour, state, audit, folded, plan, current,
                            replica_rows=policy.replica_rows,
                            lost_replicas=lost_replicas,
                        )
                    )
            except KeyboardInterrupt:
                interrupted = True
    extra = {
        "faults": {
            "seed": faults.seed,
            "config": faults.config.to_dict(),
            "trace": [e.to_dict() for e in faults.trace()],
        },
        "fault_log": fault_log,
    }
    extra.update(policy.day_extra())
    if interrupted:
        extra["interrupted"] = True
    return DayResult(policy=policy.name, records=tuple(records), extra=extra)


def _log_entry(
    hour, state, audit, folded: FoldedHour, plan, placement,
    *, replica_rows=None, lost_replicas=(),
) -> dict:
    """Identical dict to the unsharded loop's ``_log_entry``.

    ``folded.dropped_flows`` concatenates per-block global indices in
    block order, which is exactly ``np.flatnonzero`` of the full mask.
    """
    return {
        "hour": hour,
        "failed_switches": list(state.failed_switches),
        "failed_hosts": list(state.failed_hosts),
        "failed_links": [list(link) for link in state.failed_links],
        "partitioned": bool(audit.is_partitioned) if audit is not None else False,
        "dropped_flows": folded.dropped_flows.tolist(),
        "repairs": [list(m) for m in plan.moves],
        "repair_distance": plan.distance,
        "placement": placement.tolist(),
        "failovers": [list(m) for m in plan.failovers],
        "replica_rows": []
        if replica_rows is None
        else np.asarray(replica_rows).tolist(),
        "lost_replicas": [list(r) for r in lost_replicas],
    }


def initial_placement_sharded(
    topology: Topology,
    stream: StreamingWorkload,
    n: int,
    diurnal: DiurnalModel,
    hour: int = 1,
    *,
    config: ShardConfig,
    cache=None,
) -> np.ndarray:
    """TOP's starting placement from a streamed population, never materialized.

    Folds hour-``hour``'s aggregate through a short-lived supervisor and
    runs Algorithm 3 on the resulting :class:`AggregatedFlows` — the same
    ``dp_placement`` call :func:`repro.sim.engine.initial_placement`
    makes, since the DP prices only through attractions and ``Λ``.  If the
    hour is completely silent, falls back to the base (unscaled) rates,
    mirroring the unsharded helper.
    """
    from repro.core.placement import dp_placement

    from repro.sim.policies import MParetoPolicy

    runner = _DayRunner(
        topology,
        stream,
        MParetoPolicy(topology, mu=1.0),  # gate/plan plumbing only
        None,
        config,
        faults=None,
        diurnal=diurnal,
        journal=None,
    )
    try:
        healthy = runner.supervisor.dist_handle(
            "healthy", topology.graph.distances
        )
        folded = runner.fold_hour(hour, None, healthy)
        if not folded.any_positive:
            # silent hour: aggregate the unscaled base rates instead
            runner.diurnal = None
            folded = runner.fold_hour(hour, None, healthy)
            runner.diurnal = diurnal
        agg = AggregatedFlows(
            num_flows=folded.num_flows,
            total_rate=folded.total_rate,
            ingress_attraction=folded.ingress,
            egress_attraction=folded.egress,
        )
        with Timer.timed("initial_placement"):
            return dp_placement(topology, agg, n, cache=cache).placement
    finally:
        runner.close()

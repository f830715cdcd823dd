"""Synthetic flow-churn driver for :class:`PlacementService`.

Models the paper's serving regime at data-center scale: a long-lived
service fields a stream of tenant placement queries over one fabric while
rates churn and faults arrive.  Every flow is an *aggregate* of
``users_per_flow`` end users (the paper's million-user scenarios are VM
pairs carrying aggregated user traffic), so the driver's user accounting
is ``requests x num_pairs x users_per_flow`` — the default bench shape
clears a million modeled users without needing a million solver calls.

The same coroutine (:func:`run_churn`) backs both the ``repro serve
--churn`` CLI smoke-run and ``benchmarks/bench_serve.py``; the bench
layers percentile reporting and the JSON artifact on top of the summary
dict returned here.

Everything is seeded: flowsets are redrawn per request from spawned RNG
children, migration and deadline pressure follow fixed strides, and the
fault plan deterministically toggles one aggregation switch — so two runs
of the same :class:`ChurnConfig` issue byte-identical request streams
(service-side latencies and shed decisions still vary with machine load,
which is the point of the bench).
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.serve.admission import Overloaded
from repro.serve.server import PlacementService, ServiceError
from repro.topology.base import Topology
from repro.topology.fattree import fat_tree
from repro.utils.rng import spawn_rngs
from repro.workload.flows import FlowSet, place_vm_pairs
from repro.workload.traffic import FacebookTrafficModel

__all__ = ["ChurnConfig", "build_flowsets", "run_churn"]


@dataclass(frozen=True)
class ChurnConfig:
    """Shape of one churn run (all strides deterministic)."""

    #: fat-tree degree of the fabric under service
    k: int = 4
    #: VM pairs per request flowset
    num_pairs: int = 12
    #: SFC length requested
    sfc_size: int = 2
    #: total requests issued
    requests: int = 200
    #: client-side concurrency (parallel submitters)
    concurrency: int = 16
    #: end users aggregated behind each flow (accounting only)
    users_per_flow: int = 2000
    seed: int = 11
    #: soft deadline carried by ordinary requests (None = none)
    deadline: float | None = None
    #: every Nth request carries ``tight_deadline`` instead (0 = never)
    deadline_every: int = 0
    tight_deadline: float = 0.0
    #: ingest a fault-event delta every N requests (0 = never); toggles
    #: one aggregation switch fail/repair so state never accumulates
    fault_every: int = 0
    #: every Nth request is a migration from the last served placement
    migrate_every: int = 0
    #: migration energy-traffic tradeoff passed with ``prev``
    mu: float = 100.0

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ReproError(f"requests must be positive, got {self.requests}")
        if self.sfc_size < 1:
            raise ReproError(f"sfc_size must be positive, got {self.sfc_size}")
        if self.concurrency < 1:
            raise ReproError(
                f"concurrency must be positive, got {self.concurrency}"
            )


def build_flowsets(config: ChurnConfig, topology: Topology) -> list[FlowSet]:
    """One seeded flowset per request: redrawn endpoints and rates."""
    model = FacebookTrafficModel()
    flowsets = []
    for rng in spawn_rngs(config.seed, config.requests):
        flows = place_vm_pairs(topology, config.num_pairs, seed=rng)
        flowsets.append(flows.with_rates(model.sample(config.num_pairs, rng=rng)))
    return flowsets


def _fault_events(topology: Topology, tick: int) -> list[dict]:
    """Even ticks fail one non-edge switch, odd ticks repair it.

    Edge switches are excluded: failing one strands its rack's hosts and
    turns the whole stream infeasible, which is a different experiment.
    Aggregation/core failures exercise the degraded-view path while the
    fat-tree's redundancy keeps every request servable.
    """
    edge = {int(s) for s in np.asarray(topology.host_edge_switch).ravel()}
    switches = sorted(int(s) for s in topology.switches if int(s) not in edge)
    if not switches:  # degenerate fabric: nothing safe to fail
        return []
    target = switches[(tick // 2) % len(switches)]
    action = "fail" if tick % 2 == 0 else "repair"
    return [{"hour": tick, "kind": "switch", "action": action, "target": target}]


async def run_churn(
    service: PlacementService,
    config: ChurnConfig,
    *,
    topology: Topology | None = None,
) -> dict:
    """Drive ``service`` with the configured churn; returns a summary dict.

    The caller owns the service lifecycle (``async with`` around this
    call).  Requests are issued through a client-side semaphore so the
    offered concurrency is ``config.concurrency`` regardless of how fast
    the service answers; sheds and failures are counted, never raised.
    """
    if topology is None:
        topology = fat_tree(config.k)
    flowsets = build_flowsets(config, topology)
    semaphore = asyncio.Semaphore(config.concurrency)
    shed: Counter = Counter()
    latencies: list[float] = []
    queue_waits: list[float] = []
    tallies = Counter()
    last_placement: dict = {}
    fault_tick = 0

    async def one(index: int, flows: FlowSet) -> None:
        nonlocal fault_tick
        kwargs: dict = {}
        if (
            config.deadline_every
            and index % config.deadline_every == config.deadline_every - 1
        ):
            kwargs["deadline"] = config.tight_deadline
        elif config.deadline is not None:
            kwargs["deadline"] = config.deadline
        prev = None
        if (
            config.migrate_every
            and index % config.migrate_every == config.migrate_every - 1
        ):
            prev = last_placement.get("placement")
        if prev is not None:
            kwargs["prev"] = prev
            kwargs["mu"] = config.mu
        async with semaphore:
            try:
                served = await service.submit(
                    topology, flows, config.sfc_size, **kwargs
                )
            except Overloaded as exc:
                shed[exc.reason] += 1
                return
            except ServiceError:
                tallies["failed"] += 1
                return
            except ReproError:
                tallies["infeasible"] += 1
                return
            tallies["completed"] += 1
            latencies.append(served.latency)
            queue_waits.append(served.queue_seconds)
            if served.degraded:
                tallies["degraded"] += 1
            if served.batched:
                tallies["batched"] += 1
            if served.attempts > 1:
                tallies["retried"] += 1
            if prev is None:
                last_placement["placement"] = served.result.placement
            if config.fault_every and (index + 1) % config.fault_every == 0:
                tick = fault_tick
                fault_tick += 1
                try:
                    await service.ingest(topology, _fault_events(topology, tick))
                    tallies["faults_ingested"] += 1
                except ReproError:
                    tallies["fault_ingest_failed"] += 1

    started = time.perf_counter()
    await asyncio.gather(
        *(one(index, flows) for index, flows in enumerate(flowsets))
    )
    elapsed = time.perf_counter() - started

    completed = tallies["completed"]
    quantile = (
        (lambda q: float(np.quantile(np.asarray(latencies), q)))
        if latencies
        else (lambda q: 0.0)
    )
    return {
        "config": {
            "k": config.k,
            "num_pairs": config.num_pairs,
            "sfc_size": config.sfc_size,
            "requests": config.requests,
            "concurrency": config.concurrency,
            "users_per_flow": config.users_per_flow,
            "seed": config.seed,
        },
        "requests": config.requests,
        "completed": completed,
        "shed": dict(shed),
        "shed_total": sum(shed.values()),
        "shed_rate": sum(shed.values()) / config.requests,
        "failed": tallies["failed"],
        "infeasible": tallies["infeasible"],
        "degraded": tallies["degraded"],
        "degraded_fraction": (tallies["degraded"] / completed) if completed else 0.0,
        "batched": tallies["batched"],
        "retried": tallies["retried"],
        "faults_ingested": tallies["faults_ingested"],
        "elapsed_seconds": elapsed,
        "rps": completed / elapsed if elapsed > 0 else 0.0,
        "latency": {
            "p50": quantile(0.50),
            "p95": quantile(0.95),
            "p99": quantile(0.99),
            "mean": float(np.mean(latencies)) if latencies else 0.0,
            "max": max(latencies) if latencies else 0.0,
        },
        "queue_wait_p95": (
            float(np.quantile(np.asarray(queue_waits), 0.95)) if queue_waits else 0.0
        ),
        "users_modeled": config.requests * config.num_pairs * config.users_per_flow,
    }

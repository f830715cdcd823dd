"""Shard verification: the unsharded day loop as differential oracle.

The sharded execution layer (ISSUE 10) promises *bit-identical results
under any scheduling*: splitting a day's flow population into
deterministic shards, aggregating them in supervised pool workers and
folding the partials back (:mod:`repro.shard`) must change **where**
things are computed, never **what**.  Each :class:`ShardCaseSpec`
describes one simulated day — plain, fault-injected or replicating —
and :func:`run_shard_case` pins the contract down three ways:

* **oracle identity** — at the default block size the whole population
  is one block, and the fold degenerates to exactly the unsharded
  expressions; the sharded :class:`~repro.sim.engine.DayResult` must
  serialize to canonical JSON **byte-identical** to
  :func:`~repro.sim.engine.simulate_day`, at every shard count in the
  spec;
* **shard-count invariance** — with a tiny block size (many blocks per
  hour) the canonical ascending-block left fold is shard-count
  independent, so every shard count must produce byte-identical
  results *to each other* (shard assignment is pure scheduling);
* **chaos immunity** — re-running one sharded configuration under
  deterministic fault injection (worker crashes and hard kills, with
  retries, pool rebuilds and re-dispatch) must still produce the same
  bytes: supervision is invisible in the result.

A mid-day diagnosed :class:`~repro.errors.InfeasibleError` is a valid
recorded outcome — but then *every* path (unsharded, each shard count,
chaos) must diagnose it identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.placement import dp_placement
from repro.errors import InfeasibleError
from repro.faults import FaultConfig, FaultProcess
from repro.runtime.resilience import ChaosConfig, ResilienceConfig
from repro.shard import ShardConfig, simulate_day_sharded
from repro.sim.engine import DayResult, simulate_day
from repro.sim.policies import (
    MParetoPolicy,
    NoMigrationPolicy,
    TomReplicationPolicy,
)
from repro.topology.base import Topology
from repro.verify.campaign import CampaignFamily, CaseLog, audit_case, tally
from repro.verify.faults import FAULT_FAMILIES
from repro.verify.invariants import Violation
from repro.verify.scenarios import FAMILIES, sample_rates
from repro.workload.diurnal import DiurnalModel
from repro.workload.dynamics import RedrawnRates
from repro.workload.flows import place_vm_pairs
from repro.workload.traffic import FacebookTrafficModel

__all__ = [
    "SHARD_DAY_KINDS",
    "ShardCaseSpec",
    "generate_shard_cases",
    "run_shard_case",
    "SHARD",
]

#: the three day shapes the sharded engine must reproduce exactly
SHARD_DAY_KINDS = ("plain", "fault", "replication")

#: block size for the multi-block invariance leg: small enough that the
#: campaign's 2–32 flow populations split into many blocks per hour
MULTI_BLOCK_SIZE = 4


@dataclass(frozen=True)
class ShardCaseSpec:
    """Everything needed to rebuild one shard case, bit-for-bit."""

    case_id: int
    day_kind: str  # "plain" | "fault" | "replication"
    family: str
    params: tuple
    n: int
    num_flows: int
    flow_seed: int
    rate_seed: int
    intra_rack: float
    policy: str  # "mpareto" | "no-migration" | "tom-replication"
    mu: float
    rho: float
    sync_fraction: float
    horizon: int
    fault_seed: int
    switch_rate: float
    host_rate: float
    link_rate: float
    mean_repair_hours: float
    shard_counts: tuple  # e.g. (1, 2, 3)
    workers: int  # 1 = in-process serial, 2 = real worker pool
    chaos_seed: int  # -1 = no chaos leg for this case

    def build(self):
        """Materialize ``(topology, flows, rate_process, fault_process|None)``."""
        topology = FAMILIES[self.family].builder(*self.params)
        flows = place_vm_pairs(
            topology, self.num_flows, self.intra_rack, seed=self.flow_seed
        )
        flows = flows.with_rates(
            sample_rates("facebook", self.num_flows, self.rate_seed)
        )
        diurnal = DiurnalModel(num_hours=self.horizon)
        rate_process = RedrawnRates(
            flows,
            diurnal,
            np.zeros(self.num_flows),
            FacebookTrafficModel(),
            seed=self.rate_seed,
        )
        faults = None
        if self.day_kind == "fault" or (
            self.day_kind == "replication" and self.fault_seed >= 0
        ):
            faults = FaultProcess(
                topology,
                FaultConfig(
                    switch_rate=self.switch_rate,
                    host_rate=self.host_rate,
                    link_rate=self.link_rate,
                    mean_repair_hours=self.mean_repair_hours,
                ),
                seed=abs(self.fault_seed),
                horizon=self.horizon,
            )
        return topology, flows, rate_process, faults

    def make_policy(self, topology: Topology):
        if self.policy == "mpareto":
            return MParetoPolicy(topology, mu=self.mu)
        if self.policy == "no-migration":
            return NoMigrationPolicy(topology, mu=self.mu)
        if self.policy == "tom-replication":
            return TomReplicationPolicy(
                topology, mu=self.mu, rho=self.rho,
                sync_fraction=self.sync_fraction,
            )
        raise ValueError(f"unknown shard-case policy {self.policy!r}")

    def chaos(self) -> ChaosConfig:
        """The deterministic fault plan for this case's chaos leg."""
        return ChaosConfig(
            seed=self.chaos_seed,
            crash_rate=0.4,
            kill_rate=0.2 if self.workers > 1 else 0.0,
            faulty_attempts=1,
        )

    def simulate_unsharded(self) -> DayResult:
        """The oracle: one unsharded day, fresh everything."""
        topology, flows, rate_process, faults = self.build()
        placement = dp_placement(topology, flows, self.n).placement
        return simulate_day(
            topology,
            flows,
            self.make_policy(topology),
            rate_process,
            placement,
            range(1, self.horizon + 1),
            faults=faults,
        )

    def simulate_sharded(
        self,
        num_shards: int,
        *,
        block_size: int = 4096,
        chaos: ChaosConfig | None = None,
    ) -> DayResult:
        """One sharded day at ``num_shards``, fresh everything."""
        topology, flows, rate_process, faults = self.build()
        placement = dp_placement(topology, flows, self.n).placement
        config = ShardConfig(
            num_shards=num_shards, block_size=block_size, workers=self.workers
        )
        return simulate_day_sharded(
            topology,
            flows,
            self.make_policy(topology),
            rate_process,
            placement,
            range(1, self.horizon + 1),
            config=config,
            faults=faults,
            resilience=ResilienceConfig(
                max_retries=3, backoff_base=0.001, chaos=chaos
            ),
        )

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "day_kind": self.day_kind,
            "family": self.family,
            "params": list(self.params),
            "n": self.n,
            "num_flows": self.num_flows,
            "flow_seed": self.flow_seed,
            "rate_seed": self.rate_seed,
            "intra_rack": self.intra_rack,
            "policy": self.policy,
            "mu": self.mu,
            "rho": self.rho,
            "sync_fraction": self.sync_fraction,
            "horizon": self.horizon,
            "fault_seed": self.fault_seed,
            "switch_rate": self.switch_rate,
            "host_rate": self.host_rate,
            "link_rate": self.link_rate,
            "mean_repair_hours": self.mean_repair_hours,
            "shard_counts": list(self.shard_counts),
            "workers": self.workers,
            "chaos_seed": self.chaos_seed,
        }


def generate_shard_cases(seed: int, cases: int) -> list[ShardCaseSpec]:
    """``cases`` seeded scenarios cycling plain / fault / replication days.

    Mirrors the other campaign generators: each case gets its own
    :class:`~numpy.random.SeedSequence` child, so case ``i`` is
    identical across runs and ``--cases`` counts.  Day kinds cycle
    deterministically so every report covers all three in equal parts.
    """
    root = np.random.SeedSequence(seed)
    specs = []
    for case_id, child in enumerate(root.spawn(cases)):
        rng = np.random.default_rng(child)
        day_kind = SHARD_DAY_KINDS[case_id % len(SHARD_DAY_KINDS)]
        family = sorted(FAULT_FAMILIES)[int(rng.integers(len(FAULT_FAMILIES)))]
        params = FAULT_FAMILIES[family][
            int(rng.integers(len(FAULT_FAMILIES[family])))
        ]
        if day_kind == "replication":
            policy = "tom-replication"
            # ~half the replication days also carry a fault trace
            fault_seed = int(rng.integers(2**31 - 1))
            if rng.random() < 0.5:
                fault_seed = -max(fault_seed, 1)
        else:
            policy = "mpareto" if rng.random() < 0.7 else "no-migration"
            fault_seed = int(rng.integers(2**31 - 1))
        specs.append(
            ShardCaseSpec(
                case_id=case_id,
                day_kind=day_kind,
                family=family,
                params=params,
                n=int(rng.integers(1, 4)),
                num_flows=int(rng.integers(2, 33)),
                flow_seed=int(rng.integers(2**31 - 1)),
                rate_seed=int(rng.integers(2**31 - 1)),
                intra_rack=float(rng.choice([0.0, 0.5, 0.8])),
                policy=policy,
                mu=float(rng.choice([0.0, 5.0, 100.0])),
                rho=float(rng.choice([0.1, 1.0, 10.0])),
                sync_fraction=float(rng.choice([0.0, 0.05])),
                horizon=int(rng.choice([4, 6])),
                fault_seed=fault_seed,
                switch_rate=float(rng.choice([0.02, 0.05, 0.1])),
                host_rate=float(rng.choice([0.0, 0.05])),
                link_rate=float(rng.choice([0.0, 0.02])),
                mean_repair_hours=float(rng.choice([2.0, 4.0])),
                shard_counts=(1, 2, 3),
                workers=2 if rng.random() < 0.2 else 1,
                chaos_seed=(
                    int(rng.integers(2**31 - 1)) if rng.random() < 0.3 else -1
                ),
            )
        )
    return specs


def _outcome(simulate) -> tuple[str, str]:
    """Run one day; return a comparable ``(kind, canonical payload)``.

    A diagnosed infeasibility is a valid outcome, but its diagnosis is
    part of the payload: every execution path must agree on it byte for
    byte, exactly like a completed day's records.
    """
    try:
        day = simulate()
    except InfeasibleError as exc:
        return (
            "infeasible",
            json.dumps(dict(exc.diagnosis), sort_keys=True, default=str),
        )
    return ("ok", json.dumps(day.to_dict(), sort_keys=True))


def _audit_shard_case(spec: ShardCaseSpec, log: CaseLog) -> None:
    reference = _outcome(spec.simulate_unsharded)
    if reference[0] == "infeasible":
        log.outcome = "infeasible"

    # oracle identity: default block size, every shard count
    for num_shards in spec.shard_counts:
        log.checks += 1
        got = _outcome(lambda: spec.simulate_sharded(num_shards))
        if got != reference:
            log.violations.append(
                Violation(
                    "shard_oracle_bits",
                    f"{num_shards}-shard day differs from the unsharded "
                    f"oracle ({reference[0]!r} vs {got[0]!r})",
                    {
                        "num_shards": num_shards,
                        "reference_kind": reference[0],
                        "got_kind": got[0],
                        "len_reference": len(reference[1]),
                        "len_got": len(got[1]),
                    },
                )
            )

    # shard-count invariance in the multi-block regime
    multi = [
        (
            num_shards,
            _outcome(
                lambda: spec.simulate_sharded(
                    num_shards, block_size=MULTI_BLOCK_SIZE
                )
            ),
        )
        for num_shards in spec.shard_counts
    ]
    anchor_shards, anchor = multi[0]
    for num_shards, got in multi[1:]:
        log.checks += 1
        if got != anchor:
            log.violations.append(
                Violation(
                    "shard_count_invariance",
                    f"multi-block day at {num_shards} shards differs "
                    f"from the {anchor_shards}-shard run",
                    {
                        "block_size": MULTI_BLOCK_SIZE,
                        "num_shards": num_shards,
                        "anchor_shards": anchor_shards,
                    },
                )
            )

    # chaos immunity: crashes, kills, retries change nothing
    if spec.chaos_seed >= 0:
        log.checks += 1
        shards = spec.shard_counts[-1]
        chaotic = _outcome(
            lambda: spec.simulate_sharded(shards, chaos=spec.chaos())
        )
        if chaotic != reference:
            log.violations.append(
                Violation(
                    "shard_chaos_bits",
                    f"chaos-injected {shards}-shard day differs from "
                    "the unsharded oracle",
                    {
                        "num_shards": shards,
                        "chaos_seed": spec.chaos_seed,
                        "reference_kind": reference[0],
                        "got_kind": chaotic[0],
                    },
                )
            )


def run_shard_case(task) -> dict:
    """Oracle identity + shard invariance + chaos immunity for one case."""
    spec, _rtol = task
    return audit_case(
        "shard",
        spec,
        {"day_kind": spec.day_kind, "policy": spec.policy},
        partial(_audit_shard_case, spec),
    )


SHARD = CampaignFamily(
    name="shard",
    scope="verify-shard",
    default_cases=200,
    generate=generate_shard_cases,
    run_case=run_shard_case,
    coverage=tally("family", "day_kind", "policy", "outcome"),
    describe=lambda f: f"{f['policy']} on {f['family']}, {f['day_kind']}",
)

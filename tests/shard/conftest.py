"""Shared scenario builder for the shard suite: one day, many executions."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.placement import dp_placement
from repro.faults import FaultConfig, FaultProcess
from repro.runtime.resilience import ResilienceConfig
from repro.shard import ShardConfig, simulate_day_sharded
from repro.sim.engine import simulate_day
from repro.sim.policies import (
    MParetoPolicy,
    NoMigrationPolicy,
    TomReplicationPolicy,
)
from repro.topology import fat_tree
from repro.workload import (
    DiurnalModel,
    FacebookTrafficModel,
    ScaledRates,
    place_vm_pairs,
)


#: DayCase.sharded knobs that belong to the execution policy, not the plan
RESILIENCE_KNOBS = {"max_retries", "backoff_base", "task_timeout", "chaos"}


def canon(day) -> str:
    return json.dumps(day.to_dict(), sort_keys=True)


class DayCase:
    """One reproducible simulated day, runnable unsharded or sharded.

    Every run builds a fresh policy (policies are stateful) but shares
    the topology/flows/placement, so two runs differ only in execution
    strategy — exactly what the byte-identity assertions need.
    """

    def __init__(
        self,
        num_flows: int = 30,
        flow_seed: int = 7,
        rate_seed: int = 3,
        horizon: int = 4,
        policy: str = "mpareto",
        mu: float = 5.0,
        fault_seed: int | None = None,
        k: int = 4,
    ):
        self.topology = fat_tree(k)
        flows = place_vm_pairs(self.topology, num_flows, seed=flow_seed)
        rng = np.random.default_rng(rate_seed)
        self.flows = flows.with_rates(
            FacebookTrafficModel().sample(num_flows, rng=rng)
        )
        self.horizon = horizon
        self.policy_kind = policy
        self.mu = mu
        self.fault_seed = fault_seed
        self.placement = dp_placement(self.topology, self.flows, 3).placement
        self.rate_process = ScaledRates(
            self.flows, DiurnalModel(num_hours=horizon), np.zeros(num_flows)
        )

    def make_policy(self):
        if self.policy_kind == "mpareto":
            return MParetoPolicy(self.topology, mu=self.mu)
        if self.policy_kind == "no-migration":
            return NoMigrationPolicy(self.topology, mu=self.mu)
        if self.policy_kind == "tom-replication":
            return TomReplicationPolicy(self.topology, mu=self.mu, rho=0.5)
        raise ValueError(self.policy_kind)

    def make_faults(self):
        if self.fault_seed is None:
            return None
        return FaultProcess(
            self.topology,
            FaultConfig(switch_rate=0.12, link_rate=0.05),
            seed=self.fault_seed,
            horizon=self.horizon,
        )

    @property
    def hours(self):
        return range(1, self.horizon + 1)

    def unsharded(self):
        return simulate_day(
            self.topology,
            self.flows,
            self.make_policy(),
            self.rate_process,
            self.placement,
            self.hours,
            faults=self.make_faults(),
        )

    def sharded(self, num_shards: int, *, journal=None, **knobs):
        """One sharded day; ``knobs`` mix ShardConfig and ResilienceConfig fields."""
        policy = {"max_retries": 3, "backoff_base": 0.001}
        for name in RESILIENCE_KNOBS & knobs.keys():
            policy[name] = knobs.pop(name)
        report: dict = {}
        day = simulate_day_sharded(
            self.topology,
            self.flows,
            self.make_policy(),
            self.rate_process,
            self.placement,
            self.hours,
            config=ShardConfig(num_shards=num_shards, **knobs),
            faults=self.make_faults(),
            journal=journal,
            resilience=ResilienceConfig(**policy),
            report=report,
        )
        return day, report


@pytest.fixture(scope="module")
def plain_case():
    return DayCase()


@pytest.fixture(scope="module")
def fault_case():
    return DayCase(fault_seed=5)


@pytest.fixture(scope="module")
def replication_case():
    return DayCase(policy="tom-replication")

"""Fault-injection verification: seeded survivability scenarios + invariants.

A fourth campaign family alongside invariants / oracles / metamorphic:
each :class:`FaultCaseSpec` describes one fault-aware simulated day —
topology, workload, a seeded :class:`~repro.faults.process.FaultProcess`
and a migration policy — and :func:`check_fault_day` audits the
resulting :class:`~repro.sim.engine.DayResult` from scratch:

* **containment** — no hour's placement ever touches a failed or
  partitioned switch (every VNF lives in the surviving component);
* **pricing** — every hour's communication cost is recomputed via
  Eq. 1 on the *degraded* APSP (parked flows, effective rates), the
  dropped traffic equals the summed rates of flows with dead or
  partitioned endpoints, and the repair cost is exactly
  ``μ × Σ`` healthy-APSP distances of the logged evacuation moves;
* **determinism** — re-simulating the same spec reproduces a
  byte-identical fault trace and :class:`DayResult` (compared as
  canonical JSON).

A mid-day :class:`~repro.errors.InfeasibleError` carrying a diagnosis is
a *valid recorded outcome* (the fabric genuinely lost too many switches),
not a violation; an InfeasibleError without a diagnosis, or any other
exception, is a finding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.placement import dp_placement
from repro.errors import InfeasibleError
from repro.faults import FaultConfig, FaultProcess, degrade
from repro.sim.engine import DayResult, simulate_day
from repro.sim.policies import MParetoPolicy, NoMigrationPolicy
from repro.topology.base import Topology
from repro.verify.campaign import CampaignFamily, CaseLog, audit_case, tally
from repro.verify.invariants import (
    DEFAULT_RTOL,
    Violation,
    recompute_communication_cost,
)
from repro.verify.scenarios import FAMILIES, sample_rates
from repro.workload.diurnal import DiurnalModel
from repro.workload.dynamics import RedrawnRates
from repro.workload.flows import FlowSet, place_vm_pairs
from repro.workload.traffic import FacebookTrafficModel

__all__ = [
    "FAULT_FAMILIES",
    "FaultCaseSpec",
    "generate_fault_cases",
    "check_fault_day",
    "run_fault_case",
    "FAULTS",
]

#: topology ladders big enough that a failed switch or two leaves a
#: meaningful surviving component (the 3-4 switch rungs are excluded)
FAULT_FAMILIES: dict[str, tuple] = {
    "fat_tree": ((4,),),
    "leaf_spine": ((3, 2, 3),),
    "vl2": ((2, 2, 2, 2),),
    "bcube": ((3,),),
    "jellyfish": ((8, 3, 1),),
    "linear": ((6,),),
}

_POLICIES = ("mpareto", "mpareto", "no-migration")


@dataclass(frozen=True)
class FaultCaseSpec:
    """Everything needed to rebuild one fault-injection case, bit-for-bit."""

    case_id: int
    family: str
    params: tuple
    n: int
    num_flows: int
    flow_seed: int
    rate_seed: int
    intra_rack: float
    policy: str  # "mpareto" | "no-migration"
    mu: float
    horizon: int
    fault_seed: int
    switch_rate: float
    host_rate: float
    link_rate: float
    mean_repair_hours: float

    def fault_config(self) -> FaultConfig:
        return FaultConfig(
            switch_rate=self.switch_rate,
            host_rate=self.host_rate,
            link_rate=self.link_rate,
            mean_repair_hours=self.mean_repair_hours,
        )

    def build(self):
        """Materialize ``(topology, flows, rate_process, fault_process)``."""
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
        faults = FaultProcess(
            topology, self.fault_config(), seed=self.fault_seed, horizon=self.horizon
        )
        return topology, flows, rate_process, faults

    def make_policy(self, topology: Topology):
        if self.policy == "mpareto":
            return MParetoPolicy(topology, mu=self.mu)
        if self.policy == "no-migration":
            return NoMigrationPolicy(topology, mu=self.mu)
        raise ValueError(f"unknown fault-case policy {self.policy!r}")

    def simulate(self) -> DayResult:
        """One full fault-aware day for this spec (fresh everything)."""
        topology, flows, rate_process, faults = self.build()
        placement = dp_placement(topology, flows, self.n).placement
        policy = self.make_policy(topology)
        return simulate_day(
            topology,
            flows,
            policy,
            rate_process,
            placement,
            range(1, self.horizon + 1),
            faults=faults,
        )

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "family": self.family,
            "params": list(self.params),
            "n": self.n,
            "num_flows": self.num_flows,
            "flow_seed": self.flow_seed,
            "rate_seed": self.rate_seed,
            "intra_rack": self.intra_rack,
            "policy": self.policy,
            "mu": self.mu,
            "horizon": self.horizon,
            "fault_seed": self.fault_seed,
            "switch_rate": self.switch_rate,
            "host_rate": self.host_rate,
            "link_rate": self.link_rate,
            "mean_repair_hours": self.mean_repair_hours,
        }


def generate_fault_cases(seed: int, cases: int) -> list[FaultCaseSpec]:
    """``cases`` independent fault scenarios from one campaign seed.

    Mirrors :func:`repro.verify.scenarios.generate_cases`: each case gets
    its own :class:`~numpy.random.SeedSequence` child, so case ``i`` is
    identical across runs and ``--cases`` counts.
    """
    root = np.random.SeedSequence(seed)
    specs = []
    for case_id, child in enumerate(root.spawn(cases)):
        rng = np.random.default_rng(child)
        family = sorted(FAULT_FAMILIES)[int(rng.integers(len(FAULT_FAMILIES)))]
        params = FAULT_FAMILIES[family][
            int(rng.integers(len(FAULT_FAMILIES[family])))
        ]
        specs.append(
            FaultCaseSpec(
                case_id=case_id,
                family=family,
                params=params,
                n=int(rng.integers(1, 4)),
                num_flows=int(rng.integers(2, 9)),
                flow_seed=int(rng.integers(2**31 - 1)),
                rate_seed=int(rng.integers(2**31 - 1)),
                intra_rack=float(rng.choice([0.0, 0.5, 0.8])),
                policy=_POLICIES[int(rng.integers(len(_POLICIES)))],
                mu=float(rng.choice([0.0, 5.0, 100.0])),
                horizon=int(rng.choice([6, 12])),
                fault_seed=int(rng.integers(2**31 - 1)),
                switch_rate=float(rng.choice([0.02, 0.05, 0.1, 0.2])),
                host_rate=float(rng.choice([0.0, 0.05])),
                link_rate=float(rng.choice([0.0, 0.02])),
                mean_repair_hours=float(rng.choice([2.0, 4.0])),
            )
        )
    return specs


def check_fault_day(
    topology: Topology,
    flows: FlowSet,
    rate_process,
    faults: FaultProcess,
    day: DayResult,
    *,
    mu: float,
    rtol: float = DEFAULT_RTOL,
) -> list[Violation]:
    """Audit one fault-aware :class:`DayResult` from scratch.

    Rebuilds each hour's degraded view with :func:`~repro.faults.degrade.
    degrade` (independent of whatever the engine memoized) and checks the
    containment and pricing invariants in the module docstring.
    """
    from repro.sim.engine import _park_flows

    violations: list[Violation] = []
    log = day.extra.get("fault_log", [])
    if len(log) != len(day.records):
        return [
            Violation(
                "fault_log_alignment",
                f"fault log has {len(log)} entries for {len(day.records)} "
                "hour records",
                {"log_hours": [e["hour"] for e in log]},
            )
        ]
    healthy = topology.graph.distances
    for record, entry in zip(day.records, log):
        hour = record.hour
        state = faults.state_at(hour)
        placement = np.asarray(entry["placement"], dtype=np.int64)
        if state.is_healthy:
            view, audit = topology, None
            live_switches = set(topology.switches.tolist())
            drop_mask = np.zeros(flows.num_flows, dtype=bool)
        else:
            view, audit = degrade(topology, state)
            live_switches = set(audit.surviving_switches.tolist())
            drop_mask = audit.dropped_flow_mask(flows)

        # containment: every VNF inside the surviving component
        stray = [int(p) for p in placement if int(p) not in live_switches]
        if stray:
            violations.append(
                Violation(
                    "fault_containment",
                    f"hour {hour}: VNFs on failed/partitioned switches {stray}",
                    {"hour": hour, "placement": placement, "stray": stray},
                )
            )

        # dropped-traffic accounting
        rates = rate_process.rates_at(hour)
        want_dropped = float(rates[drop_mask].sum())
        if abs(record.dropped_traffic - want_dropped) > rtol * max(1.0, want_dropped):
            violations.append(
                Violation(
                    "fault_dropped_traffic",
                    f"hour {hour}: dropped_traffic {record.dropped_traffic!r} "
                    f"!= recomputed {want_dropped!r}",
                    {"hour": hour, "got": record.dropped_traffic, "want": want_dropped},
                )
            )

        # repair pricing: μ × healthy-APSP distance of the logged moves
        moves = entry["repairs"]  # (vnf_index, from_switch, to_switch)
        want_distance = float(sum(healthy[int(a), int(b)] for _, a, b in moves))
        want_repair = mu * want_distance
        if abs(record.repair_cost - want_repair) > rtol * max(1.0, want_repair):
            violations.append(
                Violation(
                    "fault_repair_cost",
                    f"hour {hour}: repair_cost {record.repair_cost!r} != "
                    f"mu × healthy distance {want_repair!r}",
                    {"hour": hour, "got": record.repair_cost, "want": want_repair},
                )
            )
        if record.num_repairs != len(moves):
            violations.append(
                Violation(
                    "fault_repair_count",
                    f"hour {hour}: num_repairs {record.num_repairs} != "
                    f"{len(moves)} logged moves",
                    {"hour": hour, "moves": moves},
                )
            )
        bad_targets = [b for _, _, b in moves if int(b) not in live_switches]
        if bad_targets:
            violations.append(
                Violation(
                    "fault_repair_target",
                    f"hour {hour}: repair targets {bad_targets} outside the "
                    "surviving component",
                    {"hour": hour, "moves": moves},
                )
            )

        # Eq. 1 on the degraded APSP, parked flows, effective rates
        effective = np.where(drop_mask, 0.0, rates)
        if drop_mask.all() or (audit is not None and audit.surviving_hosts.size == 0):
            want_comm = 0.0
        else:
            park_host = (
                int(audit.surviving_hosts[0])
                if audit is not None
                else int(topology.hosts[0])
            )
            parked = _park_flows(flows, drop_mask, park_host)
            want_comm = recompute_communication_cost(
                view, parked.with_rates(effective), placement
            )
        if abs(record.communication_cost - want_comm) > rtol * max(
            1.0, abs(want_comm)
        ):
            violations.append(
                Violation(
                    "fault_communication_cost",
                    f"hour {hour}: communication cost "
                    f"{record.communication_cost!r} != Eq. 1 on the degraded "
                    f"APSP {want_comm!r}",
                    {
                        "hour": hour,
                        "got": record.communication_cost,
                        "want": want_comm,
                    },
                )
            )
    return violations


def _audit_fault_case(spec: FaultCaseSpec, rtol: float, log: CaseLog) -> None:
    topology, flows, rate_process, faults = spec.build()
    try:
        day = spec.simulate()
    except InfeasibleError as exc:
        # a diagnosed infeasibility is the documented outcome for a
        # fabric that lost too much; only an undiagnosed one is a bug
        if exc.diagnosis.get("reason"):
            log.outcome = "infeasible"
            log.checks += 1
        else:
            log.violations.append(
                Violation(
                    "fault_infeasible_diagnosis",
                    f"InfeasibleError without diagnosis: {exc}",
                    {"error": repr(exc)},
                )
            )
        return
    log.checks += 1
    log.violations += check_fault_day(
        topology, flows, rate_process, faults, day, mu=spec.mu, rtol=rtol
    )
    # determinism: fresh policy + fresh fault process, same bytes
    log.checks += 1
    replay = spec.simulate()
    a = json.dumps(day.to_dict(), sort_keys=True)
    b = json.dumps(replay.to_dict(), sort_keys=True)
    if a != b:
        log.violations.append(
            Violation(
                "fault_determinism",
                "re-simulating the same spec changed the DayResult",
                {"len_first": len(a), "len_second": len(b)},
            )
        )
    log.checks += 1
    trace_a = json.dumps(faults.to_dict(), sort_keys=True)
    trace_b = json.dumps(
        FaultProcess(
            topology,
            spec.fault_config(),
            seed=spec.fault_seed,
            horizon=spec.horizon,
        ).to_dict(),
        sort_keys=True,
    )
    if trace_a != trace_b:
        log.violations.append(
            Violation(
                "fault_trace_determinism",
                "rebuilding the fault process changed its trace",
                {},
            )
        )


def run_fault_case(task) -> dict:
    """Simulate, audit and determinism-check one fault case.

    Module-level and driven by a picklable ``(spec, rtol)`` task so it
    can run in worker processes and be journalled for resume.
    """
    spec, rtol = task
    return audit_case(
        "fault",
        spec,
        {"policy": spec.policy},
        partial(_audit_fault_case, spec, rtol),
    )


FAULTS = CampaignFamily(
    name="faults",
    scope="verify-faults",
    default_cases=100,
    generate=generate_fault_cases,
    run_case=run_fault_case,
    coverage=tally("family", "policy", "outcome"),
    describe=lambda f: f"{f['policy']} on {f['family']}",
)

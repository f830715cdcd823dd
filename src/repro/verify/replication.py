"""Replication verification: the migrate-vs-replicate lattice, audited.

A sixth campaign family alongside invariants / oracles / metamorphic /
faults / incremental: each :class:`ReplicationCaseSpec` describes one
simulated day under the ``tom-replication`` policy — fault-free or with
a seeded :class:`~repro.faults.process.FaultProcess` — and
:func:`check_replication_day` audits the :class:`~repro.sim.engine.
DayResult` from scratch:

* **accounting** — every hour's booked costs are recomputed
  independently and must sum to the Eq. 8 components: serving cost is
  Eq. 1 with a per-flow min over the logged copies, sync cost is
  ``sync_fraction · Λ · Σc(p, q_r)``, and ``C_r`` is exactly
  ``ρ·μ·Σc(p, q)`` for the logged new copy;
* **dominance** — ``C_r <= C_b`` whenever replicate was chosen (the
  admissibility gate of DESIGN.md §5j), and the chosen action is the
  minimum of the hour's priced option menu;
* **feasibility** — primary + replica switches are globally distinct,
  and under faults every instance (and every failover target) lives in
  the surviving component while repair pricing counts *paid* moves only;
* **metamorphic anchors** — ρ→0 reproduces the plain TOM
  (:class:`~repro.sim.policies.MParetoPolicy`) day **byte-identically**
  (replication disabled: a zero-cost replica would mean no state was
  copied), and ρ→∞ never replicates (records byte-identical too, via
  the dominance gate);
* **oracle floor** — :func:`~repro.core.replication.
  exact_replication_step` over the full keep/migrate/replicate lattice
  is replayed on every logged hour state and may never beat the
  greedy's booked hour total from below... rather, the greedy may never
  beat the exact (``exact <= greedy``);
* **determinism** — re-simulating the same spec reproduces a
  byte-identical :class:`DayResult`.

As in the faults family, a mid-day diagnosed
:class:`~repro.errors.InfeasibleError` is a valid recorded outcome, not
a violation.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.placement import dp_placement
from repro.core.replication import ReplicaSet, exact_replication_step
from repro.errors import InfeasibleError
from repro.faults import FaultConfig, FaultProcess, degrade
from repro.sim.engine import DayResult, simulate_day
from repro.sim.policies import MParetoPolicy, TomReplicationPolicy
from repro.verify.campaign import CampaignFamily, CaseLog, audit_case
from repro.verify.faults import FAULT_FAMILIES
from repro.verify.invariants import DEFAULT_RTOL, Violation
from repro.verify.scenarios import FAMILIES, sample_rates
from repro.workload.diurnal import DiurnalModel
from repro.workload.dynamics import RedrawnRates
from repro.workload.flows import place_vm_pairs
from repro.workload.traffic import FacebookTrafficModel

__all__ = [
    "REPLICATION_FAMILIES",
    "ReplicationCaseSpec",
    "generate_replication_cases",
    "recompute_serving_cost",
    "check_replication_day",
    "run_replication_case",
    "REPLICATION",
]

#: same fabric ladder as the faults family: big enough that replicas
#: (and a failed switch or two) leave a meaningful surviving component
REPLICATION_FAMILIES = FAULT_FAMILIES

#: ρ→∞ stand-in for the never-replicate anchor (any ρ > 1 is structurally
#: replication-free via the C_r <= C_b dominance gate; a huge one makes
#: the anchor's intent unmistakable in reports)
RHO_NEVER = 1e9


@dataclass(frozen=True)
class ReplicationCaseSpec:
    """Everything needed to rebuild one replication case, bit-for-bit."""

    case_id: int
    family: str
    params: tuple
    n: int
    num_flows: int
    flow_seed: int
    rate_seed: int
    intra_rack: float
    mu: float
    rho: float
    sync_fraction: float
    max_replicas: int
    exact: bool
    horizon: int
    faulty: bool
    fault_seed: int
    switch_rate: float
    host_rate: float
    link_rate: float
    mean_repair_hours: float

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
        if self.faulty:
            faults = FaultProcess(
                topology,
                FaultConfig(
                    switch_rate=self.switch_rate,
                    host_rate=self.host_rate,
                    link_rate=self.link_rate,
                    mean_repair_hours=self.mean_repair_hours,
                ),
                seed=self.fault_seed,
                horizon=self.horizon,
            )
        return topology, flows, rate_process, faults

    def make_policy(self, topology, *, policy: str = "tom-replication",
                    rho: float | None = None):
        if policy == "mpareto":
            return MParetoPolicy(topology, mu=self.mu)
        if policy == "tom-replication":
            return TomReplicationPolicy(
                topology,
                mu=self.mu,
                rho=self.rho if rho is None else rho,
                sync_fraction=self.sync_fraction,
                max_replicas=self.max_replicas,
                exact=self.exact,
            )
        raise ValueError(f"unknown replication-case policy {policy!r}")

    def simulate(self, *, policy: str = "tom-replication",
                 rho: float | None = None) -> DayResult:
        """One full day for this spec (fresh everything)."""
        topology, flows, rate_process, faults = self.build()
        placement = dp_placement(topology, flows, self.n).placement
        return simulate_day(
            topology,
            flows,
            self.make_policy(topology, policy=policy, rho=rho),
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
            "mu": self.mu,
            "rho": self.rho,
            "sync_fraction": self.sync_fraction,
            "max_replicas": self.max_replicas,
            "exact": self.exact,
            "horizon": self.horizon,
            "faulty": self.faulty,
            "fault_seed": self.fault_seed,
            "switch_rate": self.switch_rate,
            "host_rate": self.host_rate,
            "link_rate": self.link_rate,
            "mean_repair_hours": self.mean_repair_hours,
        }


def generate_replication_cases(seed: int, cases: int) -> list[ReplicationCaseSpec]:
    """``cases`` independent replication scenarios from one campaign seed.

    Mirrors :func:`repro.verify.faults.generate_fault_cases`: per-case
    :class:`~numpy.random.SeedSequence` children keep case ``i`` stable
    across runs and ``--cases`` counts.  Half the cases run fault-free
    (where the exact-oracle replay applies), half under a seeded fault
    process (where the failover invariants apply); ρ is drawn from the
    admissible band (0, 1) so the replicate action is genuinely
    reachable — the anchors re-run every case at ρ=0 and ρ→∞ anyway.
    """
    root = np.random.SeedSequence(seed)
    specs = []
    for case_id, child in enumerate(root.spawn(cases)):
        rng = np.random.default_rng(child)
        family = sorted(REPLICATION_FAMILIES)[
            int(rng.integers(len(REPLICATION_FAMILIES)))
        ]
        params = REPLICATION_FAMILIES[family][
            int(rng.integers(len(REPLICATION_FAMILIES[family])))
        ]
        specs.append(
            ReplicationCaseSpec(
                case_id=case_id,
                family=family,
                params=params,
                n=int(rng.integers(1, 4)),
                num_flows=int(rng.integers(2, 9)),
                flow_seed=int(rng.integers(2**31 - 1)),
                rate_seed=int(rng.integers(2**31 - 1)),
                intra_rack=float(rng.choice([0.0, 0.5, 0.8])),
                mu=float(rng.choice([0.0, 5.0, 100.0, 5000.0])),
                rho=float(rng.choice([0.05, 0.2, 0.5, 0.9])),
                sync_fraction=float(rng.choice([0.0, 0.0005, 0.005])),
                max_replicas=int(rng.choice([1, 2])),
                exact=bool(rng.random() < 0.25),
                horizon=int(rng.choice([6, 12])),
                faulty=bool(rng.random() < 0.5),
                fault_seed=int(rng.integers(2**31 - 1)),
                switch_rate=float(rng.choice([0.02, 0.05, 0.1])),
                host_rate=float(rng.choice([0.0, 0.05])),
                link_rate=float(rng.choice([0.0, 0.02])),
                mean_repair_hours=float(rng.choice([2.0, 4.0])),
            )
        )
    return specs


def recompute_serving_cost(distances, flows, copies) -> float:
    """Eq. 1 with a per-flow min over chain copies, from scratch.

    Deliberately a plain Python double loop sharing no code with
    :func:`repro.core.replication.serving_cost` — the audit must not
    inherit the solver's bugs.
    """
    total = 0.0
    for i in range(flows.num_flows):
        s = int(flows.sources[i])
        d = int(flows.destinations[i])
        lam = float(flows.rates[i])
        best = None
        for row in copies:
            route = float(distances[s, int(row[0])])
            for j in range(len(row) - 1):
                route += float(distances[int(row[j]), int(row[j + 1])])
            route += float(distances[int(row[-1]), d])
            if best is None or route < best:
                best = route
        total += lam * best
    return total


def _sync_volume(distances, primary, replicas) -> float:
    return float(
        sum(
            float(distances[int(p), int(q)])
            for row in replicas
            for p, q in zip(primary, row)
        )
    )


def check_replication_day(
    topology,
    flows,
    rate_process,
    faults,
    day: DayResult,
    spec: ReplicationCaseSpec,
    *,
    rtol: float = DEFAULT_RTOL,
) -> list[Violation]:
    """Audit one ``tom-replication`` :class:`DayResult` from scratch."""
    from repro.sim.engine import _park_flows

    violations: list[Violation] = []
    rep_extra = day.extra.get("replication", {})
    log = rep_extra.get("log", [])
    fault_log = day.extra.get("fault_log", [])
    healthy = topology.graph.distances

    # map each hour record to its fault state / degraded view, and work
    # out which hours skipped the policy step (everything dropped)
    per_hour = []
    log_index = 0
    for idx, record in enumerate(day.records):
        hour = record.hour
        if faults is None:
            view_dist = healthy
            audit = None
            drop_mask = np.zeros(flows.num_flows, dtype=bool)
            skipped = False
            entry = None
        else:
            state = faults.state_at(hour)
            if state.is_healthy:
                view_dist, audit = healthy, None
                drop_mask = np.zeros(flows.num_flows, dtype=bool)
            else:
                view, audit = degrade(topology, state)
                view_dist = view.graph.distances
                drop_mask = audit.dropped_flow_mask(flows)
            live_hosts = (
                audit.surviving_hosts if audit is not None else topology.hosts
            )
            skipped = bool(drop_mask.all() or live_hosts.size == 0)
            entry = fault_log[idx] if idx < len(fault_log) else None
        rep_entry = None
        if not skipped and log_index < len(log):
            rep_entry = log[log_index]
            log_index += 1
        per_hour.append((record, rep_entry, entry, view_dist, audit, drop_mask, skipped))
    if log_index != len(log):
        violations.append(
            Violation(
                "replication_log_alignment",
                f"replication log has {len(log)} entries but only "
                f"{log_index} policy steps ran",
                {"log_entries": len(log), "steps": log_index},
            )
        )
        return violations

    for record, rep_entry, entry, view_dist, audit, drop_mask, skipped in per_hour:
        hour = record.hour
        rates = rate_process.rates_at(hour)
        effective = np.where(drop_mask, 0.0, rates)

        # Eq. 8 component split of the hour total
        want_total = (
            record.communication_cost
            + record.migration_cost
            + record.repair_cost
            + record.replication_cost
            + record.sync_cost
        )
        if abs(record.total_cost - want_total) > rtol * max(1.0, abs(want_total)):
            violations.append(
                Violation(
                    "replication_total_split",
                    f"hour {hour}: total_cost {record.total_cost!r} != "
                    f"component sum {want_total!r}",
                    {"hour": hour},
                )
            )

        if skipped or rep_entry is None:
            continue

        primary = [int(s) for s in rep_entry["primary_after"]]
        replicas = [[int(s) for s in row] for row in rep_entry["replicas_after"]]

        # feasibility: globally distinct, valid switches
        flat = primary + [s for row in replicas for s in row]
        switch_set = set(int(s) for s in topology.switches.tolist())
        if len(set(flat)) != len(flat) or not set(flat) <= switch_set:
            violations.append(
                Violation(
                    "replication_distinct",
                    f"hour {hour}: primary+replicas not globally distinct "
                    "valid switches",
                    {"hour": hour, "primary": primary, "replicas": replicas},
                )
            )

        # serving cost: Eq. 1 with per-flow min over copies, from scratch
        if faults is None:
            served = flows.with_rates(effective)
        else:
            park = (
                int(audit.surviving_hosts[0])
                if audit is not None
                else int(topology.hosts[0])
            )
            served = _park_flows(flows, drop_mask, park).with_rates(effective)
        want_comm = recompute_serving_cost(
            view_dist, served, [primary] + replicas
        )
        if abs(record.communication_cost - want_comm) > rtol * max(
            1.0, abs(want_comm)
        ):
            violations.append(
                Violation(
                    "replication_serving_cost",
                    f"hour {hour}: communication cost "
                    f"{record.communication_cost!r} != min-over-copies Eq. 1 "
                    f"{want_comm!r}",
                    {"hour": hour, "got": record.communication_cost,
                     "want": want_comm},
                )
            )

        # sync accounting: sync_fraction · Λ · Σ c(p_j, q_{r,j})
        total_rate = float(effective.sum())
        want_sync = spec.sync_fraction * total_rate * _sync_volume(
            view_dist, primary, replicas
        )
        if abs(record.sync_cost - want_sync) > rtol * max(1.0, abs(want_sync)):
            violations.append(
                Violation(
                    "replication_sync_cost",
                    f"hour {hour}: sync_cost {record.sync_cost!r} != "
                    f"recomputed {want_sync!r}",
                    {"hour": hour, "got": record.sync_cost, "want": want_sync},
                )
            )

        # C_r accounting + the C_r <= C_b dominance gate
        if rep_entry["action"] == "replicate":
            new_row = replicas[-1]
            volume = float(
                sum(view_dist[int(p), int(q)] for p, q in zip(primary, new_row))
            )
            want_cr = spec.rho * spec.mu * volume
            if abs(record.replication_cost - want_cr) > rtol * max(1.0, want_cr):
                violations.append(
                    Violation(
                        "replication_cr_accounting",
                        f"hour {hour}: C_r {record.replication_cost!r} != "
                        f"rho*mu*dist {want_cr!r}",
                        {"hour": hour, "got": record.replication_cost,
                         "want": want_cr},
                    )
                )
            c_b = spec.mu * volume
            if record.replication_cost > c_b + rtol * max(1.0, c_b):
                violations.append(
                    Violation(
                        "replication_cr_dominance",
                        f"hour {hour}: replicate chosen with C_r "
                        f"{record.replication_cost!r} > C_b {c_b!r}",
                        {"hour": hour, "c_r": record.replication_cost, "c_b": c_b},
                    )
                )
        elif record.replication_cost != 0.0:
            violations.append(
                Violation(
                    "replication_cr_accounting",
                    f"hour {hour}: action {rep_entry['action']!r} booked "
                    f"nonzero C_r {record.replication_cost!r}",
                    {"hour": hour},
                )
            )

        # the chosen action is the minimum of the priced option menu
        options = rep_entry.get("options", {})
        if options:
            hour_total = (
                rep_entry["communication_cost"]
                + rep_entry["migration_cost"]
                + rep_entry["replication_cost"]
                + rep_entry["sync_cost"]
            )
            best = min(options.values())
            if hour_total > best + rtol * max(1.0, abs(best)):
                violations.append(
                    Violation(
                        "replication_choice_min",
                        f"hour {hour}: chose {rep_entry['action']!r} at "
                        f"{hour_total!r} but menu minimum was {best!r}",
                        {"hour": hour, "options": options},
                    )
                )

        # fault-mode invariants: failover targets, paid-move pricing
        if entry is not None:
            live = (
                {int(s) for s in audit.surviving_switches.tolist()}
                if audit is not None
                else switch_set
            )
            if not set(flat) <= live:
                violations.append(
                    Violation(
                        "replication_containment",
                        f"hour {hour}: instance on failed/partitioned switch",
                        {"hour": hour, "instances": sorted(set(flat) - live)},
                    )
                )
            for _, _, target in entry.get("failovers", []):
                if int(target) not in live:
                    violations.append(
                        Violation(
                            "replication_failover_target",
                            f"hour {hour}: failover to dead switch {target}",
                            {"hour": hour, "entry": entry["failovers"]},
                        )
                    )
            if record.num_failovers != len(entry.get("failovers", [])):
                violations.append(
                    Violation(
                        "replication_failover_count",
                        f"hour {hour}: num_failovers {record.num_failovers} "
                        f"!= {len(entry.get('failovers', []))} logged",
                        {"hour": hour},
                    )
                )
            want_distance = float(
                sum(healthy[int(a), int(b)] for _, a, b in entry["repairs"])
            )
            want_repair = spec.mu * want_distance
            if abs(record.repair_cost - want_repair) > rtol * max(1.0, want_repair):
                violations.append(
                    Violation(
                        "replication_repair_pricing",
                        f"hour {hour}: repair_cost {record.repair_cost!r} != "
                        f"mu × paid-move distance {want_repair!r} "
                        "(failovers must be free)",
                        {"hour": hour, "got": record.repair_cost,
                         "want": want_repair},
                    )
                )
    return violations


def _stripped(day: DayResult, drop_extra_keys: tuple[str, ...] = ()) -> str:
    """Canonical JSON of a DayResult minus the policy name (and keys)."""
    payload = day.to_dict()
    payload.pop("policy", None)
    for key in drop_extra_keys:
        payload.get("extra", {}).pop(key, None)
    return json.dumps(payload, sort_keys=True)


def _records_json(day: DayResult) -> str:
    return json.dumps([r.to_dict() for r in day.records], sort_keys=True)


def check_oracle_replay(
    topology, flows, rate_process, day: DayResult, spec: ReplicationCaseSpec,
    *, rtol: float = DEFAULT_RTOL,
) -> list[Violation]:
    """Replay every logged hour state through the exact lattice solver.

    Fault-free cases only (the greedy and the oracle must see the same
    fabric view): ``exact_replication_step`` enumerates a strict
    superset of the greedy's menu, so its total may never exceed the
    greedy's booked hour total.
    """
    violations: list[Violation] = []
    log = day.extra.get("replication", {}).get("log", [])
    for record, rep_entry in zip(day.records, log):
        hour = record.hour
        state = ReplicaSet(
            primary=np.asarray(rep_entry["primary_before"], dtype=np.int64),
            replicas=np.asarray(
                rep_entry["replicas_before"], dtype=np.int64
            ).reshape(-1, len(rep_entry["primary_before"])),
        )
        hour_flows = flows.with_rates(rate_process.rates_at(hour))
        exact = exact_replication_step(
            topology,
            hour_flows,
            state,
            spec.mu,
            rho=spec.rho,
            sync_fraction=spec.sync_fraction,
            max_replicas=spec.max_replicas,
        )
        greedy_total = (
            rep_entry["communication_cost"]
            + rep_entry["migration_cost"]
            + rep_entry["replication_cost"]
            + rep_entry["sync_cost"]
        )
        if exact.total_cost > greedy_total + rtol * max(1.0, abs(greedy_total)):
            violations.append(
                Violation(
                    "replication_oracle_floor",
                    f"hour {hour}: exact lattice total {exact.total_cost!r} "
                    f"exceeds the greedy's booked {greedy_total!r}",
                    {"hour": hour, "exact": exact.total_cost,
                     "greedy": greedy_total, "exact_action": exact.action},
                )
            )
    return violations


def _simulate_or_none(
    spec: ReplicationCaseSpec, *, policy: str = "tom-replication",
    rho: float | None = None,
) -> DayResult | None:
    """Simulate, treating a diagnosed infeasibility as ``None``."""
    try:
        return spec.simulate(policy=policy, rho=rho)
    except InfeasibleError as exc:
        if exc.diagnosis.get("reason"):
            return None
        raise


def _audit_replication_case(
    spec: ReplicationCaseSpec, rtol: float, log: CaseLog
) -> None:
    topology, flows, rate_process, faults = spec.build()
    try:
        day = spec.simulate()
    except InfeasibleError as exc:
        if exc.diagnosis.get("reason"):
            log.outcome = "infeasible"
            log.checks += 1
        else:
            log.violations.append(
                Violation(
                    "replication_infeasible_diagnosis",
                    f"InfeasibleError without diagnosis: {exc}",
                    {"error": repr(exc)},
                )
            )
        return
    log.checks += 1
    log.violations += check_replication_day(
        topology, flows, rate_process, faults, day, spec, rtol=rtol
    )

    # ρ→0 anchor: replication disabled == plain TOM, byte for byte.
    # The anchor runs follow the *no-replica* trajectory, which on
    # a faulty fabric may go (diagnosed-)infeasible even when the
    # replicated day survived — but ρ=0, ρ→∞ and mpareto all walk
    # the same trajectory, so they must agree in fate too.
    log.checks += 1
    zero = _simulate_or_none(spec, rho=0.0)
    plain = _simulate_or_none(spec, policy="mpareto")
    never = _simulate_or_none(spec, rho=RHO_NEVER)
    if (zero is None) != (plain is None) or (
        zero is not None and _stripped(zero) != _stripped(plain)
    ):
        log.violations.append(
            Violation(
                "replication_rho0_anchor",
                "rho=0 day is not byte-identical to the mpareto day",
                {"case_id": spec.case_id},
            )
        )

    # ρ→∞ anchor: the dominance gate never opens, so nothing ever
    # replicates.  For the greedy the no-replica hours *adopt* the
    # mPareto step's own floats, so the records are additionally
    # byte-identical to plain TOM's; the exact lattice instead
    # enumerates every migration frontier (a strictly stronger
    # migrate policy), so only the structural half applies there.
    log.checks += 1
    if never is not None and never.total_replications != 0:
        log.violations.append(
            Violation(
                "replication_rho_inf_anchor",
                "rho→∞ day still replicated",
                {
                    "case_id": spec.case_id,
                    "replications": never.total_replications,
                },
            )
        )
    elif not spec.exact and (
        (never is None) != (plain is None)
        or (
            never is not None
            and _records_json(never) != _records_json(plain)
        )
    ):
        log.violations.append(
            Violation(
                "replication_rho_inf_anchor",
                "rho→∞ greedy day diverged from the mpareto records",
                {"case_id": spec.case_id},
            )
        )

    # determinism: fresh everything, same bytes
    log.checks += 1
    replay = spec.simulate()
    if _stripped(day) != _stripped(replay):
        log.violations.append(
            Violation(
                "replication_determinism",
                "re-simulating the same spec changed the DayResult",
                {"case_id": spec.case_id},
            )
        )

    # exact-oracle floor on every logged hour (fault-free cases)
    if faults is None:
        log.checks += 1
        log.violations += check_oracle_replay(
            topology, flows, rate_process, day, spec, rtol=rtol
        )

    # dropped traffic is placement-independent, so replicas can
    # never change it: byte-equal series against the mpareto day
    if (
        faults is not None
        and plain is not None
        and len(day.records) == len(plain.records)
    ):
        log.checks += 1
        mine = [r.dropped_traffic for r in day.records]
        theirs = [r.dropped_traffic for r in plain.records]
        if mine != theirs:
            log.violations.append(
                Violation(
                    "replication_dropped",
                    "dropped_traffic series diverged from the "
                    "no-replica run on the same fault stream",
                    {"case_id": spec.case_id},
                )
            )


def run_replication_case(task) -> dict:
    """Simulate, audit, anchor-check and determinism-check one case.

    Module-level and driven by a picklable ``(spec, rtol)`` task so it
    can run in worker processes and be journalled for resume.
    """
    spec, rtol = task
    return audit_case(
        "replication",
        spec,
        {"faulty": spec.faulty, "exact": spec.exact},
        partial(_audit_replication_case, spec, rtol),
    )


def _replication_mode(record: dict) -> str:
    mode = "faulty" if record["faulty"] else "fault_free"
    return mode + ("+exact" if record["exact"] else "")


def _replication_coverage(records: list[dict]) -> dict:
    return {
        "by_family": dict(Counter(r["family"] for r in records)),
        "by_mode": dict(Counter(_replication_mode(r) for r in records)),
        "by_outcome": dict(Counter(r["outcome"] for r in records)),
        "completed": sum(1 for r in records if r["outcome"] == "completed"),
    }


REPLICATION = CampaignFamily(
    name="replication",
    scope="verify-replication",
    default_cases=100,
    generate=generate_replication_cases,
    run_case=run_replication_case,
    coverage=_replication_coverage,
    describe=lambda f: f"{_replication_mode(f)} on {f['family']}",
)

"""Constrained-placement verification: MSG solvers vs the exact referee.

The fifth campaign family, auditing the capacity/delay/bandwidth
constraint machinery (:mod:`repro.constraints`) end to end.  Each
:class:`ConstrainedCaseSpec` describes one constrained query — topology,
workload, a :class:`~repro.constraints.Constraints` object derived from
seeded knobs, a solver (``msg`` / ``msg-greedy``) and an entry point —
and :func:`run_constrained_case` audits the answer from scratch:

* **feasibility** — every accepted placement passes
  :meth:`Constraints.check_placement` recomputed from the topology's
  APSP table (never from solver state), on top of the unconstrained
  invariants (distinct switches, Eq. 1 / Eq. 8 price recomputation);
* **optimality floor** — on gate-sized instances the *constrained*
  exact search (Algorithm 4/6 with the same constraint pruning) is run
  as referee: the MSG answer may never beat it, and when MSG declares
  the instance infeasible the referee must agree (and vice versa);
* **diagnosis** — a declared infeasibility must carry a structured
  diagnosis naming the binding constraint; an
  :class:`~repro.errors.InfeasibleError` without one is a finding;
* **determinism** — re-running the same spec reproduces a
  byte-identical result (compared as canonical JSON).

A diagnosed infeasible instance is a *valid recorded outcome* (the
constraints genuinely exclude every chain), not a violation.  The
``contention`` mode drives :func:`repro.solvers.contention.place_chains`
and replays the admission sequence from scratch to confirm that every
accepted chain was feasible under the occupancy/load state accumulated
by the chains admitted before it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.constraints import Constraints, active_constraints, chain_delay
from repro.core.placement import dp_placement
from repro.errors import InfeasibleError
from repro.session import SolverSession
from repro.solvers.contention import ORDERS, place_chains
from repro.solvers.msg_stage_graph import msg_greedy_placement, msg_placement
from repro.solvers.msg_stage_graph import msg_greedy_migration, msg_migration
from repro.verify.campaign import CampaignFamily, CaseLog, audit_case, tally
from repro.verify.invariants import (
    Violation,
    check_migration_result,
    check_placement_result,
)
from repro.verify.oracles import (
    OracleGate,
    check_oracle_floor,
    oracle_migration,
    oracle_placement,
)
from repro.verify.scenarios import FAMILIES, RATE_MODELS, sample_rates
from repro.workload.flows import FlowSet, place_vm_pairs

__all__ = [
    "CONSTRAINED_FAMILIES",
    "ConstrainedCaseSpec",
    "generate_constrained_cases",
    "run_constrained_case",
    "CONSTRAINED",
]

#: ladder rungs small enough that :class:`OracleGate` admits them — the
#: whole point of this campaign is the exact referee — plus one gated
#: fat-tree rung so the larger-fabric code path gets coverage too
CONSTRAINED_FAMILIES: dict[str, tuple] = {
    "fat_tree": ((2,), (4,)),
    "linear": ((6,), (5,)),
    "leaf_spine": ((3, 2, 3), (2, 2, 2)),
    "vl2": ((2, 2, 2, 2), (1, 2, 2, 2)),
    "bcube": ((3,), (2,)),
    "dcell": ((3,),),
    "jellyfish": ((8, 3, 1), (6, 3, 1)),
}

_ALGOS = ("msg", "msg", "msg-greedy")
_MODES = ("place", "place", "migrate", "contention")
_ENTRIES = ("cold", "session", "solve")
#: ``max_delay = delay_factor × (delay of the unconstrained dp chain)``
#: — below 1.0 the unconstrained answer is excluded and the solver must
#: reroute or prove infeasibility; tiny factors force the infeasible arm
_DELAY_FACTORS = (None, None, 1.5, 1.0, 0.9, 0.6, 0.25)
#: ``bandwidth = bandwidth_factor × Λ`` — every switch a chain touches
#: is charged the full chain rate, so 1.0 is the tightest satisfiable cap
_BANDWIDTH_FACTORS = (None, None, 1.0, 1.5, 2.0)


@dataclass(frozen=True)
class ConstrainedCaseSpec:
    """Everything needed to rebuild one constrained case, bit-for-bit."""

    case_id: int
    family: str
    params: tuple
    n: int
    mode: str  # "place" | "migrate" | "contention"
    entry: str  # "cold" | "session" | "solve" (contention is always cold)
    algo: str  # "msg" | "msg-greedy"; contention: admission order
    num_flows: int
    flow_seed: int
    rate_model: str
    rate_seed: int
    intra_rack: float
    mu: float = 0.0
    prev_seed: int = 0
    # -- constraint knobs ------------------------------------------------
    vnf_capacity: int | None = None
    #: pre-fill this many switches to ``vnf_capacity`` (inadmissible)
    occupied_switches: int = 0
    delay_factor: float | None = None
    bandwidth_factor: float | None = None
    #: pre-load this many switches to the full bandwidth cap
    saturated_switches: int = 0
    #: contention mode only: how many chains compete for the fabric
    num_chains: int = 2

    def build(self) -> tuple:
        """Materialize ``(topology, flows, prev, constraints)``."""
        topology = FAMILIES[self.family].builder(*self.params)
        flows = place_vm_pairs(
            topology, self.num_flows, self.intra_rack, seed=self.flow_seed
        )
        flows = flows.with_rates(
            sample_rates(self.rate_model, self.num_flows, self.rate_seed)
        )
        prev = None
        if self.mode == "migrate":
            prev_rates = sample_rates(
                self.rate_model, self.num_flows, self.prev_seed
            )
            prev = dp_placement(
                topology, flows.with_rates(prev_rates), self.n
            ).placement
        return topology, flows, prev, self.constraints(topology, flows)

    def constraints(self, topology, flows: FlowSet) -> Constraints:
        """Derive the concrete :class:`Constraints` for this instance.

        The delay bound is anchored to the *unconstrained* dp optimum's
        chain delay so the factors sweep the feasible/tight/infeasible
        boundary on every instance instead of depending on absolute edge
        weights; the bandwidth cap is anchored to the chain rate Λ.
        """
        switches = [int(s) for s in topology.switches]
        max_delay = None
        if self.delay_factor is not None and self.n >= 2:
            reference = chain_delay(
                topology, dp_placement(topology, flows, self.n).placement
            )
            if reference > 0.0:
                max_delay = self.delay_factor * reference
        bandwidth = None
        load: dict[int, float] = {}
        if self.bandwidth_factor is not None:
            bandwidth = self.bandwidth_factor * max(float(flows.total_rate), 1e-9)
            for s in switches[: self.saturated_switches]:
                load[s] = bandwidth
        occupancy: dict[int, int] = {}
        if self.vnf_capacity is not None:
            for s in switches[len(switches) - self.occupied_switches:]:
                occupancy[s] = self.vnf_capacity
        return Constraints(
            vnf_capacity=self.vnf_capacity,
            max_delay=max_delay,
            bandwidth=bandwidth,
            occupancy=occupancy,
            load=load,
        )

    def chains(self, topology) -> list[tuple[FlowSet, int]]:
        """Contention mode: the competing ``(flows, n)`` chains."""
        chains = []
        for k in range(self.num_chains):
            fl = place_vm_pairs(
                topology,
                self.num_flows,
                self.intra_rack,
                seed=self.flow_seed + 7919 * (k + 1),
            )
            fl = fl.with_rates(
                sample_rates(
                    self.rate_model, self.num_flows, self.rate_seed + k
                )
            )
            chains.append((fl, self.n))
        return chains

    def to_dict(self) -> dict:
        return {
            "case_id": self.case_id,
            "family": self.family,
            "params": list(self.params),
            "n": self.n,
            "mode": self.mode,
            "entry": self.entry,
            "algo": self.algo,
            "num_flows": self.num_flows,
            "flow_seed": self.flow_seed,
            "rate_model": self.rate_model,
            "rate_seed": self.rate_seed,
            "intra_rack": self.intra_rack,
            "mu": self.mu,
            "prev_seed": self.prev_seed,
            "vnf_capacity": self.vnf_capacity,
            "occupied_switches": self.occupied_switches,
            "delay_factor": self.delay_factor,
            "bandwidth_factor": self.bandwidth_factor,
            "saturated_switches": self.saturated_switches,
            "num_chains": self.num_chains,
        }


def _rung_size(family: str, params: tuple) -> int:
    for rung_params, switches in FAMILIES[family].ladder:
        if rung_params == params:
            return switches
    return FAMILIES[family].builder(*params).num_switches


def generate_constrained_cases(seed: int, cases: int) -> list[ConstrainedCaseSpec]:
    """``cases`` independent constrained scenarios from one campaign seed.

    Mirrors :func:`repro.verify.scenarios.generate_cases`: each case gets
    its own :class:`~numpy.random.SeedSequence` child, so case ``i`` is
    identical across runs and ``--cases`` counts.
    """
    root = np.random.SeedSequence(seed)
    specs = []
    for case_id, child in enumerate(root.spawn(cases)):
        rng = np.random.default_rng(child)
        family = sorted(CONSTRAINED_FAMILIES)[
            int(rng.integers(len(CONSTRAINED_FAMILIES)))
        ]
        rungs = CONSTRAINED_FAMILIES[family]
        params = rungs[int(rng.integers(len(rungs)))]
        num_switches = _rung_size(family, params)
        mode = _MODES[int(rng.integers(len(_MODES)))]
        # keep n ≥ 2 so the delay bound has a path to constrain, and
        # within the oracle gate so the exact referee stays available
        n = int(rng.integers(2, min(4, num_switches - 1) + 1))
        vnf_capacity = [None, 1, 2][int(rng.integers(3))]
        occupied = (
            int(rng.integers(0, 3)) if vnf_capacity is not None else 0
        )
        # never wall off so many switches that every instance trivially
        # fails the capacity precheck — leave at least n candidates free
        occupied = min(occupied, max(0, num_switches - n))
        delay_factor = _DELAY_FACTORS[int(rng.integers(len(_DELAY_FACTORS)))]
        bandwidth_factor = _BANDWIDTH_FACTORS[
            int(rng.integers(len(_BANDWIDTH_FACTORS)))
        ]
        saturated = (
            int(rng.integers(0, 2)) if bandwidth_factor is not None else 0
        )
        if mode == "contention":
            entry, algo = "cold", ORDERS[int(rng.integers(len(ORDERS)))]
        else:
            entry = _ENTRIES[int(rng.integers(len(_ENTRIES)))]
            algo = _ALGOS[int(rng.integers(len(_ALGOS)))]
        specs.append(
            ConstrainedCaseSpec(
                case_id=case_id,
                family=family,
                params=params,
                n=n,
                mode=mode,
                entry=entry,
                algo=algo,
                num_flows=int(rng.integers(2, 7)),
                flow_seed=int(rng.integers(2**30)),
                rate_model=RATE_MODELS[int(rng.integers(len(RATE_MODELS)))],
                rate_seed=int(rng.integers(2**30)),
                intra_rack=float(rng.choice([0.0, 0.5, 0.8])),
                mu=float(rng.choice([0.0, 5.0, 100.0])),
                prev_seed=int(rng.integers(2**30)),
                vnf_capacity=vnf_capacity,
                occupied_switches=occupied,
                delay_factor=delay_factor,
                bandwidth_factor=bandwidth_factor,
                saturated_switches=saturated,
                num_chains=int(rng.integers(2, 5)),
            )
        )
    return specs


def _solve_spec(spec: ConstrainedCaseSpec, topology, flows, prev, constraints):
    """Run the spec's solver through its entry point (fresh state)."""
    if spec.entry == "cold":
        if spec.mode == "place":
            solver = msg_placement if spec.algo == "msg" else msg_greedy_placement
            return solver(topology, flows, spec.n, constraints=constraints)
        solver = msg_migration if spec.algo == "msg" else msg_greedy_migration
        return solver(topology, flows, prev, spec.mu, constraints=constraints)
    session = SolverSession(topology)
    if spec.entry == "session":
        if spec.mode == "place":
            return session.place(
                flows, spec.n, algo=spec.algo, constraints=constraints
            )
        return session.migrate(
            prev, flows, mu=spec.mu, algo=spec.algo, constraints=constraints
        )
    return session.solve(
        flows, spec.n,
        prev=prev, mu=spec.mu, algo=spec.algo, constraints=constraints,
    )


def _check_contention(spec: ConstrainedCaseSpec, topology, constraints, result):
    """Replay the admission sequence from scratch and audit it."""
    violations: list[Violation] = []
    chains = spec.chains(topology)
    # the documented admission orders, recomputed independently of the
    # solver: first-fit keeps input order, contention-aware sorts by
    # descending chain rate (ties by index)
    if spec.algo == "first-fit":
        order = list(range(len(chains)))
    else:
        order = sorted(
            range(len(chains)),
            key=lambda i: (-float(chains[i][0].total_rate), i),
        )
    rejected = {idx for idx, _ in result.rejections}
    state = constraints
    for i in order:
        chain_result = result.placements[i]
        if i in rejected:
            if chain_result is not None:
                violations.append(
                    Violation(
                        "contention_bookkeeping",
                        f"chain {i} is both rejected and placed",
                        {"chain": i},
                    )
                )
            continue
        if chain_result is None:
            violations.append(
                Violation(
                    "contention_bookkeeping",
                    f"chain {i} has neither a placement nor a rejection",
                    {"chain": i},
                )
            )
            continue
        placement = chain_result.placement
        rate = float(chains[i][0].total_rate)
        problems = state.check_placement(topology, placement, rate)
        if problems:
            violations.append(
                Violation(
                    "contention_feasibility",
                    f"chain {i} violates the accumulated constraints: "
                    f"{problems}",
                    {"chain": i, "problems": problems},
                )
            )
        if active_constraints(state) is not None:
            state = state.after_placement(placement, rate)
    for idx, diagnosis in result.rejections:
        if not diagnosis.get("reason"):
            violations.append(
                Violation(
                    "contention_diagnosis",
                    f"rejected chain {idx} carries no diagnosis reason",
                    {"chain": idx, "diagnosis": diagnosis},
                )
            )
    return violations


def _audit_constrained_case(
    spec: ConstrainedCaseSpec, rtol: float, log: CaseLog
) -> None:
    gate = OracleGate()
    topology, flows, prev, constraints = spec.build()
    active = active_constraints(constraints)

    if spec.mode == "contention":
        result = place_chains(
            topology, spec.chains(topology),
            constraints=constraints, order=spec.algo,
        )
        log.checks += 1
        log.violations += _check_contention(spec, topology, constraints, result)
        log.checks += 1
        replay = place_chains(
            topology, spec.chains(topology),
            constraints=constraints, order=spec.algo,
        )
        if json.dumps(result.to_dict(), sort_keys=True) != json.dumps(
            replay.to_dict(), sort_keys=True
        ):
            log.violations.append(
                Violation(
                    "constrained_determinism",
                    "re-running the same contention spec changed the result",
                    {},
                )
            )
        if not result.accepted:
            log.outcome = "infeasible"
    else:
        result = None
        try:
            result = _solve_spec(spec, topology, flows, prev, constraints)
        except InfeasibleError as exc:
            log.checks += 1
            if exc.diagnosis.get("reason"):
                log.outcome = "infeasible"
            else:
                log.violations.append(
                    Violation(
                        "constrained_diagnosis",
                        f"InfeasibleError without diagnosis: {exc}",
                        {"error": repr(exc)},
                    )
                )

        # the constrained exact referee (gated; may itself declare
        # the instance infeasible — that is its answer, not an error)
        oracle = None
        oracle_infeasible = False
        try:
            if spec.mode == "place":
                oracle = oracle_placement(
                    topology, flows, spec.n,
                    gate=gate, constraints=constraints,
                )
            else:
                oracle = oracle_migration(
                    topology, flows, prev, spec.mu,
                    gate=gate, constraints=constraints,
                )
        except InfeasibleError:
            oracle_infeasible = True

        if result is not None:
            log.checks += 1
            if spec.mode == "place":
                log.violations += check_placement_result(
                    topology, flows, result, n=spec.n, rtol=rtol
                )
            else:
                log.violations += check_migration_result(
                    topology, flows, result, mu=spec.mu, n=spec.n, rtol=rtol
                )
            log.checks += 1
            problems = (
                active.check_placement(
                    topology, result.placement, float(flows.total_rate)
                )
                if active is not None
                else []
            )
            if problems:
                log.violations.append(
                    Violation(
                        "constrained_feasibility",
                        f"accepted placement violates the constraints "
                        f"recomputed from scratch: {problems}",
                        {"problems": problems},
                    )
                )
            log.checks += 1
            if oracle_infeasible:
                log.violations.append(
                    Violation(
                        "constrained_soundness",
                        "solver accepted a placement on an instance the "
                        "exact referee proved infeasible",
                        {"placement": result.placement},
                    )
                )
            else:
                log.violations += check_oracle_floor(result, oracle, rtol=rtol)
        elif log.outcome == "infeasible":
            log.checks += 1
            if oracle is not None and not oracle_infeasible:
                log.violations.append(
                    Violation(
                        "constrained_completeness",
                        "solver declared the instance infeasible but the "
                        "exact referee found a feasible placement "
                        f"(cost {float(oracle.cost)!r})",
                        {"oracle_cost": float(oracle.cost)},
                    )
                )

        if result is not None:
            log.checks += 1
            try:
                replayed = _solve_spec(
                    spec, topology, flows, prev, constraints
                )
            except InfeasibleError:
                replayed = None
            if replayed is None or json.dumps(
                result.to_dict(), sort_keys=True
            ) != json.dumps(replayed.to_dict(), sort_keys=True):
                log.violations.append(
                    Violation(
                        "constrained_determinism",
                        "re-running the same spec changed the result",
                        {},
                    )
                )


def run_constrained_case(task) -> dict:
    """Solve, referee and determinism-check one constrained case.

    Module-level and driven by a picklable ``(spec, rtol)`` task so it
    can run in worker processes and be journalled for resume.
    """
    spec, rtol = task
    return audit_case(
        "constrained",
        spec,
        {"policy": f"{spec.mode}:{spec.algo}"},
        partial(_audit_constrained_case, spec, rtol),
    )


CONSTRAINED = CampaignFamily(
    name="constrained",
    scope="verify-constrained",
    default_cases=200,
    generate=generate_constrained_cases,
    run_case=run_constrained_case,
    coverage=tally("family", "policy", "outcome"),
    describe=lambda f: f"{f['policy']} on {f['family']}",
)

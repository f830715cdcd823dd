"""Incremental-path verification: the cold solver as differential oracle.

The incremental solver core (ISSUE 6) promises *bit-identical results
for less work*: delta-maintained APSP tables, seeded degraded views and
shared stroll artifacts must change **when** things are computed, never
**what**.  This campaign family holds that promise down at two levels:

* **table level** — a :class:`~repro.graphs.incremental.DynamicAPSP` is
  stepped through every hour of a seeded fault trace and its tables are
  compared against a cold recompute on the same degraded edge set:
  distances must match **bitwise** (including ``inf`` for disconnected
  pairs and exact restoration after repair), and the predecessor table
  must encode a valid shortest-path tree for those distances;
* **day level** — the same fault-aware day is simulated twice, once
  through :meth:`SolverSession.apply` (``incremental=True``) and once
  through the cold per-state rebuild path, each under a fresh
  :class:`~repro.runtime.cache.ComputeCache`; the two
  :class:`~repro.sim.engine.DayResult`\\ s must serialize to identical
  canonical JSON, while the incremental run must charge **fewer**
  ``apsp_computes`` whenever the trace contains a degraded hour (the
  efficiency half of the acceptance criteria, checked per case rather
  than only in the benchmark).

Cases reuse the fault-campaign generator: the scenario space that
stresses fault handling is exactly the one that stresses incremental
maintenance (fail → repair → refail sequences, partitions, host and
link faults).  A diagnosed mid-day infeasibility is a valid outcome —
but then *both* paths must diagnose it identically.
"""

from __future__ import annotations

import json
from functools import partial

import numpy as np

from repro.core.placement import dp_placement
from repro.errors import InfeasibleError
from repro.faults import FaultProcess, degrade
from repro.graphs.apsp import edges_to_csr
from repro.graphs.incremental import DynamicAPSP
from repro.runtime.cache import ComputeCache, set_compute_cache
from repro.runtime.instrument import snapshot, snapshot_delta
from repro.sim.engine import simulate_day
from repro.topology.base import Topology
from repro.verify.campaign import CampaignFamily, CaseLog, audit_case, tally
from repro.verify.faults import FaultCaseSpec, generate_fault_cases
from repro.verify.invariants import Violation

__all__ = [
    "generate_incremental_cases",
    "check_dynamic_tables",
    "check_incremental_day",
    "run_incremental_case",
    "INCREMENTAL",
]


def generate_incremental_cases(seed: int, cases: int) -> list[FaultCaseSpec]:
    """``cases`` seeded scenarios for the incremental family.

    Deliberately the same spec space as :func:`~repro.verify.faults.
    generate_fault_cases` — every fail/repair shape that family covers is
    a delta sequence this family must maintain exactly.
    """
    return generate_fault_cases(seed, cases)


def _effective_weights(graph) -> np.ndarray:
    """The edge weights scipy actually used (CSR duplicate-summing included)."""
    n = graph.num_nodes
    dense = np.asarray(
        edges_to_csr(n, graph.edges, graph.weights).todense(), dtype=np.float64
    )
    dense[dense == 0.0] = np.inf
    np.fill_diagonal(dense, 0.0)
    return dense


def _check_pred_tree(
    dist: np.ndarray, pred: np.ndarray, weights: np.ndarray
) -> list[tuple[int, int]]:
    """Entries where ``pred`` is not a valid tree for ``dist`` (exact)."""
    n = dist.shape[0]
    finite = np.isfinite(dist)
    np.fill_diagonal(finite, False)
    rows, cols = np.nonzero(finite)
    parents = pred[rows, cols]
    bad = parents < 0  # finite distance must have a predecessor
    valid = ~bad
    r, c, p = rows[valid], cols[valid], parents[valid]
    mismatch = dist[r, c] != dist[r, p] + weights[p, c]
    failures = list(zip(rows[bad].tolist(), cols[bad].tolist()))
    failures += list(zip(r[mismatch].tolist(), c[mismatch].tolist()))
    # unreachable or diagonal entries must carry the scipy sentinel (< 0)
    unreachable = ~np.isfinite(dist)
    stray_r, stray_c = np.nonzero(unreachable & (pred >= 0))
    failures += list(zip(stray_r.tolist(), stray_c.tolist()))
    return failures


def check_dynamic_tables(
    topology: Topology, faults: FaultProcess
) -> tuple[list[Violation], int]:
    """Step a :class:`DynamicAPSP` through the fault trace; cold-check each state.

    Returns ``(violations, checks)``.  The DynamicAPSP sees every hour in
    sequence (so delta composition — fail, accumulate, repair, refail —
    is what gets exercised); each *distinct* state is cold-recomputed
    once and cached for revisits.
    """
    violations: list[Violation] = []
    checks = 0
    dynamic = DynamicAPSP(topology.graph)
    cold_tables: dict = {}
    for hour in range(faults.horizon + 1):
        state = faults.state_at(hour)
        dynamic.update_for_failures(
            failed_nodes=tuple(state.failed_switches) + tuple(state.failed_hosts),
            failed_links=state.failed_links,
        )
        if state not in cold_tables:
            view, _audit = degrade(topology, state)
            cold_dist, _cold_pred = view.graph._compute_apsp()
            cold_tables[state] = (cold_dist, _effective_weights(view.graph))
        cold_dist, weights = cold_tables[state]
        inc_dist, inc_pred = dynamic.snapshot()
        checks += 1
        if not np.array_equal(cold_dist, inc_dist):
            diff = ~(
                (cold_dist == inc_dist)
                | (np.isinf(cold_dist) & np.isinf(inc_dist))
            )
            violations.append(
                Violation(
                    "incremental_dist_bits",
                    f"hour {hour}: DynamicAPSP distances differ from cold "
                    f"recompute at {int(diff.sum())} pairs",
                    {
                        "hour": hour,
                        "state": state.to_dict(),
                        "num_diffs": int(diff.sum()),
                        "stats": dict(dynamic.stats),
                    },
                )
            )
            continue  # the pred check is meaningless on wrong distances
        checks += 1
        bad = _check_pred_tree(inc_dist, inc_pred, weights)
        if bad:
            violations.append(
                Violation(
                    "incremental_pred_tree",
                    f"hour {hour}: predecessor table invalid at "
                    f"{len(bad)} entries (first: {bad[:3]})",
                    {"hour": hour, "state": state.to_dict(), "entries": bad[:10]},
                )
            )
    return violations, checks


def _simulate_spec(spec: FaultCaseSpec, incremental: bool):
    """One fault day under a fresh cache; returns outcome + counter delta.

    The fresh :class:`ComputeCache` keeps the two paths honest: neither
    run may adopt artifacts the other one built.
    """
    fresh = ComputeCache()
    previous = set_compute_cache(fresh)
    try:
        before = snapshot()
        topology, flows, rate_process, faults = spec.build()
        placement = dp_placement(topology, flows, spec.n).placement
        policy = spec.make_policy(topology)
        try:
            day = simulate_day(
                topology,
                flows,
                policy,
                rate_process,
                placement,
                range(1, spec.horizon + 1),
                faults=faults,
                incremental=incremental,
            )
        except InfeasibleError as exc:
            return ("infeasible", exc.diagnosis.get("reason"), None)
        delta = snapshot_delta(snapshot(), before)
        return ("ok", json.dumps(day.to_dict(), sort_keys=True), delta["counters"])
    finally:
        set_compute_cache(previous)


def check_incremental_day(
    spec: FaultCaseSpec,
) -> tuple[list[Violation], int, str]:
    """Differential: incremental vs cold day, bytes and effort.

    Returns ``(violations, checks, outcome)`` where outcome is ``"ok"``
    or ``"infeasible"`` (matching diagnoses on both paths).
    """
    violations: list[Violation] = []
    checks = 0
    cold_kind, cold_payload, cold_counts = _simulate_spec(spec, incremental=False)
    inc_kind, inc_payload, inc_counts = _simulate_spec(spec, incremental=True)
    checks += 1
    if cold_kind != inc_kind:
        violations.append(
            Violation(
                "incremental_outcome",
                f"cold path finished {cold_kind!r} but incremental "
                f"finished {inc_kind!r}",
                {"cold": cold_payload, "incremental": inc_payload},
            )
        )
        return violations, checks, cold_kind
    if cold_kind == "infeasible":
        checks += 1
        if cold_payload != inc_payload:
            violations.append(
                Violation(
                    "incremental_diagnosis",
                    "both paths infeasible but with different diagnoses",
                    {"cold": cold_payload, "incremental": inc_payload},
                )
            )
        return violations, checks, "infeasible"
    checks += 1
    if cold_payload != inc_payload:
        violations.append(
            Violation(
                "incremental_day_bits",
                "incremental DayResult differs from the cold oracle",
                {
                    "len_cold": len(cold_payload),
                    "len_incremental": len(inc_payload),
                },
            )
        )
    # effort: a degraded hour must cost the incremental path strictly
    # fewer cold APSP solves (seeded views replace them)
    _topology, _flows, _rates, faults = spec.build()
    degraded_hours = any(
        not faults.state_at(h).is_healthy for h in range(1, spec.horizon + 1)
    )
    cold_apsp = cold_counts.get("apsp_computes", 0)
    inc_apsp = inc_counts.get("apsp_computes", 0)
    checks += 1
    if inc_apsp > cold_apsp or (degraded_hours and inc_apsp >= cold_apsp):
        violations.append(
            Violation(
                "incremental_apsp_effort",
                f"incremental path ran {inc_apsp} cold APSP solves vs "
                f"{cold_apsp} on the cold path "
                f"(degraded_hours={degraded_hours})",
                {
                    "cold": cold_counts,
                    "incremental": inc_counts,
                },
            )
        )
    return violations, checks, "ok"


def _audit_incremental_case(spec: FaultCaseSpec, log: CaseLog) -> None:
    topology, _flows, _rates, faults = spec.build()
    table_violations, table_checks = check_dynamic_tables(topology, faults)
    log.violations += table_violations
    log.checks += table_checks
    day_violations, day_checks, day_outcome = check_incremental_day(spec)
    log.violations += day_violations
    log.checks += day_checks
    if day_outcome == "infeasible":
        log.outcome = "infeasible"


def run_incremental_case(task) -> dict:
    """Table-level + day-level checks for one seeded case (picklable)."""
    spec, _rtol = task
    return audit_case(
        "incremental",
        spec,
        {"policy": spec.policy},
        partial(_audit_incremental_case, spec),
    )


INCREMENTAL = CampaignFamily(
    name="incremental",
    scope="verify-incremental",
    default_cases=200,
    generate=generate_incremental_cases,
    run_case=run_incremental_case,
    coverage=tally("family", "policy", "outcome"),
    describe=lambda f: f"{f['policy']} on {f['family']}",
)

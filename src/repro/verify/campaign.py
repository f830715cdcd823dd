"""The verification campaigns: one driver, six families.

A campaign is ``cases`` seeded scenarios, each audited by its family's
``run_case`` and summarized in one JSON report.  :class:`CampaignFamily`
records what differs between families — case generator, audit, coverage
tally, failure label, optional shrinker — and :func:`run_campaign` does
the rest for all of them: cases fan out through
:func:`repro.runtime.executor.map_tasks` (``--workers``), a
:class:`~repro.runtime.journal.Journal` makes a killed campaign
resumable (completed cases replay by content fingerprint), and
:func:`audit_case` turns a crash on any case into a recorded finding.
The registry of families is :data:`repro.verify.CAMPAIGNS`, driven by
``repro verify --family``.

This module also holds the **core** family (``repro verify``): seeded
scenarios (:mod:`repro.verify.scenarios`) pushed through every solver
entry point and audited with every applicable check:

* invariants (Eq. 1 / Eq. 8 / feasibility / triangle / LP floor),
* the size-gated exact oracles,
* differential bit-identity against the cold per-call solver (for the
  session entry points), and
* the metamorphic transforms whose cost relation is sound for the
  case's algorithm (see :data:`APPLICABLE`).

A failing core case is greedily shrunk
(:func:`repro.verify.scenarios.shrink_candidates`) to a minimal spec
that still fails.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import Callable

import numpy as np

from repro.baselines.common import VMMigrationResult
from repro.baselines.greedy_liu import greedy_liu_placement
from repro.baselines.mcf_migration import mcf_vm_migration
from repro.baselines.plan import plan_vm_migration
from repro.baselines.random_placement import random_placement
from repro.baselines.steering import steering_placement
from repro.core.migration import mpareto_migration, no_migration
from repro.core.optimal import optimal_migration, optimal_placement
from repro.core.placement import dp_placement, dp_placement_top1
from repro.core.primal_dual import primal_dual_placement_top1
from repro.core.types import MigrationResult, PlacementResult
from repro.errors import ReproError
from repro.runtime.cache import ComputeCache
from repro.runtime.executor import map_tasks
from repro.runtime.instrument import count, counters
from repro.runtime.journal import Journal
from repro.runtime.resilience import ResilienceConfig
from repro.session import SolverSession
from repro.utils.results_io import write_text_atomic
from repro.verify.diff import check_differential
from repro.verify.invariants import DEFAULT_RTOL, Violation, check_result
from repro.verify.metamorphic import TRANSFORMS
from repro.verify.oracles import (
    OracleGate,
    check_oracle_floor,
    oracle_migration,
    oracle_placement,
)
from repro.verify.scenarios import CaseSpec, generate_cases, shrink_candidates

__all__ = [
    "APPLICABLE",
    "CheckOptions",
    "CaseLog",
    "audit_case",
    "tally",
    "CampaignFamily",
    "CampaignConfig",
    "run_campaign",
    "run_case",
    "shrink_case",
    "CORE",
]

#: which metamorphic transforms are *sound* for which algorithm.
#:
#: The governing rule: a transform is sound iff either (a) the solver's
#: selection score IS its reported objective — then a tie that flips
#: under the transform flips to an equally priced answer (``dp``,
#: ``optimal``, the decision-free ``none``) — or (b) the transform
#: provably cannot change the solver's decisions at all: power-of-two
#: ``scale`` multiplies every float comparison operand exactly, and
#: ``zero`` appends after flow 0 so the TOP-1 solvers never see it.
#:
#: The heuristics fail (a) in a way jittered weights do NOT repair:
#: every switch on a shortest s-d path ties *exactly* in
#: ``a_in + a_out`` (``c(s,u) + c(u,d) = c(s,d)``), so steering/greedy's
#: score-order, the stroll solvers' equal-cost tour reversals, and
#: mPareto's corridor choices all flip under relabeling while their
#: reported costs (priced on the full chain) do not follow.
#: ``primal-dual`` is not even scale-equivariant — its prize bisection
#: starts from the absolute bound ``Σw + 1.0``.  ``random`` places
#: independently of weights and rates, so any flow rewrite is sound but
#: relabeling (which permutes the switch array it samples) is not.
#: The VM baselines' capacity logic counts endpoints, so only ``scale``
#: is sound for them.
APPLICABLE: dict[str, frozenset] = {
    "dp": frozenset({"relabel", "scale", "split", "zero"}),
    "top1": frozenset({"scale", "zero"}),
    "dp-stroll": frozenset({"scale", "zero"}),
    "primal-dual": frozenset({"zero"}),
    "optimal": frozenset({"relabel", "scale", "split", "zero", "reverse"}),
    "steering": frozenset({"scale"}),
    "greedy": frozenset({"scale"}),
    "random": frozenset({"scale", "split", "zero"}),
    "mpareto": frozenset({"scale"}),
    "none": frozenset({"relabel", "scale", "split", "zero"}),
    "plan": frozenset({"scale"}),
    "mcf": frozenset({"scale"}),
}

#: power of two: scaling IEEE-754 sums by it is exact, so the scale
#: transform's cost relation holds bitwise for every solver
SCALE_FACTOR = 4.0

_PLACERS = {
    "dp": dp_placement,
    "top1": dp_placement_top1,
    "dp-stroll": dp_placement_top1,
    "primal-dual": primal_dual_placement_top1,
    "optimal": optimal_placement,
    "steering": steering_placement,
    "greedy": greedy_liu_placement,
    "random": random_placement,
}

_MIGRATORS = {
    "mpareto": mpareto_migration,
    "optimal": optimal_migration,
    "none": no_migration,
    "plan": plan_vm_migration,
    "mcf": mcf_vm_migration,
}

#: these price their cost on flow 0 only
_TOP1_ALGOS = ("top1", "dp-stroll", "primal-dual")


@dataclass(frozen=True)
class CheckOptions:
    """Which check layers a case runs (journalled alongside the spec)."""

    oracle: bool = True
    lp: bool = True
    metamorphic: bool = True
    differential: bool = True
    rtol: float = DEFAULT_RTOL
    gate: OracleGate = OracleGate()


def _solve_case(spec: CaseSpec, topology, flows, prev, *, cache=None):
    """Run the case's solver through its entry point.

    Returns ``(result, priced_flows)`` — the flow set the result's cost
    is defined under (the single-flow subset for the TOP-1 algorithms).
    """
    options = {}
    if cache is not None:
        options["cache"] = cache
    if spec.algo == "random":
        options["seed"] = spec.rate_seed
    if spec.mode == "place":
        if spec.entry == "cold":
            result = _PLACERS[spec.algo](topology, flows, spec.n, **options)
        else:
            session = SolverSession(topology, cache=cache)
            if spec.entry == "session":
                result = session.place(flows, spec.n, algo=spec.algo, **options)
            elif spec.entry == "solve":
                result = session.solve(flows, spec.n, algo=spec.algo, **options)
            elif spec.entry == "place_many":
                result = session.place_many(
                    [flows], spec.n, algo=spec.algo, **options
                )[0]
            else:
                raise ValueError(f"unknown entry {spec.entry!r}")
    else:
        if spec.entry == "cold":
            result = _MIGRATORS[spec.algo](topology, flows, prev, spec.mu, **options)
        else:
            session = SolverSession(topology, cache=cache)
            if spec.entry == "session":
                result = session.migrate(
                    prev, flows, mu=spec.mu, algo=spec.algo, **options
                )
            elif spec.entry == "solve":
                result = session.solve(
                    flows, spec.n, prev=prev, mu=spec.mu, algo=spec.algo, **options
                )
            else:
                raise ValueError(f"unknown entry {spec.entry!r}")
    priced = flows.subset(np.array([0])) if spec.algo in _TOP1_ALGOS else flows
    return result, priced


def _corrupt(result, kind: str):
    """Deliberately break a result so the invariants must flag it."""
    if kind == "cost":
        bump = abs(float(result.cost)) * 0.01 + 1.0
        if isinstance(result, MigrationResult):
            return MigrationResult(
                source=result.source,
                migration=result.migration,
                cost=result.cost + bump,
                communication_cost=result.communication_cost + bump,
                migration_cost=result.migration_cost,
                algorithm=result.algorithm,
                extra=dict(result.extra),
            )
        if isinstance(result, VMMigrationResult):
            return VMMigrationResult(
                flows=result.flows,
                vnf_placement=result.vnf_placement,
                cost=result.cost + bump,
                communication_cost=result.communication_cost + bump,
                migration_cost=result.migration_cost,
                num_migrated=result.num_migrated,
                algorithm=result.algorithm,
                extra=dict(result.extra),
            )
        return PlacementResult(
            placement=result.placement,
            cost=result.cost + bump,
            algorithm=result.algorithm,
            extra=dict(result.extra),
        )
    if kind == "duplicate":
        p = np.asarray(result.placement, dtype=np.int64).copy()
        if p.size >= 2:
            p[-1] = p[0]
        return PlacementResult(
            placement=p,
            cost=float(result.cost),
            algorithm=getattr(result, "algorithm", "?"),
            extra={},
        )
    raise ValueError(f"unknown corruption kind {kind!r}")


def _oracle_violations(spec, topology, priced, prev, result, options):
    if spec.mode == "place":
        oracle = oracle_placement(
            topology, priced, spec.n, gate=options.gate, cache=ComputeCache()
        )
    else:
        if spec.algo in ("plan", "mcf"):
            # the VM baselines optimize a different objective (moving
            # VMs, not VNFs); the VNF-migration optimum is no floor
            return []
        oracle = oracle_migration(
            topology, priced, prev, spec.mu, gate=options.gate, cache=ComputeCache()
        )
    return check_oracle_floor(
        result, oracle, exact=(spec.algo == "optimal"), rtol=options.rtol
    )


def _metamorphic_names(spec: CaseSpec) -> list[str]:
    names = APPLICABLE.get(spec.algo, frozenset())
    if spec.weight_seed is None:
        # unit weights are full of exact ties; only the (bitwise-safe)
        # scale relation survives tie-break flips
        names = names & {"scale"}
    if spec.mode == "migrate":
        names = names - {"reverse"}
    return sorted(names)


def _metamorphic_violations(spec, topology, flows, prev, base_cost, options):
    violations = []
    checks = 0
    for name in _metamorphic_names(spec):
        transform = TRANSFORMS[name]
        if name in ("relabel", "zero"):
            tr = transform(topology, flows, prev, seed=spec.flow_seed)
        elif name == "scale":
            tr = transform(topology, flows, prev, factor=SCALE_FACTOR)
        else:
            tr = transform(topology, flows, prev)
        checks += 1
        try:
            t_result, _ = _solve_case(
                spec, tr.topology, tr.flows, tr.prev, cache=ComputeCache()
            )
        except Exception as exc:  # a transform must never break solvability
            violations.append(
                Violation(
                    f"metamorphic_{name}",
                    f"solver raised {type(exc).__name__} on the "
                    f"{name}-transformed scenario: {exc}",
                    {"transform": name, "error": repr(exc)},
                )
            )
            continue
        want = tr.cost_factor * base_cost
        err = abs(float(t_result.cost) - want) / max(1.0, abs(want))
        if err > options.rtol:
            violations.append(
                Violation(
                    f"metamorphic_{name}",
                    f"{name}-transformed cost {float(t_result.cost)!r} != "
                    f"{tr.cost_factor:g} × base cost {base_cost!r} "
                    f"(rel err {err:.3e})",
                    {
                        "transform": name,
                        "transformed": float(t_result.cost),
                        "expected": want,
                        "base": base_cost,
                        "rel_err": err,
                    },
                )
            )
    return violations, checks


def _audit_case(spec: CaseSpec, options: CheckOptions, log: CaseLog) -> None:
    topology, flows, prev = spec.build()
    result, priced = _solve_case(spec, topology, flows, prev)
    if spec.inject:
        result = _corrupt(result, spec.inject)
    log.checks += 1
    log.violations += check_result(
        topology,
        priced,
        result,
        mu=spec.mu if spec.mode == "migrate" else None,
        n=spec.n,
        lp=options.lp and spec.mode == "place",
        rtol=options.rtol,
    )
    if options.oracle:
        log.checks += 1
        log.violations += _oracle_violations(
            spec, topology, priced, prev, result, options
        )
    if options.differential and spec.entry != "cold":
        log.checks += 1
        cold_result, _ = _solve_case(
            replace(spec, entry="cold"),
            topology,
            flows,
            prev,
            cache=ComputeCache(),
        )
        log.violations += check_differential(result, cold_result)
    if options.metamorphic:
        meta_violations, meta_checks = _metamorphic_violations(
            spec, topology, flows, prev, float(result.cost), options
        )
        log.violations += meta_violations
        log.checks += meta_checks


def run_case(task: tuple[CaseSpec, CheckOptions]) -> dict:
    """Build, solve and audit one case; returns a JSON-friendly record.

    Module-level and driven by a picklable task so it can run in worker
    processes and be journalled for resume.
    """
    spec, options = task
    labels = {
        "algo": spec.algo,
        "entry": spec.entry,
        "mode": spec.mode,
        "n": spec.n,
        "num_flows": spec.effective_flows,
    }
    return audit_case(
        "verify", spec, labels, partial(_audit_case, spec, options), outcome=None
    )


def shrink_case(
    spec: CaseSpec, options: CheckOptions, *, max_steps: int = 200
) -> tuple[CaseSpec, dict]:
    """Greedy descent to a minimal spec that still fails.

    Tries each candidate from :func:`shrink_candidates`; the first one
    that still produces a violation becomes the new best, and the search
    restarts from it.  Every candidate is strictly smaller in some
    bounded dimension, so this terminates (``max_steps`` is a belt and
    braces cap, not a tuning knob).
    """
    record = run_case((spec, options))
    if not record["violations"]:
        return spec, record
    best, best_record = spec, record
    for _ in range(max_steps):
        for candidate in shrink_candidates(best):
            candidate_record = run_case((candidate, options))
            if candidate_record["violations"]:
                best, best_record = candidate, candidate_record
                break
        else:
            break
    return best, best_record




def _shrunk(spec: CaseSpec, options: CheckOptions) -> dict:
    shrunk_spec, shrunk_record = shrink_case(spec, options)
    return {
        "spec": shrunk_spec.to_dict(),
        "num_flows": shrunk_spec.effective_flows,
        "violations": shrunk_record["violations"],
    }


# -- the driver every campaign family shares ---------------------------------


@dataclass
class CaseLog:
    """What one case's audit has found so far.

    The audit mutates it in place, so a crash part-way through keeps the
    checks and violations counted before it.
    """

    outcome: str | None
    checks: int = 0
    violations: list[Violation] = field(default_factory=list)


def audit_case(
    counter: str,
    spec,
    labels: dict,
    audit: Callable[[CaseLog], None],
    *,
    outcome: str | None = "completed",
) -> dict:
    """Run one case's ``audit`` and return its JSON-friendly record.

    A crash on a generated scenario is a finding, not an abort: it
    becomes an ``exception`` violation and the outcome ``"error"``.  The
    record is ``case_id, family, *labels, outcome, checks, violations,
    spec``; ``outcome=None`` leaves the outcome out (the core family has
    none).  Journals store these records, so their keys never change.
    """
    count(f"{counter}_cases")
    log = CaseLog(outcome)
    try:
        audit(log)
    except Exception as exc:  # a crash on a generated scenario is a finding
        log.violations.append(
            Violation(
                "exception",
                f"{type(exc).__name__}: {exc}",
                {"error": repr(exc)},
            )
        )
        if log.outcome is not None:
            log.outcome = "error"
    if log.violations:
        count(f"{counter}_violations", len(log.violations))
    record = {"case_id": spec.case_id, "family": spec.family, **labels}
    if log.outcome is not None:
        record["outcome"] = log.outcome
    record["checks"] = log.checks
    record["violations"] = [v.to_dict() for v in log.violations]
    record["spec"] = spec.to_dict()
    return record


def tally(*keys: str) -> Callable[[list[dict]], dict]:
    """A coverage report counting the records by each of ``keys``."""

    def coverage(records: list[dict]) -> dict:
        return {f"by_{key}": dict(Counter(r[key] for r in records)) for key in keys}

    return coverage


@dataclass(frozen=True)
class CampaignFamily:
    """One verification campaign: its cases, their audit and its report.

    ``run_case`` is module-level and takes a picklable ``(spec, options)``
    task, so cases fan out to worker processes.  The journal keys each
    task by ``sha256(scope, index, pickle(task))``: ``scope``, the spec
    classes and the task shape are part of the resume contract.
    """

    name: str
    #: journal scope prefix; the campaign runs under ``<scope>@<seed>``
    scope: str
    default_cases: int
    #: ``(seed, cases) -> specs``; case ``i`` is the same at any count
    generate: Callable[[int, int], list]
    run_case: Callable[[tuple], dict]
    #: ``records -> report["coverage"]``
    coverage: Callable[[list[dict]], dict]
    #: one failure record -> the label the CLI prints for it
    describe: Callable[[dict], str]
    #: ``(spec, options) -> shrunk`` minimizer of a failing case; a family
    #: with one also takes ``inject_case`` (the self-test it must catch)
    shrink: Callable | None = None
    #: the ``options`` half of each task, from the campaign's checks
    options: Callable[[CheckOptions], object] = attrgetter("rtol")


@dataclass(frozen=True)
class CampaignConfig:
    #: scenarios to run (``None``: the family's default)
    cases: int | None = None
    seed: int = 0
    workers: int = 1
    shrink: bool = True
    checks: CheckOptions = CheckOptions()
    #: corrupt this case's result on purpose (demo / self-test)
    inject_case: int | None = None
    inject_kind: str = "cost"
    journal_path: str | Path | None = None
    report_path: str | Path | None = None


def run_campaign(family: CampaignFamily, config: CampaignConfig) -> dict:
    """Run one family's campaign and return its JSON-friendly report.

    The report holds ``config``, the ``cases``/``checks``/``violations``
    totals, the family's ``coverage``, the failing records (core ones
    with their ``shrunk`` repro) and ``runtime`` (timing, journal hits).
    """
    cases = family.default_cases if config.cases is None else config.cases
    if cases < 0:
        raise ReproError(f"cases must be a non-negative integer, got {cases}")
    if config.inject_case is not None:
        if family.shrink is None:
            raise ReproError(
                f"inject_case applies to the core family only, not {family.name!r}"
            )
        if not 0 <= config.inject_case < cases:
            raise ReproError(
                f"inject_case {config.inject_case} is not one of the "
                f"{cases} case ids"
            )
    start = time.perf_counter()
    hits_before = counters().get("journal_hits", 0)
    specs = family.generate(config.seed, cases)
    if config.inject_case is not None:
        target = next(s for s in specs if s.case_id == config.inject_case)
        if config.inject_kind == "duplicate" and target.n < 2:
            raise ReproError(
                f"inject_case {config.inject_case} places n={target.n} VNF; "
                "a 'duplicate' injection needs a chain of at least 2, so it "
                "would corrupt nothing — pick another case"
            )
        specs = [
            replace(s, inject=config.inject_kind)
            if s.case_id == config.inject_case
            else s
            for s in specs
        ]
    options = family.options(config.checks)
    tasks = [(spec, options) for spec in specs]
    journal = Journal(config.journal_path) if config.journal_path else None
    try:
        resilience = ResilienceConfig(
            scope=f"{family.scope}@{config.seed}", journal=journal
        )
        records = map_tasks(
            family.run_case, tasks, workers=config.workers, resilience=resilience
        )
    finally:
        if journal is not None:
            journal.close()
    shrink = config.shrink and family.shrink is not None
    failures = []
    for record in records:
        if not record["violations"]:
            continue
        failure = dict(record)
        if shrink:
            failure["shrunk"] = family.shrink(specs[record["case_id"]], options)
        failures.append(failure)
    elapsed = time.perf_counter() - start
    report = {
        "config": {
            "family": family.name,
            "cases": cases,
            "seed": config.seed,
            "workers": config.workers,
            "shrink": shrink,
            "rtol": config.checks.rtol,
            "inject_case": config.inject_case,
        },
        "cases": len(records),
        "checks": int(sum(r["checks"] for r in records)),
        "violations": int(sum(len(r["violations"]) for r in records)),
        "coverage": family.coverage(records),
        "failures": failures,
        "runtime": {
            "elapsed_seconds": elapsed,
            "workers": config.workers,
            "journal_hits": counters().get("journal_hits", 0) - hits_before,
        },
    }
    if config.report_path:
        write_text_atomic(Path(config.report_path), json.dumps(report, indent=2))
    return report


CORE = CampaignFamily(
    name="core",
    scope="verify",
    default_cases=100,
    generate=generate_cases,
    run_case=run_case,
    coverage=tally("algo", "family", "entry", "mode"),
    describe=lambda f: f"{f['algo']}/{f['entry']}/{f['mode']} on {f['family']}",
    shrink=_shrunk,
    options=lambda checks: checks,
)

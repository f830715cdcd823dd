"""Command-line interface: list and run the paper-reproduction experiments.

Examples
--------
::

    repro list
    repro run fig07_top1
    repro run fig11a_hourly --workers 4 --profile
    repro run fig11c_vary_l --scale paper --json results/fig11c.json
    repro run fig11a_hourly --workers 8 --max-retries 2 --task-timeout 600
    repro run fig09_top --resume            # checkpoint to .repro/journal.jsonl
    repro run-all --scale smoke
    repro verify --cases 500 --workers 2   # the core campaign
    repro verify --family faults --resume  # checkpoint to .repro/verify_journal.jsonl

Resilience flags (``--max-retries``, ``--task-timeout``, ``--on-failure``,
``--resume``) configure the execution policy of
:mod:`repro.runtime.resilience`: failed replications/sweep points are
retried with deterministic backoff, hung or dead workers lose only the
work in flight, and with ``--resume`` completed tasks are checkpointed to
an append-only journal so a killed run picks up where it stopped — with
output bit-identical to an uninterrupted run.

Exit codes: 0 on success, 1 when a command fails with a
:class:`~repro.errors.ReproError` (one ``error: ...`` line on stderr, no
traceback), 2 for a malformed command line (argparse usage message).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.errors import ReproError
from repro.experiments import SCALES, list_experiments, run_experiment
from repro.runtime.instrument import format_report
from repro.runtime.journal import Journal
from repro.runtime.resilience import ON_FAILURE, ResilienceConfig
from repro.runtime.shm import set_artifact_sharing
from repro.utils.results_io import write_text_atomic
from repro.verify import CAMPAIGNS, CampaignConfig, run_campaign

__all__ = ["main", "build_parser"]

#: default checkpoint journal for ``--resume`` without an explicit path;
#: fingerprints are scoped per experiment@scale, so one file serves all runs
DEFAULT_JOURNAL = Path(".repro") / "journal.jsonl"

#: the verification campaigns journal separately — their tasks are case
#: specs, not experiment points; fingerprints are scoped per family and
#: seed, so one file serves every campaign
DEFAULT_VERIFY_JOURNAL = Path(".repro") / "verify_journal.jsonl"

#: campaign/benchmark JSON reports land here (gitignored): generated
#: artifacts never sit next to tracked sources
DEFAULT_REPORTS_DIR = Path("reports")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Traffic-optimal VNF placement and migration (IPDPS 2022) — "
            "regenerate the paper's figures"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", help="experiment name (see `repro list`)")
    run.add_argument(
        "--scale", choices=SCALES, default="default", help="experiment scale"
    )
    run.add_argument("--json", type=Path, default=None, help="also write JSON here")
    run.add_argument(
        "--plot", action="store_true", help="also render a sparkline chart"
    )
    _add_runtime_args(run)

    run_all = sub.add_parser("run-all", help="run every registered experiment")
    run_all.add_argument(
        "--scale", choices=SCALES, default="default", help="experiment scale"
    )
    run_all.add_argument(
        "--json-dir", type=Path, default=None, help="directory for per-experiment JSON"
    )
    _add_runtime_args(run_all)

    verify = sub.add_parser(
        "verify",
        help="run a seeded verification campaign (--family picks which)",
        description=(
            "Seeded random scenarios audited from scratch; exits 1 on "
            "violations.  Families: core — every topology family and solver "
            "entry point against the invariants (Eq. 1 / Eq. 8 / feasibility "
            "/ LP floor), the size-gated exact oracles, differential "
            "bit-identity and metamorphic cost relations, failing cases "
            "shrunk to a minimal repro; faults — fault-aware days against "
            "the survivability invariants; incremental — the incremental "
            "solver core against the cold path; constrained — the MSG "
            "solvers against the constrained exact referee; replication — "
            "the migrate-vs-replicate lattice against its exact oracle and "
            "rho anchors; shard — sharded days against the unsharded loop, "
            "also under chaos.  A diagnosed infeasible instance is a "
            "recorded outcome, not a failure."
        ),
    )
    verify.add_argument(
        "--family",
        choices=list(CAMPAIGNS),
        default="core",
        help="which campaign to run (default: core)",
    )
    verify.add_argument(
        "--cases",
        type=int,
        default=None,
        metavar="N",
        help="scenarios to run (default: the family's, 100 or 200)",
    )
    verify.add_argument("--seed", type=int, default=0, help="campaign seed")
    verify.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for case fan-out (default: 1, serial)",
    )
    verify.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="PATH",
        help="where to write the JSON report (default: reports/<family>_report.json)",
    )
    verify.add_argument(
        "--no-shrink",
        action="store_true",
        help="core only: report failing cases as generated, without minimizing them",
    )
    verify.add_argument(
        "--inject-case",
        type=int,
        default=None,
        metavar="ID",
        help=(
            "core only: deliberately corrupt this case's result (self-test: "
            "the campaign must catch and shrink it)"
        ),
    )
    verify.add_argument(
        "--inject-kind",
        choices=("cost", "duplicate"),
        default=None,
        help="core only: which corruption --inject-case applies (default: cost)",
    )
    verify.add_argument(
        "--resume",
        nargs="?",
        type=Path,
        const=DEFAULT_VERIFY_JOURNAL,
        default=None,
        metavar="JOURNAL",
        help=(
            "journal completed cases and skip them on re-run "
            f"(default file: {DEFAULT_VERIFY_JOURNAL})"
        ),
    )

    serve = sub.add_parser(
        "serve",
        help="run the hardened placement service against a churn workload",
        description=(
            "Stand up the long-lived placement service (pooled solver "
            "sessions, admission control, deadline degradation, crash "
            "quarantine; DESIGN.md §5h) and drive it with a seeded "
            "flow-churn workload: redrawn tenant flowsets, optional "
            "deadline pressure, fault-event ingestion and migrations.  "
            "Prints throughput, latency percentiles, shed and degraded "
            "counts; optionally serves /healthz /readyz /metrics probes "
            "while the run is live."
        ),
    )
    serve.add_argument("--k", type=int, default=4, help="fat-tree degree")
    serve.add_argument(
        "--pairs", type=int, default=12, metavar="L", help="VM pairs per request"
    )
    serve.add_argument("--sfc", type=int, default=2, metavar="N", help="SFC length")
    serve.add_argument(
        "--requests", type=int, default=200, metavar="N", help="requests to issue"
    )
    serve.add_argument(
        "--concurrency", type=int, default=16, metavar="N",
        help="client-side concurrent submitters",
    )
    serve.add_argument("--seed", type=int, default=11, help="workload seed")
    serve.add_argument(
        "--max-queue", type=int, default=128, metavar="N",
        help="outstanding-request bound (queued + in-flight)",
    )
    serve.add_argument(
        "--solver-concurrency", type=int, default=4, metavar="N",
        help="concurrent solver threads in the service",
    )
    serve.add_argument(
        "--rate-limit", type=float, default=None, metavar="RPS",
        help="per-topology token-bucket refill (default: off)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="soft deadline carried by every request",
    )
    serve.add_argument(
        "--deadline-every", type=int, default=0, metavar="N",
        help="every Nth request carries a zero deadline (degradation pressure)",
    )
    serve.add_argument(
        "--latency-budget", type=float, default=None, metavar="SECONDS",
        help="p95 solve-latency budget for the circuit breaker (default: off)",
    )
    serve.add_argument(
        "--fault-every", type=int, default=0, metavar="N",
        help="ingest a switch fail/repair event every N requests",
    )
    serve.add_argument(
        "--migrate-every", type=int, default=0, metavar="N",
        help="every Nth request migrates from the last served placement",
    )
    serve.add_argument(
        "--probe-port", type=int, default=None, metavar="PORT",
        help="also serve /healthz /readyz /metrics on 127.0.0.1:PORT",
    )
    serve.add_argument(
        "--json",
        type=Path,
        default=DEFAULT_REPORTS_DIR / "serve_report.json",
        metavar="PATH",
        help="where to write the JSON summary (default: reports/serve_report.json)",
    )
    return parser


def _add_runtime_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for replication/sweep fan-out (default: 1, serial)",
    )
    sub.add_argument(
        "--profile",
        action="store_true",
        help="print the runtime report (phase timers, cache hit rates, speedup)",
    )
    sub.add_argument(
        "--max-retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "extra attempts per failed replication, sweep point or shard "
            "task (default: 0)"
        ),
    )
    sub.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill and retry any single task running longer than this",
    )
    sub.add_argument(
        "--on-failure",
        choices=ON_FAILURE,
        default="fail",
        help=(
            "what to do when a task exhausts its retries: abort the run "
            "('fail', default) or record it and keep going ('skip')"
        ),
    )
    sub.add_argument(
        "--no-shared-artifacts",
        action="store_true",
        help=(
            "do not ship precomputed per-topology artifacts (APSP, stroll "
            "matrices) to worker processes via shared memory; each worker "
            "re-derives them (results are identical either way)"
        ),
    )
    sub.add_argument(
        "--incremental",
        dest="incremental",
        action="store_true",
        default=True,
        help=(
            "maintain solver artifacts incrementally across simulated hours "
            "and fault events (default; results are bit-identical either way)"
        ),
    )
    sub.add_argument(
        "--no-incremental",
        dest="incremental",
        action="store_false",
        help=(
            "rebuild every hour's APSP tables and degraded views from "
            "scratch — the cold differential-oracle path"
        ),
    )
    sub.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help=(
            "split each simulated day's flow population into N deterministic "
            "shards aggregated on the worker pool (results are "
            "bit-identical to the unsharded loop; policies that need "
            "per-flow access fall back to it automatically); shard tasks "
            "follow --max-retries and --task-timeout"
        ),
    )
    sub.add_argument(
        "--shard-mem-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help=(
            "per-shard memory budget for the aggregation gather; over "
            "budget, workers degrade to column strips and the supervisor "
            "splits tasks block-by-block before giving up"
        ),
    )
    sub.add_argument(
        "--resume",
        nargs="?",
        type=Path,
        const=DEFAULT_JOURNAL,
        default=None,
        metavar="JOURNAL",
        help=(
            "checkpoint completed tasks to an append-only journal and skip "
            f"tasks already journalled (default file: {DEFAULT_JOURNAL})"
        ),
    )


def _resilience_from_args(args, journal: Journal | None) -> ResilienceConfig:
    return ResilienceConfig(
        max_retries=args.max_retries,
        task_timeout=args.task_timeout,
        on_failure=args.on_failure,
        journal=journal,
    )


def _run_one(
    name: str,
    scale: str,
    json_path: Path | None,
    out,
    plot: bool = False,
    workers: int = 1,
    profile: bool = False,
    resilience: ResilienceConfig | None = None,
) -> None:
    start = time.perf_counter()
    result = run_experiment(name, scale, workers=workers, resilience=resilience)
    elapsed = time.perf_counter() - start
    print(result.to_table(), file=out)
    if plot:
        print(file=out)
        print(result.to_chart(), file=out)
    if profile:
        print(file=out)
        print(format_report(result.params["runtime"]), file=out)
    print(f"[{name} @ {scale}: {elapsed:.1f}s]", file=out)
    if json_path is not None:
        # temp-file + os.replace: a crash mid-write can never leave a
        # truncated JSON where a previous good result used to be
        write_text_atomic(json_path, result.to_json())
        print(f"wrote {json_path}", file=out)


#: exit code of a command that failed with a ReproError
EXIT_ERROR = 1


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        return _dispatch(build_parser().parse_args(argv), out)
    except BrokenPipeError:  # e.g. `repro list | head`
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _run_verify(args, out) -> int:
    family = CAMPAIGNS[args.family]
    core_only = [
        flag
        for flag, given in (
            ("--no-shrink", args.no_shrink),
            ("--inject-case", args.inject_case is not None),
            ("--inject-kind", args.inject_kind is not None),
        )
        if given
    ]
    if core_only and family.shrink is None:
        raise ReproError(
            f"{', '.join(core_only)}: core-family options, not valid "
            f"with --family {family.name}"
        )
    json_path = args.json or DEFAULT_REPORTS_DIR / f"{family.name}_report.json"
    if args.resume is not None and Path(args.resume).exists():
        print(f"resuming from {args.resume}", file=out)
    start = time.perf_counter()
    report = run_campaign(
        family,
        CampaignConfig(
            cases=args.cases,
            seed=args.seed,
            workers=args.workers,
            shrink=not args.no_shrink,
            inject_case=args.inject_case,
            inject_kind=args.inject_kind or "cost",
            journal_path=args.resume,
            report_path=json_path,
        ),
    )
    elapsed = time.perf_counter() - start
    hits = report["runtime"]["journal_hits"]
    resumed = f", {hits} from journal" if hits else ""
    outcomes = report["coverage"].get("by_outcome")
    breakdown = (
        " (" + ", ".join(f"{n} {o}" for o, n in sorted(outcomes.items())) + ")"
        if outcomes
        else ""
    )
    print(
        f"{report['cases']} {family.name} cases{breakdown}, "
        f"{report['checks']} checks, "
        f"{report['violations']} violations{resumed} "
        f"[seed {args.seed}, {elapsed:.1f}s]",
        file=out,
    )
    for failure in report["failures"]:
        shrunk = failure.get("shrunk")
        where = (
            f"shrunk to {shrunk['num_flows']} flow(s): {shrunk['spec']}"
            if shrunk
            else f"spec: {failure['spec']}"
        )
        print(
            f"  case {failure['case_id']} ({family.describe(failure)}): "
            f"{len(failure['violations'])} violation(s); {where}",
            file=out,
        )
        for violation in failure["violations"][:3]:
            print(f"    [{violation['invariant']}] {violation['message']}", file=out)
    print(f"wrote {json_path}", file=out)
    return 1 if report["violations"] else 0


def _run_serve(args, out) -> int:
    import asyncio
    import json

    from repro.serve import ChurnConfig, PlacementService, ServeConfig, run_churn
    from repro.serve.health import start_probe_server

    config = ServeConfig(
        max_queue=args.max_queue,
        max_concurrency=args.solver_concurrency,
        rate_limit=args.rate_limit,
        latency_budget=args.latency_budget,
    )
    churn = ChurnConfig(
        k=args.k,
        num_pairs=args.pairs,
        sfc_size=args.sfc,
        requests=args.requests,
        concurrency=args.concurrency,
        seed=args.seed,
        deadline=args.deadline,
        deadline_every=args.deadline_every,
        fault_every=args.fault_every,
        migrate_every=args.migrate_every,
    )

    async def run() -> dict:
        probe_server = None
        async with PlacementService(config) as service:
            if args.probe_port is not None:
                probe_server = await start_probe_server(
                    service, port=args.probe_port
                )
                port = probe_server.sockets[0].getsockname()[1]
                print(f"probes on http://127.0.0.1:{port}/metrics", file=out)
            try:
                summary = await run_churn(service, churn)
            finally:
                if probe_server is not None:
                    probe_server.close()
                    await probe_server.wait_closed()
            summary["service"] = service.metrics()
        return summary

    summary = asyncio.run(run())
    latency = summary["latency"]
    print(
        f"{summary['completed']}/{summary['requests']} served "
        f"({summary['shed_total']} shed, {summary['failed']} failed, "
        f"{summary['infeasible']} infeasible, "
        f"{summary['degraded']} degraded, {summary['retried']} retried) "
        f"at {summary['rps']:.0f} rps",
        file=out,
    )
    print(
        f"latency p50/p95/p99: {1000 * latency['p50']:.1f} / "
        f"{1000 * latency['p95']:.1f} / {1000 * latency['p99']:.1f} ms; "
        f"{summary['users_modeled']:,} users modeled",
        file=out,
    )
    if args.json is not None:
        write_text_atomic(args.json, json.dumps(summary, indent=2, sort_keys=True))
        print(f"wrote {args.json}", file=out)
    return 0


def _dispatch(args, out) -> int:
    if args.command == "list":
        for name, description in list_experiments().items():
            print(f"{name:28s} {description}", file=out)
        return 0
    if args.command == "serve":
        return _run_serve(args, out)
    if args.command == "verify":
        return _run_verify(args, out)
    if getattr(args, "no_shared_artifacts", False):
        set_artifact_sharing(False)
    if not getattr(args, "incremental", True):
        from repro.sim.engine import set_incremental

        set_incremental(False)
    if getattr(args, "shards", None):
        from repro.shard import ShardConfig
        from repro.sim.engine import set_sharding

        set_sharding(
            ShardConfig(
                num_shards=args.shards,
                mem_budget=args.shard_mem_budget,
            )
        )
    journal = Journal(args.resume) if getattr(args, "resume", None) else None
    try:
        if args.command == "run":
            if journal is not None and len(journal):
                print(
                    f"resuming from {journal.path} ({len(journal)} tasks journalled)",
                    file=out,
                )
            _run_one(
                args.experiment,
                args.scale,
                args.json,
                out,
                plot=args.plot,
                workers=args.workers,
                profile=args.profile,
                resilience=_resilience_from_args(args, journal),
            )
            return 0
        if args.command == "run-all":
            for name in list_experiments():
                json_path = (
                    args.json_dir / f"{name}.json"
                    if args.json_dir is not None
                    else None
                )
                _run_one(
                    name,
                    args.scale,
                    json_path,
                    out,
                    workers=args.workers,
                    profile=args.profile,
                    resilience=_resilience_from_args(args, journal),
                )
                print(file=out)
            return 0
    finally:
        if journal is not None:
            journal.close()
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

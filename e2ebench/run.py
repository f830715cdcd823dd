"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload fault_day --seed 0 --seconds 55 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` measures half the window untraced and half traced and
prints the per-layer metrics plus the tracing overhead.  ``--toy`` swaps
in tiny shapes (the smoke test uses it).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record (environment, checks, spans summary) is
written under ``e2ebench/results/``.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, so process CPU time is the
# program's own work rather than spinning BLAS helper threads
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

BENCHMARK = HERE.parent / "BENCHMARK.json"

#: span-time metrics: metric -> span name (total span CPU per operation)
SPAN_METRICS = {
    "sim.step_ms": "sim.step",
    "workload.rates_at_ms": "workload.rates_at",
    "migration.mpareto_ms": "migration.mpareto",
    "replication.step_ms": "replication.step",
    "placement.cold_ms": "placement.cold",
    "placement.warm_ms": "placement.warm",
    "stroll.batch_solve_ms": "stroll.batch_solve",
    "graphs.metric_closure_ms": "graphs.metric_closure",
    "session.apply_ms": "session.apply",
    "faults.degrade_ms": "faults.degrade",
    "faults.evacuate_ms": "faults.evacuate",
}

#: counter metrics: metric -> repro.runtime.instrument counter
COUNTER_METRICS = {
    "stroll.matrix_builds": "stroll_matrix_builds",
    "stroll.warm_hits": "stroll_warm_hits",
    "apsp.incremental_updates": "apsp_incremental_updates",
    "apsp.full_rebuilds": "apsp_full_rebuilds",
}

#: program counters recorded per operation in every run (work, not time)
WORK_COUNTERS = (
    "dp_solves", "stroll_matrix_builds", "session_fault_views", "apsp_full_rebuilds",
)

#: set-up repeats: at least MIN, stop once they took SETUP_BUDGET_S, at most MAX
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 1.5


def environment(seed: int) -> dict:
    import numpy
    import scipy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def steal_seconds() -> float:
    """Cumulative CPU time the hypervisor gave to others (all CPUs)."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def percentile(values, pct: float) -> float:
    import numpy as np

    return float(np.percentile(values, pct))


def timed_setups(workload) -> list[float]:
    times: list[float] = []
    while len(times) < SETUP_MAX:
        gc.collect()  # free what the previous set-up left behind
        start = time.process_time()
        workload.setup()
        times.append(time.process_time() - start)
        if len(times) >= SETUP_MIN and sum(times) >= SETUP_BUDGET_S:
            break
    return times


def end_to_end(workload, window, setups) -> dict:
    samples, best = window.samples_ms, window.best_ms
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ms": statistics.median(best or samples),
        "op_tail_ms": percentile(samples, workload.tail_pct),
        "op_cpu_ms": (
            statistics.fmean(best) if best else 1000.0 * window.cpu_s / window.ops
        ),
    }


def cache_totals(window, before, after) -> dict:
    out = {}
    for field in ("hits", "misses", "evictions"):
        total = after["cache"][field] - before["cache"][field]
        total += window.cache_stats.get(field, 0)
        out[field] = total
    return out


def per_layer(names, untraced, traced, setup_spans, window_spans, counters, caches):
    from tracing import summarize

    ops = traced.ops
    summary = summarize(window_spans)
    setup_summary = summarize(setup_spans)

    def total(name) -> float:
        return summary.get(name, {}).get("total_s", 0.0)

    out = dict.fromkeys(names, 0.0)
    out.update({metric: 1000.0 * total(span) / ops for metric, span in SPAN_METRICS.items()})
    loop = summary.get("sim.simulate_day", {}).get("self_s", 0.0)
    out["sim.loop_self_ms"] = 1000.0 * loop / ops
    for metric, counter in COUNTER_METRICS.items():
        out[metric] = counters.get(counter, 0) / ops
    builds, warm = counters.get("stroll_matrix_builds", 0), counters.get("stroll_warm_hits", 0)
    out["stroll.hit_ratio"] = warm / (warm + builds) if warm + builds else 0.0
    # sources solved: every batch_solve call solves all m sources at once
    out["stroll.targets"] = summary.get("stroll.batch_solve", {}).get("size", 0) / ops
    updates = counters.get("apsp_incremental_updates", 0)
    rebuilds = counters.get("apsp_full_rebuilds", 0)
    out["apsp.incremental_ratio"] = (updates - rebuilds) / updates if updates else 0.0
    out["graphs.apsp_ms"] = 1000.0 * setup_summary.get("graphs.apsp", {}).get("total_s", 0.0)
    for field, value in caches.items():
        out[f"cache.{field}"] = value / ops
    for metric, value in traced.layers.items():
        out[metric] = value / ops if metric == "replication.replicas" else value
    if untraced.capacity is not None:
        out["serve.max_rps"] = untraced.capacity
        out["serve.latency_ms_p99"] = percentile(untraced.samples_ms, 99)
    out["trace.overhead_ratio"] = statistics.median(traced.samples_ms) / statistics.median(
        untraced.samples_ms
    )
    return out, summary


def design_split(name, metrics) -> list[str]:
    """The split the benchmark's design predicts, as measured."""
    if name == "cold_top":
        share = metrics["stroll.batch_solve_ms"] / max(metrics["placement.cold_ms"], 1e-12)
        return [f"stroll.batch_solve share of a cold build: {share:.1%}"]
    if name == "tom_day":
        return [f"stroll matrix builds per hour in the window: {metrics['stroll.matrix_builds']}"]
    if name == "fault_day":
        return [
            f"apsp full rebuilds per hour: {metrics['apsp.full_rebuilds']:.3f}",
            f"session.apply ms per hour: {metrics['session.apply_ms']:.3f}",
        ]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny shapes (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: repro sources not found at {SRC}", file=sys.stderr)
        return 2
    # one CPU for the whole process: a thread woken on the second vCPU of
    # a shared host can wait out the hypervisor's steal (measured at ~1
    # CPU-s per s for the serve workload unpinned, ~0.05 pinned)
    usable = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {usable[0]})
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)

    from repro.runtime import instrument
    from repro.runtime.cache import get_compute_cache, set_compute_cache
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    pins = json.loads((HERE / "pins.json").read_text())
    # metric names and units, as BENCHMARK.json declares them
    declared = {
        kind: {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())[kind]}
        for kind in ("end_to_end", "per_layer")
    }
    RESULTS.mkdir(exist_ok=True)
    original_cache = get_compute_cache()
    env = environment(args.seed)
    env["usable_cpus"], env["pinned_cpu"] = len(usable), usable[0]
    workload = WORKLOADS[args.workload](args.seed, args.toy)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "toy": args.toy, "shape": workload.shape,
              "environment": env}
    try:
        setups = timed_setups(workload)
        record["setup_s"] = setups
        if args.trace == 0:
            counters0, steal0 = instrument.counters(), steal_seconds()
            window = workload.measure(args.seconds, ladder=False)
            counters1 = instrument.counters()
            record["steal_s_per_s"] = (steal_seconds() - steal0) / window.wall_s
            record["work_per_op"] = {
                name: (counters1.get(name, 0) - counters0.get(name, 0)) / window.ops
                for name in WORK_COUNTERS
            }
            metrics = end_to_end(workload, window, setups)
            units = declared["end_to_end"]
            windows = [window]
        else:
            untraced = workload.measure(args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                tracer.context = "setup"
                workload.setup()
                mark = len(tracer.spans)
                counters0, report0 = instrument.counters(), instrument.report()
                traced = workload.measure(args.seconds / 2, tracer, ladder=False)
                counters1, report1 = instrument.counters(), instrument.report()
            finally:
                tracer.uninstall()
            counters = {k: v - counters0.get(k, 0) for k, v in counters1.items()}
            units = declared["per_layer"]
            metrics, summary = per_layer(
                units, untraced, traced, tracer.spans[:mark], tracer.spans[mark:],
                counters, cache_totals(traced, report0, report1),
            )
            windows = [untraced, traced]
            record["spans"] = summary
            tracer.dump(RESULTS / f"{args.workload}-seed{args.seed}-spans.json")
            record["design_split"] = design_split(args.workload, metrics)
        try:
            checks = workload.checks(pins)
        except Exception as exc:  # a crashing check is a failed check, not a crashed run
            checks = [("checks_completed", 1, repr(exc))]
    finally:
        workload.close()
        set_compute_cache(original_cache)

    ops = sum(w.ops + w.notes.get("ladder_requests", 0) for w in windows)
    failed = sum(w.failed_ops for w in windows) + sum(c[1] for c in checks)
    attempted = ops + len(checks)
    samples = windows[-1].samples_ms
    tail = percentile(samples, workload.tail_pct)
    record.update(
        checks=[{"name": n, "failures": f, "detail": d} for n, f, d in checks],
        samples=len(samples),
        tail_pct=workload.tail_pct,
        beyond_tail=sum(1 for s in samples if s > tail),
        notes=[w.notes for w in windows],
        samples_ms=samples,
        layers=[w.layers for w in windows],
    )
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    record["result"] = out
    suffix = "-toy" if args.toy else ""
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} shape {workload.shape}")
    print("environment " + json.dumps(env))
    print(f"setup reps (CPU s): {', '.join(f'{s:.4f}' for s in setups)}")
    if "steal_s_per_s" in record:
        print(f"hypervisor steal during the window: {record['steal_s_per_s']:.3f} CPU-s per s")
    print(f"ops: {record['samples']} samples; tail p{workload.tail_pct:g} "
          f"with {record['beyond_tail']} samples beyond it; "
          + ", ".join(f"p{p} {percentile(samples, p):.3f} ms" for p in (50, 90, 99)))
    for name, failures, detail in checks:
        print(f"check {name}: {'ok' if failures == 0 else f'FAILED x{failures}'} ({detail})")
    for line in record.get("design_split", ()):
        print(line)
    for w in windows:
        if "ladder" in w.notes:
            print("ladder " + json.dumps(w.notes["ladder"]))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Benchmark: the sharded day loop on a streamed paper-scale population.

Runs one diurnal day over a :class:`~repro.workload.stream.StreamingWorkload`
— the parent process never materializes the flow population — three ways:

* **serial**: one shard, in-process (the unsharded-equivalent baseline);
* **sharded**: 8 shards on a worker pool (``min(8, cores)`` workers);
* **chaos**: the same 8-shard run under deterministic fault injection
  (worker crashes and hard kills with pool rebuilds and re-dispatch).

and reports

* **bit-identity**: all three runs must serialize to the same JSON bytes
  (asserted, not just reported — supervision is pure scheduling);
* **wall clock**: seconds per leg and the pool-vs-serial speedup.  The
  ``>= 2x`` speedup gate only applies on machines with at least 4 cores
  (a 1-core container runs the pool legs for correctness, not speed);
* **supervision counters**: dispatches, retries, pool restarts.

The JSON report (``--json``, default ``reports/BENCH_shard.json``) is
persisted as a CI artifact by the shard workflow job.

Usage::

    python benchmarks/bench_shard.py            # full: k=16, 1M flows
    python benchmarks/bench_shard.py --smoke    # CI-sized
    python benchmarks/bench_shard.py --json out.json
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np

from repro.runtime.resilience import ChaosConfig, ResilienceConfig
from repro.shard import ShardConfig, simulate_day_sharded
from repro.sim.policies import MParetoPolicy
from repro.topology.fattree import fat_tree
from repro.utils.results_io import write_text_atomic
from repro.workload.diurnal import DiurnalModel
from repro.workload.stream import RackTable, StreamingWorkload

SPEEDUP_FLOOR = 2.0
SPEEDUP_MIN_CORES = 4


def _run_leg(topology, stream, placement, horizon, mu, *, num_shards,
             workers, chaos=None):
    config = ShardConfig(
        num_shards=num_shards, block_size=stream.chunk_size, workers=workers
    )
    resilience = ResilienceConfig(max_retries=3, backoff_base=0.001, chaos=chaos)
    report: dict = {}
    start = time.perf_counter()
    day = simulate_day_sharded(
        topology,
        stream,
        MParetoPolicy(topology, mu=mu),
        None,
        placement,
        range(1, horizon + 1),
        config=config,
        diurnal=DiurnalModel(num_hours=horizon),
        resilience=resilience,
        report=report,
    )
    elapsed = time.perf_counter() - start
    return json.dumps(day.to_dict(), sort_keys=True), elapsed, report


def bench(k, num_flows, chunk_size, n, horizon, mu, json_path, smoke):
    cores = os.cpu_count() or 1
    topology = fat_tree(k)
    stream = StreamingWorkload(
        rack_table=RackTable.from_topology(topology),
        num_flows=num_flows,
        chunk_size=chunk_size,
        seed=11,
    )
    placement = np.asarray(topology.switches[:n], dtype=np.int64)
    pool_workers = min(8, max(2, cores))
    print(
        f"streamed day: fat_tree(k={k}), {num_flows} flows in "
        f"{stream.num_chunks} chunks of {chunk_size}, n={n}, {horizon}h, "
        f"{cores} cores"
    )

    serial_bytes, serial_s, _ = _run_leg(
        topology, stream, placement, horizon, mu, num_shards=1, workers=1
    )
    sharded_bytes, sharded_s, sharded_report = _run_leg(
        topology, stream, placement, horizon, mu,
        num_shards=8, workers=pool_workers,
    )
    chaos = ChaosConfig(
        seed=7, crash_rate=0.1, kill_rate=0.1, faulty_attempts=1
    )
    chaos_bytes, chaos_s, chaos_report = _run_leg(
        topology, stream, placement, horizon, mu,
        num_shards=8, workers=pool_workers, chaos=chaos,
    )

    assert sharded_bytes == serial_bytes, (
        "8-shard day diverged from the serial baseline"
    )
    assert chaos_bytes == serial_bytes, (
        "chaos-injected day diverged from the serial baseline"
    )
    print("bit-identity: serial == sharded == chaos on the full DayResult  OK")

    speedup = serial_s / sharded_s if sharded_s else 0.0
    print(f"serial      : {serial_s:7.3f}s")
    print(
        f"sharded     : {sharded_s:7.3f}s  ({pool_workers} workers, "
        f"{sharded_report['dispatched']} tasks)  {speedup:5.2f}x"
    )
    print(
        f"chaos       : {chaos_s:7.3f}s  "
        f"(retries={chaos_report['retries']}, "
        f"pool_restarts={chaos_report['pool_restarts']})"
    )
    if cores >= SPEEDUP_MIN_CORES:
        assert speedup >= SPEEDUP_FLOOR, (
            f"expected >= {SPEEDUP_FLOOR}x on {cores} cores, got {speedup:.2f}x"
        )
    else:
        print(
            f"speedup gate skipped: {cores} core(s) < {SPEEDUP_MIN_CORES} "
            "(pool legs ran for correctness only)"
        )

    report = {
        "workload": {
            "topology": f"fat_tree({k})",
            "num_flows": num_flows,
            "chunk_size": chunk_size,
            "num_chunks": stream.num_chunks,
            "num_vnfs": n,
            "horizon": horizon,
            "mu": mu,
            "smoke": smoke,
        },
        "environment": {"cores": cores, "pool_workers": pool_workers},
        "serial": {"seconds": serial_s},
        "sharded": {"seconds": sharded_s, "report": sharded_report},
        "chaos": {"seconds": chaos_s, "report": chaos_report},
        "bit_identical": True,
        "chaos_identical": True,
        "speedup": speedup,
        "speedup_gate_applied": cores >= SPEEDUP_MIN_CORES,
    }
    if json_path:
        write_text_atomic(json_path, json.dumps(report, indent=2, sort_keys=True))
        print(f"report written to {json_path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="CI-sized run")
    parser.add_argument("--k", type=int, default=None)
    parser.add_argument("--flows", type=int, default=None)
    parser.add_argument("--chunk-size", type=int, default=None)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--horizon", type=int, default=None)
    parser.add_argument("--mu", type=float, default=1e2)
    parser.add_argument("--json", default="reports/BENCH_shard.json")
    args = parser.parse_args(argv)
    k = args.k or (4 if args.smoke else 16)
    flows = args.flows or (600 if args.smoke else 1_000_000)
    chunk = args.chunk_size or (64 if args.smoke else 65_536)
    n = args.n or (2 if args.smoke else 3)
    horizon = args.horizon or (4 if args.smoke else 6)
    return bench(k, flows, chunk, n, horizon, args.mu, args.json, args.smoke)


if __name__ == "__main__":
    raise SystemExit(main())

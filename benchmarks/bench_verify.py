"""Benchmark: verification-campaign throughput (cases and checks per second).

The campaign's value scales with how many scenarios it can audit per CPU
second — every check layer (invariants, oracles, differential re-solves,
metamorphic re-solves) multiplies the work per case.  This script times
one seeded campaign, reports the throughput, and asserts it found zero
violations (a benchmark that passes on a broken verifier is worthless).

Usage::

    python benchmarks/bench_verify.py             # 200 cases, all layers
    python benchmarks/bench_verify.py --smoke     # CI-sized (50 cases)
    python benchmarks/bench_verify.py --workers 2
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.verify import CAMPAIGNS, CampaignConfig, CheckOptions, run_campaign


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized run (50 cases)"
    )
    parser.add_argument(
        "--no-metamorphic",
        action="store_true",
        help="time the invariant/oracle layers alone",
    )
    args = parser.parse_args(argv)
    cases = 50 if args.smoke else args.cases

    checks = CheckOptions(metamorphic=not args.no_metamorphic)
    start = time.perf_counter()
    report = run_campaign(
        CAMPAIGNS["core"],
        CampaignConfig(
            cases=cases,
            seed=args.seed,
            workers=args.workers,
            shrink=False,
            checks=checks,
        ),
    )
    elapsed = time.perf_counter() - start

    print(
        f"{report['cases']} cases / {report['checks']} checks in {elapsed:.2f}s "
        f"({report['cases'] / elapsed:.1f} cases/s, "
        f"{report['checks'] / elapsed:.1f} checks/s, workers={args.workers})"
    )
    for key, countsr in sorted(report["coverage"]["by_mode"].items()):
        print(f"  {key}: {countsr}")
    if report["violations"]:
        print(f"FAIL: {report['violations']} violations", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

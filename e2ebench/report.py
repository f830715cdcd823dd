"""Steadiness report: is each end-to-end metric steady enough for its bound?

Two sub-commands, run from the repository root::

    # one set of runs: every workload x seeds, results copied into DEST
    python3 e2ebench/report.py run --seeds 0-9 --dest SET_DIR [--workloads a,b]

    # compare two sets of the same code
    python3 e2ebench/report.py compare SET_A SET_B

``compare`` prints, per workload and metric, each set's median and its
interquartile spread as a share of the median (``statistics.quantiles``
with n=4), and the deviation between the two medians, all against the
metric's bound in ``BENCHMARK.json``.  The deviation is judged both
ways (the larger of B against A and A against B), since either set may
be the parent's.  A spread should stay under a third of the bound, and
the same rule holds for every metric, ``setup_s`` too.  It also prints
how much work per simulated hour differs across seeds on
``fault_day``: different seeds draw different fault streams, so part of
that workload's spread is the input, not the machine.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_set(args) -> int:
    bench = load_benchmark()
    names = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]
    ]
    dest = Path(args.dest)
    dest.mkdir(parents=True, exist_ok=True)
    for seed in parse_seeds(args.seeds):
        for name in names:
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            print(f"{name} seed {seed}: exit {proc.returncode} {last[:160]}", flush=True)
            src = HERE / "results" / f"{name}-seed{seed}-trace0.json"
            if proc.returncode == 0 and src.exists():
                shutil.copy(src, dest / src.name)
    return 0


def load_set(directory: Path) -> dict:
    """workload -> list of run records (trace 0, default shapes)."""
    runs: dict[str, list] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        if not record.get("toy"):
            runs.setdefault(record["workload"], []).append(record)
    return runs


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def compare(args) -> int:
    bench = load_benchmark()
    sets = [load_set(Path(args.set_a)), load_set(Path(args.set_b))]
    bad = 0
    print(f"{'workload':<11} {'metric':<15} {'median A':>12} {'IQR A':>7} "
          f"{'median B':>12} {'IQR B':>7} {'B vs A':>8} {'drift':>7} {'bound':>6}  verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        runs_a, runs_b = sets[0].get(workload, []), sets[1].get(workload, [])
        if len(runs_a) < 2 or len(runs_b) < 2:
            print(f"{workload:<11} (needs at least two runs in each set)")
            continue
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [
                [r["result"]["metrics"][name]["value"] for r in runs] for runs in (runs_a, runs_b)
            ]
            (med_a, iqr_a), (med_b, iqr_b) = spread(values[0]), spread(values[1])
            change = med_b / med_a - 1.0
            # either set may be the parent's: judge the drift both ways
            drift = max(abs(change), abs(med_a / med_b - 1.0))
            notes = []
            if max(iqr_a, iqr_b) > bound:
                notes.append("SPREAD>BOUND")
            elif max(iqr_a, iqr_b) > bound / 3:
                notes.append("spread>bound/3")
            if drift > bound:
                notes.append("DRIFT>BOUND")
            elif drift > bound / 3:
                notes.append("drift>bound/3")
            bad += any(n.isupper() for n in notes)
            verdict = " ".join(notes) or "ok"
            print(f"{workload:<11} {name:<15} {med_a:12.4f} {iqr_a:7.1%} {med_b:12.4f} "
                  f"{iqr_b:7.1%} {change:+8.1%} {drift:7.1%} {bound:6.0%}  {verdict}")
    print()
    work_spread(sets[0].get("fault_day", []) + sets[1].get("fault_day", []))
    print(f"\n{bad} metric(s) outside their bound")
    return 1 if bad else 0


def work_spread(runs: list) -> None:
    """Per-seed work on fault_day: the input's share of the spread."""
    if not runs:
        return
    print("fault_day work per simulated hour by seed:")
    by_seed: dict[int, list] = {}
    for record in runs:
        by_seed.setdefault(record["seed"], []).append(record)
    ops = []
    for seed, records in sorted(by_seed.items()):
        op_ms = statistics.median(r["result"]["metrics"]["op_ms"]["value"] for r in records)
        work = records[0].get("work_per_op", {})
        ops.append(op_ms)
        print(f"  seed {seed:>3}: op_ms {op_ms:8.2f}  " + "  ".join(
            f"{k} {v:.3f}" for k, v in sorted(work.items())
        ))
    lo, hi = min(ops), max(ops)
    print(f"  op_ms across seeds: {lo:.2f}..{hi:.2f} ms ({(hi - lo) / statistics.median(ops):.1%}"
          " of the median)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run every workload over a seed range")
    run.add_argument("--seeds", default="0-9")
    run.add_argument("--dest", required=True)
    run.add_argument("--workloads", default="")
    cmp = sub.add_parser("compare", help="compare two sets of runs")
    cmp.add_argument("set_a")
    cmp.add_argument("set_b")
    args = parser.parse_args(argv)
    return run_set(args) if args.command == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())

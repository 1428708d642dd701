#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1]

For every workload in ``BENCHMARK.json``, runs ``perfbench/run.py`` once per
seed for ``run_seconds`` with tracing off, then prints each end-to-end
metric's median, quartiles and spread (interquartile distance over the
median, as ``statistics.quantiles(n=4)`` gives the quartiles) next to its
bound.  Traced runs on the first two seeds then check that every computed
per-layer count (units count, flop, B) is identical across seeds.  Exits
non-zero if a run fails, a spread exceeds its bound (``setup_s`` included),
or a count differs.  Every result is
written to ``perfbench/out/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_UNITS = ("count", "flop", "B")
TRACE_SEEDS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] in COUNT_UNITS]
    report, ok = {}, True
    seconds = bench["run_seconds"]
    for wl in (w["name"] for w in bench["workloads"]):
        runs = [run_once(wl, s, seconds, 0) for s in seeds]
        bad = [s for s, r in zip(seeds, runs) if not r["correct"] or r["failed"]]
        ok &= not bad
        rows = {}
        print(f"== {wl}: {len(runs)} seeds {seeds[0]}..{seeds[-1]}, "
              f"ops per run {[r['attempted'] for r in runs]}, failed seeds {bad}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, sp = spread(vals)
            unit = runs[0]["metrics"][name]["unit"]
            flag = "ok" if sp < bound / 3 else ("WIDE" if sp <= bound else "OVER")
            ok &= sp <= bound
            print(f"  {name:<14} median {med:.6g} {unit:<5} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {sp:.4f} bound {bound} {flag}")
            rows[name] = {"values": vals, "median": med, "q1": q1, "q3": q3, "spread": sp,
                          "bound": bound}
        traced = [run_once(wl, s, seconds, 1) for s in seeds[:TRACE_SEEDS]]
        differ = [c for c in counts
                  if len({t["metrics"][c]["value"] for t in traced}) != 1]
        ok &= not differ and all(t["correct"] for t in traced)
        print(f"  per-layer counts identical over {len(traced)} traced seeds: "
              f"{'yes' if not differ else 'NO: ' + ', '.join(differ)}")
        for t in traced:
            print(f"  trace.overhead_frac {t['metrics']['trace.overhead_frac']['value']:.4f}")
        report[wl] = {"seeds": seeds, "end_to_end": rows,
                      "traced": [t["metrics"] for t in traced], "counts_differ": differ}
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "spread.json").write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

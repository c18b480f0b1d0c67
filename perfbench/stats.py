"""Run each workload N times and print per-metric medians, quartiles and spread.

    python3 perfbench/stats.py --runs 10 --seconds 30
    python3 perfbench/stats.py --runs 10 --seconds 30 --trace --write-config

Runs are sequential: every workload, seeds 1..N.  Spread is the distance
between the first and third quartile over the median, with the quartiles of
``statistics.quantiles(values, n=4)``.  Raw (unnormalized) figures are printed
beside the normalized ones.  ``--trace`` adds three traced runs per workload
and reports the tracing overhead; ``--write-config`` writes BENCHMARK.json
with ``--seconds`` as its run length and each bound set by ``bounds``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("setup_s", "s", "lower"), ("ops_per_s", "ops/s", "higher"),
              ("peak_rss_mb", "MB", "lower"))
RAW = ("raw_ops_per_s", "raw_setup_s", "ref_slice_s")
MAX_BOUND = 0.25
# spreads of a few percent come and go with the machine's load, so no bound
# is set below this
MIN_BOUND = 0.1
# worst spreads of earlier ten-run sets that a quiet set may not show again:
# lifts ops_per_s read 0.087 and checks-cold 0.094 while the shared machine
# was busier (reference slice varying 12-44% from run to run)
SEEN_SPREAD = {"ops_per_s": 0.094}
TRACED_RUNS = 3


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(HERE, "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)["summaries"][workload]
    return result, summary


def describe(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else math.inf}


def bounds(worst: dict) -> dict:
    """Three times the worst spread, rounded up to 0.05, between MIN_BOUND and
    MAX_BOUND.  setup_s then takes the largest of the bounds: only its median
    is compared between sets of runs made at different times, and it comes
    from a few fresh-process imports, which follow the machine's state more
    than warm work does (timed without normalization, its median moved 12%
    between two sets of runs of identical code)."""
    out = {n: min(MAX_BOUND, max(MIN_BOUND, math.ceil(3 * w * 20) / 20))
           for n, w in worst.items()}
    out["setup_s"] = max(out.values())
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, required=True,
                    help="run length; --write-config writes it as run_seconds")
    ap.add_argument("--trace", action="store_true", help=f"add {TRACED_RUNS} traced runs per workload")
    ap.add_argument("--write-config", action="store_true", help="write BENCHMARK.json")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs needs at least 2 for quartiles")

    if args.write_config and not args.trace:
        ap.error("--write-config needs --trace, for the per-layer metric names")
    worst = {name: SEEN_SPREAD.get(name, 0.0) for name, _, _ in END_TO_END}
    report = {}
    layer_units: dict = {}
    for workload in WORKLOADS:
        results, summaries = [], []
        for seed in range(1, args.runs + 1):
            r, s = run_once(workload, seed, args.seconds, 0)
            results.append(r)
            summaries.append(s)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()), flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"== {workload}: {args.runs} runs, failed share {sorted(shares)}, "
              f"all correct: {all(r['correct'] for r in results)}")
        rows = {}
        for name, unit, _ in END_TO_END:
            rows[name] = describe([r["metrics"][name]["value"] for r in results])
            rows[name]["unit"] = unit
            worst[name] = max(worst[name], rows[name]["spread"])
        for name in RAW:
            rows[name] = describe([s[name] for s in summaries])
            rows[name]["unit"] = "ops/s" if "ops" in name else "s"
        if args.trace:
            traced = [run_once(workload, seed, args.seconds, 1)[0]
                      for seed in range(1, TRACED_RUNS + 1)]
            layer_units = {k: v["unit"] for k, v in traced[0]["metrics"].items()}
            rows["trace.ops_per_s"] = describe(
                [t["metrics"]["trace.ops_per_s"]["value"] for t in traced])
            rows["trace.ops_per_s"]["unit"] = "ops/s"
            overhead = 1 - rows["trace.ops_per_s"]["median"] / rows["ops_per_s"]["median"]
            print(f"   tracing overhead: {overhead:+.1%} of untraced ops_per_s "
                  f"(median of {TRACED_RUNS} traced runs)")
        for name, row in rows.items():
            print(f"   {name:16} median {row['median']:<12.5g} q1 {row['q1']:<12.5g} "
                  f"q3 {row['q3']:<12.5g} spread {row['spread']:.3f}  {row['unit']}")
        report[workload] = rows
    with open(os.path.join(HERE, "results", "stats.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    bound = bounds(worst)
    print("worst spread: " + ", ".join(f"{n} {v:.3f}" for n, v in worst.items()))
    print("bounds: " + ", ".join(f"{n} {v}" for n, v in bound.items()))
    if args.write_config:
        config = {
            "command": ["python3", "perfbench/run.py"],
            "paths": ["perfbench"],
            "run_seconds": args.seconds,
            "workloads": [{"name": w, "why": cls.why} for w, cls in WORKLOADS.items()],
            "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound[n]}
                           for n, u, b in END_TO_END],
            "per_layer": [
                {"name": n, "unit": u,
                 "better": "higher" if n.endswith(("hits", "ops_per_s")) else "lower"}
                for n, u in layer_units.items()
            ],
        }
        with open("BENCHMARK.json", "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2)
            fh.write("\n")
        print("wrote BENCHMARK.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())

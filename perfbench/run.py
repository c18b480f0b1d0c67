"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload lifts --seed 1 --seconds 20 --trace 0

Run from the root of a hopfpath checkout.  The work happens in child
processes (perfbench/worker.py), started one after another, never two at a
time; this process only plans, collects and checks.  With ``--trace 0`` the
last line holds the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  Details go to perfbench/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import refs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 9  # set-ups per run at least, each in a fresh process; setup_s is their median
WORK_PROCESSES = 4  # processes sharing the timed phase of a warm workload
CHILD_TIMEOUT_S = 170
RESULTS = os.path.join(HERE, "results")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(workload: str, seed: int, stream: int, trace: int, *extra: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--stream", str(stream), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} process failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int, setups: int) -> dict:
    """Work processes over ``seconds``, then set-up-only processes up to ``setups``.

    A warm workload splits its time between WORK_PROCESSES processes, each
    running whole rounds.  A cold workload runs each operation of a round in
    a fresh process, and starts another round while one more still fits.
    """
    work = []
    if WORKLOADS[workload].warm:
        n = WORK_PROCESSES if setups else 1
        for stream in range(n):
            work.append(run_child(workload, seed, stream, trace, "--budget", f"{seconds / n:.3f}"))
    else:
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            size, i = 1, 0
            while i < size:
                work.append(run_child(workload, seed, len(work), trace, "--only", str(i)))
                size = work[-1]["round_size"]
                i += 1
            now = time.perf_counter()
            if now - start + (now - round_start) > seconds:
                break
    procs = len(work)
    extra = [run_child(workload, seed, procs + i, trace, "--setup-only")
             for i in range(setups - procs)] if setups else []
    if not WORKLOADS[workload].warm:
        extra.append(run_child(workload, seed, procs + len(extra), trace,
                               "--setup-only", "--probes"))
    return {"work": work, "setup_only": extra}


def summarize(workload: str, runs: dict) -> dict:
    work, procs = runs["work"], runs["work"] + runs["setup_only"]
    ops = sum(p["ops"] for p in work)
    norm = sum(p["norm_s"] for p in work)
    raw = sum(p["raw_s"] for p in work)
    setups = [p["setup"] for p in procs]
    return {
        "workload": workload,
        "attempted": sum(p["attempted"] for p in work),
        "failed": sum(p["failed"] for p in work),
        "errors": [e for p in work for e in p["errors"]],
        "failures": [f for p in procs for f in p["failures"]],
        "ops": ops,
        "ops_per_s": ops / norm if norm else 0.0,
        "raw_ops_per_s": ops / raw if raw else 0.0,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "raw_setup_s": statistics.median(s["raw_setup_s"] for s in setups),
        "import_s": statistics.median(s["import_s"] for s in setups),
        "warmup_s": statistics.median(s["warmup_s"] for s in setups),
        "setups": len(setups),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in work),
        "ref_slice_s": statistics.median(r for p in procs for r in p["refs"]),
        "processes": len(procs),
    }


AXIOM_SPANS = [f"hopf_core.check_axioms.{a}" for a in ("poly", "shuffle", "concat", "ck", "gl")]
# per-layer time metrics: (span, workload whose operations make the calls);
# hopf_core.check_axioms is the sum of the five AXIOM_SPANS
SPAN_METRICS = [
    *[(s, "lifts") for s in ("roughpath.signature", "roughpath.branched", "series.log",
                             "linalg.format", "symbols.parse")],
    *[(s, "checks-cold") for s in ("hopf_core.check_axioms", *AXIOM_SPANS,
                                   "series.primitive_basis", "roughpath.check_rough",
                                   "roughpath.check_rough.eval", "model_rde.check_model",
                                   "model_rde.check_model.eval")],
    ("model_rde.picard_solve", "rde"),
    ("roughpath.rde_eval", "rde"),
]
# counts: (counter, workload, unit); per operation, or per round of a cold workload
COUNT_METRICS = [
    ("lifts.input_pieces", "lifts", "count/op"),
    ("lifts.terms", "lifts", "count/op"),
    *[(c, "checks-cold", "count/round") for c in (
        "hopf_ck.ck_coproduct.hits", "hopf_ck.ck_coproduct.misses",
        "hopf_ck.gl_product.hits", "hopf_ck.gl_product.misses", "symbols.forests.misses")],
    ("model_rde.steps", "rde", "count/op"),
    ("model_rde.float_steps", "rde", "count/op"),
]


def layer_metrics(primary: str, summaries: dict, runs: dict) -> dict:
    """Per-layer metrics of a traced run: mean normalized seconds per call,
    calls per operation, and counts per operation (or per cold round)."""
    totals: dict = {}
    for workload, r in runs.items():
        for p in r["work"]:
            for name, (total, own, calls) in p["layers"].items():
                t = totals.setdefault(name, [0.0, 0.0, 0])
                t[0] += total
                t[1] += own
                t[2] += calls
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    s = summaries[primary]
    put("setup.import_s", s["import_s"], "s")
    put("setup.import.calls", float(s["setups"]), "count")
    put("setup.warmup_s", s["warmup_s"], "s")
    put("setup.warmup.calls", float(s["setups"]), "count")
    for span, workload in SPAN_METRICS:
        names = AXIOM_SPANS if span == "hopf_core.check_axioms" else [span]
        picked = [totals[n] for n in names if n in totals]
        total = sum(v[0] for v in picked)
        calls = sum(v[2] for v in picked)
        ops = summaries[workload]["ops"]
        put(f"{span}_s", total / calls if calls else 0.0, "s")
        put(f"{span}.calls", calls / ops if ops else 0.0, "count/op")
    solve = totals.get("model_rde.picard_solve", [0.0, 0.0, 0])
    put("model_rde.step_self_s", solve[1] / solve[2] if solve[2] else 0.0, "s")
    put("model_rde.step_self.calls", solve[2] / max(summaries["rde"]["ops"], 1), "count/op")
    for name, workload, unit in COUNT_METRICS:
        procs = runs[workload]["work"]
        total = sum(p["counters"].get(name, 0) for p in procs)
        if unit == "count/op":
            per = summaries[workload]["ops"]
        else:  # each operation of a cold round runs in its own process
            per = summaries[workload]["attempted"] / procs[0]["round_size"]
        put(name, total / per if per else 0.0, unit)
    bits = [p["counters"].get("model_rde.max_state_bits", 0) for p in runs["rde"]["work"]]
    put("model_rde.max_state_bits", float(max(bits)), "bits")
    put("trace.ops_per_s", s["ops_per_s"], "ops/s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "hopfpath", "__init__.py")):
        print("run.py: no src/hopfpath here; run it from the root of a hopfpath checkout",
              file=sys.stderr)
        return 2
    bad_refs = refs.selftest()
    if bad_refs:
        print("run.py: reference self-test failed:\n  " + "\n  ".join(bad_refs), file=sys.stderr)
        return 1

    # a traced run measures the named workload for the full time, then one
    # round of each other workload, so every per-layer metric is measured
    plan = [(args.workload, args.seconds, SETUPS)]
    if args.trace:
        plan += [(w, 0.0, 0) for w in WORKLOADS if w != args.workload]
    try:
        runs = {w: run_workload(w, args.seed, secs, args.trace, n) for w, secs, n in plan}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    summaries = {w: summarize(w, r) for w, r in runs.items()}
    s = summaries[args.workload]
    failures = [f for x in summaries.values() for f in x["failures"]]
    attempted = sum(x["attempted"] for x in summaries.values())
    failed = sum(x["failed"] for x in summaries.values())

    if args.trace:
        metrics = layer_metrics(args.workload, summaries, runs)
    else:
        metrics = {
            "setup_s": {"value": s["setup_s"], "unit": "s"},
            "ops_per_s": {"value": s["ops_per_s"], "unit": "ops/s"},
            "peak_rss_mb": {"value": s["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "summaries": summaries, "seconds": args.seconds}, fh, indent=1)
    if args.trace:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for w, r in runs.items():
                for p in r["work"]:
                    for name, start, end, parent, op in p["spans"]:
                        fh.write(json.dumps({"workload": w, "process": p["stream"], "op": op,
                                             "name": name, "start": start, "end": end,
                                             "parent": parent}) + "\n")

    for line in failures:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    for x in summaries.values():
        for line in x["errors"]:
            print(f"operation failed: {line}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {s['ops']} ops in {s['processes']} processes, "
          f"raw {s['raw_ops_per_s']:.4g} ops/s, raw setup {s['raw_setup_s']:.4g} s, "
          f"reference slice {s['ref_slice_s']:.4g} s")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark process: set up, run rounds of one workload, print one JSON line.

Started by run.py, one at a time, with PYTHONHASHSEED fixed and src/ on the
path.  The process that makes the program calls is this one, so its CPU
clock, its reference slices and its peak RSS are the ones reported.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import normtime
from workloads import WORKLOADS, load_program


def _run_op(clock, op) -> tuple[object, str | None, float, float]:
    """Time one operation; returns (output, error or None, raw s, factor)."""
    error = None

    def call():
        nonlocal error
        try:
            return op.call()
        except Exception as exc:  # an operation that raises counts as failed
            error = f"{op.name}: {type(exc).__name__}: {exc}"
            return None

    out, raw, factor = clock.timed(call)
    return out, error, raw, factor


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--stream", type=int, required=True)
    ap.add_argument("--budget", type=float, default=0.0,
                    help="warm workloads: wall seconds of whole rounds, at least one")
    ap.add_argument("--only", type=int, default=None,
                    help="cold workloads: run only this operation of the round")
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    ap.add_argument("--probes", action="store_true", help="run the checker probes at the end")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    tracer = normtime.Tracer() if args.trace else normtime.NullTracer()
    clock = normtime.Clock()
    failures: list[str] = []
    failed_ops: list[str] = []

    # set-up: the import, then construction and the warm-up operation
    hp, import_raw, import_f = clock.timed(load_program)

    def build():
        wl = WORKLOADS[args.workload](hp, args.seed, args.stream, tracer)
        wl.construct()
        warm = wl.warmup()
        return wl, warm, warm.call() if warm is not None else None

    (wl, warm, warm_out), build_raw, build_f = clock.timed(build)
    if warm is not None:
        failures += warm.check(warm_out)
    setup = {"import_s": import_raw * import_f, "warmup_s": build_raw * build_f,
             "setup_s": import_raw * import_f + build_raw * build_f,
             "raw_setup_s": import_raw + build_raw}
    if args.trace:
        tracer.spans.clear()

    done = attempted = 0
    round_size = None
    norm_s = raw_s = 0.0
    factors: dict = {}
    if not args.setup_only:
        start = time.perf_counter()
        last_round = 0.0
        while not attempted or (
            wl.warm and time.perf_counter() - start + last_round <= args.budget
        ):
            round_start = time.perf_counter()
            ops = wl.round()
            round_size = len(ops)
            if args.only is not None:
                ops = ops[args.only:args.only + 1]
            for op in ops:
                if args.trace:
                    tracer.op_id = attempted
                out, error, raw, f = _run_op(clock, op)
                factors[attempted] = f
                attempted += 1
                if error is None:
                    failures += op.check(out)
                    done += 1
                    norm_s += raw * f
                    raw_s += raw
                else:
                    failed_ops.append(error)
            last_round = time.perf_counter() - round_start
    if args.probes:
        failures += wl.probes()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "workload": args.workload,
        "stream": args.stream,
        "setup": setup,
        "attempted": attempted,
        "failed": len(failed_ops),
        "errors": failed_ops,
        "ops": done,
        "round_size": round_size,
        "norm_s": norm_s,
        "raw_s": raw_s,
        "refs": clock.refs,
        "peak_rss_mb": peak_kb / 1024,
        "failures": failures,
        "counters": wl.counters(),
    }
    if args.trace:
        result["layers"] = normtime.span_totals(tracer.spans, factors)
        result["spans"] = tracer.spans
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

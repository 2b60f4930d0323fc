"""One benchmark process; run.py starts it and reads its last stdout line.

Modes:
  setup    import infconv, run one warm-up request, report the time taken
  measure  warm up, then run whole request blocks for --seconds (and at
           least MIN_REQUESTS requests), reporting per-request latencies
  pass     warm up, then run exactly --blocks request blocks; with --traced
           the library is wrapped first and the pass reports layer figures

The set-up clock starts before ``infconv`` (and numpy with it) is imported,
so set-up time includes imports and the caches the warm-up request fills.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

MIN_REQUESTS = 110  # leaves at least 10 latency samples beyond p90


def parse_args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "pass"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--blocks", type=int, default=0)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--spans-out", default="")
    return ap.parse_args()


def blas_info() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '').strip()})"
    except (TypeError, KeyError, ValueError):
        return "unknown"


def main() -> int:
    args = parse_args()
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import workloads as W  # imports numpy and infconv

    import infconv

    if Path(infconv.__file__).resolve().parent != src / "infconv":
        print(f"infconv imported from {infconv.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    wl = W.WORKLOADS[args.workload]

    tracer = caches = None
    if args.traced:
        import tracing

        tracer = tracing.Tracer()
        caches = tracing.instrument(tracer)
        run_request = tracer.wrap(wl.run, "request")
    else:
        run_request = wl.run

    attempted = failed = 0
    latencies: list[float] = []
    failures: list[str] = []

    def one(index: int, shape) -> None:
        nonlocal attempted, failed
        req = W.request_inputs(wl, args.seed, index, shape)
        if tracer is not None:
            tracer.request = index
        tally = W.Tally()
        start = time.perf_counter()
        try:
            run_request(req, tally)
        except Exception:  # a raising request is a failed request
            tally.misses.append(traceback.format_exc(limit=3))
        latencies.append((time.perf_counter() - start) * 1e3)
        if index >= 0:
            attempted += 1
            if tally.misses:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"request {index} {shape}: {tally.misses[0]}")
        elif tally.misses:
            failures.append(f"warm-up {shape}: {tally.misses[0]}")

    one(-1, wl.warmup)
    setup_s = time.perf_counter() - t0
    latencies.clear()
    out = {"setup_s": setup_s, "warmup_failed": bool(failures)}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    index = blocks = 0
    loop_start = time.perf_counter()
    while True:
        if args.mode == "pass":
            if blocks >= args.blocks:
                break
        elif (time.perf_counter() - loop_start >= args.seconds
              and attempted >= MIN_REQUESTS):
            break
        for shape in W.block_order(wl, args.seed, blocks):
            one(index, shape)
            index += 1
        blocks += 1
    elapsed = time.perf_counter() - loop_start

    if tracer is not None:
        import tracing

        out["layers"] = tracing.layer_metrics(tracer, caches)
        out["layers"]["trace.requests"] = attempted
        out["spans"] = len(tracer.spans)
        if args.spans_out:
            tracer.write(args.spans_out)
    out.update(
        attempted=attempted,
        failed=failed,
        failures=failures,
        elapsed_s=elapsed,
        blocks=blocks,
        latencies_ms=latencies,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        self_check_ok=W.checker_self_check(args.seed),
        nproc=len(os.sched_getaffinity(0)),
        numpy=W.np.__version__,
        blas=blas_info(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""infconv benchmark: seeded closed-loop workloads against the public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tcoeff-linked --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):
  convolve-verify  oracle vs transform route for the three product kinds,
                   transform roundtrips, block transforms
  tcoeff-linked    t-coefficients and cumulants over linked partitions
  wishart-mc       Monte Carlo estimates against the limit-law predictions

``--trace 0`` prints the end-to-end metrics: set-up time (median over
several fresh processes), throughput, p50/p90 latency and peak memory of
the workload process.  ``--trace 1`` prints per-layer figures from traced
passes over a fixed request list, run separately from the timed loop: one
untraced pass and two traced passes, each in a fresh process.  The two
traced passes must agree exactly on every count.

Every request is cross-checked against an independent route; a request
fails if it raises or its check misses.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.  BLAS and
OpenMP are pinned to one thread in every workload process.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
# This process never imports infconv (worker.py does), so the workload names
# and per-workload constants live here as plain data.
UNIT_OF_WORK = {
    "convolve-verify": "law pairs verified (one pair set per request)",
    "tcoeff-linked": "laws processed (one law per request)",
    "wishart-mc": "Monte Carlo estimates (one estimate per request)",
}
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 2          # fresh processes per run; the timed process adds one
TRACE_SHARE = 0.2         # untraced pass length as a share of --seconds
# Typical untraced block times on a 2-core x86 VM.  The traced passes run
# round(seconds * TRACE_SHARE / nominal) blocks, a count fixed by --seconds
# alone, so two traced runs of one seed see the same requests.
NOMINAL_BLOCK_S = {"convolve-verify": 0.25, "tcoeff-linked": 2.4, "wishart-mc": 2.3}
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# counts that two traced passes over one request list must reproduce exactly
EXACT_COUNTS = (
    "partitions.enumerate.calls", "partitions.enumerate.yielded",
    "cumulants.ncl_visited", "dual.ops", "cumulants.ncl_cache_hit_ratio",
    "cumulants.ncl_cache_lookups", "series.mul.calls", "series.inv.calls",
    "series.compose.calls", "series.reversion.calls", "wishart.trials",
    "wishart.flop_computed", "trace.requests",
)
BASES = {
    "dual.ops": "DualScalar add/radd/sub/mul/rmul/inv calls over trace.requests "
                "requests plus the warm-up",
    "cumulants.ncl_visited": "sum of |NCL(n)| over every _ncl(n) lookup",
    "cumulants.ncl_cache_hit_ratio": "(_ncl hits + _nc hits) / "
                                     "cumulants.ncl_cache_lookups",
    "wishart.flop_computed": "nominal GEMM flops from matrix sizes over "
                             "wishart.trials (trial, size) pairs",
    "wishart.gflop_per_s_computed": "wishart.flop_computed / time inside "
                                    "estimate_moments and product_experiment",
    "trace.overhead_frac": "1 - traced throughput / untraced throughput, "
                           "same request list",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def worker(deadline: float, *args: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting " + " ".join(args))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {' '.join(args)}\n"
                         + proc.stderr[-4000:])
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing: " + " ".join(args))
    return json.loads(lines[-1])


def percentile(values: list, q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_timed(args, deadline: float) -> tuple:
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    main = worker(deadline, "--mode", "measure", "--seconds", str(args.seconds),
                  *common)
    probes = [worker(deadline, "--mode", "setup", *common)
              for _ in range(SETUP_PROBES)]
    setups = [main["setup_s"]] + [p["setup_s"] for p in probes]
    lat = main["latencies_ms"]
    n = len(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": main["attempted"] / main["elapsed_s"],
        "latency_p50_ms": percentile(lat, 0.5),
        "latency_p90_ms": percentile(lat, 0.9),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    samples = {"setup_s": len(setups), "throughput_per_s": n,
               "latency_p50_ms": n, "latency_p90_ms": n, "peak_rss_mb": 1}
    describe_env(main)
    print(f"# unit of work: {UNIT_OF_WORK[args.workload]}; closed loop, 1 client; "
          f"{n} requests in {main['blocks']} blocks over {main['elapsed_s']:.1f} s; "
          "every block holds the same mix of request shapes")
    print(f"# {'metric':<18} {'value':>14}  {'unit':<5} samples")
    for name, value in metrics.items():
        print(f"# {name:<18} {value:>14.6g}  {END_TO_END_UNITS[name]:<5} {samples[name]}")
    fail_frac = main["failed"] / main["attempted"]
    print(f"# {'fail_frac':<18} {fail_frac:>14.6g}  {'frac':<5} "
          f"{main['attempted']} ({main['failed']} failed)")
    print(f"# setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    correct = passed(main)
    for p in probes:
        if p["warmup_failed"]:
            print("# FAILED warm-up request of a set-up probe")
            correct = False
    result = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
              for name, value in metrics.items()}
    return correct, main["attempted"], main["failed"], result


def run_traced(args, deadline: float) -> tuple:
    blocks = max(1, round(args.seconds * TRACE_SHARE / NOMINAL_BLOCK_S[args.workload]))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--mode", "pass", "--blocks", str(blocks)]
    OUT_DIR.mkdir(exist_ok=True)
    plain = worker(deadline, *common)
    passes = []
    for tag in ("a", "b"):
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-{tag}.tsv"
        passes.append(worker(deadline, *common, "--traced", "--spans-out", str(spans)))
    first, second = passes
    layers = dict(first["layers"])
    plain_tput = plain["attempted"] / plain["elapsed_s"]
    traced_tput = first["attempted"] / first["elapsed_s"]
    layers["trace.overhead_frac"] = 1.0 - traced_tput / plain_tput

    describe_env(first)
    print(f"# traced passes: {blocks} blocks = {first['attempted']} requests plus "
          f"one warm-up, from a cold process; {first['spans']} spans each, "
          f"written to {OUT_DIR.name}/")
    for name, value in layers.items():
        print(f"# {name:<34} {value:>16.6g}  {layer_unit(name)}")
    for name, basis in BASES.items():
        print(f"# basis {name}: {basis}")
    mismatched = [k for k in EXACT_COUNTS if first["layers"][k] != second["layers"][k]]
    for k in mismatched:
        print(f"# COUNT MISMATCH {k}: {first['layers'][k]} vs {second['layers'][k]}")
    if not mismatched:
        print(f"# all {len(EXACT_COUNTS)} counts repeat exactly in the second traced pass")
    correct = all([passed(p) for p in (plain, first, second)]) and not mismatched
    attempted = sum(p["attempted"] for p in (plain, first, second))
    failed = sum(p["failed"] for p in (plain, first, second))
    result = {name: {"value": value, "unit": layer_unit(name)}
              for name, value in layers.items()}
    return correct, attempted, failed, result


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "wishart.gflop_per_s_computed":
        return "GFLOP/s"
    if name == "wishart.flop_computed":
        return "flop"
    return "count"


def describe_env(w: dict) -> None:
    print(f"# env: nproc={w['nproc']} blas_threads={BLAS_THREADS} "
          f"numpy={w['numpy']} python={sys.version.split()[0]}")
    print(f"# blas: {w['blas']}")


def passed(w: dict) -> bool:
    """Print a worker's failures; True if its requests and self-check passed."""
    for line in w["failures"]:
        print("# FAILED " + line.replace("\n", " | "))
    if not w["self_check_ok"]:
        print("# FAILED checker self-check: a known wrong result was not flagged")
    return w["failed"] == 0 and not w["warmup_failed"] and w["self_check_ok"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(UNIT_OF_WORK), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "infconv" / "__init__.py").is_file():
        print(f"no infconv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    print(f"# infconv benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    try:
        run = run_traced if args.trace else run_timed
        correct, attempted, failed, metrics = run(args, deadline)
    except BenchError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

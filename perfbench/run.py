"""Benchmark of nctorus: the certified Egorov scan end to end, layer by layer.

    python3 perfbench/run.py --workload scan-shear --seed 1 --seconds 38 --trace 0

Runs passes of one workload back to back in one process (a closed loop
with one client) for at most --seconds seconds, checks every operation
against the correctness gates, and prints every metric by name and
unit; the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are end to end (pass time, set-up time, peak memory); with
--trace 1 passes alternate between untraced and traced, and the metrics
are per layer, from the traced passes.  The full result (environment,
config hash, pass times with quartiles, each record's certified numbers,
gate failures) goes to perfbench/out/, with the spans of a traced run.

Exit status: 0 when every gate holds, 1 when one fails, 2 when the
package sources are missing or the arguments are bad.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: BLAS threads in this process and its probes; OpenBLAS would otherwise
#: start up to 64 threads whatever the core count.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Gate failures printed and kept in the output file; `failed` counts all.
MAX_FAILURES_SHOWN = 20

#: Set-up probes per run; setup_s is their median.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def environment():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
    }


def probe_setup(workload, seed):
    """Seconds from spawn until a fresh process has its inputs ready."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.stdout.read()
                code = proc.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
    return times


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(workload, inputs, seconds, tracer):
    """Run passes until the next would end after `seconds`.

    The first pass is gated but left out of the pass statistics: a fresh
    process pays the allocator's growth and lazy imports there once
    (2-3 s more than the later passes on scan-long-time), and how many
    later passes fit would otherwise decide how much of it the median
    sees.  At least one pass of each kind follows.  Returns the first
    pass's time, the later pass times by kind, the (kind, result) of
    each pass, and the peak resident set in MB after the first pass
    (later passes only add allocator growth, whose size depends on how
    many passes fit).
    """
    from workloads import run_pass

    kinds = ("plain",) if tracer is None else ("plain", "traced")
    times = {kind: [] for kind in kinds}
    start = time.perf_counter()
    results = [("first", run_pass(workload, inputs))]
    first_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        if i >= len(kinds) and time.perf_counter() - start + max(times[kind]) > seconds:
            break
        t0 = time.perf_counter()
        if kind == "traced":
            tracer.install()
            try:
                result = tracer.run_pass(run_pass, workload, inputs)
            finally:
                tracer.uninstall()
        else:
            result = run_pass(workload, inputs)
        times[kind].append(time.perf_counter() - t0)
        results.append((kind, result))
        i += 1
    return first_s, times, results, rss_mb


#: Counters the workloads compute from their own results, with units.
PASS_COUNTERS = {
    "harness.op_lower_above_exact": "count",
    "quantum.oracle_l1_max": "l1",
}


def main(argv=None):
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "nctorus" / "__init__.py").is_file():
        print(f"error: nctorus sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nctorus

    if Path(nctorus.__file__).resolve().parent != (SRC / "nctorus").resolve():
        print(f"error: nctorus imported from {nctorus.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from tracing import Tracer
    from workloads import WORKLOADS, config_hash

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    description = workload.describe(inputs)
    setup = probe_setup(args.workload, args.seed)

    tracer = Tracer() if args.trace else None
    first_s, times, results, rss_mb = measure(workload, inputs, args.seconds, tracer)

    attempted = failed = 0
    failures = []
    first = results[0][1]
    for k, (_, result) in enumerate(results):
        for op in result.ops:
            attempted += 1
            missed = list(op.failures)
            if result.digest != first.digest:
                missed.append("output differs from the first pass")
            if missed:
                failed += 1
                failures.append({"pass": k, "certified": op.certified, "missed": missed})

    pass_q = quartiles(times["plain"])
    counters = {key: max(r.counters.get(key, 0.0) for _, r in results) for key in PASS_COUNTERS}
    metrics = {}
    if args.trace:
        metrics.update(tracer.layer_metrics())
        for key, unit in PASS_COUNTERS.items():
            metrics[key] = {"value": counters[key], "unit": unit}
        traced_s = statistics.median(times["traced"])
        metrics["trace.pass_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead_ratio"] = {"value": traced_s / pass_q[1], "unit": "ratio"}
    else:
        metrics["pass_s"] = {"value": pass_q[1], "unit": "s"}
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "config_hash": config_hash(description),
        "config": description,
        "pass_s": {"median": pass_q[1], "q1": pass_q[0], "q3": pass_q[2], "n": len(times["plain"])},
        "first_pass_s": first_s,
        "pass_times": times,
        "setup_times": setup,
        "records": [op.certified for op in first.ops],
        "counters": counters,
        "failures": failures[:MAX_FAILURES_SHOWN],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(document, indent=2) + "\n")
    if tracer is not None:
        tracer.write_spans(OUT / f"{stem}-spans.jsonl")

    print(f"workload {args.workload}  seed {args.seed}  config {document['config_hash'][:16]}")
    print(
        f"pass_s median {pass_q[1]:.4f} s  q1 {pass_q[0]:.4f}  q3 {pass_q[2]:.4f}  "
        f"n {len(times['plain'])}  (untraced)"
    )
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for failure in failures[:MAX_FAILURES_SHOWN]:
        print(f"FAILED pass {failure['pass']}: {'; '.join(failure['missed'])}")
    correct = failed == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

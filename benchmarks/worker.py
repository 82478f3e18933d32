"""One workload in its own process: timed requests, output checks, optional tracing.

Started by run.py with PYTHONPATH pointing at the checkout's src/. Prints
one JSON object on its last stdout line; everything else goes to stderr.

Untraced run (--trace 0): requests from the workload's pool, one after the
other, until --seconds have passed. The host's contention only ever adds
time, so the steady figure is the best case: the minimum request latency
over the run. The median and p99 are printed too, for reading only.

Traced run (--trace 1): untraced and traced passes over the whole pool
alternate, so the tracing overhead is measured in the same process; layer
metrics are medians over the traced passes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import LAYERS, PER_LAYER, Tracer, percentile

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = ROOT / ".bench_out"
ROTATE_S = 0.5


def environment():
    import numpy as np

    import yrelay

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "yrelay": yrelay.__version__,
    }


def untraced_pass(wl, failures):
    """Wall time of one pass over the pool, checking every output."""
    gc.collect()
    total = 0.0
    for req in wl.requests:
        t0 = time.perf_counter()
        out = wl.run(req)
        total += time.perf_counter() - t0
        failures += wl.check(req, out)
    return total


def end_to_end(wl, seconds, failures):
    # The worker moves itself to the next allowed CPU every ROTATE_S, so a
    # run samples the contention of every core: one core that stays busy
    # for the whole run then does not hide the best case.
    cpus = sorted(os.sched_getaffinity(0))
    latencies = []
    start = switch = time.perf_counter()
    i = moves = 0
    try:
        while (now := time.perf_counter()) - start < seconds:
            if now >= switch:
                os.sched_setaffinity(0, {cpus[moves % len(cpus)]})
                moves += 1
                switch = now + ROTATE_S
            req = wl.requests[i % len(wl.requests)]
            t0 = time.perf_counter()
            out = wl.run(req)
            latencies.append(time.perf_counter() - t0)
            failures += wl.check(req, out)
            i += 1
    finally:
        os.sched_setaffinity(0, cpus)
    failures += wl.final_checks()
    best = min(latencies)
    metrics = {
        "request_best_ms": (best * 1e3, "ms"),
        "ops_per_s": (wl.ops / best, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {
        "requests": len(latencies),
        "request_p50_ms": statistics.median(latencies) * 1e3,
        "request_p99_ms": percentile(latencies, 99) * 1e3,
    }
    return len(latencies) * wl.ops, metrics, info


def traced(wl, workload, seconds, failures):
    tracer = Tracer()
    walls, traced_walls, layer_runs = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        walls.append(untraced_pass(wl, failures))
        gc.collect()
        tracer.reset()
        tracer.install()
        try:
            with tracer.span("pass"):
                outs = [wl.run(req) for req in wl.requests]
        finally:
            tracer.uninstall()
        for req, out in zip(wl.requests, outs):
            failures += wl.check(req, out)
        layer_runs.append(tracer.metrics())
        traced_walls.append((tracer.ends[0] - tracer.starts[0]) / 1e9)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:  # the next pair would overrun
            break

    # The check root is appended to the last traced pass's spans, so the span
    # file holds both; only the CLI self time is taken from it.
    tracer.install()
    try:
        with tracer.span("check"):
            failures += wl.final_checks()
    finally:
        tracer.uninstall()
    cli_self = tracer.metrics()["cli.main_self_s"]
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write_spans(SPAN_DIR / f"spans-{workload}.tsv")

    traced_wall = statistics.median(traced_walls)
    values = {
        "cli.main_self_s": cli_self,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - statistics.median(walls),
        "trace.unattributed_s": statistics.median(run["bench.self_s"] for run in layer_runs),
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name not in values:
            per_pass = [run[name] for run in layer_runs]
            if unit == "count":
                values[name] = statistics.median_low(per_pass)
                if len(set(per_pass)) != 1:
                    print(f"worker: count {name} differs between passes: {per_pass}", file=sys.stderr)
            else:
                values[name] = statistics.median(per_pass)
        metrics[name] = (values[name], unit)
    info = {
        "passes": len(walls) + len(traced_walls),
        "layer_self_s": {
            layer: statistics.median(run[f"{layer}.self_s"] for run in layer_runs)
            for layer in LAYERS
        },
    }
    return (len(walls) + len(traced_walls)) * len(wl.requests) * wl.ops, metrics, info


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    import yrelay

    if ROOT / "src" not in Path(yrelay.__file__).resolve().parents:
        print(f"worker: imported yrelay from {yrelay.__file__}, not from this checkout", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    env = environment()
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()), file=sys.stderr)

    wl = WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    gc.collect()
    gc.freeze()  # inputs are long-lived; keep them out of timed collections

    failures = []
    if args.trace:
        attempted, metrics, info = traced(wl, args.workload, args.seconds, failures)
    else:
        attempted, metrics, info = end_to_end(wl, args.seconds, failures)
    print(json.dumps({
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "env": env,
        "info": info,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

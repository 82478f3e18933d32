"""yrelay benchmark: one workload, closed loop, one process at a time.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's src/. Workloads: sweep-genie, sweep-raw-ext,
region-large, region-small (see workloads.py for what each stresses).

--trace 0 prints the end-to-end metrics: setup_s (median of fresh
interpreters importing yrelay and yrelay.cli), and from the workload's own
process request_best_ms, ops_per_s and peak_rss_mb. --trace 1 prints the
per-layer metrics of tracing.PER_LAYER and writes the spans of the last
traced pass to .bench_out/.

Every request's output is checked; `failed` counts failed checks and
`attempted` the operations run (sweep rounds or region queries). The last
stdout line is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
The exit code is 0 when a result was printed, whether or not it is correct.
"""

from __future__ import annotations

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
WORKLOADS = ("sweep-genie", "sweep-raw-ext", "region-large", "region-small")
SETUP_PROBES = 7
TIME_LIMIT_S = 175.0
BLAS_THREADS = "1"  # closed loop on small matrices; at most nproc by construction


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds(env):
    """Median wall time of fresh interpreters importing the package and its CLI."""
    cmd = [sys.executable, "-c", "import yrelay, yrelay.cli"]
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=60)
        if i:  # the first probe may compile bytecode; it is not counted
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    begin = time.perf_counter()
    needed = [ROOT / "src" / "yrelay" / "__init__.py", ROOT / "tests" / "golden" / "sweep_small.csv"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"benchmark: not a yrelay checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    env = child_env()
    try:
        setup = setup_seconds(env) if not args.trace else None
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, TIME_LIMIT_S - (time.perf_counter() - begin)),
        )
    except subprocess.CalledProcessError as exc:
        print(f"benchmark: importing yrelay failed with exit code {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"benchmark: workload did not finish within {TIME_LIMIT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"benchmark: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(lines[-1])

    metrics = res["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": setup, "unit": "s"}

    info = res["info"]
    print(f"workload {args.workload} seed {args.seed}: closed loop, 1 process, "
          f"env {json.dumps(res['env'], sort_keys=True)}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        print(f"  over {info['requests']} requests: median {info['request_p50_ms']:.4g} ms, "
              f"p99 {info['request_p99_ms']:.4g} ms (not gated: they follow the host's load)")
    else:
        layers = info["layer_self_s"]
        wall, loop, overhead = (
            metrics[f"trace.{m}"]["value"] for m in ("wall_s", "unattributed_s", "overhead_s")
        )
        print("  layer self time (s): " + ", ".join(f"{k} {v:.4f}" for k, v in layers.items()))
        print(f"  layers sum to {sum(layers.values()):.4f} s + benchmark loop {loop:.4f} s "
              f"of traced pass wall {wall:.4f} s; tracing overhead {overhead:.4f} s "
              f"over {info['passes']} passes")
    print(f"  fail_ratio {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} failed checks / {res['attempted']} operations)")
    for msg in res["failures"]:
        print(f"  FAILED: {msg}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload flux_sweep --seed 1 --seconds 25 --trace 0

Run from the repository root. Set-up is measured in several fresh processes
and reported as their median; the workload itself runs in one more fresh
process. Every child gets single-threaded numerical libraries and imports
curlflux from ./src only. The next-to-last line of output is the full report
(environment, sample counts, failures, output digests); the last line holds
the metrics of BENCHMARK.json: end-to-end ones with --trace 0, per-layer ones
with --trace 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
                  "NUMBA_NUM_THREADS", "CURLFLUX_THREADS")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update({k: "1" for k in PINNED_THREADS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list, deadline: float) -> dict:
    """Runs the worker with `args`; returns its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, "-m", "perfbench.worker", *args],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "curlflux" / "__init__.py").is_file():
        print(f"error: no curlflux sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = [run_child(common + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        report = run_child(common, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setups.append(report["setup_s"])
    report["setup_samples"] = setups
    metrics = report["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    print(json.dumps(report))
    print(json.dumps({
        "correct": report["raised"] == 0,
        "attempted": report["attempted"],
        "failed": report["raised"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

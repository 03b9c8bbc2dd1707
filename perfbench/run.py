"""Layered benchmark for lifter.  Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: corpus_cli, assert_ladder, batch_rank (see perfbench/README.md).

--trace 0 measures the end-to-end metrics: set-up time (the median over
several fresh set-ups), request latency p50/p90, verdicts per second and
peak resident memory, with every verdict checked against its known answer.
--trace 1 measures the per-layer metrics instead and writes the spans and
the family x rung table to perfbench/out/.  The last line of standard
output is one JSON object; the lines before it repeat each metric with its
unit and record the run environment.  The exit code is 0 when every verdict
was right, 1 when one was wrong, and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus_cli", "assert_ladder", "batch_rank")

# Fresh set-ups timed besides the measuring worker's own, for setup_s.
SETUP_SAMPLES = 8
# Every worker must have ended by this many seconds after the start.
DEADLINE_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("throughput_vps", "1/s"),
    ("peak_rss_mb", "MB"),
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker(deadline: float, workload: str, seed: int, *mode: str) -> dict:
    """Run one worker process to completion and return its JSON result.
    The worker and any CLI process it started are killed at the deadline."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *mode],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker {workload} {' '.join(mode)} ran past {DEADLINE_S} s") from None
    sys.stderr.write(stderr)
    if proc.returncode != 0 or not stdout.strip():
        raise RuntimeError(f"worker {workload} {' '.join(mode)} exited with {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def environment(lifter_module: str) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "lifter_module": lifter_module,
        "cli": "python -c 'from lifter.cli import main' with PYTHONPATH=src, no installed script",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--smoke", action="store_true",
        help="smallest rung, one pass, one set-up sample: checks the harness, measures nothing",
    )
    ns = parser.parse_args()

    if not (ROOT / "src" / "lifter" / "__init__.py").is_file():
        return fail(f"no lifter sources under {ROOT / 'src'}; run from a checkout of the repository")
    smoke = ["--smoke"] if ns.smoke else []
    deadline = time.monotonic() + DEADLINE_S
    try:
        if ns.trace:
            result = worker(deadline, ns.workload, ns.seed, "--trace", *smoke)
            metrics = result["metrics"]
            print(f"trace written to {result['trace_file']}")
        else:
            result = worker(deadline, ns.workload, ns.seed, "--seconds", str(ns.seconds), *smoke)
            setups = [result["setup_s"]]
            for _ in range(0 if ns.smoke else SETUP_SAMPLES):
                setups.append(worker(deadline, ns.workload, ns.seed, "--setup-only")["setup_s"])
            metrics = {name: result[name] for name, _ in END_TO_END if name != "setup_s"}
            metrics["setup_s"] = statistics.median(setups)
            print(f"requests {result['attempted']} in {result['passes']} passes, "
                  f"{result['elapsed_s']:.2f} s; setup samples {len(setups)}")
    except (RuntimeError, json.JSONDecodeError, KeyError) as exc:
        return fail(str(exc))

    units = dict(PER_LAYER if ns.trace else END_TO_END)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"failed_frac {failed_frac:.6g} share ({result['failed']} of {result['attempted']})")
    print("env " + json.dumps(environment(result["lifter"])))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

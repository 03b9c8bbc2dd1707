"""Alternating benchmark pairs of two checkouts, judged by the claim rule.

    python3 tools/pairs.py PARENT CHANGE --workload W --pairs N [--seconds S] [--seed0 K]

Pair i (from 0) runs `perfbench/run.py --workload W --seed K+i --seconds S
--trace 0` in each checkout, one process at a time and each to its end:
PARENT first in even pairs, CHANGE first in odd ones.  S defaults to
run_seconds in PARENT's BENCHMARK.json, K to 1.  It prints each pair's
end-to-end metrics as they come, then for each metric of BENCHMARK.json's
end_to_end list: the median of both sides with PARENT's quartiles, the
change in %, the pairs CHANGE won (ties count for neither side), whether
the change's median is within the metric's bound, and whether a gain may
be claimed: CHANGE won at least 9/10 of the pairs and the medians differ
by more than PARENT's interquartile range.  Last come the failed counts.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last JSON line of one benchmark run in checkout."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:  # 1: a wrong verdict, still measured
        sys.exit(f"{checkout}: exit {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed0", type=int, default=1)
    ns = parser.parse_args()
    bench = json.loads((ns.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"] if ns.seconds is None else ns.seconds
    metrics = bench["end_to_end"]
    sides = {"parent": ns.parent, "change": ns.change}
    results = {side: [] for side in sides}
    for i in range(ns.pairs):
        seed = ns.seed0 + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            results[side].append(run(sides[side], ns.workload, seed, seconds))
        shown = "; ".join(
            f"{m['name']} {results['parent'][-1]['metrics'][m['name']]['value']:.4g}"
            f" -> {results['change'][-1]['metrics'][m['name']]['value']:.4g}" for m in metrics)
        print(f"pair {i + 1} seed {seed} ({order[0]} first): {shown}", flush=True)

    print(f"\n{ns.workload}, {ns.pairs} pairs of {seconds:g} s, seeds {ns.seed0}-{ns.seed0 + ns.pairs - 1}:")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [r["metrics"][name]["value"] for r in results["parent"]]
        b = [r["metrics"][name]["value"] for r in results["change"]]
        ma, mb = statistics.median(a), statistics.median(b)
        q1, q3 = quartiles(a)
        change = (mb - ma) / ma if ma else 0.0
        won = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        worse = change if lower else -change
        better = mb < ma if lower else mb > ma
        claim = better and won >= 0.9 * ns.pairs and abs(mb - ma) > q3 - q1
        print(f"  {name} ({m['unit']}, {m['better']} is better): {ma:.4g} [{q1:.4g}, {q3:.4g}]"
              f" -> {mb:.4g} ({change:+.1%}), change won {won}/{ns.pairs};"
              f" {'within' if worse <= m['bound'] else 'BEYOND'} its {m['bound']:.0%} bound;"
              f" gain {'claimable' if claim else 'not claimable'}")
    for side in sides:
        failed = [r["failed"] for r in results[side]]
        attempted = [r["attempted"] for r in results[side]]
        print(f"  failed ({side}): {sum(failed)} of {sum(attempted)} requests, per run {failed}")


if __name__ == "__main__":
    main()

"""One workload process: set up, then measure or trace, then print one JSON
line.  Started by run.py; not meant to be run by hand.

    worker.py --workload NAME --seed N (--setup-only | --seconds S | --trace)
              [--smoke]
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from families import LADDER_CANDIDATE  # noqa: E402
from workloads import OUT, AssertLadder, CorpusCli, WORKLOADS, cli_env  # noqa: E402


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def _attempt(fn, request) -> tuple[int, bool]:
    """Run one request; one that raises or is wrong counts as failed and
    is reported on stderr, and the loop goes on."""
    try:
        verdicts, ok = fn(request)
    except Exception:
        print(f"request {request!r} raised:", file=sys.stderr)
        traceback.print_exc()
        return 0, False
    if not ok:
        print(f"wrong result for request {request!r}", file=sys.stderr)
    return verdicts, ok


def measure(workload, seconds: float, smoke: bool) -> dict:
    """Passes, one request in flight, for about `seconds`: another pass
    starts only if it would end nearer `seconds` than stopping now.  The
    first pass visits every request; later ones only those the workload
    repeats, and a sample of a first-pass-only request stands for one per
    pass.  So every run measures whole passes' worth of requests, whatever
    the seed.

    Before each request, garbage left by the one before is collected
    untimed, so that no request pays for another's: a `lifter assert`
    process serves one request and never collects its garbage at all.
    Only the busy time of requests counts towards the throughput."""
    samples: list[tuple[float, int, bool]] = []
    failed = passes = 0
    start = perf_counter()
    requests = workload.next_pass()
    while True:
        next_pass_s = 0.0
        for request in requests:
            gc.collect()
            t = perf_counter()
            n, ok = _attempt(workload.run, request)
            latency = perf_counter() - t
            repeated = workload.repeated(request)
            samples.append((latency, n, repeated))
            next_pass_s += latency if repeated else 0.0
            failed += not ok
        passes += 1
        if smoke or perf_counter() - start + next_pass_s / 2 >= seconds:
            break
        requests = [r for r in workload.next_pass() if workload.repeated(r)]
    elapsed = perf_counter() - start
    latencies: list[float] = []
    verdicts = busy = 0.0
    for latency, n, repeated in samples:
        weight = 1 if repeated else passes
        latencies.extend([latency] * weight)
        verdicts += n * weight
        busy += latency * weight
    return {
        "latency_ms.p50": statistics.median(latencies) * 1e3,
        "latency_ms.p90": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "throughput_vps": verdicts / busy,
        "attempted": len(samples),
        "failed": failed,
        "passes": passes,
        "elapsed_s": elapsed,
    }


def _timed_pass(fn, requests) -> tuple[float, int, int]:
    start = perf_counter()
    attempted = failed = 0
    for request in requests:
        _, ok = _attempt(fn, request)
        attempted += 1
        failed += not ok
    return perf_counter() - start, attempted, failed


def _traced_pass(workload, tracer, requests) -> tuple[float, int, int]:
    workload.trace_setup(tracer.request("setup"))
    return _timed_pass(lambda r: workload.run_traced(r, tracer.request(r)), requests)


def _wall_ms(argv: list[str]) -> float:
    start = perf_counter()
    subprocess.run(argv, cwd=ROOT, env=cli_env(), capture_output=True, timeout=60, check=True)
    return (perf_counter() - start) * 1e3


def cli_probe(seed: int, smoke: bool) -> tuple[dict[str, float], int, int]:
    """Interpreter start, `import lifter.cli`, and whole CLI processes (one
    corpus_cli pass), each the median of its samples."""
    samples = 1 if smoke else 5
    bare = statistics.median(_wall_ms([sys.executable, "-c", "pass"]) for _ in range(samples))
    imported = statistics.median(
        _wall_ms([sys.executable, "-c", "import lifter.cli"]) for _ in range(samples)
    )
    corpus = CorpusCli(seed, smoke)
    try:
        process_ms, failed = [], 0
        for request in corpus.next_pass():
            start = perf_counter()
            _, ok = _attempt(corpus.run, request)
            process_ms.append((perf_counter() - start) * 1e3)
            failed += not ok
    finally:
        corpus.close()
    metrics = {
        "cli.interpreter_ms": bare,
        "cli.import_ms": imported - bare,
        "cli.process_ms": statistics.median(process_ms),
    }
    return metrics, len(process_ms), failed


def _rung(key):
    return key[:2] if isinstance(key, tuple) else None


def trace(workload, seed: int, smoke: bool) -> dict:
    """Per-layer metrics: the workload's own pass traced and untraced (same
    request order), a traced sweep of every family x rung, and the CLI
    probe."""
    requests = workload.next_pass()
    untraced_s, attempted, failed = _timed_pass(workload.run_inprocess, requests)
    own = tracing.Tracer()
    traced_s, n, f = _traced_pass(workload, own, requests)
    attempted, failed = attempted + n, failed + f

    if isinstance(workload, AssertLadder):
        ladder, sweep = workload, own
    else:
        ladder, sweep = AssertLadder(seed, smoke), tracing.Tracer()
        _, n, f = _traced_pass(ladder, sweep, ladder.next_pass())
        attempted, failed = attempted + n, failed + f
    rows = []
    for (family, size), values in sweep.rows(_rung).items():
        occurrences = ladder.cases[(family, size)][1]
        rows.append({"family": family, "size": size, "occurrences": occurrences,
                     "candidate": LADDER_CANDIDATE[family], **values})
    worst, per_family = tracing.exponents(rows)

    cli, n, f = cli_probe(seed, smoke)
    attempted, failed = attempted + n, failed + f

    metrics = own.totals()
    metrics.update(cli)
    metrics.update(worst)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    shared = {name: metrics[name] for name in ("lang.parse_ms", "lang.sort_check_ms", "stdlib.load_ms")}
    shared.update(cli)
    for row in rows:
        row.update(shared)

    OUT.mkdir(parents=True, exist_ok=True)
    trace_file = OUT / f"trace-{workload.name}-{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "metrics": metrics,
        "rows": sorted(rows, key=lambda r: (r["family"], r["size"])),
        "exponents_by_family": per_family,
        "spans": own.dump_spans(),
        "sweep_spans": [] if sweep is own else sweep.dump_spans(),
    }, indent=1))
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "trace_file": str(trace_file.relative_to(ROOT)),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    ns = parser.parse_args()

    workload = WORKLOADS[ns.workload](ns.seed, ns.smoke)
    result = {"setup_s": perf_counter() - T0}
    try:
        if ns.trace:
            result.update(trace(workload, ns.seed, ns.smoke))
        elif not ns.setup_only:
            result.update(measure(workload, ns.seconds, ns.smoke))
    finally:
        workload.close()
    result["peak_rss_mb"] = peak_rss_mb()
    result["lifter"] = str(Path(sys.modules["lifter"].__file__).resolve().relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

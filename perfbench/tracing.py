"""Spans and counters recorded from the benchmark's own code, and the
per-layer metrics derived from them.

A span is (name, start, end, request id); spans stay in memory until the
traced run writes them out.  Each request also keeps its own totals: span
time per metric name (`sexp.parse` adds to `sexp.parse_ms`,
`interp.eval.h2_deepest` to `interp.eval_ms.h2_deepest`) and counts.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from time import perf_counter

from families import HEURISTICS

LAYER_METRICS = (
    ("sexp.parse_ms", "ms"),
    ("sexp.nodes", "count"),
    ("ingest.validate_ms", "ms"),
    ("ingest.case_bytes", "bytes"),
    ("lang.parse_ms", "ms"),
    ("lang.sort_check_ms", "ms"),
    ("stdlib.load_ms", "ms"),
    ("terms.occurrences_ms", "ms"),
    ("terms.subterms_ms", "ms"),
    ("interp.index_ms", "ms"),
    ("interp.index_builds", "count"),
    ("interp.occurrences", "count"),
    ("interp.terms", "count"),
    ("interp.numbers", "count"),
    *((f"interp.eval_ms.{h}", "ms") for h in HEURISTICS),
    *((f"interp.atomic_calls.{h}", "count") for h in HEURISTICS),
    *((f"interp.domain_items.{h}", "count") for h in HEURISTICS),
)
CLI_METRICS = (("cli.interpreter_ms", "ms"), ("cli.import_ms", "ms"), ("cli.process_ms", "ms"))
EXPONENT_METRICS = (
    ("sexp.parse_exponent", "sexp.parse_ms"),
    ("interp.index_exponent", "interp.index_ms"),
    *((f"interp.eval_exponent.{h}", f"interp.eval_ms.{h}") for h in HEURISTICS),
)
PER_LAYER = (
    LAYER_METRICS
    + CLI_METRICS
    + tuple((name, "log/log") for name, _ in EXPONENT_METRICS)
    + (("trace.overhead_frac", "ratio"),)
)


def _metric_of(span: str) -> str:
    layer, call, *rest = span.split(".", 2)
    return ".".join([f"{layer}.{call}_ms", *rest])


class Request:
    def __init__(self, tracer: "Tracer", rid: int):
        self._tracer = tracer
        self.rid = rid
        self.values: dict[str, float] = defaultdict(float)

    def call(self, span: str, fn, *args):
        start = perf_counter()
        result = fn(*args)
        end = perf_counter()
        self._tracer.spans.append((span, start, end, self.rid))
        self.values[_metric_of(span)] += (end - start) * 1e3
        return result

    def count(self, name: str, n: int = 1) -> None:
        self.values[name] += n

    def first(self, key) -> bool:
        """True the first time any request of this tracer passes `key`."""
        if key in self._tracer.seen:
            return False
        self._tracer.seen.add(key)
        return True


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.requests: list[tuple[object, Request]] = []
        self.seen: set = set()

    def request(self, key) -> Request:
        rec = Request(self, len(self.requests))
        self.requests.append((key, rec))
        return rec

    def totals(self) -> dict[str, float]:
        """Every layer metric summed over all requests."""
        out = {name: 0.0 for name, _ in LAYER_METRICS}
        for _, rec in self.requests:
            for name, value in _with_validate(rec.values).items():
                out[name] = out.get(name, 0.0) + value
        return out

    def rows(self, group) -> dict[object, dict[str, float]]:
        """One row per group of requests (`group` maps a request key to its
        group, or to None to leave it out): the median of each metric over
        the requests of the group that recorded it."""
        grouped: dict[object, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        for key, rec in self.requests:
            if group(key) is None:
                continue
            for name, value in _with_validate(rec.values).items():
                grouped[group(key)][name].append(value)
        return {
            key: {name: statistics.median(values) for name, values in metrics.items()}
            for key, metrics in grouped.items()
        }

    def dump_spans(self) -> list[dict]:
        origin = self.spans[0][1] if self.spans else 0.0
        keys = [key for key, _ in self.requests]
        return [
            {"name": name, "start_ms": (s - origin) * 1e3, "end_ms": (e - origin) * 1e3,
             "request": rid, "key": list(keys[rid]) if isinstance(keys[rid], tuple) else keys[rid]}
            for name, s, e, rid in self.spans
        ]


def _with_validate(values: dict[str, float]) -> dict[str, float]:
    """ingest.validate_ms: parse_case_file minus parse_sexp on the same text."""
    out = dict(values)
    whole = out.pop("ingest.parse_case_file_ms", None)
    if whole is not None:
        out["ingest.validate_ms"] = whole - out.get("sexp.parse_ms", 0.0)
    return out


def loglog_slope(points: list[tuple[float, float]]) -> float | None:
    """Least-squares slope of log(y) against log(x); None with fewer than
    two usable points."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return None
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    num = sum((x - mx) * (y - my) for x, y in pts)
    den = sum((x - mx) ** 2 for x, _ in pts)
    return num / den


def exponents(rows: list[dict]) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """Scaling exponent of each EXPONENT_METRICS entry per family, against
    flattened occurrences, and the largest over families (0.0 when no
    family has two rungs)."""
    per_family: dict[str, dict[str, float]] = defaultdict(dict)
    for family in sorted({row["family"] for row in rows}):
        fam_rows = [row for row in rows if row["family"] == family]
        for name, source in EXPONENT_METRICS:
            slope = loglog_slope([(row["occurrences"], row.get(source, 0.0)) for row in fam_rows])
            if slope is not None:
                per_family[family][name] = slope
    worst = {
        name: max((fam[name] for fam in per_family.values() if name in fam), default=0.0)
        for name, _ in EXPONENT_METRICS
    }
    return worst, dict(per_family)

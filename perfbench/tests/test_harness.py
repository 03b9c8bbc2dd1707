"""Fast self-test of the benchmark harness: every workload at its smallest
rung for one pass, traced and untraced, prints every metric BENCHMARK.json
names, and every verdict is right.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))

from families import FAMILIES, HEURISTICS, LADDERS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert any(line.startswith("failed_frac 0 ") for line in lines)
    assert any(line.startswith("env ") for line in lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    metrics = smoke(workload, 0)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_per_layer_metrics_and_rows(workload):
    metrics = smoke(workload, 1)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
    trace = json.loads((ROOT / "perfbench" / "out" / f"trace-{workload}-7.json").read_text())
    rows = {(row["family"], row["size"]): row for row in trace["rows"]}
    assert set(rows) == {(f, LADDERS[f][0]) for f in FAMILIES}
    row_names = [
        "sexp.parse_ms", "sexp.nodes", "ingest.validate_ms", "ingest.case_bytes",
        "lang.parse_ms", "lang.sort_check_ms", "stdlib.load_ms",
        "terms.occurrences_ms", "terms.subterms_ms", "interp.index_ms",
        "interp.index_builds", "interp.occurrences", "interp.terms", "interp.numbers",
        "cli.interpreter_ms", "cli.import_ms", "cli.process_ms",
        *(f"interp.{kind}.{h}" for kind in ("eval_ms", "atomic_calls", "domain_items")
          for h in HEURISTICS),
    ]
    for row in rows.values():
        assert not [name for name in row_names if name not in row]
    assert trace["spans"] and {"name", "start_ms", "end_ms", "request"} <= set(trace["spans"][0])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "assert_ladder", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""The three benchmark workloads: request lists, correctness checks, tracing.

Each workload is a closed loop: one request in flight, from one process, no
threads.  `next_pass` returns every request of the workload once, in an
order drawn from the seed; a run measures whole passes' worth of requests
(see worker.measure), so the set of requests measured does not depend on
the seed.  `run` executes one request
as a user would and checks its verdicts; `run_inprocess` does the same work
inside this process (it differs from `run` only for corpus_cli); and
`run_traced` does that work through the public functions of each layer,
recording a span around each call.

Importing this module imports lifter, so the caller puts the checkout's
`src` directory on sys.path first.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

from families import (
    BATCH_RUNG,
    EXPECTED,
    FAMILIES,
    HEURISTICS,
    LADDER_CANDIDATE,
    LADDERS,
    case_text,
    expected,
)
from lifter import Evaluator, evaluate, load_stdlib, parse_case_file
from lifter.cli import main as cli_main
from lifter.lang import parse_assertion, sort_check
from lifter.sexp import SList, parse_sexp
from lifter.stdlib import default_heuristics_dir
from lifter.terms import enumerate_occurrences, enumerate_subterms

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
CORPUS = SRC / "lifter" / "corpus"

# The hand-worked outcome of every heuristic (h1 h1s h2 h3 h4 h5 h6a h6b
# h7) on every bundled (case, argument set), kept here independently of the
# program and its tests.
CORPUS_TABLE = {
    ("exec", "alt"): "111111111",
    ("exec", "model"): "111111111",
    ("itrev", "alt"): "110111111",
    ("itrev", "model"): "111111111",
    ("itrev", "on_itrev"): "000001111",
    ("small_steps", "drop_sprime"): "110111110",
    ("small_steps", "model"): "110111111",
}

CLI_BOOT = "import sys; from lifter.cli import main; sys.exit(main(sys.argv[1:]))"


def cli_env() -> dict[str, str]:
    """The environment of every CLI child: lifter comes from src, never from
    an installed copy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _row(bits: list[bool]) -> str:
    return "".join("1" if b else "0" for b in bits)


class _Workload:
    name = ""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self.requests: list = []

    def next_pass(self) -> list:
        order = list(self.requests)
        self._rng.shuffle(order)
        return order

    def repeated(self, request) -> bool:
        """Whether a measured run visits the request in every pass, rather
        than in its first pass only."""
        return True

    def run_inprocess(self, request) -> tuple[int, bool]:
        return self.run(request)

    def trace_setup(self, rec) -> None:
        """The set-up work a traced run also times: the stdlib load."""
        _traced_load_stdlib(rec)

    def close(self) -> None:
        pass


def _traced_load_stdlib(rec) -> list:
    """load_stdlib, timed whole, plus the lang layer's two steps timed on
    every shipped heuristic file."""
    entries = rec.call("stdlib.load", load_stdlib).entries
    for name in HEURISTICS:
        text = (default_heuristics_dir() / f"{name}.lifter").read_text(encoding="utf-8")
        rec.call("lang.sort_check", sort_check, rec.call("lang.parse", parse_assertion, text))
    return list(entries)


def _count_nodes(form) -> int:
    count, stack = 0, [form]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, SList):
            stack.extend(node.items)
    return count


def _traced_parse(rec, text: str):
    form = rec.call("sexp.parse", parse_sexp, text)
    rec.count("sexp.nodes", _count_nodes(form))
    rec.count("ingest.case_bytes", len(text.encode("utf-8")))
    case = rec.call("ingest.parse_case_file", parse_case_file, text)
    # The terms layer is timed once per distinct goal: it repeats the walks
    # the index build does, and a ladder rung is parsed once per heuristic.
    if rec.first(text):
        rec.call("terms.occurrences", enumerate_occurrences, case.goal, 0)
        rec.call("terms.subterms", enumerate_subterms, case.goal)
    return case


def _traced_verdict(rec, name: str, assertion, case, args) -> bool:
    """evaluate(), split into its two public steps, with the evaluator's
    atomic and domain_values methods wrapped to count calls and items."""
    evaluator = rec.call("interp.index", Evaluator, case.goal, case.context, args)
    rec.count("interp.index_builds")
    rec.count("interp.occurrences", len(evaluator.occurrences))
    rec.count("interp.terms", len(evaluator.terms))
    rec.count("interp.numbers", len(evaluator.numbers))
    counts = {"atomic": 0, "items": 0}
    atomic, domain_values = evaluator.atomic, evaluator.domain_values

    def counted_atomic(atomic_name, values):
        counts["atomic"] += 1
        return atomic(atomic_name, values)

    def counted_domain_values(domain, env):
        values = domain_values(domain, env)
        counts["items"] += len(values)
        return values

    evaluator.atomic = counted_atomic
    evaluator.domain_values = counted_domain_values
    verdict = rec.call(f"interp.eval.{name}", evaluator.run, assertion)
    rec.count(f"interp.atomic_calls.{name}", counts["atomic"])
    rec.count(f"interp.domain_items.{name}", counts["items"])
    return verdict


class CorpusCli(_Workload):
    """The bundled corpus through the command line, one fresh process per
    request: test-all --include-h7 for each of the 7 (case, args) pairs and
    one extract --include-h7 over the corpus."""

    name = "corpus_cli"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed)
        OUT.mkdir(parents=True, exist_ok=True)
        self.csv_path = OUT / f"extract-{os.getpid()}.csv"
        self.requests = [("test-all", case, args) for case, args in sorted(CORPUS_TABLE)]
        self.requests.append(("extract",))
        header = ["case_id", "args_id", *HEURISTICS]
        lines = [",".join(header)]
        for (case, args), row in sorted(CORPUS_TABLE.items()):
            lines.append(",".join([case, args, *row]))
        self.expected_csv = ("\n".join(lines) + "\n").encode("utf-8")
        # Warm-up: one CLI process, which also shows where lifter is loaded from.
        probe = subprocess.run(
            [sys.executable, "-c", "import lifter.cli; print(lifter.cli.__file__)"],
            cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=60,
        )
        if probe.returncode != 0 or SRC not in Path(probe.stdout.strip()).resolve().parents:
            raise RuntimeError(f"lifter.cli did not load from {SRC}: {probe.stdout}{probe.stderr}")

    def argv(self, request) -> list[str]:
        if request[0] == "extract":
            return ["extract", "--corpus", str(CORPUS), "--out", str(self.csv_path), "--include-h7"]
        _, case, args = request
        return ["test-all", "--case", str(CORPUS / f"{case}.case"), "--args", args, "--include-h7"]

    def expected_stdout(self, request) -> str:
        if request[0] == "extract":
            return ""
        row = CORPUS_TABLE[request[1:]]
        lines = [f"{name}: {bit == '1'}" for name, bit in zip(HEURISTICS, row)]
        lines.append(f"Out of {len(HEURISTICS)} assertions, {row.count('1')} assertions succeeded.")
        return "\n".join(lines) + "\n"

    def _check(self, request, code: int, stdout: str) -> tuple[int, bool]:
        ok = code == 0 and stdout == self.expected_stdout(request)
        if request[0] == "extract":
            ok = ok and self.csv_path.read_bytes() == self.expected_csv
            return len(CORPUS_TABLE) * len(HEURISTICS), ok
        return len(HEURISTICS), ok

    def run(self, request) -> tuple[int, bool]:
        proc = subprocess.run(
            [sys.executable, "-c", CLI_BOOT, *self.argv(request)],
            cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=60,
        )
        return self._check(request, proc.returncode, proc.stdout)

    def run_inprocess(self, request) -> tuple[int, bool]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(self.argv(request))
        return self._check(request, code, out.getvalue())

    def run_traced(self, request, rec) -> tuple[int, bool]:
        stdlib = _traced_load_stdlib(rec)
        if request[0] == "extract":
            pairs = sorted(CORPUS_TABLE)
        else:
            pairs = [request[1:]]
        ok, cases = True, {}
        for case_id, args_id in pairs:
            if case_id not in cases:
                text = (CORPUS / f"{case_id}.case").read_text(encoding="utf-8")
                cases[case_id] = _traced_parse(rec, text)
            case = cases[case_id]
            args = case.arg_sets[args_id]
            got = _row([_traced_verdict(rec, n, a, case, args) for n, a in stdlib])
            ok = ok and got == CORPUS_TABLE[(case_id, args_id)]
        return len(pairs) * len(HEURISTICS), ok

    def trace_setup(self, rec) -> None:
        pass

    def close(self) -> None:
        self.csv_path.unlink(missing_ok=True)


class AssertLadder(_Workload):
    """`lifter assert`-shaped requests in process: every (family, rung,
    heuristic), each a fresh parse_case_file of the rung's text followed by
    one evaluate with the family's ladder candidate."""

    name = "assert_ladder"

    # The top rungs of spine and lambda take about two thirds of a pass.  A
    # measured run visits them in its first pass only and the other rungs
    # in every pass, so that the cheaper requests, which set the
    # percentiles, are sampled several times across the run.
    FIRST_PASS_ONLY = {("spine", LADDERS["spine"][-1]), ("lambda", LADDERS["lambda"][-1])}

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed)
        self.stdlib = dict(load_stdlib().entries)
        self.cases = {}
        for family in FAMILIES:
            for size in LADDERS[family][:1] if smoke else LADDERS[family]:
                self.cases[(family, size)] = case_text(family, size)
        self.requests = [(f, s, h) for (f, s) in self.cases for h in HEURISTICS]

    def repeated(self, request) -> bool:
        return request[:2] not in self.FIRST_PASS_ONLY

    def run(self, request) -> tuple[int, bool]:
        family, size, heuristic = request
        case = parse_case_file(self.cases[(family, size)][0])
        args = case.arg_sets[LADDER_CANDIDATE[family]]
        verdict = evaluate(self.stdlib[heuristic], case.goal, case.context, args)
        return 1, verdict == expected(family, LADDER_CANDIDATE[family], heuristic)

    def run_traced(self, request, rec) -> tuple[int, bool]:
        family, size, heuristic = request
        case = _traced_parse(rec, self.cases[(family, size)][0])
        args = case.arg_sets[LADDER_CANDIDATE[family]]
        verdict = _traced_verdict(rec, heuristic, self.stdlib[heuristic], case, args)
        return 1, verdict == expected(family, LADDER_CANDIDATE[family], heuristic)


class BatchRank(_Workload):
    """smart_induct-style ranking: one goal per family at a mid rung, parsed
    once in set-up; each request scores one candidate argument set of the
    family's pool with all nine heuristics through the public evaluate."""

    name = "batch_rank"

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed)
        self.stdlib = load_stdlib().entries
        self.texts, self.cases = {}, {}
        for family in FAMILIES:
            size = LADDERS[family][0 if smoke else BATCH_RUNG[family]]
            self.texts[family] = case_text(family, size)
            self.cases[family] = parse_case_file(self.texts[family][0])
        self.requests = [(f, c) for f in FAMILIES for c in EXPECTED[f]]

    def run(self, request) -> tuple[int, bool]:
        family, candidate = request
        case = self.cases[family]
        args = case.arg_sets[candidate]
        got = _row([evaluate(a, case.goal, case.context, args) for _, a in self.stdlib])
        return len(self.stdlib), got == EXPECTED[family][candidate]

    def run_traced(self, request, rec) -> tuple[int, bool]:
        family, candidate = request
        case = self.cases[family]
        args = case.arg_sets[candidate]
        got = _row([_traced_verdict(rec, n, a, case, args) for n, a in self.stdlib])
        return len(self.stdlib), got == EXPECTED[family][candidate]

    def trace_setup(self, rec) -> None:
        _traced_load_stdlib(rec)
        for text, _ in self.texts.values():
            _traced_parse(rec, text)


WORKLOADS = {w.name: w for w in (CorpusCli, AssertLadder, BatchRank)}

"""The lifter API the benchmark harness uses.

`perfbench/workloads.py` imports lifter names and, in a traced run, reads
s-expression trees, evaluator attributes and per-instance hooks.  These
tests check each of those here, so that a change that breaks the harness
fails with the other tests rather than only when the benchmark runs.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

from lifter import Evaluator, load_stdlib, parse_case_file
from lifter.sexp import SAtom, SList, SString, parse_sexp
from lifter.terms import enumerate_occurrences, enumerate_subterms

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def lifter_imports() -> list[tuple[str, str]]:
    """(module, name) for each lifter name the harness imports."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lifter"
        for alias in node.names
    ]


def test_the_harness_imports_lifter_names():
    assert ("lifter.sexp", "parse_sexp") in lifter_imports()


@pytest.mark.parametrize(
    "module, name", [pytest.param(m, n, id=f"{m}.{n}") for m, n in lifter_imports()]
)
def test_every_imported_name_exists(module, name):
    assert hasattr(importlib.import_module(module), name)


def count_nodes(form) -> int:
    """Nodes of a tree, walked as the harness counts `sexp.nodes`."""
    count, stack = 0, [form]
    while stack:
        node = stack.pop()
        count += 1
        if isinstance(node, SList):
            stack.extend(node.items)
    return count


def test_parse_sexp_gives_a_tree_of_lists():
    form = parse_sexp('(case "c" (app (const "f") (bound 0)) x)')
    assert isinstance(form, SList)
    head, name, term, atom = form.items
    assert (type(head), type(name), type(term), type(atom)) == (SAtom, SString, SList, SAtom)
    assert [type(item) for item in term.items] == [SAtom, SList, SList]
    assert count_nodes(form) == 12


MINI_CASE = """
(case "mini"
  (goal (subgoal (app (const "f") (free "x"))))
  (context
    (defn "f" (recursive true) (clauses (clause constructor)))
    (rule "f.induct" (derived-from "f")))
  (args "a" (on (free "x")) (arbitrary) (rule "f.induct")))
"""


def test_traced_verdict_hooks():
    case = parse_case_file(MINI_CASE)
    assert len(enumerate_occurrences(case.goal, 0)) == 3
    assert len(enumerate_subterms(case.goal)) == 3
    evaluator = Evaluator(case.goal, case.context, case.arg_sets["a"])
    assert (len(evaluator.occurrences), len(evaluator.terms), len(evaluator.numbers)) == (3, 3, 4)
    counts = {"atomic": 0, "items": 0}
    atomic, domain_values = evaluator.atomic, evaluator.domain_values

    def counted_atomic(name, values):
        counts["atomic"] += 1
        return atomic(name, values)

    def counted_domain_values(domain, env):
        values = domain_values(domain, env)
        counts["items"] += len(values)
        return values

    evaluator.atomic = counted_atomic
    evaluator.domain_values = counted_domain_values
    assert evaluator.run(load_stdlib().get("h1_no_constant"))
    assert counts["atomic"] > 0 and counts["items"] > 0

"""End-to-end checks, one per shipped guarantee.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion.  Every expected value here is frozen: either asserted
directly from the corpus fixtures or derived from the oracles in
test_terms before the interpreter existed.
"""

from __future__ import annotations

import csv
import random
from contextlib import contextmanager

from lifter.cli import main
from lifter.ingest import bundled_corpus_dir
from lifter.interp import Evaluator, evaluate
from lifter.lang import (
    AtomicName,
    Not,
    Quant,
    QuantKind,
    parse_assertion,
    render_assertion,
    sort_check,
)
from lifter.stdlib import CANONICAL_NAMES
from lifter.terms import (
    Const,
    Free,
    InductArgs,
    enumerate_occurrences,
)

from helpers import desugar_occurrence_quants, random_assertion, random_closed_quant
from oracle_interp import flatten
from test_terms import tree_height


@contextmanager
def criterion(number: int):
    state = {"ok": False}
    try:
        yield state
    except BaseException:
        print(f"criterion {number}: FAIL")
        raise
    print(f"criterion {number}: PASS" if state["ok"] else f"criterion {number}: FAIL")
    assert state["ok"], f"criterion {number}"


def test_criterion_1_model_proof_summary_line(capsys):
    rc = main([
        "test-all",
        "--case", str(bundled_corpus_dir() / "itrev.case"),
        "--args", "model",
    ])
    out = capsys.readouterr().out
    with criterion(1) as c:
        c["ok"] = rc == 0 and out.endswith(
            "Out of 8 assertions, 8 assertions succeeded.\n"
        )


def test_criterion_2_constant_induction_rejected(itrev_case, stdlib_set):
    h1 = stdlib_set.get("h1_no_constant")
    goal, ctx = itrev_case.goal, itrev_case.context
    on_constant = InductArgs((Const("itrev"),), (Free("ys"),), ())
    with criterion(2) as c:
        c["ok"] = (
            on_constant == itrev_case.arg_sets["on_itrev"]
            and not evaluate(h1, goal, ctx, on_constant)
            and evaluate(h1, goal, ctx, itrev_case.arg_sets["model"])
        )


def test_criterion_3_alternative_proof(itrev_case, stdlib_set):
    goal, ctx = itrev_case.goal, itrev_case.context
    alt = itrev_case.arg_sets["alt"]
    checks = [
        evaluate(stdlib_set.get(name), goal, ctx, alt)
        for name in (
            "h1_no_constant",
            "h3_same_recursive_occurrence",
            "h5_rule_argument_order",
            "h4_constructor_position",
        )
    ]
    # h4 must hold for the vacuous reason: the rule field is occupied.
    with criterion(3) as c:
        c["ok"] = all(checks) and len(alt.rules) > 0


def test_criterion_4_cross_domain_table(exec_case, stdlib_set):
    goal, ctx = exec_case.goal, exec_case.context
    model, alt = exec_case.arg_sets["model"], exec_case.arg_sets["alt"]
    wanted = [
        ("h1_no_constant", model), ("h1_no_constant", alt),
        ("h2_deepest", model), ("h2_deepest", alt),
        ("h3_same_recursive_occurrence", model), ("h3_same_recursive_occurrence", alt),
        ("h4_constructor_position", model), ("h4_constructor_position", alt),
        ("h5_rule_argument_order", model), ("h5_rule_argument_order", alt),
        ("h6a_arbitrary_not_induction", model),
        ("h6b_generalize_inner_frees", model), ("h6b_generalize_inner_frees", alt),
    ]
    results = [
        evaluate(stdlib_set.get(name), goal, ctx, args) for name, args in wanted
    ]
    with criterion(4) as c:
        c["ok"] = all(results)


def test_criterion_5_ungeneralized_free_variable(small_steps_case, stdlib_set):
    h7 = stdlib_set.get("h7_rule_args_generalized")
    goal, ctx = small_steps_case.goal, small_steps_case.context
    model = small_steps_case.arg_sets["model"]
    mutated = InductArgs(
        model.induction_terms, model.arbitrary_terms[:3], model.rules
    )
    with criterion(5) as c:
        c["ok"] = (
            mutated.arbitrary_terms == (Free("c"), Free("s"), Free("c'"))
            and mutated == small_steps_case.arg_sets["drop_sprime"]
            and evaluate(h7, goal, ctx, model)
            and not evaluate(h7, goal, ctx, mutated)
        )


def test_criterion_6_deepest_matches_oracle(corpus_pairs):
    mismatches = 0
    for case, _, args in corpus_pairs:
        e = Evaluator(case.goal, case.context, args)
        for subgoal in range(len(case.goal.subgoals)):
            height = tree_height(flatten(case.goal.subgoals[subgoal]))
            for occ, _ in enumerate_occurrences(case.goal, subgoal):
                expected = len(occ.path) == height
                if e.atomic(AtomicName.IS_AT_DEEPEST, (occ,)) is not expected:
                    mismatches += 1
    with criterion(6) as c:
        c["ok"] = mismatches == 0


def test_criterion_7_property_suites(corpus_pairs, itrev_case, stdlib_set):
    ok = True

    # Quantifier duality: Not (Q x . b) == dual-Q x . Not b.
    for _, assertion in stdlib_set.entries:
        if not isinstance(assertion, Quant):
            continue
        dual_kind = (
            QuantKind.FORALL
            if assertion.kind is QuantKind.EXISTS
            else QuantKind.EXISTS
        )
        dual = Quant(dual_kind, assertion.var, assertion.domain, Not(assertion.body))
        for case, _, args in corpus_pairs:
            ok &= evaluate(Not(assertion), case.goal, case.context, args) == evaluate(
                dual, case.goal, case.context, args
            )
    rng = random.Random(20260815)
    for _ in range(200):
        quant = random_closed_quant(rng)
        dual_kind = (
            QuantKind.FORALL if quant.kind is QuantKind.EXISTS else QuantKind.EXISTS
        )
        dual = Quant(dual_kind, quant.var, quant.domain, Not(quant.body))
        for args_id in ("model", "alt"):
            args = itrev_case.arg_sets[args_id]
            ok &= evaluate(
                Not(quant), itrev_case.goal, itrev_case.context, args
            ) == evaluate(dual, itrev_case.goal, itrev_case.context, args)

    # Empty-domain vacuity on argument fields left blank.
    empty = InductArgs()
    for domain in ("term IN induction_term", "term IN arbitrary_term", "rule"):
        forall = sort_check(parse_assertion(f"ALL x : {domain} . False"))
        exists = sort_check(parse_assertion(f"EX x : {domain} . True"))
        ok &= evaluate(forall, itrev_case.goal, itrev_case.context, empty)
        ok &= not evaluate(exists, itrev_case.goal, itrev_case.context, empty)

    # The long and sugared no-constant forms never disagree; neither does
    # any shipped heuristic with its fully desugared occurrence quantifiers.
    long_form = stdlib_set.get("h1_no_constant")
    sugar = stdlib_set.get("h1_no_constant_sugar")
    for case, _, args in corpus_pairs:
        ok &= evaluate(long_form, case.goal, case.context, args) == evaluate(
            sugar, case.goal, case.context, args
        )
        for _, assertion in stdlib_set.entries:
            plain = desugar_occurrence_quants(assertion)
            ok &= evaluate(assertion, case.goal, case.context, args) == evaluate(
                plain, case.goal, case.context, args
            )

    # Parse/render round trip: shipped set plus 1000 generated assertions.
    for _, assertion in stdlib_set.entries:
        ok &= sort_check(parse_assertion(render_assertion(assertion))) == assertion
    rng = random.Random(20260815)
    for _ in range(1000):
        assertion = random_assertion(rng)
        ok &= sort_check(parse_assertion(render_assertion(assertion))) == assertion

    with criterion(7) as c:
        c["ok"] = ok


def test_criterion_8_extraction_is_deterministic(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    corpus = str(bundled_corpus_dir())
    rc1 = main(["extract", "--corpus", corpus, "--out", str(first)])
    rc2 = main(["extract", "--corpus", corpus, "--out", str(second)])
    with first.open(newline="") as handle:
        rows = list(csv.reader(handle))
    header, table = rows[0], rows[1:]
    model_row = next(r for r in table if r[0] == "itrev" and r[1] == "model")
    with criterion(8) as c:
        c["ok"] = (
            rc1 == 0
            and rc2 == 0
            and first.read_bytes() == second.read_bytes()
            and header[2:] == list(CANONICAL_NAMES)
            and len(CANONICAL_NAMES) == 8
            and model_row[2:] == ["1"] * 8
        )

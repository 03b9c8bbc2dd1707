"""Command-line front end.

    lifter assert   --case FILE --args ID --heuristic FILE [--witness]
    lifter test-all --case FILE --args ID [--heuristics DIR] [--include-h7]
    lifter extract  --corpus DIR --out FILE [--heuristics DIR] [--include-h7]

`assert` exits 0 when the assertion holds and 1 when it does not; any
parse or validation failure exits 2 with a diagnostic on stderr and no
verdict.  Any other error is a fault in lifter itself: it exits 3 with a
one-line `internal error` message on stderr and no traceback.  `extract`
writes its table atomically: a failed run leaves no partial output file.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from pathlib import Path

from .errors import LifterError
from .ingest import CorpusCase, load_case_file, load_corpus_dir, render_term_sexp
from .interp import Evaluator, evaluate
from .lang import parse_assertion, sort_check
from .stdlib import load_stdlib
from .terms import InductArgs, Occurrence


# The exit code of an unexpected exception: neither a verdict (0, 1) nor
# an input error (2).
INTERNAL_ERROR = 3


def _arg_set(case: CorpusCase, args_id: str) -> InductArgs:
    try:
        return case.arg_sets[args_id]
    except KeyError:
        raise LifterError(
            f"case '{case.case_id}' has no argument set '{args_id}'"
        ) from None


def _load_heuristic_file(path: str) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise LifterError(f"cannot read {path}: {exc}") from exc
    try:
        return sort_check(parse_assertion(text))
    except LifterError as exc:
        raise LifterError(f"{path}: {exc}") from exc


def _format_value(value: object) -> str:
    if isinstance(value, Occurrence):
        return f"subgoal {value.subgoal}, path {list(value.path)}"
    if isinstance(value, (int, str)):
        return str(value)
    return render_term_sexp(value)  # type: ignore[arg-type]


def cmd_assert(ns: argparse.Namespace) -> int:
    case = load_case_file(ns.case)
    args = _arg_set(case, ns.args)
    assertion = _load_heuristic_file(ns.heuristic)
    witnesses = Evaluator(case.goal, case.context, args).witnesses(assertion)
    if witnesses is None:
        print("Assertion failed.")
        return 1
    if ns.witness:
        for var, value in witnesses:
            print(f"witness {var} = {_format_value(value)}", file=sys.stderr)
    print("Assertion succeeded.")
    return 0


def cmd_test_all(ns: argparse.Namespace) -> int:
    case = load_case_file(ns.case)
    args = _arg_set(case, ns.args)
    heuristics = load_stdlib(ns.heuristics).selected(include_h7=ns.include_h7)
    succeeded = 0
    for name, assertion in heuristics:
        holds = evaluate(assertion, case.goal, case.context, args)
        succeeded += holds
        print(f"{name}: {holds}")
    print(f"Out of {len(heuristics)} assertions, {succeeded} assertions succeeded.")
    return 0


def cmd_extract(ns: argparse.Namespace) -> int:
    import csv  # only extract uses these two, so other commands start without them
    import tempfile

    corpus = load_corpus_dir(ns.corpus)
    heuristics = load_stdlib(ns.heuristics).selected(include_h7=ns.include_h7)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["case_id", "args_id"] + [name for name, _ in heuristics])
    for case in corpus:
        for args_id in sorted(case.arg_sets):
            args = case.arg_sets[args_id]
            row = [case.case_id, args_id]
            for _, assertion in heuristics:
                row.append(str(int(evaluate(assertion, case.goal, case.context, args))))
            writer.writerow(row)
    out = Path(ns.out)
    fd, tmp_name = tempfile.mkstemp(dir=out.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(buffer.getvalue())
        os.replace(tmp_name, out)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lifter",
        description="Evaluate induction-heuristic assertions against recorded proof goals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_assert = sub.add_parser("assert", help="evaluate one heuristic file against one case")
    p_assert.add_argument("--case", required=True, help="case file to load")
    p_assert.add_argument("--args", required=True, help="argument-set id within the case")
    p_assert.add_argument("--heuristic", required=True, help="assertion file to evaluate")
    p_assert.add_argument(
        "--witness",
        action="store_true",
        help="on success, print one satisfying binding per leading EX (stderr)",
    )
    p_assert.set_defaults(func=cmd_assert)

    p_all = sub.add_parser("test-all", help="evaluate the shipped heuristic set against one case")
    p_all.add_argument("--case", required=True, help="case file to load")
    p_all.add_argument("--args", required=True, help="argument-set id within the case")
    p_all.add_argument("--heuristics", help="directory holding the heuristic library")
    p_all.add_argument("--include-h7", action="store_true", help="also run the ninth heuristic")
    p_all.set_defaults(func=cmd_test_all)

    p_extract = sub.add_parser("extract", help="tabulate heuristic outcomes over a corpus")
    p_extract.add_argument("--corpus", required=True, help="directory of *.case files")
    p_extract.add_argument("--out", required=True, help="CSV file to write")
    p_extract.add_argument("--heuristics", help="directory holding the heuristic library")
    p_extract.add_argument(
        "--include-h7", action="store_true", help="add the ninth heuristic as a column"
    )
    p_extract.set_defaults(func=cmd_extract)
    return parser


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except (LifterError, OSError) as exc:
        print(f"lifter: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"lifter: internal error: {exc!r}", file=sys.stderr)
        return INTERNAL_ERROR


def entry() -> None:
    sys.exit(main())

"""LiFtEr: an assertion language over proof goals and induct-method arguments.

The package splits into a term model (`terms`), case-file ingest
(`ingest`), the assertion language itself (`lang`), an exhaustive
interpreter (`interp`), the shipped heuristic library (`stdlib`), and a
command-line front end (`cli`).
"""

from .errors import LifterError
from .ingest import (
    CaseError,
    CorpusCase,
    bundled_corpus_dir,
    load_case_file,
    load_corpus_dir,
    parse_case_file,
    parse_term_sexp,
    render_term_sexp,
)
from .interp import Evaluator, classify_clause_params, evaluate, find_witnesses
from .lang import (
    Assertion,
    AtomicName,
    ParseError,
    Pattern,
    Sort,
    SortError,
    parse_assertion,
    render_assertion,
    sort_check,
)
from .stdlib import (
    CANONICAL_NAMES,
    STDLIB_NAMES,
    HeuristicSet,
    HeuristicsError,
    default_heuristics_dir,
    load_stdlib,
)
from .terms import (
    App,
    Bound,
    ClausePattern,
    Const,
    Context,
    Definition,
    Free,
    Goal,
    InductArgs,
    Lambda,
    Occurrence,
    ParamPattern,
    RuleRecord,
    Schematic,
    Term,
    enumerate_occurrences,
    enumerate_subterms,
)

__version__ = "0.1.0"

__all__ = [
    "App",
    "Assertion",
    "AtomicName",
    "Bound",
    "CANONICAL_NAMES",
    "CaseError",
    "ClausePattern",
    "Const",
    "Context",
    "CorpusCase",
    "Definition",
    "Evaluator",
    "Free",
    "Goal",
    "HeuristicSet",
    "HeuristicsError",
    "InductArgs",
    "Lambda",
    "LifterError",
    "Occurrence",
    "ParamPattern",
    "ParseError",
    "Pattern",
    "RuleRecord",
    "STDLIB_NAMES",
    "Schematic",
    "Sort",
    "SortError",
    "Term",
    "bundled_corpus_dir",
    "classify_clause_params",
    "default_heuristics_dir",
    "enumerate_occurrences",
    "enumerate_subterms",
    "evaluate",
    "find_witnesses",
    "load_case_file",
    "load_corpus_dir",
    "load_stdlib",
    "parse_assertion",
    "parse_case_file",
    "parse_term_sexp",
    "render_assertion",
    "render_term_sexp",
    "sort_check",
]

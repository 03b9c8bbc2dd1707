"""Synthetic goal families, their size ladders, and hand-derived verdicts.

Each family is a case file generated as text, shaped like one Isabelle goal
pattern and scaled by one size parameter:

  spine   S0 = g z, where Si = f xi S(i+1) and Sk = z: deep, one subgoal
  wide    h x0 ... x(k-1) = g x0: one very wide constant application
  lambda  L0 = len zs, where Li = map (%y. f y xi) L(i+1) and Lk = zs
  multi   rev (app xsi ys) = app (rev ys) (rev xsi), one subgoal per i;
          only subgoal 0 is in evaluation scope, every subgoal adds terms

Every case file carries the family's whole candidate pool as named argument
sets.  EXPECTED holds one verdict row per (family, candidate), columns in
the shipped heuristic order (HEURISTICS).  The rows were worked out by hand
from the heuristic files and the family shapes (see the notes below), not
by running the interpreter, and they hold for every rung of the ladder: the
smallest rung of each family is large enough that no derivation step
depends on the size.
"""

from __future__ import annotations

HEURISTICS = (
    "h1_no_constant",
    "h1_no_constant_sugar",
    "h2_deepest",
    "h3_same_recursive_occurrence",
    "h4_constructor_position",
    "h5_rule_argument_order",
    "h6a_arbitrary_not_induction",
    "h6b_generalize_inner_frees",
    "h7_rule_args_generalized",
)

FAMILIES = ("spine", "wide", "lambda", "multi")

# Size parameter per rung (levels, arguments, levels, subgoals).  Each rung
# roughly doubles the flattened occurrence count, from about 25.  spine and
# lambda stop where the slowest verdict takes about a second on a 2-vCPU
# machine; multi stops at about 2,000 occurrences; wide stops below the
# width (about 330 arguments) at which comparing its curried terms exceeds
# Python's recursion limit.
LADDERS = {
    "spine": (7, 15, 30, 60, 120, 240),
    "wide": (18, 43, 93, 193),
    "lambda": (3, 7, 14, 28, 56, 100),
    "multi": (2, 4, 8, 16, 32, 64, 128),
}

# The candidate every assert_ladder request uses, per family.
LADDER_CANDIDATE = {"spine": "rule", "wide": "two", "lambda": "both", "multi": "xs_rule"}

# The rung (index into LADDERS) batch_rank ranks candidates on: the one
# nearest 100 flattened occurrences in every family.  The pools hold 25
# candidates in all: with an odd count, the median and the 90th percentile
# of batch_rank's latencies fall inside one candidate's cluster of samples
# rather than on the gap between two.
BATCH_RUNG = {"spine": 2, "wide": 2, "lambda": 2, "multi": 2}

# Verdict rows: h1 h1s h2 h3 h4 h5 h6a h6b h7, "1" for holds.
EXPECTED = {
    "spine": {
        "base": "110111101",
        "rule": "110111101",
        "inner": "111111101",
        "const": "001001111",
        "pair": "110111100",
        "overlap": "111101011",
    },
    "wide": {
        "first": "111111111",
        "rule1": "111111111",
        "last": "111110100",
        "const": "001001111",
        "two": "111111111",
        "swap": "111110110",
    },
    "lambda": {
        "list": "110111111",
        "list_rule": "110110110",
        "fun": "111101101",
        "param": "110001101",
        "const": "000001111",
        "both": "111111110",
    },
    "multi": {
        "xs": "111111101",
        "xs_rule": "111111101",
        "ys": "111110100",
        "const": "001001101",
        "later": "000001101",
        "overlap": "111111001",
        "both": "111111101",
    },
}

# How the rows were derived.
#
# Shared reading of the heuristics.  Occurrences are the flattened nodes of
# subgoal 0; terms are distinct subterms of all subgoals.  h4 is vacuously
# true when a rule is given, h5 and h7 when none is.  h3 and h4 need a
# recursive-constant head occurrence with every induction term as an
# argument (h4: at a position whose clause parameters are all constructor).
# h6b needs one occurrence to1 of an induction term such that every term of
# the goal has an occurrence in subgoal 0 that is outside to1, is not a free
# variable, or is listed as arbitrary.
#
# spine (k >= 7): f rec, clauses (constructor var); g non-rec; rule f.induct.
#   Max depth k+1 holds f, x(k-1) and the inner z; x0 sits at depth 2.
#   base  on x0: h2 no (x0 atomic, not deepest); h6b no (x0 occurs once, free,
#         not arbitrary); rest yes, h4 via f's constructor slot 0.
#   rule  on x0, arb z, f.induct: as base; h5/h7 hold, x0 is argument 0.
#   inner on x(k-1), f.induct: deepest, so h2 holds; h6b no (single occurrence).
#   const on f: h1 no; h2 yes (an f at the deepest level); h3/h4 no (f is
#         never an argument); h6b yes (to1 is a constant, nothing free inside).
#   pair  on x0 S1, f.induct: h2 no; h5 yes (f0 takes x0, S1 in order); h6b no
#         (x0 once; S1 holds x1 unlisted); h7 no (S1's frees not arbitrary).
#   overlap on z, arb z: h4 no (z is argument 1, slot 0 is the constructor
#         slot); h6a no; h6b yes (z occurs twice).
# wide (k >= 18): h rec, clauses (constructor var ... var); g non-rec; rule
#   h.induct.  Every atom sits at max depth 2, so h2 always holds.
#   first on x0; rule1 on x0 arb x1 h.induct; two on x0 x1 h.induct: all hold
#         (x0 occurs twice, so h6b holds).
#   last  on x(k-1), h.induct: h5/h7 no (argument k-1, induction index 0);
#         h6b no (single occurrence).
#   const on h: h1, h3, h4 no; h5, h7 vacuous; h6b yes.
#   swap  on x1 x0, h.induct: h5/h7 no (wrong order); h6b yes via x0.
# lambda (k >= 3): map rec, clauses (var constructor); len rec, clauses
#   (constructor); f non-rec; rule map.induct.  Max depth k+3 (inside the
#   last lambda); zs sits at depth k+1 and 2, map heads at most at k+1.
#   list  on zs: h2 no; h4 yes (zs is map's argument 1, a constructor slot).
#   list_rule on zs, map.induct: h2 no; h5/h7 no (zs is argument 1, index 0).
#   fun   on the first lambda: h2 yes (not atomic); h4 no (argument 0 of map
#         is a var slot); h6b no (x0 free inside, unlisted).
#   param on x0, arb zs: h2 no; h3/h4 no (x0 is only under the non-recursive
#         f); h6b no (single occurrence).
#   const on map: h1, h2, h3, h4 no; h6b yes.
#   both  on (first lambda, L1), arb x0, map.induct: h5 yes; h6b yes (the
#         lambda's only free variable x0 is arbitrary); h7 no (x1 inside L1).
# multi (m >= 2): rev, app rec with constructor first slots; rules
#   app.induct, rev.induct.  Max depth 3.  Terms of subgoals 1.. have no
#   occurrence in subgoal 0, so h6b fails for every candidate.
#   xs on xs0; xs_rule on xs0 arb ys app.induct: all but h6b hold.
#   ys on ys, app.induct: h5/h7 no (ys is argument 1, index 0).
#   const on rev: h1, h3, h4 no; h2 yes (rev at depth 3).
#   later on xs1 (absent from subgoal 0): h1, h2, h3, h4 no.
#   overlap on xs0, arb xs0: h6a no.
#   both on xs0 ys, app.induct: all but h6b hold (app takes xs0, ys in order).


def _const(name: str) -> str:
    return f'(const "{name}")'


def _free(name: str) -> str:
    return f'(free "{name}")'


def _apply(head: str, *args: str) -> str:
    term = head
    for arg in args:
        term = f"(app {term} {arg})"
    return term


def _eq(lhs: str, rhs: str) -> str:
    return _apply(_const("="), lhs, rhs)


def _args(name: str, on: tuple[str, ...], arbitrary: tuple[str, ...], rules: tuple[str, ...]) -> str:
    rule_text = "".join(f' "{r}"' for r in rules)
    return (
        f'  (args "{name}"\n    (on {" ".join(on)})\n'
        f'    (arbitrary {" ".join(arbitrary)})\n    (rule{rule_text}))'
    )


def _case(case_id: str, subgoals: list[str], context: list[str], arg_sets: list[str]) -> str:
    goal = "\n".join(f"    (subgoal {s})" for s in subgoals)
    ctx = "\n".join(f"    {c}" for c in context)
    return (
        f'(case "{case_id}"\n  (goal\n{goal})\n  (context\n{ctx})\n'
        + "\n".join(arg_sets)
        + ")\n"
    )


def _spine(k: int) -> tuple[str, int]:
    levels = [_free("z")]
    for i in reversed(range(k)):
        levels.append(_apply(_const("f"), _free(f"x{i}"), levels[-1]))
    s0, s1 = levels[-1], levels[-2]
    goal = _eq(s0, _apply(_const("g"), _free("z")))
    context = [
        '(defn "f" (recursive true) (clauses (clause constructor var) (clause constructor var)))',
        '(defn "g" (recursive false))',
        '(rule "f.induct" (derived-from "f"))',
    ]
    x0, inner, z = _free("x0"), _free(f"x{k - 1}"), _free("z")
    args = [
        _args("base", (x0,), (), ()),
        _args("rule", (x0,), (z,), ("f.induct",)),
        _args("inner", (inner,), (), ("f.induct",)),
        _args("const", (_const("f"),), (), ()),
        _args("pair", (x0, s1), (), ("f.induct",)),
        _args("overlap", (z,), (z,), ()),
    ]
    return _case(f"spine{k}", [goal], context, args), 3 * k + 6


def _wide(k: int) -> tuple[str, int]:
    xs = [_free(f"x{i}") for i in range(k)]
    goal = _eq(_apply(_const("h"), *xs), _apply(_const("g"), xs[0]))
    clause = "(clause constructor" + " var" * (k - 1) + ")"
    context = [
        f'(defn "h" (recursive true) (clauses {clause} {clause}))',
        '(defn "g" (recursive false))',
        '(rule "h.induct" (derived-from "h"))',
    ]
    args = [
        _args("first", (xs[0],), (), ()),
        _args("rule1", (xs[0],), (xs[1],), ("h.induct",)),
        _args("last", (xs[-1],), (), ("h.induct",)),
        _args("const", (_const("h"),), (), ()),
        _args("two", (xs[0], xs[1]), (), ("h.induct",)),
        _args("swap", (xs[1], xs[0]), (), ("h.induct",)),
    ]
    return _case(f"wide{k}", [goal], context, args), k + 7


def _lambda(k: int) -> tuple[str, int]:
    def fn(i: int) -> str:
        return f'(abs "y" {_apply(_const("f"), "(bound 0)", _free(f"x{i}"))})'

    levels = [_free("zs")]
    for i in reversed(range(k)):
        levels.append(_apply(_const("map"), fn(i), levels[-1]))
    l0, l1 = levels[-1], levels[-2]
    goal = _eq(l0, _apply(_const("len"), _free("zs")))
    context = [
        '(defn "map" (recursive true) (clauses (clause var constructor) (clause var constructor)))',
        '(defn "f" (recursive false))',
        '(defn "len" (recursive true) (clauses (clause constructor) (clause constructor)))',
        '(rule "map.induct" (derived-from "map"))',
    ]
    zs, x0 = _free("zs"), _free("x0")
    args = [
        _args("list", (zs,), (), ()),
        _args("list_rule", (zs,), (), ("map.induct",)),
        _args("fun", (fn(0),), (), ()),
        _args("param", (x0,), (zs,), ()),
        _args("const", (_const("map"),), (), ()),
        _args("both", (fn(0), l1), (x0,), ("map.induct",)),
    ]
    return _case(f"lambda{k}", [goal], context, args), 7 * k + 6


def _multi(m: int) -> tuple[str, int]:
    rev, app, ys = _const("rev"), _const("app"), _free("ys")
    subgoals = []
    for i in range(m):
        xs = _free(f"xs{i}")
        lhs = _apply(rev, _apply(app, xs, ys))
        rhs = _apply(app, _apply(rev, ys), _apply(rev, xs))
        subgoals.append(_eq(lhs, rhs))
    context = [
        '(defn "rev" (recursive true) (clauses (clause constructor) (clause constructor)))',
        '(defn "app" (recursive true) (clauses (clause constructor var) (clause constructor var)))',
        '(rule "app.induct" (derived-from "app"))',
        '(rule "rev.induct" (derived-from "rev"))',
    ]
    xs0, xs1 = _free("xs0"), _free("xs1")
    args = [
        _args("xs", (xs0,), (), ()),
        _args("xs_rule", (xs0,), (ys,), ("app.induct",)),
        _args("ys", (ys,), (), ("app.induct",)),
        _args("const", (rev,), (), ()),
        _args("later", (xs1,), (), ()),
        _args("overlap", (xs0,), (xs0,), ()),
        _args("both", (xs0, ys), (), ("app.induct",)),
    ]
    return _case(f"multi{m}", subgoals, context, args), 16 * m


_BUILDERS = {"spine": _spine, "wide": _wide, "lambda": _lambda, "multi": _multi}


def case_text(family: str, size: int) -> tuple[str, int]:
    """The case file text for one family at one size parameter, and the
    number of flattened occurrences over all of its subgoals."""
    return _BUILDERS[family](size)


def expected(family: str, candidate: str, heuristic: str) -> bool:
    return EXPECTED[family][candidate][HEURISTICS.index(heuristic)] == "1"

"""The contract of lifter's value classes: type-strict equality, equal
values hashing equal, immutability, the `repr` text, the fields left out
of equality, `__match_args__`, and the checks their constructors make."""

from __future__ import annotations

import pytest

from lifter import bundled_corpus_dir, load_case_file, load_stdlib
from lifter.ingest import CorpusCase
from lifter.interp import compile_assertion
from lifter.lang import (
    AllNumbers,
    AllOccs,
    AllRules,
    AllTerms,
    And,
    Atomic,
    AtomicName,
    BoolLit,
    Imp,
    Modifier,
    Not,
    OccsOf,
    Or,
    Quant,
    QuantKind,
    TermsIn,
    parse_assertion,
)
from lifter.stdlib import HeuristicSet
from lifter.terms import (
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
    TermTable,
)

F_X = App(Const("f"), Free("x"))
CLAUSE = ClausePattern((ParamPattern.VAR,))
DEFN = Definition("f", True, (CLAUSE,))
RULE = RuleRecord("f.induct", "f")
QUANT = Quant(QuantKind.EXISTS, "x", AllTerms(), BoolLit(True), (1, 1))
ATOMIC = Atomic(AtomicName.IS_ATOMIC, ("x",), (1, 5))


# Each hashed value class once, built by a function so that every call
# gives new but equal objects.
HASHABLE = {
    "Const": lambda: Const("c"),
    "Free": lambda: Free("x"),
    "Schematic": lambda: Schematic("?x"),
    "Bound": lambda: Bound(0),
    "Lambda": lambda: Lambda("y", App(Const("g"), Bound(0))),
    "App": lambda: App(App(Const("f"), Free("x")), Const("c")),
    "Goal": lambda: Goal((App(Const("f"), Free("x")),)),
    "Occurrence": lambda: Occurrence(0, (1, 2)),
    "ClausePattern": lambda: ClausePattern((ParamPattern.VAR,)),
    "Definition": lambda: Definition("f", True, (ClausePattern((ParamPattern.VAR,)),)),
    "RuleRecord": lambda: RuleRecord("f.induct", "f"),
    "InductArgs": lambda: InductArgs((Free("x"),), (), ("f.induct",)),
    "AllNumbers": AllNumbers,
    "AllRules": AllRules,
    "AllTerms": AllTerms,
    "AllOccs": AllOccs,
    "TermsIn": lambda: TermsIn(Modifier.INDUCTION),
    "OccsOf": lambda: OccsOf("t"),
    "BoolLit": lambda: BoolLit(True),
    "Not": lambda: Not(BoolLit(False)),
    "And": lambda: And(BoolLit(True), BoolLit(False)),
    "Or": lambda: Or(BoolLit(True), BoolLit(False)),
    "Imp": lambda: Imp(BoolLit(True), BoolLit(False)),
    "Quant": lambda: Quant(QuantKind.FORALL, "x", AllOccs(), BoolLit(True)),
    "Atomic": lambda: Atomic(AtomicName.IS_ATOMIC, ("x",)),
    "HeuristicSet": lambda: HeuristicSet((("h", BoolLit(True)),)),
}


class TestEquality:
    @pytest.mark.parametrize("make", HASHABLE.values(), ids=HASHABLE.keys())
    def test_equal_values_hash_equal(self, make):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)

    @pytest.mark.parametrize(
        "a, b",
        [
            (Const("x"), Free("x")),
            (Free("x"), Schematic("x")),
            (Schematic("x"), Const("x")),
            (AllTerms(), AllOccs()),
            (AllNumbers(), AllRules()),
            (And(BoolLit(True), BoolLit(True)), Or(BoolLit(True), BoolLit(True))),
            (Or(BoolLit(True), BoolLit(True)), Imp(BoolLit(True), BoolLit(True))),
        ],
        ids=repr,
    )
    def test_kinds_never_compare_equal(self, a, b):
        assert a != b and b != a
        assert not a == b

    def test_values_never_equal_other_objects(self):
        assert Const("x") != "x"
        assert App(Const("f"), Free("x")) != (Const("f"), Free("x"))
        assert BoolLit(True) != True

    def test_fields_differ(self):
        assert App(Const("f"), Free("x")) != App(Const("f"), Free("y"))
        assert Lambda("a", Bound(0)) != Lambda("b", Bound(0))
        assert Definition("f", True) != Definition("f", False)
        assert Quant(QuantKind.EXISTS, "x", AllTerms(), BoolLit(True)) != Quant(
            QuantKind.FORALL, "x", AllTerms(), BoolLit(True)
        )

    def test_dict_fields_make_a_value_unhashable(self):
        with pytest.raises(TypeError):
            hash(Context({}, {}))
        with pytest.raises(TypeError):
            hash(CorpusCase("c", Goal((Free("x"),)), Context({}, {}), {}))


class TestIgnoredFields:
    def test_positions_are_not_compared(self):
        assert QUANT == Quant(QuantKind.EXISTS, "x", AllTerms(), BoolLit(True), (9, 9))
        assert hash(QUANT) == hash(Quant(QuantKind.EXISTS, "x", AllTerms(), BoolLit(True)))
        assert ATOMIC == Atomic(AtomicName.IS_ATOMIC, ("x",))
        assert hash(ATOMIC) == hash(Atomic(AtomicName.IS_ATOMIC, ("x",), (3, 3)))

    def test_the_table_is_not_compared(self):
        table = TermTable()
        table.intern(F_X)
        read = Goal((F_X,), table)
        assert read == Goal((F_X,)) and hash(read) == hash(Goal((F_X,)))
        assert read.table is table

    def test_a_compiled_program_is_not_compared(self):
        compiled = parse_assertion("EX t : term . True")
        compile_assertion(compiled)
        assert "_program" in vars(compiled)
        fresh = parse_assertion("EX t : term . True")
        assert compiled == fresh and hash(compiled) == hash(fresh)

    def test_the_cached_index_is_not_compared(self):
        case = load_case_file(bundled_corpus_dir() / "itrev.case")
        assert case.goal.index is case.goal.index
        assert case.goal == Goal(case.goal.subgoals)


class TestImmutability:
    @pytest.mark.parametrize("make", HASHABLE.values(), ids=HASHABLE.keys())
    def test_fields_cannot_be_assigned_or_deleted(self, make):
        value = make()
        for field in value.__match_args__:
            with pytest.raises(AttributeError):
                setattr(value, field, None)
            with pytest.raises(AttributeError):
                delattr(value, field)
        assert value == make()

    @pytest.mark.parametrize("make", HASHABLE.values(), ids=HASHABLE.keys())
    def test_no_new_attribute_either(self, make):
        with pytest.raises(AttributeError):
            make().extra = 1


class TestRepr:
    @pytest.mark.parametrize(
        "value, text",
        [
            (App(Const("f"), Free("x")), "App(fun=Const(name='f'), arg=Free(name='x'))"),
            (Lambda("y", Bound(0)), "Lambda(binder='y', body=Bound(index=0))"),
            (Schematic("?n"), "Schematic(name='?n')"),
            (Occurrence(0, (1, 2)), "Occurrence(subgoal=0, path=(1, 2))"),
            (Goal((Free("x"),), TermTable()), "Goal(subgoals=(Free(name='x'),))"),
            (CLAUSE, "ClausePattern(params=(<ParamPattern.VAR: 'var'>,))"),
            (
                DEFN,
                "Definition(constant_name='f', is_recursive=True, "
                "clauses=(ClausePattern(params=(<ParamPattern.VAR: 'var'>,)),))",
            ),
            (RULE, "RuleRecord(rule_name='f.induct', derived_from='f')"),
            (Context({}, {}), "Context(definitions={}, rules={})"),
            (
                InductArgs((Free("x"),)),
                "InductArgs(induction_terms=(Free(name='x'),), arbitrary_terms=(), rules=())",
            ),
            (AllNumbers(), "AllNumbers()"),
            (
                TermsIn(Modifier.ARBITRARY),
                "TermsIn(modifier=<Modifier.ARBITRARY: 'arbitrary_term'>)",
            ),
            (OccsOf("t"), "OccsOf(term_var='t')"),
            (Not(BoolLit(False)), "Not(body=BoolLit(value=False))"),
            (
                Imp(BoolLit(True), BoolLit(False)),
                "Imp(lhs=BoolLit(value=True), rhs=BoolLit(value=False))",
            ),
            (
                QUANT,
                "Quant(kind=<QuantKind.EXISTS: 'EX'>, var='x', domain=AllTerms(), "
                "body=BoolLit(value=True))",
            ),
            (ATOMIC, "Atomic(name=<AtomicName.IS_ATOMIC: 'is_atomic'>, args=('x',))"),
            (HeuristicSet(()), "HeuristicSet(entries=())"),
        ],
        ids=lambda v: type(v).__name__ if not isinstance(v, str) else "",
    )
    def test_repr_shows_the_compared_fields(self, value, text):
        assert repr(value) == text

    def test_a_case_shows_its_fields(self):
        case = CorpusCase("c", Goal((Free("x"),)), Context({}, {}), {})
        assert repr(case) == (
            "CorpusCase(case_id='c', goal=Goal(subgoals=(Free(name='x'),)), "
            "context=Context(definitions={}, rules={}), arg_sets={})"
        )


class TestMatchArgs:
    @pytest.mark.parametrize(
        "cls, names",
        [
            (Const, ("name",)),
            (Free, ("name",)),
            (Schematic, ("name",)),
            (Bound, ("index",)),
            (Lambda, ("binder", "body")),
            (App, ("fun", "arg")),
            (Goal, ("subgoals", "table")),
            (Occurrence, ("subgoal", "path")),
            (ClausePattern, ("params",)),
            (Definition, ("constant_name", "is_recursive", "clauses")),
            (RuleRecord, ("rule_name", "derived_from")),
            (Context, ("definitions", "rules")),
            (InductArgs, ("induction_terms", "arbitrary_terms", "rules")),
            (CorpusCase, ("case_id", "goal", "context", "arg_sets")),
            (AllNumbers, ()),
            (TermsIn, ("modifier",)),
            (OccsOf, ("term_var",)),
            (BoolLit, ("value",)),
            (Not, ("body",)),
            (And, ("lhs", "rhs")),
            (Or, ("lhs", "rhs")),
            (Imp, ("lhs", "rhs")),
            (Quant, ("kind", "var", "domain", "body", "pos")),
            (Atomic, ("name", "args", "pos")),
            (HeuristicSet, ("entries",)),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else "",
    )
    def test_match_args(self, cls, names):
        assert cls.__match_args__ == names

    def test_positional_patterns_bind_fields(self):
        match Quant(QuantKind.FORALL, "o", OccsOf("t"), Or(BoolLit(True), BoolLit(False)), (2, 4)):
            case Quant(kind, var, OccsOf(term_var), Or(lhs, _), pos):
                assert (kind, var, term_var, lhs, pos) == (
                    QuantKind.FORALL, "o", "t", BoolLit(True), (2, 4)
                )
            case _:
                pytest.fail("no match")
        match App(Lambda("v", Bound(0)), Const("c")):
            case App(Lambda(binder, Bound(index)), Const(name)):
                assert (binder, index, name) == ("v", 0, "c")
            case _:
                pytest.fail("no match")
        match Occurrence(1, (0,)):
            case Occurrence(subgoal, path):
                assert (subgoal, path) == (1, (0,))


class TestConstructorChecks:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Const(""), "names must be non-empty strings"),
            (lambda: Free(3), "names must be non-empty strings"),
            (lambda: Schematic(""), "names must be non-empty strings"),
            (lambda: Lambda("", Bound(0)), "names must be non-empty strings"),
            (lambda: Bound(-1), "bound indices must be natural numbers"),
            (lambda: Bound("0"), "bound indices must be natural numbers"),
            (lambda: Goal(()), "a goal has at least one subgoal"),
            (lambda: Definition("", False), "names must be non-empty strings"),
            (
                lambda: Definition("f", True, (CLAUSE, ClausePattern(()))),
                "clauses of 'f' disagree on arity",
            ),
            (lambda: RuleRecord("", "f"), "names must be non-empty strings"),
            (lambda: RuleRecord("r", ""), "names must be non-empty strings"),
            (
                lambda: Context({}, {"f.induct": RULE}),
                "rule 'f.induct' derives from unknown constant 'f'",
            ),
        ],
    )
    def test_value_errors(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    def test_defaults(self):
        assert InductArgs() == InductArgs((), (), ())
        assert Definition("f", False).clauses == () and Definition("f", False).arity is None
        assert Quant(QuantKind.EXISTS, "x", AllTerms(), BoolLit(True)).pos is None
        assert Goal((Free("x"),)).table is None

    def test_the_stdlib_loads_into_equal_sets(self):
        assert load_stdlib() == load_stdlib()

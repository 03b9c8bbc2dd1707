"""The shipped heuristic library: nine assertion files in a fixed order.

The canonical set used by `test-all` and `extract` is the first eight.
The ninth, h7_rule_args_generalized, strengthens h5 by also demanding that
free variables inside compound induction terms be generalized; it joins
the selection only on request.
"""

from __future__ import annotations

from pathlib import Path

from .errors import LifterError
from .lang import Assertion, parse_assertion, sort_check
from .record import Record, set_field


class HeuristicsError(LifterError):
    """A heuristics directory that does not hold the expected library."""


STDLIB_NAMES: tuple[str, ...] = (
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
CANONICAL_NAMES: tuple[str, ...] = STDLIB_NAMES[:8]


class HeuristicSet(Record):
    __slots__ = __match_args__ = _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[str, Assertion], ...]):
        set_field(self, "entries", entries)

    def selected(self, include_h7: bool = False) -> tuple[tuple[str, Assertion], ...]:
        if include_h7:
            return self.entries
        return tuple(e for e in self.entries if e[0] in CANONICAL_NAMES)

    def get(self, name: str) -> Assertion:
        for entry_name, assertion in self.entries:
            if entry_name == name:
                return assertion
        raise HeuristicsError(f"unknown heuristic '{name}'")


def default_heuristics_dir() -> Path:
    return Path(__file__).parent / "heuristics"


def load_stdlib(directory: str | Path | None = None) -> HeuristicSet:
    directory = Path(directory) if directory is not None else default_heuristics_dir()
    if not directory.is_dir():
        raise HeuristicsError(f"not a heuristics directory: {directory}")
    present = {p.stem for p in directory.glob("*.lifter")}
    missing = [name for name in STDLIB_NAMES if name not in present]
    if missing:
        raise HeuristicsError(f"missing heuristic file: {missing[0]}.lifter in {directory}")
    unexpected = sorted(present - set(STDLIB_NAMES))
    if unexpected:
        raise HeuristicsError(f"unexpected heuristic file: {unexpected[0]}.lifter in {directory}")
    entries = []
    for name in STDLIB_NAMES:
        path = directory / f"{name}.lifter"
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise HeuristicsError(f"cannot read {path.name}: {exc}") from exc
        try:
            entries.append((name, sort_check(parse_assertion(text))))
        except LifterError as exc:
            raise HeuristicsError(f"{path.name}: {exc}") from exc
    return HeuristicSet(tuple(entries))

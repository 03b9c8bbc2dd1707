"""The base of lifter's value classes.

Each value class is written out by hand: its fields, its `__init__` with
the checks its values must pass, and `__match_args__` for the positional
patterns of `match` statements.  Record adds what they share: equality,
hashing, a `repr`, and immutability.  Equality and hashing walk fields
that are records themselves from an explicit stack, so a tree of records
(a term, an assertion) may nest as deep as memory allows.
"""

from __future__ import annotations

# Sets a field from `__init__`, past Record's __setattr__.
set_field = object.__setattr__


class Record:
    """An immutable value, compared, hashed and shown by its fields.

    `_fields` names the fields, in order, that equality, hashing and `repr`
    read; a field left out of it (a source position, a cache) does not take
    part in either.  Equality is type-strict: instances of two different
    classes never compare equal.  Assigning or deleting an attribute raises
    AttributeError; a subclass sets its fields in `__init__` with
    `set_field`.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__:
                return False
            for x, y in zip(a._values(), b._values()):
                if isinstance(x, Record):
                    todo.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self) -> int:
        # Each record's class and leaf fields, in one fixed order of the walk.
        parts: list = []
        todo = [self]
        while todo:
            record = todo.pop()
            parts.append(record.__class__)
            for value in record._values():
                if isinstance(value, Record):
                    todo.append(value)
                else:
                    parts.append(value)
        return hash(tuple(parts))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field '{name}'")

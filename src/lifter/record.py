"""The base of lifter's value classes.

Each value class is written out by hand: its fields, its `__init__` with
the checks its values must pass, and `__match_args__` for the positional
patterns of `match` statements.  Record adds what they share: equality,
hashing, a `repr`, and immutability.
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
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field '{name}'")

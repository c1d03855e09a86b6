"""The immutable value base of the validated path, word and expansion types.

A subclass names its fields in `_fields` and stores each one in the
instance `__dict__` from its `__init__`.  The base refuses every later
assignment and compares, hashes and shows a value by those fields alone, so
other `__dict__` entries (a path's cached statistics, say) change none of
the three.  Equality holds only between values of the same type.

`_trusted` builds a value from its fields without running `__init__`, so
without its checks: it serves code that has built the fields valid, such as
a bijection's forward map.  Every public constructor and parser checks.
"""

from __future__ import annotations


class Value:
    _fields: tuple[str, ...] = ()

    @classmethod
    def _trusted(cls, *values):
        """The value whose fields, in `_fields` order, are `values`,
        unchecked."""
        self = object.__new__(cls)
        self.__dict__.update(zip(cls._fields, values))
        return self

    def _key(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(
            f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        mine, theirs = self.__dict__, other.__dict__
        for name in self._fields:
            if mine[name] != theirs[name]:
                return False
        return True

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={self.__dict__[name]!r}"
                           for name in self._fields)
        return f"{type(self).__name__}({fields})"

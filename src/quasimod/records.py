"""Immutable records that check their fields when built.

A record that only holds its fields subclasses `NamedTuple`: its class body
reads as one of `typing.NamedTuple`'s, annotated fields with any defaults
last, and the class it makes is a `collections.namedtuple` carrying the
body's docstring, methods and properties.  So the package imports neither
`typing` nor, for its records, `dataclasses`.  One that checks its fields,
or caches what it derives from them, subclasses `Frozen`, a slotted class
whose `__init__` does the checks.  A copy made by `_replace` goes through
them too, and assignment raises AttributeError.
"""

from collections import namedtuple


class _NamedTupleType(type):
    def __new__(mcls, name, bases, ns):
        if not bases:  # the base itself
            return super().__new__(mcls, name, bases, ns)
        # the fields are the body's annotations, strings under
        # `from __future__ import annotations`, which every record module has
        fields = tuple(ns.get("__annotations__", ()))
        defaults = [ns[f] for f in fields if f in ns]
        if any(f not in ns for f in fields[len(fields) - len(defaults):]):
            raise TypeError(f"record {name} has a field without a default "
                            f"after one with a default")
        cls = namedtuple(name, fields, defaults=defaults,
                         module=ns["__module__"])
        for key, value in ns.items():
            if key not in fields and key != "__module__":
                setattr(cls, key, value)
        return cls


class NamedTuple(metaclass=_NamedTupleType):
    """Base of a record that only holds its fields: a subclass is made a
    `collections.namedtuple` of its annotated fields, with its defaults,
    docstring, methods and properties, and is not a subclass of this."""


class Frozen:
    """Base of a slotted record: `_fields` names the constructor's
    arguments in order, and `__slots__` is them and then any cache.
    `__init__` stores all of them with one `_set`; equality, hashing and
    the repr go by the fields, as on a frozen dataclass, and the repr leaves
    out the fields past `_shown`."""

    __slots__ = ()
    _fields: tuple = ()
    _shown = None

    def _set(self, *values) -> None:
        """Store `values` in `__slots__` order."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}"
                          for f in self._fields[:self._shown])
        return f"{type(self).__name__}({shown})"

    def _replace(self, **changes):
        """A copy with `changes` applied, built and checked anew."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

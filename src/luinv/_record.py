"""Slotted records: the dataclass behaviour the package's record types use,
without importing ``dataclasses`` (which loads ``inspect`` and costs about a
third of the label algebra's import).

A record's fields are the public names in its own ``__slots__``, in order;
they are also its ``__match_args__``.  A record's ``__init__`` checks its
arguments, then stores each checked value once with ``object.__setattr__``.
``repr`` lists the fields by name, and copy and pickle carry the field tuple
and restore it with ``__setstate__``, without ``__init__``.

- ``Record`` refuses assignment and compares by identity;
- ``Value`` compares equal to a record of exactly its class with an equal
  field tuple, and hashes as that tuple, computed on first use and kept;
- ``Ordered`` also orders by the field tuple: it defines ``<`` alone, and
  ``functools.total_ordering`` derives ``<=``, ``>`` and ``>=`` from ``<``
  and ``==``.

Against any other class the comparisons return NotImplemented.

``as_int`` is the package's one rule for an integer argument.
"""

from functools import total_ordering
from operator import attrgetter, index


def as_int(value):
    """value as an int if it is an integer, numpy's included, but no float,
    str or bool; otherwise None."""
    if type(value) is bool:
        return None
    try:
        return index(value)
    except TypeError:
        return None


class Record:
    """An immutable record, compared by identity."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(name for name in cls.__dict__.get("__slots__", ())
                       if not name.startswith("_"))
        if fields:
            cls.__match_args__ = fields
            # one field alone compares as itself, which orders as its 1-tuple
            cls._key = attrgetter(*fields)
            cls._single = len(fields) == 1

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __getstate__(self):
        values = self._key(self)
        return (values,) if self._single else values

    def __setstate__(self, state):
        for name, value in zip(self.__match_args__, state):
            object.__setattr__(self, name, value)


class Value(Record):
    """An immutable record, equal and hashed by its field tuple.

    Every way of making one (``__init__``, ``__setstate__`` and the label
    algebra's trusted builders) stores None in its hash slot with
    ``set_hash``, so that the first hash needs no exception to find the slot
    empty."""

    __slots__ = ("_hash",)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            # a field tuple would find one field identical without comparing
            mine, theirs = self._key(self), self._key(other)
            return mine is theirs or mine == theirs
        return NotImplemented

    def __hash__(self):
        value = self._hash
        if value is None:  # the field tuple's hash, as __getstate__ gives it
            values = self._key(self)
            value = hash((values,) if self._single else values)
            set_hash(self, value)
        return value

    def __setstate__(self, state):
        set_hash(self, None)
        super().__setstate__(state)


#: set_hash(value, h) stores h in the hash slot without the immutability check.
set_hash = Value._hash.__set__


@total_ordering
class Ordered(Value):
    """A value ordered by its field tuple."""

    __slots__ = ()

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) < self._key(other)
        return NotImplemented

"""Immutable value records, declared like frozen dataclasses.

A record class derives from `Record` and lists its fields as annotated names
in the class body, in order, each with an optional default. An optional
`__post_init__` runs after the fields are set: it validates them, and may
canonicalize one with `object.__setattr__`. Names listed in the body's own
`__slots__` hold values derived from the fields, by `__post_init__` or on
first use; they are not fields.

A record is a `__slots__` object that refuses attribute assignment. It
equals another object only when both have the same type and equal fields,
so never a plain tuple or number; it computes its hash once, on first
use; and its repr is `Name(field=value, ...)`.

`dataclasses` is not used: it imports `inspect`, `ast` and `dis`, and
compiles six methods per class when the class is created. A record type
compiles one, its `__init__`, when its first instance is built.
"""

from operator import attrgetter

_set = object.__setattr__


class _RecordType(type):
    """Makes the annotated names of a record class body its slots."""

    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        defaults = {f: ns.pop(f) for f in fields if f in ns}
        ns["__slots__"] = fields + tuple(ns.get("__slots__", ()))
        cls = super().__new__(mcls, name, bases, ns)
        cls._fields = fields
        cls._defaults = defaults
        if fields:
            cls._values = attrgetter(*fields)
        return cls


def _compile_init(cls):
    """The `__init__` of a record type: set each field, then the unset
    hash, then run `__post_init__`."""
    params = ", ".join(f"{f}=_d_{f}" if f in cls._defaults else f
                       for f in cls._fields)
    lines = [f"def __init__(self, {params}):"]
    lines += [f" _set(self, {f!r}, {f})" for f in cls._fields]
    lines.append(" _set(self, '_hash', None)")
    if hasattr(cls, "__post_init__"):
        lines.append(" self.__post_init__()")
    ns = {"_set": _set, **{f"_d_{f}": v for f, v in cls._defaults.items()}}
    exec("\n".join(lines), ns)
    return ns["__init__"]


class Record(metaclass=_RecordType):
    __slots__ = ("_hash",)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        cls.__init__ = _compile_init(cls)
        cls.__init__(self, *args, **kwargs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._values(self))
            _set(self, "_hash", h)
        return h

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

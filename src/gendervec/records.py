"""JSON-dict conversion for the config and result dataclasses.

``Record.to_dict`` walks ``dataclasses.fields``; ``Record.from_dict``
casts each value to its annotated type, raising ``DataError`` naming the
key when it cannot, and ignores keys it does not know.  Field metadata
covers the two exceptions: ``key(name)`` writes a field under another
JSON key, and ``OMIT`` leaves it out of the dict.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing

from .errors import DataError, GendervecError

OMIT = {"omit": True}


def key(name: str) -> dict:
    """Field metadata that writes the field under the JSON key ``name``."""
    return {"key": name}


def json_fields(cls) -> list[tuple[dataclasses.Field, str]]:
    """(field, JSON key) for every field the dict form carries."""
    return [
        (f, f.metadata.get("key", f.name))
        for f in dataclasses.fields(cls)
        if not f.metadata.get("omit")
    ]


def required(f: dataclasses.Field) -> bool:
    return f.default is dataclasses.MISSING


def _plain(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def integer(value) -> int:
    """``value`` as an int; a bool or a non-integral number is a ``ValueError``."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _cast(tp, value):
    if value is None:
        return None
    args = typing.get_args(tp)
    origin = typing.get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        return _cast(next(a for a in args if a is not type(None)), value)
    if origin is tuple:
        if args[-1] is Ellipsis:
            return tuple(_cast(args[0], v) for v in value)
        return tuple(_cast(a, v) for a, v in zip(args, value))
    if isinstance(tp, type) and issubclass(tp, Record):
        return tp.from_dict(value)
    if tp is int:
        return integer(value)
    if tp in (bool, float) and isinstance(value, bool) != (tp is bool):
        raise TypeError(value)
    if tp in (bool, float, str):
        return tp(value)
    return value


class Record:
    """Mixin for dataclasses that travel as JSON objects."""

    def to_dict(self) -> dict:
        return {k: _plain(getattr(self, f.name)) for f, k in json_fields(type(self))}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: dict):
        hints = typing.get_type_hints(cls)
        values = {}
        for f, k in json_fields(cls):
            if k in data:
                try:
                    values[f.name] = _cast(hints[f.name], data[k])
                except GendervecError:
                    raise
                except (TypeError, ValueError, OverflowError):
                    raise DataError(f"{cls.__name__}: bad value {data[k]!r} for {k!r}") from None
            elif required(f):
                raise DataError(f"{cls.__name__}: missing required key {k!r}")
        return cls(**values)

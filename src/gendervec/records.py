"""The staged-file formats: JSON records and tab-separated rows.

``Record.to_dict`` walks ``dataclasses.fields``; ``Record.from_dict``
casts each value to its annotated type, raising ``DataError`` naming the
key when it cannot, and ignores keys it does not know.  Field metadata
covers the two exceptions: ``key(name)`` writes a field under another
JSON key, and ``OMIT`` leaves it out of the dict.  ``write_json`` writes
every JSON artifact (two-space indent, sorted keys, a final newline).

``read_rows`` reads all four tab-separated files (vocabulary, dataset
table, lexicon, co-occurrence counts) by one rule: one row a line, blank
lines skipped, a fixed field count.  ``write_rows`` writes the first three.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from itertools import islice

from .errors import ConfigurationError, DataError, GendervecError

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
        if len(value) != len(args):
            raise ValueError(f"expected {len(args)} values, got {len(value)}")
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

    @classmethod
    def from_dict(cls, data: dict):
        if not isinstance(data, dict):
            raise DataError(f"{cls.__name__}: expected a JSON object, got {type(data).__name__}")
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


def load_record(cls, path):
    """``cls.from_dict`` of the JSON file at ``path``; malformed JSON, or a
    value the record's own checks reject, is a ``DataError`` naming ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: malformed JSON: {exc}") from None
    try:
        return cls.from_dict(data)
    except ConfigurationError as exc:
        raise DataError(f"{path}: {exc}") from None


def write_json(path, data) -> None:
    """Write a ``Record`` or plain JSON data as an artifact file."""
    if isinstance(data, Record):
        data = data.to_dict()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


def read_rows(
    path, width: int, expected: str, skip: int = 0
) -> typing.Iterator[tuple[int, list[str]]]:
    """Line number and tab-separated fields of each non-blank line of
    ``path`` after its first ``skip`` lines; a row of other than ``width``
    fields is a ``DataError`` ``path:line: expected <expected>``, and so is
    invalid UTF-8, ``path: invalid UTF-8 at byte offset N``.  Text mode
    reads a CRLF line end as LF, so a CRLF file gives its LF twin's rows.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(islice(fh, skip, None), skip + 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != width:
                    raise DataError(f"{path}:{lineno}: expected {expected}")
                yield lineno, fields
        except UnicodeDecodeError:
            # the text layer decodes ahead of the line it hands out, so
            # neither its line nor its position is the bad byte's
            offset = _bad_utf8_offset(path)
            raise DataError(f"{path}: invalid UTF-8 at byte offset {offset}") from None


def _bad_utf8_offset(path) -> int:
    """File offset of the first byte of ``path`` that is not valid UTF-8."""
    offset = 0
    with open(path, "rb") as fh:
        # no multi-byte sequence spans a newline byte, so lines decode alone
        for line in fh:
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return offset + exc.start
            offset += len(line)
    raise AssertionError(f"{path} decodes as UTF-8")


def write_rows(path, rows: typing.Iterable[typing.Iterable]) -> None:
    """Write each row's fields, as ``str`` gives them, on one tab-separated line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines("\t".join(map(str, row)) + "\n" for row in rows)

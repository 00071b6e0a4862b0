"""The staged-file formats: JSON records and tab-separated rows.

``Record.to_dict`` walks ``dataclasses.fields``; ``Record.from_dict``
casts each value to its annotated type, raising ``DataError`` naming the
key when it cannot, and ignores keys it does not know.  Field metadata
covers the two exceptions: ``key(name)`` writes a field under another
JSON key, and ``OMIT`` leaves it out of the dict.  It also holds each
config field's ``Rule`` (``bounds``, ``one_of``), which ``__post_init__``
checks: any other value, NaN and infinity too, is a ``ConfigurationError``
``<key> must be <rule>, got <value!r>``.  ``write_json`` writes every JSON
artifact (two-space indent, sorted keys, a final newline), and
``read_json`` reads every JSON file: the run and split manifests,
``grid.json`` and a CLI config.  ``write_csv`` writes all six CSV files,
and ``read_csv`` reads the one read back, ``records.csv``.

``read_rows`` reads all four tab-separated files (vocabulary, dataset
table, lexicon, co-occurrence counts) by one rule: one row a line, blank
lines skipped, a fixed field count.  ``write_rows`` writes the first three.
Every text reader opens its file with ``open_text``, so invalid UTF-8 is
one ``DataError`` naming the file and the bad byte's offset.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import json
import math
import types
import typing
from itertools import islice

from .errors import ConfigurationError, DataError, GendervecError

OMIT = {"omit": True}


def key(name: str) -> dict:
    """Field metadata that writes the field under the JSON key ``name``."""
    return {"key": name}


@dataclasses.dataclass(frozen=True)
class Rule:
    """What a config field accepts: one of ``choices`` if set, else a number
    from ``lo`` to ``hi``; a None bound is absent, an ``open_`` one excludes its end."""

    lo: float | None = None
    hi: float | None = None
    open_lo: bool = False
    open_hi: bool = False
    choices: tuple | None = None

    def admits(self, value) -> bool:
        if self.choices is not None:
            return value in self.choices
        # each comparison holds of numbers alone, so NaN fails it
        return ((self.lo is None or (value > self.lo if self.open_lo else value >= self.lo))
                and (self.hi is None or (value < self.hi if self.open_hi else value <= self.hi)))

    def __str__(self) -> str:
        if self.choices is not None:
            return f"one of {self.choices}"
        if self.hi is not None:
            left, right = "(" if self.open_lo else "[", ")" if self.open_hi else "]"
            return f"in {left}{self.lo}, {self.hi}{right}"
        return "finite" if self.lo is None else f"{'>' if self.open_lo else '>='} {self.lo}"


def bounds(lo=None, hi=None, *, open_lo: bool = False, open_hi: bool = False) -> dict:
    """Field metadata: a ``Rule`` from ``lo`` to ``hi``, or with neither, a finite float."""
    return {"rule": Rule(lo, hi, open_lo, open_hi)}


def one_of(values) -> dict:
    """Field metadata: a ``Rule`` that the value is one of ``values``."""
    return {"rule": Rule(choices=tuple(values))}


def json_fields(cls) -> list[tuple[dataclasses.Field, str]]:
    """(field, JSON key) for every field the dict form carries."""
    return [
        (f, f.metadata.get("key", f.name))
        for f in dataclasses.fields(cls)
        if not f.metadata.get("omit")
    ]


@functools.cache
def field_types(cls) -> dict[str, typing.Any]:
    """Each field's annotation by field name, resolved once per class."""
    return typing.get_type_hints(cls)


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
    if tp is float and isinstance(value, bool):
        raise TypeError(value)
    if tp in (float, str):
        return tp(value)
    return value


class Record:
    """Mixin for dataclasses that travel as JSON objects."""

    def __post_init__(self):
        for f, k in json_fields(type(self)):
            rule, value = f.metadata.get("rule"), getattr(self, f.name)
            if rule is not None and not rule.admits(value):
                raise ConfigurationError(f"{k} must be {rule}, got {value!r}")
            if rule is not None and isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(f"{k} must be finite, got {value!r}")

    def to_dict(self) -> dict:
        return {k: _plain(getattr(self, f.name)) for f, k in json_fields(type(self))}

    @classmethod
    def from_dict(cls, data: dict):
        if not isinstance(data, dict):
            raise DataError(f"{cls.__name__}: expected a JSON object, got {type(data).__name__}")
        hints = field_types(cls)
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
    value the record rejects, is a ``DataError`` naming ``path``."""
    data = read_json(path)
    try:
        return cls.from_dict(data)
    except (ConfigurationError, DataError) as exc:
        raise DataError(f"{path}: {exc}") from None


def read_json(path):
    """The JSON data of the file at ``path``; malformed JSON is a
    ``DataError`` ``path: malformed JSON: <detail>``."""
    with open_text(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: malformed JSON: {exc}") from None


def json_text(data) -> str:
    """The artifact text of a ``Record`` or plain JSON data."""
    if isinstance(data, Record):
        data = data.to_dict()
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def write_json(path, data) -> None:
    """Write ``json_text(data)`` as an artifact file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(data))


def read_rows(
    path, width: int, expected: str, skip: int = 0
) -> typing.Iterator[tuple[int, list[str]]]:
    """Line number and tab-separated fields of each non-blank line of
    ``path`` after its first ``skip`` lines; a row of other than ``width``
    fields is a ``DataError`` ``path:line: expected <expected>``.  Text
    mode reads a CRLF line end as LF, so a CRLF file gives its LF twin's
    rows.
    """
    with open_text(path) as fh:
        for lineno, line in enumerate(islice(fh, skip, None), skip + 1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != width:
                raise DataError(f"{path}:{lineno}: expected {expected}")
            yield lineno, fields


@contextlib.contextmanager
def open_text(path, newline: str | None = None) -> typing.Iterator[typing.TextIO]:
    """``path`` open as UTF-8 text; invalid UTF-8 read in the block is a
    ``DataError`` ``path: invalid UTF-8 at byte offset N``."""
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            # the text layer decodes ahead of what it hands out, so
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


def write_csv(path, header: typing.Sequence, rows: typing.Iterable[typing.Iterable]) -> None:
    """Write ``header``, then each row, with ``csv.writer``'s defaults."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, header: typing.Sequence[str]) -> typing.Iterator[tuple[int, list[str]]]:
    """Line number and fields of each row of a ``write_csv`` file after its
    header; a header other than ``header`` is a ``DataError`` ``path:
    unexpected header``, and a row of other than ``len(header)`` fields one
    ``path:line: malformed row``."""
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first != list(header):
            raise DataError(f"{path}: unexpected header {first}")
        for row in reader:
            if len(row) != len(header):
                raise DataError(f"{path}:{reader.line_num}: malformed row {row}")
            yield reader.line_num, row

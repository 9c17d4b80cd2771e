"""One decoder for every JSON document the tuner reads.

Each document (a job, a cluster, a delta, a campaign, a plan, a report,
an HTTP body) is a :class:`Table` of :class:`Field`\\ s: a name, a JSON
type with its range or allowed values, and a default. :func:`decode`
walks a table over a parsed document and raises one error type,
:class:`DecodeError`, whose message names the field path (the object
holding the field, then the field's name in quotes)::

    job.cluster.groups[1]: 'gpu' must be a string, got 5

Decoding checks and never converts: the returned dict holds the given
values as they were (so fingerprints of valid documents hold), with
the defaults of absent fields filled in. Keys a table does not know are
rejected, except the removed fields it lists in ``ignore``, which are
dropped. This module imports
nothing else from ``repro``; the tables live beside the types they
build.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Callable
from copy import copy
from dataclasses import dataclass
from typing import Any

#: ``Field.default`` of a field that must be given
REQUIRED: Any = object()


class DecodeError(ValueError):
    """A JSON document does not match its field table."""

    # a subclass that is also a KeyError keeps the plain message
    __str__ = Exception.__str__


class UnknownNameError(DecodeError, KeyError):
    """A name (GPU, model, space, scale) no registry knows; also a
    ``KeyError``, as the registries' lookups always were."""


def at(path: str) -> str:
    """``path`` as messages show it: ``"a.b[0]: 'c'"`` for the field
    ``a.b[0].c``, ``"a.b[0]:"`` for a list item."""
    parent, dot, name = path.rpartition(".")
    return f"{parent}: {name!r}" if dot and "[" not in name else f"{path}:"


_KINDS = {bool: "boolean", int: "integer", float: "number", str: "string",
          list: "array", dict: "object", type(None): "null"}


def _kind(value: Any) -> str:
    """The JSON type of a parsed value (or of a subclass instance)."""
    kind = _KINDS.get(type(value))
    if kind is None:
        kind = next((kind for types, kind in _KINDS.items()
                     if isinstance(value, types)), type(value).__name__)
    return kind


class Type:
    """A JSON value's type: the JSON types it takes (``json``), what
    messages say it must be (``expected``) and its range (``within``).
    ``item`` types a list's items; ``lookup`` resolves a name, a
    ``KeyError`` from it raising :class:`UnknownNameError`; ``noun``
    says what a list of these holds ("" = just "a list")."""

    def __init__(self, json: tuple[str, ...], expected: str,
                 within: Callable[[Any], bool] | None = None, *,
                 item: "Type | None" = None,
                 lookup: Callable[[str], Any] | None = None,
                 noun: str = ""):
        self.json, self.expected, self.within = json, expected, within
        self.item, self.lookup, self.noun = item, lookup, noun

    def check(self, value: Any, path: str) -> None:
        if _kind(value) not in self.json or (
                self.within is not None and not self.within(value)):
            raise DecodeError(
                f"{at(path)} must be {self.expected}, got {value!r}")
        if self.item is not None:
            for index, item in enumerate(value):
                self.item.check(item, f"{path}[{index}]")
        if self.lookup is not None:
            try:
                self.lookup(value)
            except KeyError as exc:
                raise UnknownNameError(
                    f"{at(path)}: {exc.args[0]}") from None


def _range(ge=None, gt=None, le=None) -> tuple[str, Callable[[Any], bool]]:
    """The words and the test of a range; compared, never converted, so
    a huge int cannot overflow and NaN fails every bound."""
    words = (f"in [{ge:g}, {le:g}]" if ge is not None and le is not None
             else f"> {gt:g}" if gt is not None
             else f">= {ge:g}" if ge is not None else "")
    return words, lambda v: ((ge is None or v >= ge)
                             and (gt is None or v > gt)
                             and (le is None or v <= le))


def Int(ge: int | None = None, le: int | None = None) -> Type:
    """A plain JSON integer: not a bool, a float or a string, which
    ``int()`` would silently coerce."""
    words, within = _range(ge=ge, le=le)
    return Type(("integer",), f"an integer {words}".rstrip(), within)


def Num(ge: float | None = None, gt: float | None = None,
        le: float | None = None) -> Type:
    """A finite real JSON number: an integer or a float, not a bool."""
    words, within = _range(ge, gt, le)
    return Type(("integer", "number"),
                f"finite and {words}" if words else "a finite number",
                lambda v: -sys.float_info.max <= v <= sys.float_info.max
                and within(v))


def Str(choices: tuple[str, ...] = (), nonempty: bool = False) -> Type:
    """A JSON string; ``choices`` limits it to those values."""
    if choices:
        return Type(("string",), f"one of {list(choices)}",
                    lambda v: v in choices)
    if nonempty:
        return Type(("string",), "a non-empty string", bool)
    return Type(("string",), "a string")


def Name(lookup: Callable[[str], Any]) -> Type:
    """A string that ``lookup`` resolves."""
    return Type(("string",), "a string", lookup=lookup)


def List(item: Type, nonempty: bool = False) -> Type:
    """A JSON array whose items are each ``item``."""
    kind = "a non-empty list" if nonempty else "a list"
    return Type(("array",), f"{kind} of {item.noun}" if item.noun else kind,
                bool if nonempty else None, item=item)


NULL = Type(("null",), "null")
BOOL = Type(("boolean",), "true or false")
#: a free-form JSON object (``options``, ``metadata``, ...)
OBJECT = Type(("object",), "an object")


class OneOf(Type):
    """The first of ``options`` that takes the value's JSON type."""

    def __init__(self, *options: Type):
        super().__init__(tuple(k for option in options for k in option.json),
                         " or ".join(option.expected for option in options))
        self.options = options

    def check(self, value: Any, path: str) -> None:
        kind = _kind(value)
        for option in self.options:
            if kind in option.json:
                option.check(value, path)
                return
        super().check(value, path)  # no option takes it: raises


@dataclass(frozen=True)
class Field:
    """One key of a document: its name, its type and its default
    (:data:`REQUIRED` when it must be given)."""

    name: str
    type: Type
    default: Any = REQUIRED


class Table(Type):
    """A JSON object with known keys: one document's field table.

    ``title`` names the document in messages ("group"); ``ignore``
    lists removed fields that still load, and are dropped.
    """

    def __init__(self, title: str, fields: tuple[Field, ...], *,
                 ignore: frozenset[str] = frozenset()):
        super().__init__(("object",), "an object", noun=f"{title} objects")
        self.title, self.fields, self.ignore = title, fields, ignore

    def check(self, value: Any, path: str) -> None:
        self.walk(value, path)

    def walk(self, value: Any, path: str) -> dict[str, Any]:
        """``value``'s fields, checked, with absent ones defaulted."""
        if not isinstance(value, dict):
            raise DecodeError(
                f"{at(path)} {self.title} must be an object, got {value!r}")
        names = [f.name for f in self.fields]
        unknown = sorted(set(value) - set(names) - self.ignore, key=str)
        if unknown:
            raise DecodeError(f"{path}: unknown field(s) {unknown}; valid: "
                              f"{sorted(names)}")
        out = {}
        for field in self.fields:
            if field.name in value:
                field.type.check(value[field.name], f"{path}.{field.name}")
                out[field.name] = value[field.name]
            elif field.default is REQUIRED:
                raise DecodeError(
                    f"{path}: required field {field.name!r} is missing")
            else:
                out[field.name] = copy(field.default)
        return out


def decode(table: Table, data: Any, what: str,
           error: type[DecodeError] = DecodeError) -> dict[str, Any]:
    """``data`` checked against ``table``: its known fields as given,
    absent ones at their defaults. ``what`` roots the field paths;
    every failure raises ``error`` (a :class:`DecodeError`)."""
    if not isinstance(data, dict):
        raise error(f"{table.title} must be a JSON object, got {data!r}")
    try:
        return table.walk(data, what)
    except DecodeError as exc:
        if isinstance(exc, error):
            raise
        raise error(str(exc)) from None


def loads(text: str | bytes, what: str) -> Any:
    """``json.loads``, a syntax error raised as :class:`DecodeError`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DecodeError(f"{what}: invalid JSON: {exc}") from None

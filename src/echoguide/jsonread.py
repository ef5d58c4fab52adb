"""Typed reading of JSON input: scenario and config files, and fixes.

A rule reads one JSON value and returns it converted, or raises Rejected.
object_rule reads an object by a table of field -> type (or -> rule),
compiled once at import.  A rejection gathers its path on the way out, so
a document that loads never formats one.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import fields as dataclass_fields
from datetime import datetime
from enum import EnumMeta
from types import FunctionType
from typing import Sequence, get_type_hints


class Rejected(Exception):
    """A value breaks its rule; rules outside this module raise it too."""

    def __init__(self, message: str, *where: str) -> None:
        super().__init__(message)
        self.where = list(where)  # ".field" and "[index]" parts, innermost first


def _int(value: object) -> int:
    if type(value) is not int:
        raise Rejected("must be an integer")
    return value  # type: ignore[return-value]


def _float(value: object) -> float:
    if type(value) is float or type(value) is int:
        try:
            number = float(value)  # type: ignore[arg-type]
        except OverflowError:  # an integer past the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise Rejected("must be a finite number")


def _str(value: object) -> str:
    if type(value) is not str or not value:
        raise Rejected("must be a non-empty string")
    if not value.isascii():  # type: ignore[attr-defined]
        try:
            value.encode("utf-8")  # type: ignore[attr-defined]
        except UnicodeEncodeError:  # a lone surrogate, which a JSON \uXXXX escape can give
            raise Rejected("must be Unicode text, without lone surrogates") from None
    return value  # type: ignore[return-value]


def _bool(value: object) -> bool:
    if type(value) is not bool:
        raise Rejected("must be true or false")
    return value  # type: ignore[return-value]


def choice_rule(members: dict):
    """Rule for one of `members`' keys; it reads as that key's value."""
    message = "must be one of: " + ", ".join(members)

    def read(value: object):
        try:
            return members[value]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise Rejected(message) from None
    return read


_TYPE_RULES = {int: _int, float: _float, str: _str, bool: _bool}


def _rule(kind):
    """The rule for a table entry: a rule itself, an Enum, or a type in _TYPE_RULES."""
    if isinstance(kind, FunctionType):
        return kind
    if isinstance(kind, EnumMeta):
        return choice_rule({member.value: member for member in kind})
    return _TYPE_RULES[kind]


def object_rule(table: dict, required: Sequence[str] = (), other=None):
    """Rule for a JSON object whose fields follow `table`.  A field the table
    does not list follows `other`, and is rejected when `other` is None."""
    rules = {key: _rule(kind) for key, kind in table.items()}
    rest = None if other is None else _rule(other)

    def read(value: object) -> dict:
        if type(value) is not dict:
            raise Rejected("must be an object")
        out = {}
        try:
            for key, item in value.items():  # type: ignore[attr-defined]
                rule = rules.get(key, rest)
                if rule is None:
                    raise Rejected("unknown field")
                out[key] = rule(item)
        except Rejected as exc:
            exc.where.append(f".{key}")
            raise
        for key in required:
            if key not in out:
                raise Rejected("missing", f".{key}")
        return out
    return read


def list_rule(kind):
    """Rule for a JSON list whose entries follow `kind`."""
    rule = _rule(kind)

    def read(value: object) -> list:
        if type(value) is not list:
            raise Rejected("must be a list")
        out: list = []
        try:
            for item in value:  # type: ignore[attr-defined]
                out.append(rule(item))
        except Rejected as exc:
            exc.where.append(f"[{len(out)}]")
            raise
        return out
    return read


def built_rule(kind, build):
    """Rule that reads by `kind`, then calls build on the result; a ValueError
    from build (the built type's own checks) is rejected at this path."""
    rule = _rule(kind)

    def read(value: object):
        fields = rule(value)
        try:
            return build(fields)
        except ValueError as exc:
            raise Rejected(str(exc)) from None
    return read


def dataclass_rule(cls, **overrides):
    """Rule that builds a dataclass from a JSON object: each field follows
    its annotated type unless `overrides` gives its rule, and an omitted
    field takes its default."""
    hints = get_type_hints(cls)
    table = {f.name: overrides.get(f.name, hints[f.name]) for f in dataclass_fields(cls)}
    return built_rule(object_rule(table), lambda fields: cls(**fields))


def bounded_rule(kind, low: float, high: float, message: str):
    """Rule for a number of `kind` inside [low, high]."""
    rule = _rule(kind)

    def read(value: object):
        number = rule(value)
        if not low <= number <= high:
            raise Rejected(message)
        return number
    return read


def read_json(doc: object, rule, error: type[ValueError], root: str):
    """Read a decoded JSON document by `rule`.  A rejection raises `error`
    naming the path at fault, or `root` for the document itself; the
    error's .field is the outermost part of that path, or `root`."""
    try:
        return rule(doc)
    except Rejected as exc:
        path = "".join(reversed(exc.where)).lstrip(".") or root
        failure = error(f"{path}: {exc}")
        failure.field = exc.where[-1].lstrip(".") if exc.where else root
        raise failure from None


def load_json(path: "str | os.PathLike[str]", error: type[ValueError], read):
    """read(doc) for the JSON document in a file.  A file not JSON or not
    UTF-8, or a document that read refuses with `error`, raises `error`
    starting with the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise error(f"{path}: not valid JSON ({exc})") from None
    try:
        return read(doc)
    except error as exc:
        raise error(f"{path}: {exc}") from None


def parse_instant(text: str) -> datetime:
    """The aware datetime of an ISO-8601 UTC date and time ending in 'Z';
    raises ValueError for anything else, a date alone among them."""
    if not text.endswith("Z"):
        raise ValueError("timestamp must end with 'Z'")
    instant = datetime.fromisoformat(text[:-1] + "+00:00")
    if instant.tzinfo is None:  # '2015-06-01Z': the '+' was read as the date-time separator
        raise ValueError("timestamp must give a time of day, not a date alone")
    return instant


def INSTANT(value: object) -> str:
    """Rule for the text of an instant that parse_instant reads."""
    try:
        parse_instant(value)  # type: ignore[arg-type]
    except (ValueError, AttributeError):  # AttributeError: not a string
        raise Rejected("must be an ISO-8601 UTC date and time ending in 'Z'") from None
    return value  # type: ignore[return-value]


LATITUDE = bounded_rule(float, -90, 90, "must be a number in [-90, 90]")
LONGITUDE = bounded_rule(float, -180, 180, "must be a number in [-180, 180]")

# A location fix, every field required: the body of a POST to the tracking
# server.  A record, as the server stores and answers it, adds its "id".
FIX_FIELDS = {"device_id": str, "latitude": LATITUDE, "longitude": LONGITUDE,
              "timestamp": INSTANT, "provider": choice_rule({"gps": "gps", "network": "network"})}
FIX = object_rule(FIX_FIELDS, required=tuple(FIX_FIELDS))
RECORD = object_rule({**FIX_FIELDS, "id": bounded_rule(int, 1, math.inf, "must be >= 1")},
                     required=(*FIX_FIELDS, "id"))


__all__ = ["Rejected", "choice_rule", "object_rule", "list_rule", "built_rule", "dataclass_rule",
           "bounded_rule", "read_json", "load_json", "parse_instant", "INSTANT", "LATITUDE",
           "LONGITUDE", "FIX", "RECORD"]

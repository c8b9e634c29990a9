"""Declared fields: the one check behind every config, scenario and sidecar.

A dataclass's annotations give each field's JSON type: int (an integer, not
a bool), float (an integer or a finite float), str, X | None, tuple[X, ...]
(a list of that many items), list[X], or a nested dataclass (an object).
An int must also fit in a signed 64-bit integer, as NumPy needs of sizes.
`declared` adds the interval or the choices a value must lie in. The
dataclasses call `check_fields` from __post_init__, so values built in
Python are checked like those read from a file by `from_json`, and only
rules that tie fields together are written by hand.
"""
from __future__ import annotations

import dataclasses
import functools
import sys
import types
import typing

_NOUNS = {int: "an integer", float: "a number", str: "a string", int | None: "an integer or null",
          tuple[int, int]: "a list of 2 integers",
          list[tuple[float, float, float]]: "a list of 3-number lists"}
INT64 = range(-2 ** 63, 2 ** 63)


def declared(default=dataclasses.MISSING, within=None, *, choices=None, about=None):
    """A field whose value must lie in the interval `within`, written like
    "[1, inf)" (each item, for a tuple), or be one of `choices`; None is not
    bounded. `about` says in messages what a terse field name means."""
    return dataclasses.field(default=default, metadata=dict(within=within, choices=choices,
                                                            about=about))


@functools.cache
def _hints(cls):
    return typing.get_type_hints(cls)


def _is(value, kind):
    """Whether a value has the JSON type that the annotation `kind` names."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is types.UnionType:
        return any(_is(value, k) for k in args)
    if origin in (tuple, list):
        return isinstance(value, (tuple, list)) and (
            all(_is(v, args[0]) for v in value) if origin is list
            else len(value) == len(args) and all(map(_is, value, args)))
    if isinstance(value, bool):
        return False
    if kind is float:      # NaN fails the comparison, and so does an int beyond the float range
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return value is None if kind is type(None) else isinstance(value, kind)


def _inside(value, within):
    lo, hi = (float(end) for end in within[1:-1].split(","))
    return (lo < value if within[0] == "(" else lo <= value) and \
        (value < hi if within[-1] == ")" else value <= hi)


def check_fields(obj):
    """Raise ValueError, naming the field, unless each field of the
    dataclass instance obj has its JSON type and declared range or choice."""
    hints = _hints(type(obj))
    for f in dataclasses.fields(obj):
        value, kind = getattr(obj, f.name), hints[f.name]
        if not _is(value, kind):
            raise ValueError(f"field {f.name!r} must be {_NOUNS.get(kind, 'an object')}, "
                             f"got {value!r}")
        about, choices, within = (f.metadata.get(k) for k in ("about", "choices", "within"))
        name = f.name if about is None else f"{f.name} ({about})"
        if choices is not None and value not in choices:
            raise ValueError(f"{name} must be one of {list(choices)}, got {value!r}")
        items = value if isinstance(value, (tuple, list)) else (value,)
        if within is not None and value is not None and not all(_inside(v, within) for v in items):
            raise ValueError(f"{name} must lie in {within}, got {value!r}")
        if int in (kind, *typing.get_args(kind)) and any(v not in INT64 for v in items
                                                         if v is not None):
            raise ValueError(f"{name} must fit in a signed 64-bit integer, got {value!r}")


def from_json(cls, raw, error, where, *, partial=True):
    """Build dataclass cls from a decoded JSON object, or raise `error` (a
    ValueError subclass) with a message that starts from `where`. With
    `partial`, fields that have defaults may be left out; a nested
    dataclass's object must hold every field. Tuples are built from lists."""
    if not isinstance(raw, dict):
        raise error(f"{where} must be a JSON object, got {type(raw).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(raw) - set(fields))
    missing = [name for name, f in fields.items() if name not in raw and (
        not partial or f.default is f.default_factory is dataclasses.MISSING)]
    if unknown or missing:
        raise error(f"unknown {where} fields: {unknown}" if unknown
                    else f"missing {where} fields: {missing}")
    values = dict(raw)
    for name, value in raw.items():
        kind = _hints(cls)[name]
        if dataclasses.is_dataclass(kind) and isinstance(value, dict):
            values[name] = from_json(kind, value, error, f"{where} {name}", partial=False)
        elif typing.get_origin(kind) is tuple and isinstance(value, list):
            values[name] = tuple(value)
    try:
        return cls(**values)
    except ValueError as exc:   # check_fields, or a rule that ties fields together
        raise error(f"{where}: {exc}") from None

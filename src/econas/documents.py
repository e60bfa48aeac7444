"""JSON documents in, whole files out. Every document a user writes
(experiment manifest, search config, surrogate parameters, reduction table,
zoo index) is a JSON object of a given ``kind`` whose other keys,
``schema_version`` aside, are the fields of a dataclass; any failure,
including a rejection by the dataclass itself, reaches the caller as one
error that names the file and, where there is one, the key. Every output
file written whole goes through :func:`replacing`, which is atomic; JSON
lines are appended through :func:`append_lines` or a handle from
:func:`open_appending`, and read back through :func:`read_lines`.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import os
import types
from contextlib import contextmanager, suppress
from json.encoder import encode_basestring_ascii
from typing import Union, get_args, get_origin, get_type_hints


class Rejected(ValueError):
    """A value a reader cannot use; ``key`` is its dotted path, if known."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


@contextmanager
def at_key(name: str):
    """Attribute any failure inside the block to key ``name``."""
    try:
        yield
    except Rejected as exc:
        raise Rejected(str(exc), name if exc.key is None else "%s.%s" % (name, exc.key)) from None
    except (ValueError, RuntimeError) as exc:  # RuntimeError: HarnessError, SearchError
        raise Rejected(str(exc), name) from None


@contextmanager
def reading(path: str, error: type[Exception]):
    """Raise any failure inside the block as one ``error`` naming ``path``
    and, when it is known, the key."""
    try:
        yield
    except (ValueError, RuntimeError) as exc:
        key = getattr(exc, "key", None)
        where = path if key is None else "%s: key %r" % (path, key)
        raise error("%s: %s" % (where, exc)) from None


_ENVELOPE = ("kind", "schema_version")
SCHEMA_VERSION = 1


def check(obj, kind: str, kind_optional: bool = False) -> dict:
    """``obj`` once it is a JSON object of ``kind``; with ``kind_optional``
    an object without a ``kind`` key passes too."""
    if not isinstance(obj, dict):
        raise Rejected("expected a JSON object, got %s" % type(obj).__name__)
    if obj.get("kind", kind if kind_optional else None) != kind:
        raise Rejected("expected %r, got %r" % (kind, obj.get("kind")), "kind")
    return obj


def read(path: str, kind: str, kind_optional: bool = False) -> dict:
    """Parse the document at ``path`` and :func:`check` it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise Rejected("cannot read: %s" % (exc.strerror or exc)) from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise Rejected("not valid JSON (%s)" % exc) from None
    return check(obj, kind, kind_optional)


def load(path: str, kind: str, cls, error: type[Exception], kind_optional: bool = False):
    """``cls`` built from the document at ``path``; any failure is ``error``."""
    with reading(path, error):
        return build(cls, read(path, kind, kind_optional))


def build(cls, obj):
    """Dataclass ``cls`` from the JSON object ``obj``: unknown keys are
    rejected, missing keys take the field default, values are converted;
    ``kind`` and ``schema_version`` are left to :func:`check`."""
    if not isinstance(obj, dict):
        raise Rejected("expected a JSON object, got %s" % type(obj).__name__)
    obj = {k: v for k, v in obj.items() if k not in _ENVELOPE}
    known = {f.name: f for f in dataclasses.fields(cls) if f.init}
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise Rejected("unknown key (expected one of %s)" % ", ".join(sorted(known)), unknown[0])
    hints = get_type_hints(cls)
    kwargs = {}
    for name, value in obj.items():
        with at_key(name):
            kwargs[name] = convert(hints[name], value)
    for name, f in known.items():
        if name not in kwargs and f.default is f.default_factory is dataclasses.MISSING:
            raise Rejected("required key is missing", name)
    return cls(**kwargs)


def convert(hint, value):
    """Parsed JSON ``value`` as type ``hint``: ``int`` (integral numbers or
    numeric strings), ``float``, ``str``, enums, ``Optional[...]``,
    ``tuple[...]``, ``dict[K, V]``, dataclasses, and ``object`` as is."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return convert(inner, value)
    if origin is tuple:
        if not isinstance(value, list):
            raise ValueError("expected a list, got %s" % json.dumps(value))
        if args[-1] is not Ellipsis and len(args) != len(value):
            raise ValueError("expected %d items, got %d" % (len(args), len(value)))
        hints = [args[0]] * len(value) if args[-1] is Ellipsis else args
        return tuple(convert(h, v) for h, v in zip(hints, value))
    if origin is dict:
        if not isinstance(value, dict):
            raise ValueError("expected a JSON object, got %s" % json.dumps(value))
        return {convert(args[0], k): convert(args[1], v) for k, v in value.items()}
    if dataclasses.is_dataclass(hint):
        return build(hint, value)
    if hint is object:
        return value
    if hint is int or hint is float:
        try:
            if isinstance(value, bool) or (
                hint is int and isinstance(value, float) and not value.is_integer()
            ):
                raise ValueError(value)
            return hint(value)
        except (TypeError, ValueError, OverflowError):
            kind = "an integer" if hint is int else "a number"
            raise ValueError("expected %s, got %s" % (kind, json.dumps(value))) from None
    if hint is str:
        if not isinstance(value, str):
            raise ValueError("expected a string, got %s" % json.dumps(value))
        return value
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        try:
            return hint(value)
        except ValueError:
            choices = ", ".join(m.value for m in hint)
            raise ValueError("%s is not one of %s" % (json.dumps(value), choices)) from None
    raise TypeError("no conversion to %r" % hint)


@contextmanager
def replacing(path: str):
    """Yield a text file that replaces ``path`` once the block ends; on any
    exception, ``path`` keeps its old bytes and the temp file is removed."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def write(path: str, kind: str, fields: dict) -> None:
    """Write the document :func:`read` takes back: sorted keys, ``indent=1``."""
    doc = {"kind": kind, "schema_version": SCHEMA_VERSION, **fields}
    with replacing(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def json_line(obj) -> str:
    """``obj`` as one JSON line: sorted keys, then a newline."""
    return json.dumps(obj, sort_keys=True) + "\n"


def _float(value: float) -> str:
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


# How json.dumps writes a value of exactly this type; any other type goes
# through json.dumps itself.
_SCALAR = {str: encode_basestring_ascii, float: _float, int: int.__repr__}


def json_scalar(value) -> str:
    """``json.dumps(value)`` for a scalar, formatted directly when its type is
    exactly ``str``, ``float`` or ``int``; fixed-schema line formatters build
    their lines from it."""
    return _SCALAR.get(type(value), json.dumps)(value)


def write_lines(path: str, kind: str, items, line=json_line) -> None:
    """Write JSON lines: an envelope header, then ``line(item)`` for each
    item; ``line`` must give what :func:`json_line` gives for its JSON
    object."""
    with replacing(path) as fh:
        fh.write(json_line({"kind": kind, "schema_version": SCHEMA_VERSION}))
        for item in items:
            fh.write(line(item))


def open_appending(path: str, kind: str):
    """A text file appending to the JSON-lines file of ``kind`` at
    ``path``; a missing or empty file gets its envelope header first. A
    crash mid-append leaves at most a last line without its newline."""
    if not os.path.exists(path) or os.path.getsize(path) == 0:
        write_lines(path, kind, ())
    return open(path, "a", encoding="utf-8")


def append_lines(path: str, kind: str, items, line=json_line) -> None:
    """Append lines, as :func:`write_lines` makes them, through
    :func:`open_appending`, and flush them."""
    with open_appending(path, kind) as fh:
        for item in items:
            fh.write(line(item))
        fh.flush()


def read_lines(path: str, kind: str, parse=json.loads):
    """Yield ``(line number, parse(line))`` for each line after the envelope
    header of a JSON-lines file of ``kind``; blank lines are skipped and a
    line that ``parse`` rejects with a ValueError is rejected with its
    number. ``parse`` must give what ``json.loads`` gives, or a value the
    caller reads as that."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno > 1 and not line.strip():
                continue
            try:
                obj = parse(line) if lineno > 1 else json.loads(line)
            except ValueError as exc:
                raise Rejected("line %d: not valid JSON (%s)" % (lineno, exc)) from None
            if lineno > 1:
                yield lineno, obj
            elif not isinstance(obj, dict) or obj.get("kind") != kind:
                raise Rejected("line 1: missing %s header" % kind)
            elif obj.get("schema_version") != SCHEMA_VERSION:
                raise Rejected("line 1: unsupported schema_version %r" % obj.get("schema_version"))

"""Line-delimited evaluation logs.

One JSON object per line; the first line is a header carrying the schema
version. A record is the atom every metric consumes: which model, under
which setting label, reached which test (and optionally train) accuracy
after how many epochs. Unknown fields in a line are ignored so logs written
by newer tools stay readable.

Lines are written by one fixed-schema formatter and read back by one
compiled pattern for exactly that shape; every other line falls back to
``json.loads``. Both directions give what the JSON codec would, which the
tests check against it.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string
from typing import Iterable, Optional

from . import documents
from .documents import json_scalar

_HEADER_KIND = "evaluation_log"


class LogError(documents.UserError, ValueError):
    """Malformed or inconsistent evaluation log."""


def _check(fields: tuple) -> None:
    """Raise LogError unless a record's fields (model id, setting, test
    accuracy, train accuracy, epochs) hold only what the log's JSON path
    reads back: string ids, an integer epoch count, no boolean anywhere, and
    accuracies in [0, 1]."""
    model_id, setting, test, train, epochs = fields
    if not (isinstance(model_id, str) and isinstance(setting, str)
            and isinstance(epochs, int)) or bool in (type(epochs), type(test), type(train)):
        raise LogError("a field of the wrong type in %r" % (fields,))
    if not 0.0 <= test <= 1.0:
        raise LogError("test accuracy %r outside [0, 1] for %s" % (test, model_id))
    if train is not None and not 0.0 <= train <= 1.0:
        raise LogError("train accuracy %r outside [0, 1] for %s" % (train, model_id))


@dataclass(frozen=True)
class EvaluationRecord:
    model_id: str
    setting: str
    test_accuracy: float
    train_accuracy: float | None = None
    epochs_trained: int = 0

    def __post_init__(self):
        _check((self.model_id, self.setting, self.test_accuracy, self.train_accuracy,
                self.epochs_trained))

    def key(self) -> tuple[str, str]:
        return (self.model_id, self.setting)


def _line(rec: EvaluationRecord) -> str:
    """The record's log line: the bytes of ``json.dumps(obj, sort_keys=True)``
    plus a newline, for the object of its fields with ``train_accuracy``
    left out when it is None, formatted directly because the schema is
    fixed. The ids, epochs (a ``str`` and an ``int``, which the record
    checked) and an exact ``float`` accuracy (finite, as checked) are formatted
    in place; any other accuracy goes through :func:`documents.json_scalar`."""
    test, train = rec.test_accuracy, rec.train_accuracy
    return '{"epochs_trained": %s, "model_id": %s, "setting": %s, "test_accuracy": %s%s}\n' % (
        int.__repr__(rec.epochs_trained),
        _string(rec.model_id),
        _string(rec.setting),
        float.__repr__(test) if type(test) is float else json_scalar(test),
        "" if train is None else ', "train_accuracy": '
        + (float.__repr__(train) if type(train) is float else json_scalar(train)),
    )


def write_log(path: str, records: Iterable[EvaluationRecord]) -> None:
    """Write a whole log atomically."""
    documents.write_lines(path, _HEADER_KIND, records, _line)


def append_records(path: str, records: Iterable[EvaluationRecord]) -> None:
    """Append records, creating the file (with header) if needed."""
    documents.append_lines(path, _HEADER_KIND, records, _line)


def truncate_torn_tail(path: str) -> bool:
    """Cut off a final line that has no newline, which is what an append
    interrupted mid-write leaves; returns whether anything was cut. A file
    without any newline is cut to empty. Every complete line stays, so
    :func:`read_log` still rejects damage anywhere else. The last newline is
    found by reading back from the end 64 KiB at a time."""
    with open(path, "rb+") as fh:
        cut = fh.seek(0, os.SEEK_END)
        fh.seek(max(0, cut - 1))
        if fh.read(1) in (b"", b"\n"):
            return False
        while cut:
            start = fh.seek(max(0, cut - (1 << 16)))
            newline = fh.read(cut - start).rfind(b"\n")
            if newline >= 0:
                cut = start + newline + 1
                break
            cut = start
        fh.truncate(cut)
    return True


# Each field of a record line: its key, its type and, unless it is required, its default.
_FIELDS = (("model_id", str), ("setting", str), ("test_accuracy", float),
           ("train_accuracy", Optional[float], None), ("epochs_trained", int, 0))


def _json_fields(obj) -> tuple:
    """The fields of a line read as JSON, each converted as a document's key
    is (no boolean as a number, no fraction as an integer)."""
    fields = []
    for key, hint, *default in _FIELDS:
        try:
            if not isinstance(obj, dict) or key not in obj and not default:
                raise ValueError("missing")
            value = obj.get(key, *default)
            fields.append(value if type(value) is hint else documents.convert(hint, value))
        except ValueError as exc:
            raise LogError("%s: %s" % (key, exc)) from None
    return tuple(fields)


def _record_fields(parsed, lineno: int) -> tuple:
    """The checked fields of line ``lineno``, given as :func:`_parse_line`
    read it: a tuple of fields or a JSON value."""
    try:
        fields = parsed if type(parsed) is tuple else _json_fields(parsed)
        _check(fields)
    except LogError as exc:
        raise LogError("line %d: bad record (%s)" % (lineno, exc)) from None
    return fields


# The lines _line writes, as far as a pattern tells them apart from other
# JSON: strings without escapes, and JSON numbers (ASCII digits only). An
# accuracy is either a float's text (with a fraction or an exponent) or an
# integer's, which json.loads reads as an int first, so "-0" is 0.0, not
# -0.0. The digit bounds keep such an integer within float range and the
# epochs within int()'s smallest conversion limit; longer ones take the
# JSON path.
_STRING = r'"([^"\\\x00-\x1f]*)"'
_EPOCHS = r"(-?(?:0|[1-9]\d{0,600}))"
_FLOAT = r"-?(?:0|[1-9]\d*)(?:\.\d+(?:[eE][-+]?\d+)?|[eE][-+]?\d+)"
_NUMBER = r"(?:(%s)|(-?(?:0|[1-9]\d{0,300})))" % _FLOAT
_LINE = re.compile(
    r'\{"epochs_trained": %s, "model_id": %s, "setting": %s, "test_accuracy": %s'
    r'(?:, "train_accuracy": %s)?\}\n?' % (_EPOCHS, _STRING, _STRING, _NUMBER, _NUMBER),
    re.ASCII,
).fullmatch


def _parse_line(line: str):
    """A line :func:`_line` could have written as the tuple of its record's
    fields; any other line as ``json.loads`` reads it."""
    m = _LINE(line)
    if m is None:
        return json.loads(line)
    # Of each number's two groups, the one that matched is a non-empty string.
    epochs, model_id, setting, test, test_int, train, train_int = m.groups()
    return (
        model_id,
        setting,
        float(test) if test else float(int(test_int)),
        float(train) if train else float(int(train_int)) if train_int else None,
        int(epochs),
    )


def scan_fields(path: str, on_duplicate: str, place) -> None:
    """Read a log's records line by line, each as the tuple of its fields
    (model_id, setting, test_accuracy, train_accuracy, epochs_trained),
    checked as :class:`EvaluationRecord` checks them, with one string object
    per distinct model id and setting label for the whole log. For each,
    ``place(fields)`` gives a dict, a key in it, one per (model_id,
    setting), and the value to keep there, so a caller keeps only what it
    reads. A duplicate either raises or keeps its first place with the last
    occurrence's value (``on_duplicate`` = 'error' | 'keep_last').

    A line in the exact shape :func:`_line` writes (strings without escapes)
    is read by one compiled pattern; every other line, such as one with
    reordered keys, extra fields or escaped text, is parsed as JSON. Both
    give the same fields.
    """
    if on_duplicate not in ("error", "keep_last"):
        raise LogError("on_duplicate must be 'error' or 'keep_last'")
    keep_last = on_duplicate == "keep_last"
    shared: dict[str, str] = {}
    try:
        for lineno, parsed in documents.read_lines(path, _HEADER_KIND, _parse_line):
            fields = _record_fields(parsed, lineno)
            fields = (*map(shared.setdefault, fields[:2], fields[:2]), *fields[2:])
            slots, key, value = place(fields)
            if key in slots and not keep_last:
                raise LogError("line %d: duplicate record for (%s, %s)" % ((lineno,) + fields[:2]))
            slots[key] = value
    except documents.Rejected as exc:
        raise LogError(str(exc)) from None


def read_fields(path: str, on_duplicate: str = "error") -> dict[tuple[str, str], tuple]:
    """The fields of a log's records, as :func:`scan_fields` reads them,
    under their key (model_id, setting); all five are kept, and the records
    of one model share its id string, those of one setting its label."""
    by_key: dict[tuple[str, str], tuple] = {}
    scan_fields(path, on_duplicate, lambda fields: (by_key, fields[:2], fields))
    return by_key


def read_log(path: str, on_duplicate: str = "error") -> list[EvaluationRecord]:
    """The records of a log, in the order and under the duplicate policy of
    :func:`read_fields`. Zoo evaluation logs hold each key once. A search's
    ``history.jsonl`` reads as a log with 'keep_last', since mutation can
    rediscover an architecture."""
    return [EvaluationRecord(*fields) for fields in read_fields(path, on_duplicate).values()]


def by_setting(records: Iterable[EvaluationRecord]) -> dict[str, dict[str, EvaluationRecord]]:
    """Group records as {setting label: {model_id: record}}."""
    grouped: dict[str, dict[str, EvaluationRecord]] = {}
    for rec in records:
        grouped.setdefault(rec.setting, {})[rec.model_id] = rec
    return grouped


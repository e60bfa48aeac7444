"""Line-delimited evaluation logs.

One JSON object per line; the first line is a header carrying the schema
version. A record is the atom every metric consumes: which model, under
which setting label, reached which test (and optionally train) accuracy
after how many epochs. Unknown fields in a line are ignored so logs written
by newer tools stay readable.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable

from . import documents

_HEADER_KIND = "evaluation_log"


class LogError(ValueError):
    """Malformed or inconsistent evaluation log."""


@dataclass(frozen=True)
class EvaluationRecord:
    model_id: str
    setting: str
    test_accuracy: float
    train_accuracy: float | None = None
    epochs_trained: int = 0

    def __post_init__(self):
        if not 0.0 <= self.test_accuracy <= 1.0:
            raise LogError(
                "test accuracy %r outside [0, 1] for %s" % (self.test_accuracy, self.model_id)
            )
        if self.train_accuracy is not None and not 0.0 <= self.train_accuracy <= 1.0:
            raise LogError(
                "train accuracy %r outside [0, 1] for %s"
                % (self.train_accuracy, self.model_id)
            )

    def key(self) -> tuple[str, str]:
        return (self.model_id, self.setting)


def _float(value: float) -> str:
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


# How json.dumps writes a value of exactly this type; any other type goes
# through json.dumps itself.
_SCALAR = {str: encode_basestring_ascii, float: _float, int: int.__repr__}


def _scalar(value) -> str:
    return _SCALAR.get(type(value), json.dumps)(value)


def _line(rec: EvaluationRecord) -> str:
    """The record's log line: the bytes of ``json.dumps(obj, sort_keys=True)``
    plus a newline, for the object of its fields with ``train_accuracy``
    left out when it is None, formatted directly because the schema is
    fixed."""
    train = rec.train_accuracy
    return '{"epochs_trained": %s, "model_id": %s, "setting": %s, "test_accuracy": %s%s}\n' % (
        _scalar(rec.epochs_trained),
        _scalar(rec.model_id),
        _scalar(rec.setting),
        _scalar(rec.test_accuracy),
        "" if train is None else ', "train_accuracy": ' + _scalar(train),
    )


def write_log(path: str, records: Iterable[EvaluationRecord]) -> None:
    """Write a whole log atomically."""
    documents.write_lines(path, _HEADER_KIND, records, _line)


def append_records(path: str, records: Iterable[EvaluationRecord]) -> None:
    """Append records, creating the file (with header) if needed."""
    documents.append_lines(path, _HEADER_KIND, records, _line)


def truncate_torn_tail(path: str) -> bool:
    """Cut off a final line that has no newline, which is what an append
    interrupted mid-write leaves; returns whether anything was cut. Every
    complete line stays, so :func:`read_log` still rejects damage anywhere
    else."""
    with open(path, "rb+") as fh:
        fh.seek(max(0, fh.seek(0, os.SEEK_END) - 1))
        if fh.read(1) in (b"", b"\n"):
            return False
        fh.seek(0)
        fh.truncate(fh.read().rfind(b"\n") + 1)
    return True


def _parse_record(obj: dict, lineno: int) -> EvaluationRecord:
    try:
        return EvaluationRecord(
            model_id=str(obj["model_id"]),
            setting=str(obj["setting"]),
            test_accuracy=float(obj["test_accuracy"]),
            train_accuracy=(
                float(obj["train_accuracy"]) if obj.get("train_accuracy") is not None else None
            ),
            epochs_trained=int(obj.get("epochs_trained", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise LogError("line %d: bad record (%s)" % (lineno, exc)) from None


def read_log(path: str, on_duplicate: str = "error") -> list[EvaluationRecord]:
    """Read a log; duplicate (model_id, setting) keys either raise or keep
    the last occurrence (``on_duplicate`` = 'error' | 'keep_last').

    Search histories legitimately repeat a key when mutation rediscovers an
    architecture, so history ingestion passes 'keep_last'; zoo evaluation
    logs are expected unique.
    """
    if on_duplicate not in ("error", "keep_last"):
        raise LogError("on_duplicate must be 'error' or 'keep_last'")
    records: dict[tuple[str, str], EvaluationRecord] = {}
    order: list[tuple[str, str]] = []
    try:
        for lineno, obj in documents.read_lines(path, _HEADER_KIND):
            rec = _parse_record(obj, lineno)
            if rec.key() in records:
                if on_duplicate == "error":
                    raise LogError(
                        "line %d: duplicate record for (%s, %s)"
                        % (lineno, rec.model_id, rec.setting)
                    )
            else:
                order.append(rec.key())
            records[rec.key()] = rec
    except documents.Rejected as exc:
        raise LogError(str(exc)) from None
    return [records[k] for k in order]


def by_setting(records: Iterable[EvaluationRecord]) -> dict[str, dict[str, EvaluationRecord]]:
    """Group records as {setting label: {model_id: record}}."""
    grouped: dict[str, dict[str, EvaluationRecord]] = {}
    for rec in records:
        grouped.setdefault(rec.setting, {})[rec.model_id] = rec
    return grouped


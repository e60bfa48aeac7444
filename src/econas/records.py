"""Line-delimited evaluation logs.

One JSON object per line; the first line is a header carrying the schema
version. A record is the atom every metric consumes: which model, under
which setting label, reached which test (and optionally train) accuracy
after how many epochs. Unknown fields in a line are ignored so logs written
by newer tools stay readable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterable

SCHEMA_VERSION = 1
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


def _record_line(rec: EvaluationRecord) -> str:
    obj = {
        "model_id": rec.model_id,
        "setting": rec.setting,
        "test_accuracy": rec.test_accuracy,
        "epochs_trained": rec.epochs_trained,
    }
    if rec.train_accuracy is not None:
        obj["train_accuracy"] = rec.train_accuracy
    return json.dumps(obj, sort_keys=True)


def header_line() -> str:
    return json.dumps(
        {"kind": _HEADER_KIND, "schema_version": SCHEMA_VERSION}, sort_keys=True
    )


def write_log(path: str, records: Iterable[EvaluationRecord]) -> None:
    """Write a whole log atomically (temp file + rename)."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(header_line() + "\n")
        for rec in records:
            fh.write(_record_line(rec) + "\n")
    os.replace(tmp, path)


def append_records(path: str, records: Iterable[EvaluationRecord]) -> None:
    """Append records, creating the file (with header) if needed."""
    new_file = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8") as fh:
        if new_file:
            fh.write(header_line() + "\n")
        for rec in records:
            fh.write(_record_line(rec) + "\n")
        fh.flush()


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
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LogError("line %d: not valid JSON (%s)" % (lineno, exc)) from None
            if lineno == 1:
                if obj.get("kind") != _HEADER_KIND:
                    raise LogError("line 1: missing evaluation_log header")
                if obj.get("schema_version") != SCHEMA_VERSION:
                    raise LogError(
                        "line 1: unsupported schema_version %r" % obj.get("schema_version")
                    )
                continue
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
    return [records[k] for k in order]


def by_setting(records: Iterable[EvaluationRecord]) -> dict[str, dict[str, EvaluationRecord]]:
    """Group records as {setting label: {model_id: record}}."""
    grouped: dict[str, dict[str, EvaluationRecord]] = {}
    for rec in records:
        grouped.setdefault(rec.setting, {})[rec.model_id] = rec
    return grouped


"""External-evaluator wire protocol over child-process standard streams.

One JSON message per line in both directions. The parent sends an
``evaluate`` request and blocks (with a timeout) for the response carrying
the same id; any trainer in any language can implement the child side with
a read-line/write-line loop. Unknown fields are ignored for forward
compatibility and lines are length-bounded. The parent runs one child per
concurrent evaluation, spawned lazily on first need. A hung, crashed, or
babbling child fails only its own pending request; that child is restarted
with bounded backoff on its next use and the search goes on.
"""

from __future__ import annotations

import json
import logging
import queue
import shlex
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Optional

from .evaluator import EvalResult, EvaluatorFailure
from .genotype import Genotype, ParseError, decode, encode
from .proxy import ReducedSetting, ReductionTable, SettingError, format_label, parse_label

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1
MAX_LINE_BYTES = 1 << 20
EVALUATOR_TIMEOUT = 60.0  # seconds a child gets per reply, unless a caller sets it
RESTART_BACKOFF = 0.2  # seconds before a child's first restart; doubles per failure
MAX_BACKOFF = 2.0


def _message(request_id, **fields) -> str:
    """One protocol line without its newline: the envelope plus ``fields``;
    every request and every response is built here."""
    envelope = {"schema_version": SCHEMA_VERSION, "id": request_id}
    return json.dumps({**envelope, **fields}, sort_keys=True)


def _read_lines(stream, out: "queue.Queue") -> None:
    """Queue a child's output lines, then None at EOF or after an oversized
    line; a line is read at most ``MAX_LINE_BYTES + 1`` bytes at a time, so a
    child that never writes a newline cannot grow parent memory."""
    with stream:
        for raw in iter(lambda: stream.readline(MAX_LINE_BYTES + 1), b""):
            out.put(raw)
            if len(raw) > MAX_LINE_BYTES:
                break
    out.put(None)


class _Child:
    """One child process with its output queue and its restart backoff."""

    def __init__(self):
        self.proc: Optional[subprocess.Popen] = None
        self.lines: "queue.Queue" = queue.Queue()
        self.consecutive_failures = 0

    def close(self, grace: float = 2.0) -> None:
        """Close the child's stdin, give it ``grace`` seconds to exit on
        EOF, then kill it."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
            proc.wait(timeout=grace)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                pass

    def fail(self, message: str) -> EvaluatorFailure:
        self.close(grace=0)
        self.consecutive_failures += 1
        return EvaluatorFailure(message)


class ExternalEvaluator:
    """Evaluator backed by child processes speaking the protocol.

    Each concurrent caller gets a child of its own: a request takes an idle
    child from a free list, or spawns one when every child is busy, and puts
    it back afterwards. Children are spawned lazily, so the number of
    children is the peak number of concurrent callers. Each child keeps its
    own restart backoff; a failure kills only the child that served it, and
    that child restarts on its next use. A resume token may therefore be
    continued by a different child process of the same command. Each reply
    is awaited ``timeout`` seconds.
    """

    def __init__(self, command, timeout: float = EVALUATOR_TIMEOUT):
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        self.timeout = timeout
        self._idle: list[_Child] = []  # every child not serving a request
        self._next_id = 1
        self._lock = threading.Lock()  # guards _idle and _next_id

    # -- child management ---------------------------------------------------

    @contextmanager
    def _checkout(self):
        """Yield (idle or new child, unique request id); the child goes back
        to the free list afterwards, whatever happened to the request."""
        with self._lock:
            request_id = self._next_id
            self._next_id += 1
            child = self._idle.pop() if self._idle else _Child()
        try:
            yield child, request_id
        finally:
            with self._lock:
                self._idle.append(child)

    def _ensure_running(self, child: _Child) -> subprocess.Popen:
        if child.proc is not None and child.proc.poll() is None:
            return child.proc
        if child.consecutive_failures:
            time.sleep(min(RESTART_BACKOFF * 2 ** (child.consecutive_failures - 1), MAX_BACKOFF))
        child.lines = queue.Queue()
        child.proc = subprocess.Popen(
            self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        threading.Thread(
            target=_read_lines, args=(child.proc.stdout, child.lines), daemon=True
        ).start()
        logger.info("spawned evaluator child: %s", " ".join(self.command))
        return child.proc

    def close(self) -> None:
        """Reap every child; call once no request is in flight, when every
        child is back on the free list."""
        with self._lock:
            for child in self._idle:
                child.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- protocol -------------------------------------------------------------

    def _request(self, child: _Child, line: str, request_id: int) -> dict:
        proc = self._ensure_running(child)
        try:
            proc.stdin.write(line.encode() + b"\n")
            proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise child.fail("evaluator child unwritable: %s" % exc) from None
        try:
            raw = child.lines.get(timeout=self.timeout)
        except queue.Empty:
            raise child.fail(
                "evaluator child timed out after %.1fs" % self.timeout
            ) from None
        if raw is None:
            raise child.fail("evaluator child exited mid-request")
        if len(raw) > MAX_LINE_BYTES:
            raise child.fail("evaluator child sent an oversized line")
        try:
            obj = json.loads(raw)
        except ValueError:
            raise child.fail("evaluator child sent a malformed line: %r" % raw[:120]) from None
        if not isinstance(obj, dict):
            raise child.fail("evaluator child sent a non-object line: %r" % raw[:120])
        if obj.get("id") != request_id:
            raise child.fail(
                "evaluator child answered with mismatched id %r" % (obj.get("id"),)
            )
        return obj

    def ping(self) -> bool:
        with self._checkout() as (child, request_id):
            obj = self._request(child, _message(request_id, op="ping"), request_id)
            child.consecutive_failures = 0
            return obj.get("status") == "ok"

    def evaluate(
        self,
        genotype: Genotype,
        setting: ReducedSetting,
        start_epoch: int,
        end_epoch: int,
        resume_token: Optional[str] = None,
    ) -> EvalResult:
        with self._checkout() as (child, request_id):
            line = _message(
                request_id, op="evaluate", genotype=encode(genotype),
                setting=format_label(setting), start_epoch=start_epoch, end_epoch=end_epoch,
                resume_token=resume_token,
            )
            obj = self._request(child, line, request_id)
            if obj.get("status") != "ok":
                # A clean protocol-level error: the child survives.
                child.consecutive_failures = 0
                raise EvaluatorFailure(
                    "evaluator reported failure: %s" % obj.get("error", "unknown error")
                )
            try:
                accuracy = float(obj["accuracy"])
                train = obj.get("train_accuracy")
                train_accuracy = float(train) if train is not None else None
                token = obj["resume_token"]
            except (KeyError, TypeError, ValueError):
                raise child.fail("evaluator response missing fields: %r" % obj) from None
            child.consecutive_failures = 0
            return EvalResult(accuracy, train_accuracy, token)


# -- child side ---------------------------------------------------------------


def serve(evaluator, table: ReductionTable, fin=None, fout=None) -> None:
    """Serve any in-process evaluator over the wire protocol until EOF.

    Used to expose the surrogate as a subprocess; a real trainer can reuse
    this loop by implementing the evaluator contract.
    """
    fin = fin if fin is not None else sys.stdin
    fout = fout if fout is not None else sys.stdout
    for raw in fin:
        if not raw.strip():
            continue
        request_id = op = None
        try:
            if len(raw) > MAX_LINE_BYTES:
                raise ValueError("request line exceeds %d bytes" % MAX_LINE_BYTES)
            obj = json.loads(raw)
            if not isinstance(obj, dict):
                raise ValueError("request must be a JSON object")
            request_id = obj.get("id")
            op = obj.get("op")
            if op == "ping":
                response = _message(request_id, status="ok", pong=True)
            elif op == "shutdown":
                response = _message(request_id, status="ok")
            elif op == "evaluate":
                genotype = decode(str(obj["genotype"]))
                setting = parse_label(str(obj["setting"]), table)
                result = evaluator.evaluate(
                    genotype,
                    setting,
                    int(obj["start_epoch"]),
                    int(obj["end_epoch"]),
                    obj.get("resume_token"),
                )
                response = _message(
                    request_id,
                    status="ok",
                    accuracy=result.accuracy,
                    train_accuracy=result.train_accuracy,
                    resume_token=result.resume_token,
                )
            else:
                raise ValueError("unknown op %r" % op)
        except (
            ValueError,
            KeyError,
            TypeError,
            ParseError,
            SettingError,
            EvaluatorFailure,
        ) as exc:
            response = _message(request_id, status="error", error=str(exc))
        try:
            fout.write(response + "\n")
            fout.flush()
        except BrokenPipeError:
            return
        if op == "shutdown":
            return

"""Spans around calls into econas's layers, recorded from outside the package.

``Tracer.install`` replaces each hooked function with a wrapper that records
``(name, start, end, thread)`` in memory, wherever econas bound the function
(``from .genotype import encode`` binds ``encode`` in several modules, and
every binding is wrapped), and ``uninstall`` puts the originals back. Nothing
under ``src/`` changes. A hook whose target no longer exists is reported on
stderr and skipped; the metrics that need it then read 0.

``layer_metrics`` turns one traced iteration's spans into the per-layer
metrics. A layer's self time is its spans' covered time minus the part of
it that the named inner spans cover, computed on interval unions so that
spans from worker threads count once.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
import statistics
import sys
import threading
import time

# (span name, module, attribute); "Class.method" hooks a method.
HOOKS = (
    ("harness.run_search", "econas.harness", "run_search"),
    ("harness.zoo_evaluate", "econas.harness", "zoo_evaluate"),
    ("harness.run_analyze", "econas.harness", "run_analyze"),
    ("harness.write_search_outputs", "econas.harness", "write_search_outputs"),
    ("search.run", "econas.search", "SearchEngine.run"),
    ("search.batch", "econas.search", "_evaluate_jobs"),
    ("search.ckpt_write", "econas.search", "SearchEngine._write_checkpoint"),
    ("search.ckpt_load", "econas.search", "SearchEngine.load_checkpoint_obj"),
    ("genotype.encode", "econas.genotype", "encode"),
    ("genotype.decode", "econas.genotype", "decode"),
    ("genotype.mutate", "econas.genotype", "mutate"),
    ("surrogate.evaluate", "econas.surrogate", "SurrogateEvaluator.evaluate"),
    ("proxy.parse_label", "econas.proxy", "parse_label"),
    ("metrics.fractional_ranks", "econas.metrics", "fractional_ranks"),
    ("analysis.build_report", "econas.analysis", "build_report"),
    ("analysis.rho_f_curve", "econas.analysis", "rho_f_curve"),
    ("analysis.write_report_files", "econas.analysis", "write_report_files"),
    ("records.read_log", "econas.records", "read_log"),
    ("records.write_log", "econas.records", "write_log"),
    ("records.append_records", "econas.records", "append_records"),
    ("bridge.evaluate", "econas.bridge", "ExternalEvaluator.evaluate"),
)

# Spans that wrap a whole entry point; they cover nearly the whole timed
# window, so they explain nothing about where its time goes.
OUTER_SPANS = (
    "harness.run_search", "harness.zoo_evaluate", "harness.run_analyze", "search.run",
)


class Tracer:
    """Records spans while installed; one tracer per traced iteration."""

    def __init__(self, mid_cycle: int):
        self.spans: list = []
        self.mid_cycle = mid_cycle
        self.ckpt_bytes_written = 0
        self.mid_checkpoint: bytes | None = None
        self.bridge_requests: list = []  # (request key, engine-side latency)
        self.errors: dict = {}  # span name -> calls that raised
        self._undo: list = []

    def _after_ckpt_write(self, args, start, end) -> None:
        engine = args[0]
        path = engine.checkpoint_path
        if path is None or not os.path.exists(path):
            return
        self.ckpt_bytes_written += os.path.getsize(path)
        if engine.state.next_cycle == self.mid_cycle:
            with open(path, "rb") as fh:
                self.mid_checkpoint = fh.read()

    def _after_bridge_evaluate(self, args, start, end) -> None:
        from econas.proxy import format_label

        _, genotype, setting, start_epoch, end_epoch = args[:5]
        key = (genotype.content_hash, format_label(setting), start_epoch, end_epoch)
        self.bridge_requests.append((key, end - start))

    def _wrap(self, name: str, fn):
        record = self.spans.append
        clock = time.perf_counter
        ident = threading.get_ident
        errors = self.errors
        after = {
            "search.ckpt_write": self._after_ckpt_write,
            "bridge.evaluate": self._after_bridge_evaluate,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                record((name, start, end, ident()))
                if not ok:
                    errors[name] = errors.get(name, 0) + 1
                elif after is not None:
                    after(args, start, end)

        return wrapper

    def install(self) -> None:
        for name, module_name, attr in HOOKS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            target = owner.__dict__.get(method) if owner is not None else None
            if target is None:
                print("trace: hook %s.%s not found; %s reads 0" % (module_name, attr, name),
                      file=sys.stderr)
                continue
            wrapper = self._wrap(name, target)
            if owner_name:
                self._undo.append((owner, method, target))
                setattr(owner, method, wrapper)
                continue
            # Rebind every econas module global that is this function.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "econas" and not mod_name.startswith("econas."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is target:
                        self._undo.append((mod, key, target))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()


# -- interval arithmetic --------------------------------------------------------


def union(intervals) -> list:
    merged: list = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return merged


def measure(merged) -> float:
    return sum(end - start for start, end in merged)


def overlap(a, b) -> float:
    """Covered time shared by two merged interval lists."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def self_time(outer, inner) -> float:
    u = union(outer)
    return measure(u) - overlap(u, union(inner))


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def p99(values) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


# -- per-layer metrics from one traced iteration ------------------------------------


def layer_metrics(it, tracer: Tracer) -> dict:
    """Per-layer span metrics (value, unit) for one traced iteration ``it``.

    ``it`` carries the timed window (``t0``, ``t1``), the evaluator spans the
    benchmark's interruption wrapper recorded (``eval_spans``: start, end,
    thread), the trainer child's spans (``child_spans``: dicts from its log),
    the evaluator's busy time (``busy_s``) and the size of the run's
    evaluation log (``log_bytes``).
    """
    by_name: dict = {}
    for name, start, end, thread in tracer.spans:
        by_name.setdefault(name, []).append((start, end, thread))

    def iv(name):
        return [(s, e) for s, e, _ in by_name.get(name, [])]

    def durations(name):
        return [e - s for s, e, _ in by_name.get(name, [])]

    evals = [(s, e) for s, e, _ in it.eval_spans]
    ckpt_writes = iv("search.ckpt_write")
    engine_self = self_time(iv("search.run"), evals + ckpt_writes)

    # Resume read path: from the start of a run_search call that loads a
    # checkpoint to the start of the engine's run inside it.
    ckpt_load = 0.0
    loads = iv("search.ckpt_load")
    runs = sorted(iv("search.run"))
    for start, end in iv("harness.run_search"):
        if any(start <= ls and le <= end for ls, le in loads):
            inner = [rs for rs, _ in runs if start <= rs <= end]
            if inner:
                ckpt_load += min(inner) - start

    # Idle gap between consecutive evaluator calls of one batch, per thread.
    gaps = []
    eval_spans = sorted(it.eval_spans)
    eval_starts = [s for s, _, _ in eval_spans]
    for b_start, b_end in iv("search.batch"):
        per_thread: dict = {}
        for s, e, thread in eval_spans[bisect.bisect_left(eval_starts, b_start):
                                       bisect.bisect_right(eval_starts, b_end)]:
            if e <= b_end:
                per_thread.setdefault(thread, []).append((s, e))
        for calls in per_thread.values():
            gaps.extend(nxt[0] - prev[1] for prev, nxt in zip(calls, calls[1:]))

    child = it.child_spans
    child_busy = it.busy_s if child else 0.0
    child_by_key: dict = {}
    for c in sorted(child, key=lambda c: c["start"]):
        child_by_key.setdefault(tuple(c["key"]), []).append(c["end"] - c["start"])
    overheads = []
    for key, latency in tracer.bridge_requests:
        served = child_by_key.get(key)
        if served:
            overheads.append(latency - served.pop(0))
    latencies = [lat for _, lat in tracer.bridge_requests]

    wall = it.t1 - it.t0
    covered = union(
        [(s, e) for name, spans in by_name.items() if name not in OUTER_SPANS
         for s, e, _ in spans] + evals
    )
    unattributed = wall - overlap(covered, [[it.t0, it.t1]])

    surrogate = durations("surrogate.evaluate")
    return {
        "search.engine_self_s": (engine_self, "s"),
        "search.ckpt_writes": (len(ckpt_writes), "count"),
        "search.ckpt_write_s": (measure(union(ckpt_writes)), "s"),
        "search.ckpt_mb_written": (tracer.ckpt_bytes_written / 1e6, "MB"),
        "search.ckpt_load_s": (ckpt_load, "s"),
        "search.sched_gap_ms_p50": (p50(gaps) * 1e3, "ms"),
        "genotype.encode_calls": (len(by_name.get("genotype.encode", ())), "count"),
        "surrogate.eval_calls": (len(surrogate), "count"),
        "surrogate.eval_us_p50": (p50(surrogate) * 1e6, "us"),
        "surrogate.busy_s": (measure(union(iv("surrogate.evaluate"))), "s"),
        "proxy.parse_label_calls": (len(by_name.get("proxy.parse_label", ())), "count"),
        "metrics.fractional_ranks_calls": (
            len(by_name.get("metrics.fractional_ranks", ())), "count"),
        "analysis.build_report_s": (sum(durations("analysis.build_report")), "s"),
        "analysis.rho_f_curve_s": (sum(durations("analysis.rho_f_curve")), "s"),
        "analysis.write_report_s": (sum(durations("analysis.write_report_files")), "s"),
        "records.read_log_s": (sum(durations("records.read_log")), "s"),
        "records.write_log_s": (
            sum(durations("records.write_log")) + sum(durations("records.append_records")),
            "s"),
        "records.log_mb": (it.log_bytes / 1e6, "MB"),
        "harness.zoo_evaluate_self_s": (self_time(iv("harness.zoo_evaluate"), evals), "s"),
        "harness.write_search_outputs_s": (
            sum(durations("harness.write_search_outputs")), "s"),
        "bridge.calls": (len(by_name.get("bridge.evaluate", ())), "count"),
        "bridge.failures": (tracer.errors.get("bridge.evaluate", 0), "count"),
        "bridge.children_spawned": (len({c["pid"] for c in child}), "count"),
        "bridge.latency_ms_p50": (p50(latencies) * 1e3, "ms"),
        "bridge.latency_ms_p99": (p99(latencies) * 1e3, "ms"),
        "bridge.overhead_ms_p50": (p50(overheads) * 1e3, "ms"),
        "bridge.child_busy_s": (child_busy, "s"),
        "bridge.in_flight_mean": (child_busy / wall, "requests"),
        "bench.traced_wall_s": (wall, "s"),
        "bench.unattributed_s": (unattributed, "s"),
    }

"""The benchmark's three workloads.

Each workload is one closed-loop client in this process that calls econas's
public ``harness`` functions and waits for each to return. Its inputs come
from the workload seed alone; econas sees only the generated configs, zoo
and interruption point.

- ``search_resume``: the README's paper-constant hierarchical search with the
  in-process surrogate, a checkpoint per cycle and one worker, interrupted
  at a seed-drawn cycle and then resumed.
- ``zoo_analyze``: a K=200 zoo evaluated over the canonical 200-setting grid
  plus the Ground-Truth setting, interrupted once and resumed, then analyzed
  with rho_F.
- ``search_wire``: a 30-cycle hierarchical search through ``cmd:`` against a
  slow trainer child with two workers, interrupted and resumed.

A workload object does one set-up repetition per ``setup()`` call, and per
iteration ``prepare`` (untimed), ``run`` (timed), ``finish`` (untimed) and
``check`` (untimed).
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
import threading
import time

from econas import harness
from econas.evaluator import EvaluatorFailure
from econas.genotype import ZOO13, OutputRule, decode
from econas.proxy import parse_label
from econas.search import SearchEngine

import micro
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SEARCH_OUTPUTS = ("history.jsonl", "ledger.jsonl", "summary.json")
GROUND_TRUTH = "c0r0s0e600"
RHO_F_SIZES = [5, 10, 15, 20, 30, 50]
TRAINER_SLEEP_MS_PER_EPOCH = 0.25
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import econas, econas.cli; print(repr(time.perf_counter() - t))"
)


class Interrupted(BaseException):
    """Injected interruption; a BaseException so no evaluator-failure
    handler inside econas swallows it."""


class InterruptingEvaluator:
    """Evaluator wrapper passed through ``evaluator=`` that raises
    :class:`Interrupted` on call number ``interrupt_at`` (0-based, counted
    across every run that uses the wrapper) instead of evaluating; a
    negative ``interrupt_at`` never interrupts.

    It also records the start, end and thread of every inner call, which
    gives the evaluator's busy time and the per-layer evaluator spans.
    """

    def __init__(self, inner, interrupt_at: int):
        self.inner = inner
        self.interrupt_at = interrupt_at
        self.calls = 0
        self.failures = 0
        self.spans: list = []
        self._lock = threading.Lock()

    def evaluate(self, genotype, setting, start_epoch, end_epoch, resume_token=None):
        with self._lock:
            index = self.calls
            self.calls += 1
        if index == self.interrupt_at:
            raise Interrupted("injected interruption at evaluator call %d" % index)
        start = time.perf_counter()
        try:
            return self.inner.evaluate(genotype, setting, start_epoch, end_epoch, resume_token)
        except EvaluatorFailure:
            with self._lock:
                self.failures += 1
            raise
        finally:
            self.spans.append((start, time.perf_counter(), threading.get_ident()))


@dataclasses.dataclass
class Iteration:
    out_dir: str
    t0: float = 0.0
    t1: float = 0.0
    calls: int = 0
    failures: int = 0
    rework: int = 0
    workers: int = 1
    eval_spans: list = dataclasses.field(default_factory=list)
    child_spans: list = dataclasses.field(default_factory=list)
    log_bytes: int = 0
    busy_s: float = 0.0
    evaluator: InterruptingEvaluator | None = None
    tracer: Tracer | None = None
    layer: dict | None = None
    # Workload-specific: the trainer client, or the zoo manifest and outputs.
    remote: object = None
    manifest: object = None
    report_dir: str = ""
    counts: tuple = ()

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0

    @property
    def completed(self) -> int:
        # The interrupted call never reached the evaluator.
        return self.calls - self.failures - 1

    def evaluator_busy_s(self) -> float:
        """The trainer child's busy time inside the timed window when there
        is a child, else the time spent inside the wrapped evaluator."""
        if self.child_spans:
            return sum(
                max(0.0, min(c["end"], self.t1) - max(c["start"], self.t0))
                for c in self.child_spans
            )
        return sum(end - start for start, end, _ in self.eval_spans)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def probe_import_s(src: str) -> float:
    """Time to import econas in a fresh interpreter, measured inside it."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, src],
        check=True,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return float(out.stdout.strip())


class Workload:
    name = ""
    mid_cycle = -1
    interrupt_at = 0

    def __init__(self, seed: int, work_dir: str, src: str):
        self.seed = seed
        self.work = work_dir
        self.src = src
        self.rng = random.Random("%s:%d" % (self.name, seed))
        with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
            self.expected = json.load(fh)[self.name]
        # Pinned digests hold for the pinned seed only.
        self.pinned = seed == self.expected["seed"]

    def setup(self) -> dict:
        """One full set-up repetition; returns its timings in seconds."""
        import_s = probe_import_s(self.src)
        start = time.perf_counter()
        extra = self.make_inputs()
        timings = {"setup_s": import_s + time.perf_counter() - start}
        timings.update(extra)
        return timings

    def make_inputs(self) -> dict:
        raise NotImplementedError

    def reference(self) -> None:
        """Compute the expected outputs, once, outside the timed region."""

    def prepare(self, it_dir: str) -> Iteration:
        os.makedirs(it_dir)
        return Iteration(out_dir=os.path.join(it_dir, "out"))

    def run(self, it: Iteration) -> None:
        raise NotImplementedError

    def finish(self, it: Iteration) -> None:
        pass

    def check(self, it: Iteration) -> list:
        if it.calls <= self.interrupt_at:
            return ["the interruption at call %d never fired" % self.interrupt_at]
        return []

    def micro(self, it: Iteration) -> dict:
        raise NotImplementedError

    def trainer_command(self, log_dir: str, sleep_ms: float, seed: int) -> list:
        return [
            sys.executable,
            os.path.join(HERE, "slow_trainer.py"),
            "--src", self.src,
            "--seed", str(seed),
            "--log-dir", log_dir,
            "--sleep-ms-per-epoch", repr(sleep_ms),
        ]

    def bridge_micro(self, genotypes: list, setting) -> dict:
        log_dir = os.path.join(self.work, "micro-trainer")
        command = self.trainer_command(log_dir, 0.0, self.seed)
        return micro.bridge_micro(command, genotypes, setting)


class _Search(Workload):
    """Shared by the two search workloads: interrupt, resume, compare."""

    cycles = 100
    workers = 1
    first_cycle, last_cycle = 25, 75
    evaluator_spec = "surrogate"

    def __init__(self, seed, work_dir, src):
        super().__init__(seed, work_dir, src)
        self.search_seed = self.rng.randrange(1 << 31)
        cycle = self.rng.randint(self.first_cycle, self.last_cycle)
        # The last two of the cycle's 16 + 8 + 4 evaluations: the slot moves
        # with the seed while the work thrown away stays about one cycle.
        slot = self.rng.choice((26, 27))
        self.interrupt_at = 50 + (cycle - 1) * 28 + slot
        self.mid_cycle = self.cycles // 2
        self.config_path = os.path.join(self.work, "search.json")
        self.cfg = None

    def config_doc(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "search_config",
            "algorithm": "hierarchical",
            "table": "cifar10",
            "setting": "c4r4s0",
            "evaluator": self.evaluator_spec,
            "op_set": "search8",
            "node_count": 4,
            "workers": self.workers,
            "config": {
                "n_init": 50,
                "cycles": self.cycles,
                "epoch_unit": 20,
                "mutants_per_cycle": 16,
                "promote_to_2e": 8,
                "promote_to_3e": 4,
                "seed": self.search_seed,
            },
        }

    def make_inputs(self) -> dict:
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config_doc(), fh, indent=1)
        self.cfg = harness.load_search_config(self.config_path)
        return {}

    def surrogate(self):
        return harness.make_evaluator("surrogate", self.cfg.table, None, self.search_seed)

    def reference(self) -> None:
        counting = InterruptingEvaluator(self.surrogate(), interrupt_at=-1)
        engine = SearchEngine(
            counting,
            self.cfg.engine_config,
            self.cfg.setting,
            op_set=self.cfg.op_set,
            network=self.cfg.network,
            output_rule=self.cfg.output_rule,
            algorithm=self.cfg.algorithm,
        )
        ref_dir = os.path.join(self.work, "reference")
        os.makedirs(ref_dir)
        harness.write_search_outputs(engine.run(), self.cfg, ref_dir)
        self.reference_calls = counting.calls
        self.reference_digests = {
            name: sha256_file(os.path.join(ref_dir, name)) for name in SEARCH_OUTPUTS
        }

    def inner_evaluator(self, it: Iteration):
        return self.surrogate()

    def prepare(self, it_dir):
        it = super().prepare(it_dir)
        it.workers = self.workers
        it.evaluator = InterruptingEvaluator(self.inner_evaluator(it), self.interrupt_at)
        return it

    def run(self, it: Iteration) -> None:
        wrapper = it.evaluator
        it.t0 = time.perf_counter()
        try:
            harness.run_search(self.cfg, it.out_dir, evaluator=wrapper)
        except Interrupted:
            pass
        harness.run_search(self.cfg, it.out_dir, resume=True, evaluator=wrapper)
        it.t1 = time.perf_counter()
        it.calls = wrapper.calls
        it.failures = wrapper.failures
        it.eval_spans = wrapper.spans
        # The interrupted call never ran an evaluation, so it is not rework.
        it.rework = wrapper.calls - 1 - self.reference_calls

    def check(self, it: Iteration) -> list:
        errors = super().check(it)
        for name in SEARCH_OUTPUTS:
            path = os.path.join(it.out_dir, name)
            if not os.path.exists(path):
                errors.append("%s missing" % name)
                continue
            digest = sha256_file(path)
            if digest != self.reference_digests[name]:
                errors.append("%s differs from the uninterrupted in-process run" % name)
            if self.pinned and digest != self.expected["sha256"][name]:
                errors.append("%s differs from its pinned digest" % name)
        return errors

    def micro(self, it: Iteration) -> dict:
        with open(os.path.join(it.out_dir, "checkpoint.json"), "rb") as fh:
            final = fh.read()
        docs = json.loads(final)["genotypes"]
        genotypes = [decode(docs[mid]) for mid in sorted(docs)[:400]]
        with open(os.path.join(it.out_dir, "history.jsonl"), encoding="utf-8") as fh:
            next(fh)
            labels = sorted({json.loads(line)["setting"] for line in fh})
        out = micro.genotype_micro(genotypes)
        out.update(micro.parse_label_micro(labels, self.cfg.table))
        out.update(micro.checkpoint_micro(
            self.cfg, self.surrogate(), it.tracer.mid_checkpoint, final))
        out.update(self.bridge_micro(genotypes, self.cfg.setting.with_epochs(20)))
        return out


class SearchResume(_Search):
    name = "search_resume"

    def check(self, it):
        errors = super().check(it)
        from_scratch = epochs = 0
        with open(os.path.join(it.out_dir, "ledger.jsonl"), encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                entry = json.loads(line)
                from_scratch += entry["start_epoch"] == 0
                epochs += entry["end_epoch"] - entry["start_epoch"]
        if (from_scratch, epochs) != (1650, 57000):
            errors.append(
                "ledger reads %d models and %d epochs, expected 1650 and 57000"
                % (from_scratch, epochs)
            )
        return errors


class SearchWire(_Search):
    name = "search_wire"
    cycles = 30
    workers = 2
    first_cycle, last_cycle = 8, 22

    def __init__(self, seed, work_dir, src):
        super().__init__(seed, work_dir, src)
        self.log_dir = os.path.join(self.work, "trainer-logs")
        command = self.trainer_command(
            self.log_dir, TRAINER_SLEEP_MS_PER_EPOCH, self.search_seed
        )
        self.evaluator_spec = "cmd:" + " ".join(shlex.quote(part) for part in command)

    def make_inputs(self) -> dict:
        super().make_inputs()
        remote = harness.make_evaluator(self.cfg.evaluator_spec, self.cfg.table)
        try:
            if not remote.ping():
                raise RuntimeError("trainer child did not answer the ping")
        finally:
            remote.close()
        self.read_child_spans()
        return {}

    def read_child_spans(self) -> list:
        spans = []
        for path in sorted(glob.glob(os.path.join(self.log_dir, "trainer-*.jsonl"))):
            with open(path, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh)
            os.remove(path)
        return spans

    def inner_evaluator(self, it):
        it.remote = harness.make_evaluator(self.cfg.evaluator_spec, self.cfg.table)
        if not it.remote.ping():
            raise RuntimeError("trainer child did not answer the ping")
        return it.remote

    def finish(self, it):
        it.remote.close()
        it.child_spans = self.read_child_spans()


class ZooAnalyze(Workload):
    name = "zoo_analyze"
    zoo_size = 200

    def __init__(self, seed, work_dir, src):
        super().__init__(seed, work_dir, src)
        self.zoo_seed = self.rng.randrange(1 << 31)
        self.surrogate_seed = self.rng.randrange(1 << 31)
        self.rho_f_seed = self.rng.randrange(1 << 31)
        self.grid_size = self.zoo_size * 201
        # About halfway through the grid, within one percent of it.
        self.interrupt_at = self.grid_size // 2 + self.rng.randrange(self.grid_size // 100)

    def make_inputs(self) -> dict:
        # Every repetition writes the same zoo into the same directory, so
        # that set-up time does not also time the creation of new files.
        zoo_dir = os.path.join(self.work, "zoo")
        start = time.perf_counter()
        harness.zoo_generate(
            zoo_dir,
            count=self.zoo_size,
            node_count=5,
            op_set=ZOO13,
            seed=self.zoo_seed,
            output_rule=OutputRule.ALL_INTERMEDIATE,
            force=True,
        )
        generate_s = time.perf_counter() - start
        manifest_path = os.path.join(self.work, "manifest.json")
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "schema_version": 1,
                    "kind": "experiment_manifest",
                    "table": "cifar10",
                    "zoo": os.path.basename(zoo_dir),
                    "evaluator": "surrogate",
                    "seed": self.surrogate_seed,
                    "output_log": "eval.jsonl",
                    "settings": {"grid": {}, "include": [GROUND_TRUTH]},
                },
                fh,
                indent=1,
            )
        self.manifest = harness.load_manifest(manifest_path)
        self.surrogate = harness.make_evaluator(
            "surrogate", self.manifest.table, None, self.surrogate_seed
        )
        return {"zoo_generate_s": generate_s}

    def prepare(self, it_dir):
        it = super().prepare(it_dir)
        it.manifest = dataclasses.replace(
            self.manifest, output_log=os.path.join(it_dir, "eval.jsonl")
        )
        it.report_dir = os.path.join(it_dir, "report")
        it.evaluator = InterruptingEvaluator(self.surrogate, self.interrupt_at)
        return it

    def run(self, it: Iteration) -> None:
        wrapper = it.evaluator
        it.t0 = time.perf_counter()
        try:
            harness.zoo_evaluate(it.manifest, evaluator=wrapper)
        except Interrupted:
            pass
        it.counts = harness.zoo_evaluate(it.manifest, evaluator=wrapper)
        harness.run_analyze(
            it.manifest.output_log,
            GROUND_TRUTH,
            it.report_dir,
            it.manifest.table,
            rho_f_sizes=RHO_F_SIZES,
            rho_f_trials=100,
            seed=self.rho_f_seed,
        )
        it.t1 = time.perf_counter()
        it.calls = wrapper.calls
        it.failures = wrapper.failures
        it.eval_spans = wrapper.spans
        it.rework = wrapper.calls - 1 - self.grid_size

    def finish(self, it):
        if os.path.exists(it.manifest.output_log):
            it.log_bytes = os.path.getsize(it.manifest.output_log)

    def check(self, it: Iteration) -> list:
        errors = super().check(it)
        if it.counts != (self.grid_size, 0, self.grid_size):
            errors.append("zoo_evaluate returned %r" % (it.counts,))
        for name, rows in sorted(self.expected["rows"].items()):
            path = os.path.join(it.report_dir, name)
            if not os.path.exists(path):
                errors.append("%s missing" % name)
                continue
            with open(path, encoding="utf-8") as fh:
                lines = sum(1 for _ in fh)
            if lines != rows:
                errors.append("%s has %d lines, expected %d" % (name, lines, rows))
            if self.pinned and sha256_file(path) != self.expected["sha256"][name]:
                errors.append("%s differs from its pinned digest" % name)
        return errors

    def micro(self, it: Iteration) -> dict:
        genotypes = [g for _, g in harness.load_zoo(self.manifest.zoo_dir)]
        out = micro.genotype_micro(genotypes)
        table = it.manifest.table
        out.update(micro.parse_label_micro(it.manifest.setting_labels(), table))
        out.update(micro.rank_micro(it.manifest.output_log, GROUND_TRUTH, self.rho_f_seed))
        out.update(self.bridge_micro(genotypes, parse_label("c4r4s0e20", table)))
        return out


WORKLOADS = {cls.name: cls for cls in (SearchResume, ZooAnalyze, SearchWire)}

"""Hierarchical-proxy evolutionary search engine.

The population is one list of candidates in creation order, and a
candidate's tier is the number of epoch units it has trained: E, 2E or 3E
epochs. Each phase of a cycle trains a set of candidates one more epoch
unit: the children of parents sampled across tiers (longer trained tiers
are more likely), then the most accurate of tier E, then of tier 2E. Aging
then drops the oldest candidates beyond each tier's capacity. Every
completed training segment lands in an append-only history, and the final
answer is read from history alone. The budget ledger is a view of that
history (each entry is one epoch unit of training ending at the entry's
``epochs_trained``), so checkpoints store history but no ledger. A
checkpoint stores the population as one list in creation order, and a
member whose epochs are not E, 2E or 3E is a SearchError naming the file.

All randomness is derived per (master seed, cycle, slot), and each phase's
trainings are independent jobs joined in slot order, so results are
identical no matter how many workers run them.
"""

from __future__ import annotations

import json
import logging
import os
from contextlib import contextmanager, suppress
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

from . import documents
from .evaluator import EvalResult, Evaluator, EvaluatorFailure
from .genotype import (
    BUILTIN_OP_SETS,
    Genotype,
    GenotypeError,
    NetworkConfig,
    OperationSet,
    OutputRule,
    SEARCH8,
    decode_stored,
    encode,
    mutate,
    random_genotype,
)
from .proxy import ReducedSetting, format_label
from .records import EvaluationRecord, truncate_torn_tail
from .seeding import derive_rng, left_sum

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 2


class SearchError(documents.UserError, RuntimeError):
    """The search cannot proceed (bad config, empty population, total failure)."""


@dataclass
class Candidate:
    genotype: Genotype
    model_id: Optional[str]  # None for a new child until its first outcome is in
    accuracy: Optional[float]
    epochs_trained: int
    resume_token: Optional[str] = None


def _tiers(population: list, epoch_unit: int) -> tuple:
    """The members of the E, 2E and 3E tiers, each in population order: a
    candidate that has trained k epoch units is in tier k - 1."""
    tiers = ([], [], [])
    for c in population:
        tiers[c.epochs_trained // epoch_unit - 1].append(c)
    return tiers


_NUMBER = (int, float)


@dataclass(frozen=True)
class EcoNasConfig:
    n_init: int = 50
    cycles: int = 100
    epoch_unit: int = 20
    mutants_per_cycle: int = 16
    promote_to_2e: int = 8
    promote_to_3e: int = 4
    tier_weights: tuple[float, float, float] = (1.0, 2.0, 4.0)
    cap_e: Optional[int] = None
    cap_2e: Optional[int] = None
    cap_3e: Optional[int] = None
    top_k_return: int = 5
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "tier_weights":
                if not (isinstance(value, (tuple, list))
                        and all(type(w) in _NUMBER for w in value)):
                    raise SearchError("tier_weights must be a tuple of numbers, not %r" % (value,))
            elif type(value) is not int and not (value is None and f.name.startswith("cap_")):
                raise SearchError("%s must be an integer, not %r" % (f.name, value))
        if self.n_init < 1 or self.cycles < 0 or self.epoch_unit < 1:
            raise SearchError("n_init, cycles, epoch_unit must be positive")
        if self.mutants_per_cycle < 1 or self.top_k_return < 1:
            raise SearchError("mutants_per_cycle and top_k_return must be positive")
        if not 0 <= self.promote_to_3e <= self.promote_to_2e <= self.mutants_per_cycle:
            raise SearchError(
                "need promote_to_3e <= promote_to_2e <= mutants_per_cycle"
            )
        if len(self.tier_weights) != 3:
            raise SearchError("tier_weights must hold 3 weights, one per tier")
        w1, w2, w3 = self.tier_weights
        if not 0 < w1 < w2 < w3:
            raise SearchError("tier weights must be positive and strictly increasing")
        if any(cap is not None and cap < 1 for cap in (self.cap_e, self.cap_2e, self.cap_3e)):
            raise SearchError("tier capacities must be positive or null")

    @property
    def capacity_e(self) -> int:
        return self.cap_e if self.cap_e is not None else self.n_init

    @property
    def capacity_2e(self) -> int:
        return self.cap_2e if self.cap_2e is not None else 2 * self.promote_to_2e

    @property
    def capacity_3e(self) -> int:
        if self.cap_3e is not None:
            return self.cap_3e
        return max(1, 2 * self.promote_to_3e * self.cycles // 10)


@dataclass(frozen=True)
class FlatConfig:
    """Single-proxy baseline: one population, one fixed epoch budget per model."""

    n_init: int = 50
    cycles: int = 100
    mutants_per_cycle: int = 16
    epochs: int = 35
    capacity: Optional[int] = None
    top_k_return: int = 5
    seed: int = 0

    def __post_init__(self):
        if min(self.n_init, self.mutants_per_cycle, self.epochs, self.top_k_return) < 1:
            raise SearchError("flat config fields must be positive")
        if self.cycles < 0:
            raise SearchError("cycles must be >= 0")

    @property
    def population_capacity(self) -> int:
        return self.capacity if self.capacity is not None else self.n_init


@dataclass(frozen=True)
class HistoryEntry:
    cycle: int
    model_id: str
    setting: str
    accuracy: float
    train_accuracy: Optional[float]
    epochs_trained: int

    def to_record(self) -> EvaluationRecord:
        return EvaluationRecord(
            model_id=self.model_id,
            setting=self.setting,
            test_accuracy=self.accuracy,
            train_accuracy=self.train_accuracy,
            epochs_trained=self.epochs_trained,
        )


@dataclass(frozen=True)
class LedgerEntry:
    cycle: int
    model_id: str
    start_epoch: int
    end_epoch: int


@dataclass
class BudgetLedger:
    entries: list = field(default_factory=list)

    @classmethod
    def from_history(cls, history: list, epoch_unit: int) -> "BudgetLedger":
        """Every history entry is one segment of ``epoch_unit`` epochs."""
        return cls(
            [
                LedgerEntry(h.cycle, h.model_id, h.epochs_trained - epoch_unit, h.epochs_trained)
                for h in history
            ]
        )

    @property
    def total_epochs(self) -> int:
        return sum(e.end_epoch - e.start_epoch for e in self.entries)

    @property
    def from_scratch_models(self) -> int:
        return sum(1 for e in self.entries if e.start_epoch == 0)


@dataclass(frozen=True)
class TopModel:
    genotype: Genotype
    model_id: str
    accuracy: float
    epochs_trained: int


@dataclass
class SearchResult:
    top: list
    history: list
    epoch_unit: int

    @property
    def ledger(self) -> BudgetLedger:
        return BudgetLedger.from_history(self.history, self.epoch_unit)

    def history_records(self) -> list:
        return [entry.to_record() for entry in self.history]


def _rank_tiers(population: list, cfg: EcoNasConfig) -> list:
    """Each non-empty tier, best first (accuracy, then population order),
    with its weight: the one ranking that parent draws and promotion picks
    read."""
    return [
        (sorted(tier, key=lambda cand: -cand.accuracy), w)
        for tier, w in zip(_tiers(population, cfg.epoch_unit), cfg.tier_weights)
        if tier
    ]


def _draw_parent(ranked: list, rng) -> Candidate:
    """Pick a tier of :func:`_rank_tiers` with probability proportional to
    its weight, then a member by linear rank weighting: the best of n
    candidates has weight n, the worst weight 1."""
    if not ranked:
        raise SearchError("cannot sample a parent: all tiers are empty")
    total = left_sum(w for _, w in ranked)
    x = rng.random() * total
    chosen = ranked[-1][0]
    for pool, w in ranked:
        if x < w:
            chosen = pool
            break
        x -= w
    n = len(chosen)
    x = rng.random() * (n * (n + 1) / 2.0)
    weight = n
    for cand in chosen:
        if x < weight:
            return cand
        x -= weight
        weight -= 1
    return chosen[-1]


def remove_dead(population: list, cfg: EcoNasConfig) -> None:
    """Aging: truncate each tier to capacity by dropping its OLDEST members,
    the first in population (creation) order, regardless of accuracy."""
    caps = (cfg.capacity_e, cfg.capacity_2e, cfg.capacity_3e)
    doomed = set()
    for tier, cap in zip(_tiers(population, cfg.epoch_unit), caps):
        doomed.update(id(c) for c in tier[:max(0, len(tier) - cap)])
    population[:] = [c for c in population if id(c) not in doomed]


def _checked(outcome):
    """``outcome`` if it is an EvalResult whose accuracies are ints or
    floats, not bools, in [0, 1] (``train_accuracy`` may be None) and whose
    resume token is a string, else an EvaluatorFailure naming it: the one
    check of every trainer outcome. An accepted accuracy that is not a
    plain float enters as the float it names."""
    if isinstance(outcome, EvalResult):
        accuracy, train, token = outcome
        if (
            isinstance(accuracy, _NUMBER) and 0 <= accuracy <= 1
            and (train is None or isinstance(train, _NUMBER) and 0 <= train <= 1)
            and isinstance(token, str)
        ):
            if type(accuracy) is float and (train is None or type(train) is float):
                return outcome
            if bool not in (type(accuracy), type(train)):
                return EvalResult(float(accuracy), None if train is None else float(train), token)
    return EvaluatorFailure(
        "evaluator returned %r; accuracies must be numbers in [0, 1] and the resume token "
        "must be a string" % (outcome,)
    )


def _evaluate_jobs(evaluator, jobs, workers: int, done) -> None:
    """Run evaluation jobs, taken from any iterable, handing each one's
    outcome (result | EvaluatorFailure) to ``done(slot, outcome)`` in the
    calling thread as soon as it completes; the runner keeps no outcome, so
    each caller keeps only what it needs. Every value an evaluator returns
    passes :func:`_checked` here, where it enters search and zoo evaluation
    alike; the check never raises.

    The next job is taken only when a worker is free: one at a time with one
    worker, and with ``workers`` > 1 at most twice that many taken and not
    yet finished, one running on each worker and as many queued. Any other
    exception, from a job, from ``jobs`` or an interrupt of the caller,
    wherever it lands, takes no further job: those queued are dropped; those
    in flight finish, and their results reach ``done``, before it
    propagates. Their failures do not: the interrupt may have caused them (a
    Ctrl-C also stops a trainer child)."""

    def run(job):
        g, setting, start, end, token = job
        try:
            return _checked(evaluator.evaluate(g, setting, start, end, token))
        except EvaluatorFailure as exc:
            return exc

    if workers <= 1:
        for slot, job in enumerate(jobs):
            done(slot, run(job))
        return
    unreported = {}  # future -> slot, of each job taken and not yet reported

    def collect():
        finished, _ = wait(unreported, return_when=FIRST_COMPLETED)
        for future in finished:
            done(unreported.pop(future), future.result())

    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            for slot, job in enumerate(jobs):
                unreported[pool.submit(run, job)] = slot
                if len(unreported) == 2 * workers:
                    collect()
            while unreported:
                collect()
        finally:
            pool.shutdown(cancel_futures=True)  # waits for the jobs in flight
            for future, slot in unreported.items():
                if (
                    not future.cancelled() and future.exception() is None
                    and isinstance(future.result(), EvalResult)
                ):
                    done(slot, future.result())


def _top_models(history: list, genotypes: dict, top_k: int) -> list:
    """Best models by (longest trained, then accuracy); one entry per model."""
    best: dict[str, tuple[int, float]] = {}
    for entry in history:
        key = (entry.epochs_trained, entry.accuracy)
        if entry.model_id not in best or key > best[entry.model_id]:
            best[entry.model_id] = key
    ordered = sorted(
        best.items(), key=lambda item: (-item[1][0], -item[1][1], item[0])
    )
    return [
        TopModel(genotypes[mid], mid, acc, epochs)
        for mid, (epochs, acc) in ordered[:top_k]
    ]


@dataclass
class _EngineState:
    population: list = field(default_factory=list)  # candidates in creation order
    history: list = field(default_factory=list)
    genotypes: dict = field(default_factory=dict)
    next_cycle: int = 0  # cycle 0 is initialization


JOURNAL_KIND = "search_journal"


class SearchEngine:
    """Owner of all mutable search state; see :func:`econas_search`. Every
    trainer outcome of a search reaches it through one step, :meth:`_train`,
    which each phase of a cycle (:meth:`_run_cycle`) calls once.

    With a ``checkpoint_path`` (``checkpoint.json``) the engine saves its
    state after every cycle, initialization (cycle 0) included, in two
    files. The checkpoint itself is a whole snapshot:
    ``json.dumps(checkpoint_obj(), sort_keys=True)`` plus a newline,
    replaced atomically. :meth:`run` writes it first when the files do not
    hold the engine's state, and last, when it returns. In between,
    ``checkpoint.journal`` (:attr:`journal_path`) gets an eval line as each
    training finishes, with its result or its failure, and a boundary
    line ``{"next_cycle": N}`` as each cycle ends. A cycle is a pure
    function of the seed, its start state and its evaluations' outcomes,
    so that is all the journal keeps: a resume, :meth:`load_checkpoint`,
    loads the snapshot and runs each finished cycle again with the
    outcomes its eval lines hold, and :meth:`run` then does the same for
    the interrupted cycle, evaluating only the slots the journal lacks.
    A run appends through one open handle, closed when it returns or
    raises; a snapshot closes it and removes the journal it makes
    obsolete.
    """

    def __init__(
        self,
        evaluator: Evaluator,
        cfg: EcoNasConfig,
        setting_base: ReducedSetting,
        op_set: OperationSet = SEARCH8,
        network: Optional[NetworkConfig] = None,
        output_rule: OutputRule = OutputRule.UNUSED_ONLY,
        workers: int = 1,
        checkpoint_path: Optional[str] = None,
        algorithm: str = "hierarchical",
    ):
        self.evaluator = evaluator
        self.cfg = cfg
        self.setting_base = setting_base
        self.op_set = op_set
        self.network = network if network is not None else NetworkConfig.for_search()
        self.output_rule = output_rule
        self.workers = workers
        self.checkpoint_path = checkpoint_path
        self.algorithm = algorithm
        self.state = _EngineState()
        self._written = False  # whether the checkpoint files hold this engine's state
        self._journal = None  # the journal's append handle while a run has one open
        # cycle -> {(phase, slot): (model id, start epoch, end epoch, outcome)}
        # for the outcomes the journal holds of cycles still to run.
        self._journaled: dict = {}

    # -- lifecycle ---------------------------------------------------------

    def run(self, stop_after_cycle: Optional[int] = None) -> SearchResult:
        """Run the cycles still pending, or those up to ``stop_after_cycle``,
        between two snapshots: of the start state if the checkpoint files do
        not hold it, and of the state it returns. The journal handle is
        closed when it returns or raises."""
        last = self.cfg.cycles
        if stop_after_cycle is not None:
            last = min(last, stop_after_cycle)
        try:
            if not self._written:
                self._write_checkpoint(snapshot=True)
            while self.state.next_cycle <= last:
                self._run_cycle(self.state.next_cycle)
                self.state.next_cycle += 1
                self._write_checkpoint(snapshot=self.state.next_cycle > last)
        finally:
            self._close_journal()
        return self.result()

    def result(self) -> SearchResult:
        return SearchResult(
            top=_top_models(
                self.state.history, self.state.genotypes, self.cfg.top_k_return
            ),
            history=list(self.state.history),
            epoch_unit=self.cfg.epoch_unit,
        )

    # -- steps -------------------------------------------------------------

    def _register(self, genotype: Genotype) -> str:
        mid = genotype.content_hash
        if self.checkpoint_path is None:
            # Checkpoint writes and each cmd: request read the cached
            # document. Without a checkpoint, dropping it trades memory
            # for rebuilding it on each promotion request of a cmd: search.
            genotype.__dict__.pop("_document", None)
        self.state.genotypes.setdefault(mid, genotype)
        return mid

    def _run_cycle(self, cycle: int) -> None:
        """Train the children, add the first live candidate of each
        architecture to the population, train the best of tier E and then
        of tier 2E, and age; cycle 0 trains ``n_init`` random models only. A
        SearchError names the cycle when none of its children finished."""
        cfg, st = self.cfg, self.state
        if cycle == 0:
            genotypes = [
                random_genotype(
                    derive_rng(cfg.seed, "init", i), self.network, self.op_set, self.output_rule
                )
                for i in range(cfg.n_init)
            ]
        else:
            # Parents are sampled against the cycle-start population, ranked
            # once, so the N0 mutant jobs are independent of each other.
            ranked = _rank_tiers(st.population, cfg)
            genotypes = []
            for slot in range(cfg.mutants_per_cycle):
                rng = derive_rng(cfg.seed, "cycle", cycle, "slot", slot)
                parent = _draw_parent(ranked, rng)
                try:
                    genotypes.append(mutate(parent.genotype, rng))
                except GenotypeError as exc:
                    logger.warning("mutation failed in cycle %d slot %d: %s", cycle, slot, exc)
                    genotypes.append(None)
        children = [Candidate(g, None, None, 0) for g in genotypes if g is not None]
        finished = self._train(cycle, "child", children)
        if not finished:
            raise SearchError("all %d new models failed in cycle %d" % (len(genotypes), cycle))
        live = {c.model_id for c in st.population}
        for c in finished:
            if c.model_id not in live:
                live.add(c.model_id)
                st.population.append(c)
        if cycle:
            for units, phase, n in ((1, "2e", cfg.promote_to_2e), (2, "3e", cfg.promote_to_3e)):
                tiers = {t[0].epochs_trained: t for t, _ in _rank_tiers(st.population, cfg)}
                self._train(cycle, phase, tiers.get(units * cfg.epoch_unit, [])[:n])
            remove_dead(st.population, cfg)
        unused = self._journaled.pop(cycle, None)
        if unused:
            raise SearchError("%s: results journaled for cycle %d name slots it lacks: %s" % (
                self.journal_path, cycle, ", ".join("%s slot %s" % key for key in unused)
            ))

    def _train(self, cycle: int, phase: str, candidates: list) -> list:
        """Train ``candidates[i]`` one more epoch unit as slot i of ``phase``
        (``child``, ``2e`` or ``3e``) of ``cycle``, and return those that
        finished, each advanced and logged to history; a failure leaves its
        candidate as it was and logs one warning. A slot the journal holds
        (see :meth:`load_checkpoint`) is served from it once it matches the
        job. The other slots run through :func:`_evaluate_jobs`, and with a
        checkpoint path each outcome is journaled as it completes, a failure
        too, so that a resumed cycle takes the path the interrupted one
        took."""
        span = self.cfg.epoch_unit
        jobs = [
            (c.genotype, self.setting_base.with_epochs(c.epochs_trained + span),
             c.epochs_trained, c.epochs_trained + span, c.resume_token)
            for c in candidates
        ]
        outcomes, todo = [], []
        journaled = self._journaled.get(cycle, {})
        for slot, (g, _, start, end, _) in enumerate(jobs):
            stored = journaled.pop((phase, slot), None)
            if stored is None:
                todo.append(slot)
            elif stored[:3] != (g.content_hash, start, end):
                raise SearchError(
                    "%s: the result journaled for cycle %d %s slot %d is of model %s, "
                    "epochs %s-%s, but the slot re-derives model %s, epochs %d-%d"
                    % (self.journal_path, cycle, phase, slot, *stored[:3], g.content_hash,
                       start, end)
                )
            outcomes.append(None if stored is None else stored[3])

        def done(i: int, outcome) -> None:
            outcomes[todo[i]] = outcome
            if not self._written:
                return
            g, _, start, end, _ = jobs[todo[i]]
            line = {
                "cycle": cycle, "phase": phase, "slot": todo[i], "model_id": g.content_hash,
                "start_epoch": start, "end_epoch": end,
            }
            if isinstance(outcome, EvaluatorFailure):
                line["failure"] = str(outcome)
            else:
                line.update(outcome._asdict())
            self._append_journal(documents.json_line(line))

        _evaluate_jobs(self.evaluator, (jobs[slot] for slot in todo), self.workers, done)
        finished = []
        for cand, (_, setting, _, end, _), outcome in zip(candidates, jobs, outcomes):
            if cand.model_id is None:  # hashed after the trainer's call, which may hash it
                cand.model_id = self._register(cand.genotype)
            if isinstance(outcome, EvaluatorFailure):
                logger.warning("cycle %d %s phase: training of model %s failed: %s",
                               cycle, phase, cand.model_id[:12], outcome)
                continue
            cand.accuracy, cand.resume_token = outcome.accuracy, outcome.resume_token
            cand.epochs_trained = end
            self.state.history.append(HistoryEntry(
                cycle, cand.model_id, format_label(setting), outcome.accuracy,
                outcome.train_accuracy, end,
            ))
            finished.append(cand)
        return finished

    # -- checkpointing -------------------------------------------------------

    @property
    def journal_path(self) -> Optional[str]:
        """The journal next to the checkpoint: ``checkpoint.journal``."""
        if self.checkpoint_path is None:
            return None
        return os.path.splitext(self.checkpoint_path)[0] + ".journal"

    def _checkpoint_header(self) -> dict:
        """What a checkpoint must agree on with the engine that resumes it."""
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "search_checkpoint",
            "algorithm": self.algorithm,
            "config": config_to_obj(self.cfg),
            "setting": format_label(self.setting_base),
            "op_set": self.op_set.name,
            "node_count": self.network.node_count,
            "stack_n": self.network.stack_n,
            "output_rule": self.output_rule.value,
        }

    def checkpoint_obj(self) -> dict:
        st = self.state
        return {
            **self._checkpoint_header(),
            "next_cycle": st.next_cycle,
            "population": [_candidate_obj(c) for c in st.population],
            "genotypes": {mid: encode(g) for mid, g in sorted(st.genotypes.items())},
            "history": [_history_obj(h) for h in st.history],
        }

    def _write_checkpoint(self, snapshot: bool = False) -> None:
        """Save the state: a snapshot, which the first write must be when
        the files do not hold this engine's state, else the boundary line
        ``{"next_cycle": N}`` of the cycle just finished, appended to the
        journal after its eval lines, which :meth:`_train` appends.

        A snapshot streams ``json.dumps(self.checkpoint_obj(),
        sort_keys=True)`` plus a newline over ``checkpoint.json`` without
        joining it into one string. When the files held another state (a
        fresh engine, or one that loaded an object from elsewhere), the
        journal is removed before the snapshot is written; otherwise after
        it."""
        if self.checkpoint_path is None:
            return
        if not self._written:
            # The journal may continue another state: a crash must not
            # leave it next to this engine's snapshot.
            self._remove_journal()
        if snapshot:
            with documents.replacing(self.checkpoint_path) as fh:
                _write_sections(fh, self.checkpoint_obj())
            # A crash before this line leaves journal lines the snapshot
            # already holds; a resume skips them.
            self._remove_journal()
        else:
            self._append_journal(documents.json_line({"next_cycle": self.state.next_cycle}))
        self._written = True

    def _append_journal(self, line: str) -> None:
        """Append ``line`` to the journal and flush it, through the handle
        the first append of a run opens."""
        if self._journal is None:
            self._journal = documents.open_appending(self.journal_path, JOURNAL_KIND)
        self._journal.write(line)
        self._journal.flush()

    def _close_journal(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def _remove_journal(self) -> None:
        self._close_journal()
        with suppress(FileNotFoundError):
            os.remove(self.journal_path)

    def load_checkpoint(self) -> None:
        """Restore the state from ``checkpoint.json`` and, if there is one,
        ``checkpoint.journal``, read in file order. Its lines of cycles the
        snapshot already holds are skipped; each eval line is kept for
        :meth:`_train` to serve, a later line of a slot replacing an
        earlier one. Each cycle that a boundary line marks finished then
        runs again through :meth:`_run_cycle`, every slot served from its
        eval line; a slot without one is evaluated again and journaled. The
        eval lines of the pending cycle are kept for :meth:`run`, except
        failures that no result follows: no journaled result can depend on
        those, so they are tried again (a cycle that stopped because every
        child failed runs again). A last journal line cut short by a crash
        mid-append is cut off with a warning, so what it held is computed
        again; any other damage, such as a line of a cycle past the next
        unfinished one, is a SearchError naming the file. The files then
        hold this engine's state, so the next write appends to the
        journal."""
        path, journal = self.checkpoint_path, self.journal_path
        with documents.reading(path, SearchError):
            self.load_checkpoint_obj(documents.read(path, "search_checkpoint"))
        st = self.state
        finished = st.next_cycle  # every cycle below it is finished
        if os.path.exists(journal):
            if truncate_torn_tail(journal):
                logger.warning(
                    "dropped an unfinished last line from %s; what it held runs again", journal
                )
            with documents.reading(journal, SearchError), _malformed("journal line"):
                for _, line in documents.read_lines(journal, JOURNAL_KIND):
                    # An eval line's cycle, or the cycle a boundary line ends.
                    cycle = line["cycle"] if "phase" in line else line["next_cycle"] - 1
                    if cycle > finished:
                        raise SearchError(
                            "journal jumps from cycle %d to a line of cycle %d" % (finished, cycle)
                        )
                    if "phase" not in line:
                        finished = max(finished, cycle + 1)
                    elif cycle >= st.next_cycle:  # else the snapshot holds it
                        self._journaled.setdefault(cycle, {})[line["phase"], line["slot"]] = (
                            line["model_id"], line["start_epoch"], line["end_epoch"],
                            _journaled_outcome(line),
                        )
            # No journaled result depends on a failure after the last one.
            pending = self._journaled.get(finished, {})
            while pending and isinstance(next(reversed(pending.values()))[3], EvaluatorFailure):
                pending.popitem()
        self._written = True
        try:
            while st.next_cycle < finished:
                self._run_cycle(st.next_cycle)
                st.next_cycle += 1
        finally:
            self._close_journal()  # opened only if a slot had no eval line

    def load_checkpoint_obj(self, obj: dict) -> None:
        """Restore state from a snapshot object. Each genotype id must be
        the SHA-256 of its document, which the genotype then keeps. A
        schema-1 object is read through :func:`_from_schema_1`; a
        ``"ledger"`` section written by older versions is ignored, since the
        ledger is derived from history. Unless :meth:`load_checkpoint` read
        the object from this engine's files, :meth:`run` snapshots it first."""
        if not isinstance(obj, dict):
            raise SearchError("checkpoint is not a JSON object")
        if obj.get("schema_version") == 1:
            obj = _from_schema_1(obj)
        for key, expected in self._checkpoint_header().items():
            if obj.get(key) != expected:
                raise SearchError(
                    "checkpoint %s %r does not match the requested %r"
                    % (key, obj.get(key), expected)
                )
        missing = [k for k in ("next_cycle", "genotypes", "population", "history") if k not in obj]
        if missing:
            raise SearchError("checkpoint lacks section(s): %s" % ", ".join(missing))
        tier_epochs = tuple(units * self.cfg.epoch_unit for units in (1, 2, 3))
        with _malformed("checkpoint"):
            genotypes = {mid: decode_stored(mid, doc) for mid, doc in obj["genotypes"].items()}
            population = [
                Candidate(genotype=genotypes[c["model_id"]], **c) for c in obj["population"]
            ]
            for c in population:
                if type(c.epochs_trained) is not int or c.epochs_trained not in tier_epochs:
                    raise SearchError(
                        "checkpoint candidate %s has trained %r epochs, not %d, %d or %d"
                        % (c.model_id, c.epochs_trained, *tier_epochs)
                    )
            history = [HistoryEntry(**h) for h in obj["history"]]
            state = _EngineState(population, history, genotypes, obj["next_cycle"])
        self.state, self._written, self._journaled = state, False, {}


def _from_schema_1(obj: dict) -> dict:
    """A schema-1 checkpoint as schema 2: its ``tiers`` lists joined in
    ``seq`` (creation) order into the population. Like ``seq_counter``, a
    member's ``seq`` and ``birth_cycle`` are ignored."""
    with _malformed("checkpoint"):
        members = sorted((c for t in obj["tiers"].values() for c in t), key=lambda c: c["seq"])
        population = [{k: c[k] for k in _CANDIDATE_KEYS} for c in members]
    return dict(obj, schema_version=SCHEMA_VERSION, population=population)


def _journaled_outcome(line: dict):
    """An eval line's outcome: its result or, with a ``failure`` message,
    an EvaluatorFailure."""
    if "failure" in line:
        return EvaluatorFailure(line["failure"])
    outcome = _checked(EvalResult(line["accuracy"], line["train_accuracy"], line["resume_token"]))
    if isinstance(outcome, EvaluatorFailure):
        raise SearchError("journal line: %s" % outcome)
    return outcome


_CANDIDATE_KEYS = tuple(f.name for f in fields(Candidate) if f.name != "genotype")
_HISTORY_KEYS = tuple(f.name for f in fields(HistoryEntry))


def _candidate_obj(c: Candidate) -> dict:
    return {k: getattr(c, k) for k in _CANDIDATE_KEYS}


def _history_obj(h: HistoryEntry) -> dict:
    return {k: getattr(h, k) for k in _HISTORY_KEYS}


@contextmanager
def _malformed(what: str):
    """A missing key or a value of the wrong type in a stored section is a
    SearchError."""
    try:
        yield
    except (KeyError, TypeError, AttributeError) as exc:
        raise SearchError("malformed %s (%s: %s)" % (what, type(exc).__name__, exc)) from None


_JOIN_CHUNK = 64


def _write_sections(fh, sections: dict) -> None:
    """Write ``json.dumps(sections, sort_keys=True)``, serializing a list or
    dict section at most ``_JOIN_CHUNK`` members at a time."""
    for i, key in enumerate(sorted(sections)):
        fh.write("%s%s: " % ("{" if i == 0 else ", ", json.dumps(key)))
        value = sections[key]
        if not isinstance(value, (list, dict)):
            fh.write(json.dumps(value))
            continue
        members = sorted(value.items()) if isinstance(value, dict) else value
        brackets = json.dumps(type(value)())
        fh.write(brackets[0])
        for start in range(0, len(members), _JOIN_CHUNK):
            chunk = type(value)(members[start:start + _JOIN_CHUNK])
            fh.write((", " if start else "") + json.dumps(chunk, sort_keys=True)[1:-1])
        fh.write(brackets[1])
    fh.write("}\n")


def config_to_obj(cfg: EcoNasConfig) -> dict:
    """The config as stored in checkpoints, with tier capacities resolved."""
    return dict(
        asdict(cfg),
        tier_weights=list(cfg.tier_weights),
        cap_e=cfg.capacity_e,
        cap_2e=cfg.capacity_2e,
        cap_3e=cfg.capacity_3e,
    )


def econas_search(
    evaluator: Evaluator, cfg: EcoNasConfig, setting_base: ReducedSetting, **options
) -> SearchResult:
    """Run the full hierarchical-proxy search; see the module docstring.
    ``options`` are the keyword arguments of :class:`SearchEngine`."""
    return SearchEngine(evaluator, cfg, setting_base, **options).run()


def flat_config_to_econas(cfg: FlatConfig) -> EcoNasConfig:
    """A flat single-proxy run is the engine with promotions disabled: one
    populated tier, the full epoch budget as the unit, same aging rule."""
    return EcoNasConfig(
        n_init=cfg.n_init,
        cycles=cfg.cycles,
        epoch_unit=cfg.epochs,
        mutants_per_cycle=cfg.mutants_per_cycle,
        promote_to_2e=0,
        promote_to_3e=0,
        cap_e=cfg.population_capacity,
        top_k_return=cfg.top_k_return,
        seed=cfg.seed,
    )


def resolve_op_set(name: str) -> OperationSet:
    if name not in BUILTIN_OP_SETS:
        raise SearchError(
            "unknown op set %r (choose from %s)" % (name, sorted(BUILTIN_OP_SETS))
        )
    return BUILTIN_OP_SETS[name]

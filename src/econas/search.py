"""Hierarchical-proxy evolutionary search engine.

The population is split into three tiers holding candidates trained for E,
2E, and 3E epochs. Each cycle mutates parents sampled across tiers (longer
trained tiers are more likely), trains the children for E epochs, promotes
the most accurate candidates one tier up with E more epochs of training,
and ages out the oldest candidates beyond each tier's capacity. Every
completed training segment lands in an append-only history, and the final
answer is read from history alone. The budget ledger is a view of that
history (each entry is one epoch unit of training ending at the entry's
``epochs_trained``), so checkpoints store history but no ledger.

All randomness is derived per (master seed, cycle, slot), and each cycle's
child evaluations are independent jobs joined in slot order, so results are
identical no matter how many workers run them.
"""

from __future__ import annotations

import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

from .evaluator import Evaluator, EvaluatorFailure
from .genotype import (
    BUILTIN_OP_SETS,
    Genotype,
    GenotypeError,
    NetworkConfig,
    OperationSet,
    OutputRule,
    SEARCH8,
    decode,
    encode,
    mutate,
    random_genotype,
)
from .proxy import ReducedSetting, format_label
from .records import EvaluationRecord
from .seeding import derive_rng

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1


class SearchError(RuntimeError):
    """The search cannot proceed (bad config, empty population, total failure)."""


@dataclass
class Candidate:
    genotype: Genotype
    model_id: str
    accuracy: float
    epochs_trained: int
    birth_cycle: int
    seq: int
    resume_token: Optional[str] = None


@dataclass
class PopulationTiers:
    tier_e: list = field(default_factory=list)
    tier_2e: list = field(default_factory=list)
    tier_3e: list = field(default_factory=list)

    def all_candidates(self) -> list:
        return list(self.tier_e) + list(self.tier_2e) + list(self.tier_3e)


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
        if self.n_init < 1 or self.cycles < 0 or self.epoch_unit < 1:
            raise SearchError("n_init, cycles, epoch_unit must be positive")
        if self.mutants_per_cycle < 1 or self.top_k_return < 1:
            raise SearchError("mutants_per_cycle and top_k_return must be positive")
        if not 0 <= self.promote_to_3e <= self.promote_to_2e <= self.mutants_per_cycle:
            raise SearchError(
                "need promote_to_3e <= promote_to_2e <= mutants_per_cycle"
            )
        w1, w2, w3 = self.tier_weights
        if not 0 < w1 < w2 < w3:
            raise SearchError("tier weights must be positive and strictly increasing")

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

    @classmethod
    def from_outcome(cls, cycle: int, model_id: str, setting: ReducedSetting, outcome):
        """The entry for a segment that trained ``model_id`` up to
        ``setting.epochs`` epochs."""
        return cls(
            cycle=cycle,
            model_id=model_id,
            setting=format_label(setting),
            accuracy=outcome.accuracy,
            train_accuracy=outcome.train_accuracy,
            epochs_trained=setting.epochs,
        )

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


def _rank_weighted_choice(pool: list, rng) -> Candidate:
    """Linear rank weighting: the best of n candidates has weight n, the
    worst weight 1."""
    ranked = sorted(pool, key=lambda cand: (-cand.accuracy, cand.seq))
    n = len(ranked)
    total = n * (n + 1) / 2.0
    x = rng.random() * total
    weight = n
    for cand in ranked:
        if x < weight:
            return cand
        x -= weight
        weight -= 1
    return ranked[-1]


def sample_parent(
    tiers: PopulationTiers, weights: tuple[float, float, float], rng
) -> Candidate:
    """Pick a tier with probability proportional to its weight (renormalized
    over non-empty tiers), then a member by linear rank weighting."""
    pools = [
        (tiers.tier_e, weights[0]),
        (tiers.tier_2e, weights[1]),
        (tiers.tier_3e, weights[2]),
    ]
    nonempty = [(pool, w) for pool, w in pools if pool]
    if not nonempty:
        raise SearchError("cannot sample a parent: all tiers are empty")
    total = sum(w for _, w in nonempty)
    x = rng.random() * total
    chosen = nonempty[-1][0]
    for pool, w in nonempty:
        if x < w:
            chosen = pool
            break
        x -= w
    return _rank_weighted_choice(chosen, rng)


def remove_dead(tiers: PopulationTiers, cfg: EcoNasConfig) -> None:
    """Aging: truncate each tier to capacity by dropping the OLDEST members
    (smallest birth cycle, then insertion order), regardless of accuracy."""
    for pool, cap in (
        (tiers.tier_e, cfg.capacity_e),
        (tiers.tier_2e, cfg.capacity_2e),
        (tiers.tier_3e, cfg.capacity_3e),
    ):
        excess = len(pool) - cap
        if excess <= 0:
            continue
        doomed = {
            id(c)
            for c in sorted(pool, key=lambda cand: (cand.birth_cycle, cand.seq))[:excess]
        }
        pool[:] = [c for c in pool if id(c) not in doomed]


def _evaluate_jobs(evaluator, jobs, workers: int):
    """Run evaluation jobs, returning (result | exception) per slot in order."""

    def run(job):
        g, setting, start, end, token = job
        return evaluator.evaluate(g, setting, start, end, token)

    outcomes = []
    if workers <= 1 or len(jobs) <= 1:
        for job in jobs:
            try:
                outcomes.append(run(job))
            except EvaluatorFailure as exc:
                outcomes.append(exc)
        return outcomes
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run, job) for job in jobs]
        for future in futures:
            try:
                outcomes.append(future.result())
            except EvaluatorFailure as exc:
                outcomes.append(exc)
    return outcomes


def promote(
    tiers: PopulationTiers,
    evaluator: Evaluator,
    n: int,
    from_tier: str,
    setting: ReducedSetting,
    cfg: EcoNasConfig,
    cycle: int = 0,
    history: Optional[list] = None,
    workers: int = 1,
) -> None:
    """Train the top min(n, tier size) candidates of ``from_tier`` for one
    more epoch unit and move them to the next tier; a failed evaluation
    leaves its candidate where it was."""
    if from_tier == "e":
        source, target = tiers.tier_e, tiers.tier_2e
    elif from_tier == "2e":
        source, target = tiers.tier_2e, tiers.tier_3e
    else:
        raise SearchError("promotions only run from tier 'e' or '2e'")
    if n <= 0 or not source:
        return
    chosen = sorted(source, key=lambda cand: (-cand.accuracy, cand.seq))[:n]
    jobs = [
        (
            c.genotype,
            setting.with_epochs(c.epochs_trained + cfg.epoch_unit),
            c.epochs_trained,
            c.epochs_trained + cfg.epoch_unit,
            c.resume_token,
        )
        for c in chosen
    ]
    outcomes = _evaluate_jobs(evaluator, jobs, workers)
    for cand, outcome in zip(chosen, outcomes):
        if isinstance(outcome, EvaluatorFailure):
            logger.warning(
                "promotion of %s failed, leaving it in tier %s: %s",
                cand.model_id[:12],
                from_tier,
                outcome,
            )
            continue
        cand.epochs_trained += cfg.epoch_unit
        cand.accuracy = outcome.accuracy
        cand.resume_token = outcome.resume_token
        source[:] = [c for c in source if c is not cand]
        target.append(cand)
        if history is not None:
            history.append(
                HistoryEntry.from_outcome(
                    cycle, cand.model_id, setting.with_epochs(cand.epochs_trained), outcome
                )
            )


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
    tiers: PopulationTiers
    history: list
    genotypes: dict
    seq_counter: int
    next_cycle: int  # 0 = initialization still pending


class SearchEngine:
    """Owner of all mutable search state; see :func:`econas_search`."""

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
        self.workers = max(1, workers)
        self.checkpoint_path = checkpoint_path
        self.algorithm = algorithm
        self.state = _EngineState(
            tiers=PopulationTiers(),
            history=[],
            genotypes={},
            seq_counter=0,
            next_cycle=0,
        )

    # -- lifecycle ---------------------------------------------------------

    def run(self, stop_after_cycle: Optional[int] = None) -> SearchResult:
        if self.state.next_cycle == 0:
            self._initialize()
            self._write_checkpoint()
        while self.state.next_cycle <= self.cfg.cycles:
            if stop_after_cycle is not None and self.state.next_cycle > stop_after_cycle:
                break
            self._run_cycle(self.state.next_cycle)
            self.state.next_cycle += 1
            self._write_checkpoint()
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
        self.state.genotypes.setdefault(mid, genotype)
        return mid

    def _initialize(self) -> None:
        cfg = self.cfg
        span = cfg.epoch_unit
        setting = self.setting_base.with_epochs(span)
        genotypes = []
        for i in range(cfg.n_init):
            rng = derive_rng(cfg.seed, "init", i)
            genotypes.append(
                random_genotype(rng, self.network, self.op_set, self.output_rule)
            )
        jobs = [(g, setting, 0, span, None) for g in genotypes]
        outcomes = _evaluate_jobs(self.evaluator, jobs, self.workers)
        survivors = 0
        for g, outcome in zip(genotypes, outcomes):
            mid = self._register(g)
            if isinstance(outcome, EvaluatorFailure):
                logger.warning("initial model %s dropped: %s", mid[:12], outcome)
                continue
            survivors += 1
            self.state.history.append(HistoryEntry.from_outcome(0, mid, setting, outcome))
            self._insert_tier_e(g, mid, outcome, birth_cycle=0)
        if survivors == 0:
            raise SearchError("every initial evaluation failed")
        self.state.next_cycle = 1

    def _live_hashes(self) -> set:
        return {c.model_id for c in self.state.tiers.all_candidates()}

    def _insert_tier_e(self, g: Genotype, mid: str, outcome, birth_cycle: int) -> None:
        # One live candidate per architecture: a rediscovered hash is logged
        # to history by the caller but does not enter the tiers twice.
        if mid in self._live_hashes():
            return
        self.state.tiers.tier_e.append(
            Candidate(
                genotype=g,
                model_id=mid,
                accuracy=outcome.accuracy,
                epochs_trained=self.cfg.epoch_unit,
                birth_cycle=birth_cycle,
                seq=self.state.seq_counter,
                resume_token=outcome.resume_token,
            )
        )
        self.state.seq_counter += 1

    def _run_cycle(self, cycle: int) -> None:
        cfg = self.cfg
        span = cfg.epoch_unit
        setting = self.setting_base.with_epochs(span)

        # Parents are sampled against the cycle-start population so the N0
        # mutant jobs are independent of each other.
        children = []
        for slot in range(cfg.mutants_per_cycle):
            rng = derive_rng(cfg.seed, "cycle", cycle, "slot", slot)
            parent = sample_parent(self.state.tiers, cfg.tier_weights, rng)
            try:
                children.append(mutate(parent.genotype, rng))
            except GenotypeError as exc:
                logger.warning("mutation failed in cycle %d slot %d: %s", cycle, slot, exc)
                children.append(None)

        jobs = [(g, setting, 0, span, None) for g in children if g is not None]
        outcomes = iter(_evaluate_jobs(self.evaluator, jobs, self.workers))
        failures = 0
        for g in children:
            if g is None:
                failures += 1
                continue
            outcome = next(outcomes)
            mid = self._register(g)
            if isinstance(outcome, EvaluatorFailure):
                failures += 1
                logger.warning("child %s dropped in cycle %d: %s", mid[:12], cycle, outcome)
                continue
            self.state.history.append(HistoryEntry.from_outcome(cycle, mid, setting, outcome))
            self._insert_tier_e(g, mid, outcome, birth_cycle=cycle)
        if failures >= cfg.mutants_per_cycle:
            raise SearchError("all %d child evaluations failed in cycle %d" % (failures, cycle))

        promote(
            self.state.tiers,
            self.evaluator,
            cfg.promote_to_2e,
            "e",
            self.setting_base,
            cfg,
            cycle=cycle,
            history=self.state.history,
            workers=self.workers,
        )
        promote(
            self.state.tiers,
            self.evaluator,
            cfg.promote_to_3e,
            "2e",
            self.setting_base,
            cfg,
            cycle=cycle,
            history=self.state.history,
            workers=self.workers,
        )
        remove_dead(self.state.tiers, cfg)

    # -- checkpointing -------------------------------------------------------

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
            "seq_counter": st.seq_counter,
            "genotypes": {mid: encode(g) for mid, g in sorted(st.genotypes.items())},
            "tiers": {
                _tier_key(f): [
                    {k: getattr(c, k) for k in _CANDIDATE_KEYS}
                    for c in getattr(st.tiers, f.name)
                ]
                for f in fields(PopulationTiers)
            },
            "history": [{k: getattr(h, k) for k in _HISTORY_KEYS} for h in st.history],
        }

    def _write_checkpoint(self) -> None:
        if self.checkpoint_path is None:
            return
        tmp = self.checkpoint_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.checkpoint_obj(), fh, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, self.checkpoint_path)

    def load_checkpoint_obj(self, obj: dict) -> None:
        """Restore state from a checkpoint; a ``"ledger"`` section written by
        older versions is ignored, since the ledger is derived from history."""
        for key, expected in self._checkpoint_header().items():
            if obj.get(key) != expected:
                raise SearchError(
                    "checkpoint %s %r does not match the requested %r"
                    % (key, obj.get(key), expected)
                )
        genotypes = {mid: decode(doc) for mid, doc in obj["genotypes"].items()}
        tiers = {
            f.name: [
                Candidate(genotype=genotypes[c["model_id"]], **c)
                for c in obj["tiers"][_tier_key(f)]
            ]
            for f in fields(PopulationTiers)
        }
        self.state = _EngineState(
            tiers=PopulationTiers(**tiers),
            history=[HistoryEntry(**h) for h in obj["history"]],
            genotypes=genotypes,
            seq_counter=obj["seq_counter"],
            next_cycle=obj["next_cycle"],
        )


_CANDIDATE_KEYS = tuple(f.name for f in fields(Candidate) if f.name != "genotype")
_HISTORY_KEYS = tuple(f.name for f in fields(HistoryEntry))


def _tier_key(tier_field) -> str:
    """Checkpoint key of a PopulationTiers field: 'tier_2e' -> '2e'."""
    return tier_field.name.removeprefix("tier_")


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
    evaluator: Evaluator,
    cfg: EcoNasConfig,
    setting_base: ReducedSetting,
    op_set: OperationSet = SEARCH8,
    network: Optional[NetworkConfig] = None,
    output_rule: OutputRule = OutputRule.UNUSED_ONLY,
    workers: int = 1,
    checkpoint_path: Optional[str] = None,
) -> SearchResult:
    """Run the full hierarchical-proxy search; see the module docstring."""
    engine = SearchEngine(
        evaluator,
        cfg,
        setting_base,
        op_set=op_set,
        network=network,
        output_rule=output_rule,
        workers=workers,
        checkpoint_path=checkpoint_path,
    )
    return engine.run()


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


def flat_baseline_search(
    evaluator: Evaluator,
    cfg: FlatConfig,
    setting: ReducedSetting,
    op_set: OperationSet = SEARCH8,
    network: Optional[NetworkConfig] = None,
    output_rule: OutputRule = OutputRule.UNUSED_ONLY,
    workers: int = 1,
    checkpoint_path: Optional[str] = None,
) -> SearchResult:
    """Single-proxy regularized-evolution baseline with the same history and
    ledger semantics: every model trains the full fixed epoch budget."""
    engine = SearchEngine(
        evaluator,
        flat_config_to_econas(cfg),
        setting.with_epochs(cfg.epochs),
        op_set=op_set,
        network=network,
        output_rule=output_rule,
        workers=workers,
        checkpoint_path=checkpoint_path,
        algorithm="flat",
    )
    return engine.run()


def resolve_op_set(name: str) -> OperationSet:
    if name not in BUILTIN_OP_SETS:
        raise SearchError(
            "unknown op set %r (choose from %s)" % (name, sorted(BUILTIN_OP_SETS))
        )
    return BUILTIN_OP_SETS[name]

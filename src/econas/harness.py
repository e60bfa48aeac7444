"""Workflow layer behind the CLI: zoo directories, experiment manifests,
resumable grid evaluation, search runs with checkpoints, and the bridge
self-test. Every workflow is deterministic for fixed inputs and seeds; all
primary outputs are byte-identical across reruns.
"""

from __future__ import annotations

import logging
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from operator import itemgetter
from typing import Optional

from . import analysis, documents
from .bridge import EVALUATOR_TIMEOUT, ExternalEvaluator
from .documents import json_scalar
from .evaluator import Evaluator, EvaluatorFailure
from .genotype import (
    BUILTIN_OP_SETS,
    Genotype,
    NetworkConfig,
    OperationSet,
    OutputRule,
    ParseError,
    ZOO13,
    decode,
    decode_stored,
    encode,
    random_genotype,
)
from .proxy import (
    BUILTIN_TABLES,
    ReducedSetting,
    ReductionTable,
    format_label,
    parse_label,
    resolve_table,
)
from .records import (
    EvaluationRecord,
    append_records,
    read_fields,
    truncate_torn_tail,
    write_log,
)
from .search import (
    EcoNasConfig,
    FlatConfig,
    LedgerEntry,
    SearchEngine,
    SearchResult,
    _evaluate_jobs,
    flat_config_to_econas,
    resolve_op_set,
)
from .seeding import derive_rng
from .surrogate import SurrogateEvaluator, SurrogateParams, space_size

logger = logging.getLogger(__name__)

ZOO_INDEX_NAME = "index.json"


class HarnessError(RuntimeError):
    pass


# -- model zoo -----------------------------------------------------------------


@dataclass(frozen=True)
class ZooEntry:
    hash: str
    file: str


@dataclass(frozen=True)
class ZooIndex:
    op_set: str
    node_count: int
    output_rule: OutputRule
    seed: int
    count: int
    models: tuple[ZooEntry, ...]

    def __post_init__(self):
        if self.count != len(self.models):
            raise HarnessError("count %d, but %d models listed" % (self.count, len(self.models)))


def zoo_generate(
    out_dir: str,
    count: int = 50,
    node_count: int = 5,
    op_set: OperationSet = ZOO13,
    seed: int = 7,
    output_rule: OutputRule = OutputRule.ALL_INTERMEDIATE,
    force: bool = False,
) -> list[tuple[str, str]]:
    """Write ``count`` distinct random genotypes plus an index; idempotent
    for a fixed seed (same bytes every run). A ``count`` beyond the number
    of distinct genotypes of ``node_count`` nodes over ``op_set`` is an
    error."""
    limit = space_size(node_count, len(op_set.members))
    if count > limit:
        raise HarnessError(
            "cannot draw %d distinct genotypes: %d nodes over op set %s give only %d"
            % (count, node_count, op_set.name, limit)
        )
    os.makedirs(out_dir, exist_ok=True)
    if any(name.endswith(".json") for name in os.listdir(out_dir)) and not force:
        raise HarnessError(
            "output directory %s already holds zoo files; pass force to overwrite"
            % out_dir
        )
    network = NetworkConfig(node_count=node_count)
    entries = []
    seen = set()
    for i in range(count):
        attempt = 0
        while True:
            rng = derive_rng(seed, "zoo", i, attempt)
            g = random_genotype(rng, network, op_set, output_rule)
            if g.content_hash not in seen:
                break
            attempt += 1
        seen.add(g.content_hash)
        filename = g.content_hash[:16] + ".json"
        # Written in place: index.json, written last, is what makes a zoo readable.
        with open(os.path.join(out_dir, filename), "w", encoding="utf-8") as fh:
            fh.write(encode(g))
        entries.append((g.content_hash, filename))
    index = ZooIndex(op_set.name, node_count, output_rule, seed, count, tuple(
        ZooEntry(h, f) for h, f in entries
    ))
    documents.write(os.path.join(out_dir, ZOO_INDEX_NAME), "zoo_index", asdict(index))
    return entries


def load_zoo(zoo_dir: str) -> list[tuple[str, Genotype]]:
    index_path = os.path.join(zoo_dir, ZOO_INDEX_NAME)
    index = documents.load(index_path, "zoo_index", ZooIndex, HarnessError)
    models = []
    for entry in index.models:
        with open(os.path.join(zoo_dir, entry.file), "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            # A file as zoo_generate wrote it is the document of its id.
            g = decode_stored(entry.hash, text)
        except ParseError:
            # Any other file must decode to the genotype of that id.
            g = decode(text)
            if g.content_hash != entry.hash:
                raise HarnessError("zoo file %s does not match its indexed hash" % entry.file)
        models.append((entry.hash, g))
    return models


# -- experiment manifest ---------------------------------------------------------


@dataclass
class ExperimentManifest:
    table: ReductionTable
    settings: list[ReducedSetting]
    zoo_dir: str
    evaluator_spec: str
    seed: int
    output_log: str
    surrogate_params: Optional[SurrogateParams] = None
    workers: int = 1
    evaluator_timeout: float = EVALUATOR_TIMEOUT

    def setting_labels(self) -> list[str]:
        return [format_label(s) for s in self.settings]


@dataclass(frozen=True)
class _Grid:
    """Setting-grid levels; a list left out spans the table's ladder."""

    c: Optional[tuple[int, ...]] = None
    r: Optional[tuple[int, ...]] = None
    s: Optional[tuple[int, ...]] = None
    epochs: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class _GridSettings:
    grid: _Grid = _Grid()
    include: tuple[str, ...] = ()


def _resolve_settings(spec, table: ReductionTable) -> list[ReducedSetting]:
    settings: list[ReducedSetting] = []
    if isinstance(spec, dict):
        spec = documents.build(_GridSettings, spec)
        g, labels = spec.grid, spec.include
        # Default sample-ratio levels stop at 0.5: the canonical evaluation
        # universe is 25 channel x resolution combos x 2 ratios x 4 epoch
        # choices = 200 settings. Deeper ratios are opt-in.
        settings = table.grid(
            g.epochs, c=g.c, r=g.r,
            s=g.s if g.s is not None else range(min(2, len(table.sample_ratios))),
        )
        for setting in settings:
            table.validate_setting(setting)
    else:
        labels = documents.convert(tuple[str, ...], spec)
    settings += [parse_label(lbl, table) for lbl in labels]
    if not settings:
        raise HarnessError("the settings resolve to an empty list")
    return sorted(set(settings))


@dataclass(frozen=True)
class _ManifestDocument:
    """The keys of an experiment manifest."""

    table: str
    zoo: str
    output_log: str
    settings: object  # a list of labels or a grid object
    evaluator: str = "surrogate"
    seed: int = 0
    surrogate_params: Optional[str] = None
    workers: int = 1
    evaluator_timeout: float = EVALUATOR_TIMEOUT

    def __post_init__(self):
        _check_shared_keys(self)


def _check_shared_keys(doc) -> None:
    """The checks a manifest and a search config share."""
    if doc.workers < 1:
        raise HarnessError("workers must be positive")
    if not doc.evaluator_timeout > 0:
        raise HarnessError("evaluator_timeout must be a positive number of seconds")


def _companions(base: str, doc) -> tuple[ReductionTable, Optional[SurrogateParams]]:
    """The table and surrogate parameters a manifest or search config names;
    a table that is not built in is a path, like the params, relative to the
    directory ``base``."""
    with documents.at_key("table"):
        table = resolve_table(
            doc.table if doc.table in BUILTIN_TABLES else os.path.join(base, doc.table)
        )
    with documents.at_key("surrogate_params"):
        params = (
            SurrogateParams.load(os.path.join(base, doc.surrogate_params))
            if doc.surrogate_params
            else None
        )
    return table, params


def load_manifest(path: str) -> ExperimentManifest:
    """Read an ``experiment_manifest`` document; the paths it holds are
    relative to its own directory."""
    with documents.reading(path, HarnessError):
        fields = documents.read(path, "experiment_manifest")
    return resolve_manifest(fields, path, os.path.dirname(os.path.abspath(path)))


def resolve_manifest(fields: dict, source: str, base: str) -> ExperimentManifest:
    """The run that the manifest keys ``fields`` describe, with paths relative
    to the directory ``base`` ("" for the working directory); any fault is a
    HarnessError that names ``source`` and the key."""
    with documents.reading(source, HarnessError):
        doc = documents.build(_ManifestDocument, fields)
        table, params = _companions(base, doc)
        with documents.at_key("zoo"):
            zoo_dir = os.path.join(base, doc.zoo)
            if not os.path.isdir(zoo_dir):
                raise HarnessError("zoo directory %s does not exist" % zoo_dir)
        with documents.at_key("settings"):
            settings = _resolve_settings(doc.settings, table)
    return ExperimentManifest(
        table=table,
        settings=settings,
        zoo_dir=zoo_dir,
        evaluator_spec=doc.evaluator,
        seed=doc.seed,
        output_log=os.path.join(base, doc.output_log),
        surrogate_params=params,
        workers=doc.workers,
        evaluator_timeout=doc.evaluator_timeout,
    )


def make_evaluator(
    spec: str,
    table: ReductionTable,
    params: Optional[SurrogateParams] = None,
    seed: int = 0,
    timeout: float = EVALUATOR_TIMEOUT,
) -> Evaluator:
    """'surrogate' for the in-process bench, 'cmd:<command line>' for an
    external trainer speaking the wire protocol: one child of the command
    per concurrent evaluation, started lazily, so a search with N workers
    runs up to N children, each given ``timeout`` seconds per reply."""
    if spec == "surrogate":
        p = params if params is not None else SurrogateParams().with_seed(seed)
        return SurrogateEvaluator(p, table)
    if spec.startswith("cmd:"):
        command = spec[len("cmd:") :].strip()
        if not command:
            raise HarnessError("empty evaluator command")
        return ExternalEvaluator(command, timeout=timeout)
    raise HarnessError("unknown evaluator spec %r" % spec)


@contextmanager
def _evaluator(evaluator: Optional[Evaluator], *spec):
    """Yield ``evaluator`` or, if it is None, ``make_evaluator(*spec)``; an
    ExternalEvaluator made here is closed however the block ends."""
    made = make_evaluator(*spec) if evaluator is None else None
    try:
        yield evaluator if made is None else made
    finally:
        if isinstance(made, ExternalEvaluator):
            made.close()


# -- grid evaluation -------------------------------------------------------------


def zoo_evaluate(
    manifest: ExperimentManifest,
    evaluator: Optional[Evaluator] = None,
    resume: bool = True,
) -> tuple[int, int, int]:
    """Evaluate every (model, setting) pair of the grid into the output log.

    Pairs already present in the log are skipped (resume); a last line cut
    short by a crash mid-append is dropped with a warning. The pending pairs
    run as one batch in (model_id, setting label) order, the log's canonical
    order, and their records are appended after the whole batch finishes. A
    log this call created is then already sorted and stays as appended; any
    other log is rewritten from the records in hand, sorted by (model_id,
    setting), so the final bytes never depend on scheduling or on what an
    earlier run left. With ``resume`` off every pair runs again and the
    rewrite replaces any old log, which then holds exactly the fresh
    records. Without an ``evaluator`` one is made from the manifest and
    closed when the batch ends, however it ends. Returns (completed,
    failed, total-in-grid).
    """
    models = load_zoo(manifest.zoo_dir)
    log = manifest.output_log
    labelled = sorted(((format_label(s), s) for s in manifest.settings), key=itemgetter(0))
    total = len(models) * len(labelled)
    existed = os.path.exists(log)
    existing: dict[tuple[str, str], tuple] = {}
    if resume and existed:
        if truncate_torn_tail(log):
            logger.warning("dropped an unfinished last line from %s; its pair runs again", log)
        existing = read_fields(log)
    # The pending pairs as (model id, label) and their evaluator jobs.
    keys, jobs = [], []
    for mid, g in sorted(models):
        for label, setting in labelled:
            if (mid, label) not in existing:
                keys.append((mid, label))
                jobs.append((g, setting, 0, setting.epochs, None))

    with _evaluator(
        evaluator, manifest.evaluator_spec, manifest.table, manifest.surrogate_params,
        manifest.seed, manifest.evaluator_timeout,
    ) as ev:
        outcomes = _evaluate_jobs(ev, jobs, manifest.workers)
    os.makedirs(os.path.dirname(os.path.abspath(log)), exist_ok=True)
    failed = 0
    completed = total - len(jobs)
    fresh = []
    for (mid, label), (_, setting, *_), outcome in zip(keys, jobs, outcomes):
        if isinstance(outcome, EvaluatorFailure):
            failed += 1
            logger.warning("evaluation failed for %s at %s: %s", mid[:12], label, outcome)
            continue
        fresh.append(EvaluationRecord(
            mid, label, outcome.accuracy, outcome.train_accuracy, setting.epochs
        ))
    del outcomes  # the rewrite below holds every record; keep the peak low
    completed += len(fresh)
    # Without resume the rewrite replaces the old log whole; appending to
    # it first would pair its stale records with the fresh ones.
    if fresh and resume:
        append_records(log, fresh)
    # The batch ran in canonical order, so a log the append created is
    # sorted already; any other log is rewritten in that order.
    if existed or (fresh and not resume):
        fresh += [EvaluationRecord(*fields) for fields in existing.values()]
        fresh.sort(key=EvaluationRecord.key)
        write_log(log, fresh)
    return completed, failed, total


# -- search command ----------------------------------------------------------------


@dataclass
class SearchCommandConfig:
    algorithm: str
    table: ReductionTable
    setting: ReducedSetting
    evaluator_spec: str
    op_set: OperationSet
    network: NetworkConfig
    output_rule: OutputRule
    workers: int
    engine_config: EcoNasConfig  # a flat config is converted on loading
    surrogate_params: Optional[SurrogateParams]
    evaluator_timeout: float


@dataclass(frozen=True)
class _SearchDocument:
    """The keys of a search config; ``config`` holds the engine's fields."""

    algorithm: str = "hierarchical"
    table: str = "cifar10"
    setting: str = "c4r4s0"
    evaluator: str = "surrogate"
    op_set: str = "search8"
    node_count: int = NetworkConfig.for_search().node_count
    stack_n: int = NetworkConfig.for_search().stack_n
    output_rule: OutputRule = OutputRule.UNUSED_ONLY
    workers: int = 1
    config: dict[str, object] = field(default_factory=dict)
    surrogate_params: Optional[str] = None
    evaluator_timeout: float = EVALUATOR_TIMEOUT

    def __post_init__(self):
        if self.algorithm not in ("hierarchical", "flat"):
            raise HarnessError("algorithm must be 'hierarchical' or 'flat'")
        _check_shared_keys(self)


def load_search_config(path: str) -> SearchCommandConfig:
    """Read a ``search_config`` document; the paths it holds are relative to
    its own directory."""
    with documents.reading(path, HarnessError):
        doc = documents.build(_SearchDocument, documents.read(path, "search_config"))
        table, params = _companions(os.path.dirname(os.path.abspath(path)), doc)
        with documents.at_key("setting"):  # the engine substitutes each span's epochs
            setting = parse_label(doc.setting if "e" in doc.setting else doc.setting + "e1", table)
        with documents.at_key("op_set"):
            op_set = resolve_op_set(doc.op_set)
        with documents.at_key("config"):
            if doc.algorithm == "hierarchical":
                engine = documents.build(EcoNasConfig, doc.config)
            else:
                engine = flat_config_to_econas(documents.build(FlatConfig, doc.config))
        network = NetworkConfig(doc.node_count, doc.stack_n)
    return SearchCommandConfig(
        algorithm=doc.algorithm,
        table=table,
        setting=setting,
        evaluator_spec=doc.evaluator,
        op_set=op_set,
        network=network,
        output_rule=doc.output_rule,
        workers=doc.workers,
        engine_config=engine,
        surrogate_params=params,
        evaluator_timeout=doc.evaluator_timeout,
    )


def run_search(
    cfg: SearchCommandConfig,
    out_dir: str,
    resume: bool = False,
    force: bool = False,
    evaluator: Optional[Evaluator] = None,
    stop_after_cycle: Optional[int] = None,
) -> SearchResult:
    """Run (or resume, :meth:`SearchEngine.load_checkpoint`) a search into
    ``out_dir`` with ``cfg.workers`` workers up to ``stop_after_cycle``,
    checkpointing each cycle (see :class:`SearchEngine`); a resume never
    rewinds. History, ledger, summary and the top genotype files are
    written if and only if the search is then finished. Without an
    ``evaluator`` one is made from ``cfg`` after any refusal of a present
    checkpoint, and closed however the resume and the run end."""
    os.makedirs(out_dir, exist_ok=True)
    checkpoint_path = os.path.join(out_dir, "checkpoint.json")
    if os.path.exists(checkpoint_path) and not resume and not force:
        raise HarnessError(
            "checkpoint already present in %s; pass resume to continue or "
            "force to start over" % out_dir
        )
    with _evaluator(
        evaluator, cfg.evaluator_spec, cfg.table, cfg.surrogate_params, cfg.engine_config.seed,
        cfg.evaluator_timeout,
    ) as ev:
        engine = SearchEngine(
            ev, cfg.engine_config, cfg.setting, op_set=cfg.op_set, network=cfg.network,
            output_rule=cfg.output_rule, workers=cfg.workers, checkpoint_path=checkpoint_path,
            algorithm=cfg.algorithm,
        )
        if resume and os.path.exists(checkpoint_path):
            engine.load_checkpoint()
        result = engine.run(stop_after_cycle=stop_after_cycle)
    if engine.state.next_cycle > cfg.engine_config.cycles:
        write_search_outputs(result, cfg, out_dir)
    return result


def _ledger_line(entry: LedgerEntry) -> str:
    """The entry's ``ledger.jsonl`` line: the bytes of
    ``documents.json_line(asdict(entry))``, formatted directly because the
    schema is fixed."""
    return '{"cycle": %s, "end_epoch": %s, "model_id": %s, "start_epoch": %s}\n' % (
        json_scalar(entry.cycle),
        json_scalar(entry.end_epoch),
        json_scalar(entry.model_id),
        json_scalar(entry.start_epoch),
    )


def write_search_outputs(result: SearchResult, cfg: SearchCommandConfig, out_dir: str) -> None:
    write_log(os.path.join(out_dir, "history.jsonl"), result.history_records())
    ledger = result.ledger
    documents.write_lines(
        os.path.join(out_dir, "ledger.jsonl"), "budget_ledger", ledger.entries, _ledger_line
    )
    summary = {
        "algorithm": cfg.algorithm,
        "setting": format_label(cfg.setting),
        "models_trained_from_scratch": ledger.from_scratch_models,
        "total_trained_epochs": ledger.total_epochs,
        "history_entries": len(result.history),
        "top": [
            {
                "rank": i + 1,
                "model_id": t.model_id,
                "accuracy": t.accuracy,
                "epochs_trained": t.epochs_trained,
                "file": "top/rank%d_%s.json" % (i + 1, t.model_id[:16]),
            }
            for i, t in enumerate(result.top)
        ],
    }
    top_dir = os.path.join(out_dir, "top")
    os.makedirs(top_dir, exist_ok=True)
    for i, t in enumerate(result.top):
        path = os.path.join(top_dir, "rank%d_%s.json" % (i + 1, t.model_id[:16]))
        with documents.replacing(path) as fh:
            fh.write(encode(t.genotype))
    documents.write(os.path.join(out_dir, "summary.json"), "search_summary", summary)


# -- analyze command -----------------------------------------------------------------


def run_analyze(
    log_path: str,
    gt_label: str,
    out_dir: str,
    table: ReductionTable,
    top_k: int = 10,
    windows=(15, 20),
    tolerant_b: float = 0.0015,
    rho_f_sizes=None,
    rho_f_trials: int = 100,
    seed: int = 0,
    allow_duplicates: bool = False,
):
    columns = analysis.read_columns(
        log_path, on_duplicate="keep_last" if allow_duplicates else "error"
    )
    report = analysis.build_report(
        columns, gt_label, table, top_k=top_k, windows=windows, tolerant_b=tolerant_b
    )
    rho_f = None
    if rho_f_sizes:
        rho_f = analysis.rho_f_curve(
            columns, gt_label, rho_f_sizes, trials=rho_f_trials, seed=seed
        )
    paths = analysis.write_report_files(report, out_dir, rho_f=rho_f)
    return report, paths


# -- bridge self-test -----------------------------------------------------------------


def default_serve_command(table_name: str, seed: int, params_path: Optional[str] = None) -> list:
    command = [sys.executable, "-m", "econas.cli", "surrogate-serve", "--table", table_name]
    command += ["--seed", str(seed)] + (["--params", params_path] if params_path else [])
    return command


def bridge_selftest(
    command, table: ReductionTable, params: Optional[SurrogateParams], seed: int, checks: int
) -> list[str]:
    """Spawn ``command``, which serves a surrogate over the wire protocol, and
    verify it answers exactly like the in-process surrogate that
    :func:`make_evaluator` makes of ``table``, ``params`` and ``seed``,
    including a resumed evaluation. Returns human-readable check lines;
    raises HarnessError on mismatch.
    """
    local = make_evaluator("surrogate", table, params, seed)
    lines = []
    with ExternalEvaluator(command, timeout=30.0) as remote:
        if not remote.ping():
            raise HarnessError("bridge ping failed")
        lines.append("ping: ok")
        network = NetworkConfig(node_count=4)
        setting = ReducedSetting(
            len(table.channels) - 1, len(table.resolutions) - 1, 0, 1
        )
        for i in range(checks):
            g = random_genotype(
                derive_rng(seed, "selftest", i), network, BUILTIN_OP_SETS["search8"],
                OutputRule.UNUSED_ONLY,
            )
            span = 5 * (i + 1)
            mine = local.evaluate(g, setting.with_epochs(span), 0, span)
            theirs = remote.evaluate(g, setting.with_epochs(span), 0, span)
            if mine != theirs:
                raise HarnessError(
                    "bridge mismatch on check %d: %r vs %r" % (i, mine, theirs)
                )
            resumed = remote.evaluate(
                g, setting.with_epochs(2 * span), span, 2 * span, theirs.resume_token
            )
            direct = local.evaluate(g, setting.with_epochs(2 * span), 0, 2 * span)
            if (
                resumed.accuracy != direct.accuracy
                or resumed.train_accuracy != direct.train_accuracy
            ):
                raise HarnessError("bridge resume mismatch on check %d" % i)
            lines.append("evaluate+resume %d: ok (accuracy %.6f)" % (i, mine.accuracy))
    lines.append("bridge-selftest: all %d checks passed" % checks)
    return lines

"""Workflow layer behind the CLI: zoo directories, experiment manifests,
resumable grid evaluation, search runs with checkpoints, and the bridge
self-test. Every workflow is deterministic for fixed inputs and seeds; all
primary outputs are byte-identical across reruns.
"""

from __future__ import annotations

import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional, get_type_hints

from . import analysis
from .bridge import ExternalEvaluator
from .evaluator import Evaluator, EvaluatorFailure
from .genotype import (
    BUILTIN_OP_SETS,
    Genotype,
    NetworkConfig,
    OperationSet,
    OutputRule,
    ZOO13,
    decode,
    encode,
    random_genotype,
)
from .proxy import (
    ReducedSetting,
    ReductionTable,
    format_label,
    parse_label,
    resolve_table,
)
from .records import EvaluationRecord, append_records, read_log, write_log
from .search import (
    EcoNasConfig,
    FlatConfig,
    SearchEngine,
    SearchResult,
    _evaluate_jobs,
    flat_config_to_econas,
    resolve_op_set,
)
from .seeding import derive_rng
from .surrogate import SurrogateEvaluator, SurrogateParams

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1
ZOO_INDEX_NAME = "index.json"


class HarnessError(RuntimeError):
    pass


# -- model zoo -----------------------------------------------------------------


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
    for a fixed seed (same bytes every run)."""
    os.makedirs(out_dir, exist_ok=True)
    existing = [
        name
        for name in os.listdir(out_dir)
        if name == ZOO_INDEX_NAME or name.endswith(".json")
    ]
    if existing and not force:
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
        with open(os.path.join(out_dir, filename), "w", encoding="utf-8") as fh:
            fh.write(encode(g))
        entries.append((g.content_hash, filename))
    index = {
        "schema_version": SCHEMA_VERSION,
        "kind": "zoo_index",
        "op_set": op_set.name,
        "node_count": node_count,
        "output_rule": output_rule.value,
        "seed": seed,
        "count": count,
        "models": [{"hash": h, "file": f} for h, f in entries],
    }
    with open(os.path.join(out_dir, ZOO_INDEX_NAME), "w", encoding="utf-8") as fh:
        json.dump(index, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return entries


def load_zoo(zoo_dir: str) -> list[tuple[str, Genotype]]:
    index_path = os.path.join(zoo_dir, ZOO_INDEX_NAME)
    if not os.path.exists(index_path):
        raise HarnessError("no zoo index at %s" % index_path)
    with open(index_path, "r", encoding="utf-8") as fh:
        index = json.load(fh)
    if index.get("kind") != "zoo_index":
        raise HarnessError("%s is not a zoo index" % index_path)
    models = []
    for entry in index.get("models", []):
        path = os.path.join(zoo_dir, entry["file"])
        with open(path, "r", encoding="utf-8") as fh:
            g = decode(fh.read())
        if g.content_hash != entry["hash"]:
            raise HarnessError(
                "zoo file %s does not match its indexed hash" % entry["file"]
            )
        models.append((g.content_hash, g))
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

    def setting_labels(self) -> list[str]:
        return [format_label(s) for s in self.settings]


def _resolve_settings(spec, table: ReductionTable) -> list[ReducedSetting]:
    settings: list[ReducedSetting] = []
    if isinstance(spec, list):
        settings = [parse_label(str(lbl), table) for lbl in spec]
    elif isinstance(spec, dict):
        grid = spec.get("grid", {})
        c_levels = grid.get("c", list(range(len(table.channels))))
        r_levels = grid.get("r", list(range(len(table.resolutions))))
        # Default sample-ratio levels stop at 0.5: the canonical evaluation
        # universe is 25 channel x resolution combos x 2 ratios x 4 epoch
        # choices = 200 settings. Deeper ratios are opt-in.
        s_levels = grid.get("s", list(range(min(2, len(table.sample_ratios)))))
        epochs = grid.get("epochs", list(table.epoch_choices))
        for a in c_levels:
            for b in r_levels:
                for c in s_levels:
                    for e in epochs:
                        setting = ReducedSetting(int(a), int(b), int(c), int(e))
                        table.validate_setting(setting)
                        settings.append(setting)
        for lbl in spec.get("include", []):
            settings.append(parse_label(str(lbl), table))
    else:
        raise HarnessError("settings must be a list of labels or a grid object")
    unique = sorted(set(settings))
    if not unique:
        raise HarnessError("manifest resolves to an empty setting list")
    return unique


def load_manifest(path: str) -> ExperimentManifest:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if obj.get("kind") != "experiment_manifest":
        raise HarnessError("%s is not an experiment manifest" % path)
    base = os.path.dirname(os.path.abspath(path))

    def respath(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    table = resolve_table(
        obj["table"] if obj["table"] in ("cifar10", "imagenet") else respath(obj["table"])
    )
    zoo_dir = respath(str(obj["zoo"]))
    if not os.path.isdir(zoo_dir):
        raise HarnessError("manifest zoo directory %s does not exist" % zoo_dir)
    params = None
    if obj.get("surrogate_params"):
        params = SurrogateParams.load(respath(str(obj["surrogate_params"])))
    return ExperimentManifest(
        table=table,
        settings=_resolve_settings(obj.get("settings"), table),
        zoo_dir=zoo_dir,
        evaluator_spec=str(obj.get("evaluator", "surrogate")),
        seed=int(obj.get("seed", 0)),
        output_log=respath(str(obj["output_log"])),
        surrogate_params=params,
        workers=int(obj.get("workers", 1)),
    )


def make_evaluator(
    spec: str,
    table: ReductionTable,
    params: Optional[SurrogateParams] = None,
    seed: int = 0,
) -> Evaluator:
    """'surrogate' for the in-process bench, 'cmd:<command line>' for an
    external trainer speaking the wire protocol."""
    if spec == "surrogate":
        p = params if params is not None else SurrogateParams().with_seed(seed)
        return SurrogateEvaluator(p, table)
    if spec.startswith("cmd:"):
        command = spec[len("cmd:") :].strip()
        if not command:
            raise HarnessError("empty evaluator command")
        return ExternalEvaluator(command)
    raise HarnessError("unknown evaluator spec %r" % spec)


# -- grid evaluation -------------------------------------------------------------


def zoo_evaluate(
    manifest: ExperimentManifest,
    evaluator: Optional[Evaluator] = None,
    resume: bool = True,
) -> tuple[int, int, int]:
    """Evaluate every (model, setting) pair of the grid into the output log.

    Pairs already present in the log are skipped (resume). The pending pairs
    run as one batch; their records are appended after the whole batch
    finishes, then the log is rewritten sorted by (model_id, setting) so the
    final bytes never depend on scheduling. Returns (completed, failed,
    total-in-grid).
    """
    models = load_zoo(manifest.zoo_dir)
    own_evaluator = evaluator is None
    if evaluator is None:
        evaluator = make_evaluator(
            manifest.evaluator_spec,
            manifest.table,
            manifest.surrogate_params,
            manifest.seed,
        )
    jobs = [
        (mid, g, setting)
        for mid, g in sorted(models)
        for setting in manifest.settings
    ]
    total = len(jobs)
    done_keys: set[tuple[str, str]] = set()
    existing: list[EvaluationRecord] = []
    if resume and os.path.exists(manifest.output_log):
        existing = read_log(manifest.output_log)
        done_keys = {rec.key() for rec in existing}
    pending = [
        (mid, g, setting)
        for mid, g, setting in jobs
        if (mid, format_label(setting)) not in done_keys
    ]

    failed = 0
    completed = len(done_keys & {(m, format_label(s)) for m, _, s in jobs})
    os.makedirs(os.path.dirname(os.path.abspath(manifest.output_log)), exist_ok=True)
    try:
        outcomes = _evaluate_jobs(
            evaluator,
            [(g, setting, 0, setting.epochs, None) for _, g, setting in pending],
            manifest.workers,
        )
        fresh = []
        for (mid, _, setting), outcome in zip(pending, outcomes):
            label = format_label(setting)
            if isinstance(outcome, EvaluatorFailure):
                failed += 1
                logger.warning("evaluation failed for %s at %s: %s", mid[:12], label, outcome)
                continue
            fresh.append(
                EvaluationRecord(
                    model_id=mid,
                    setting=label,
                    test_accuracy=outcome.accuracy,
                    train_accuracy=outcome.train_accuracy,
                    epochs_trained=setting.epochs,
                )
            )
        del outcomes  # the rewrite below reads every record back; keep the peak low
        completed += len(fresh)
        if fresh:
            append_records(manifest.output_log, fresh)
        # Canonical on-disk order regardless of completion order.
        if os.path.exists(manifest.output_log):
            all_records = read_log(manifest.output_log)
            all_records.sort(key=lambda r: (r.model_id, r.setting))
            write_log(manifest.output_log, all_records)
    finally:
        if own_evaluator and isinstance(evaluator, ExternalEvaluator):
            evaluator.close()
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
    econas: Optional[EcoNasConfig]
    flat: Optional[FlatConfig]
    surrogate_params: Optional[SurrogateParams]

    @property
    def engine_config(self) -> EcoNasConfig:
        if self.algorithm == "hierarchical":
            return self.econas
        return flat_config_to_econas(self.flat)


def _config_from_obj(cls, obj):
    """Build ``cls`` from the search config's ``config`` object. Missing keys
    take the dataclass default; unknown keys and values that do not convert
    to the field's type are rejected."""
    if not isinstance(obj, dict):
        raise HarnessError("search config 'config' must be an object")
    hints = get_type_hints(cls)
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise HarnessError("unknown search config key(s): %s" % ", ".join(unknown))
    kwargs = {}
    for name, value in obj.items():
        hint = hints[name]
        try:
            if value is None and hint == Optional[int]:
                kwargs[name] = None
            elif hint in (int, Optional[int]):
                if isinstance(value, float) and not value.is_integer():
                    raise ValueError(value)
                kwargs[name] = int(value)
            else:  # tier_weights; EcoNasConfig checks its values
                kwargs[name] = tuple(value)
        except (TypeError, ValueError):
            raise HarnessError("search config key %r: bad value %r" % (name, value)) from None
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise HarnessError("search config: %s" % exc) from None


def load_search_config(path: str) -> SearchCommandConfig:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if obj.get("kind") != "search_config":
        raise HarnessError("%s is not a search config" % path)
    base = os.path.dirname(os.path.abspath(path))
    algorithm = obj.get("algorithm", "hierarchical")
    if algorithm not in ("hierarchical", "flat"):
        raise HarnessError("algorithm must be 'hierarchical' or 'flat'")
    table_spec = obj.get("table", "cifar10")
    table = resolve_table(
        table_spec
        if table_spec in ("cifar10", "imagenet")
        else (table_spec if os.path.isabs(table_spec) else os.path.join(base, table_spec))
    )
    raw_setting = str(obj.get("setting", "c4r4s0"))
    if "e" not in raw_setting:
        raw_setting += "e1"  # engine substitutes per-span epochs
    setting = parse_label(raw_setting, table)
    cfg_obj = obj.get("config", {})
    econas_cfg = None
    flat_cfg = None
    if algorithm == "hierarchical":
        econas_cfg = _config_from_obj(EcoNasConfig, cfg_obj)
    else:
        flat_cfg = _config_from_obj(FlatConfig, cfg_obj)
    params = None
    if obj.get("surrogate_params"):
        ppath = str(obj["surrogate_params"])
        params = SurrogateParams.load(ppath if os.path.isabs(ppath) else os.path.join(base, ppath))
    network = replace(
        NetworkConfig.for_search(),
        **{f.name: int(obj[f.name]) for f in fields(NetworkConfig) if f.name in obj},
    )
    return SearchCommandConfig(
        algorithm=algorithm,
        table=table,
        setting=setting,
        evaluator_spec=str(obj.get("evaluator", "surrogate")),
        op_set=resolve_op_set(str(obj.get("op_set", "search8"))),
        network=network,
        output_rule=OutputRule(obj.get("output_rule", "unused_only")),
        workers=int(obj.get("workers", 1)),
        econas=econas_cfg,
        flat=flat_cfg,
        surrogate_params=params,
    )


def run_search(
    cfg: SearchCommandConfig,
    out_dir: str,
    resume: bool = False,
    force: bool = False,
    workers: Optional[int] = None,
    evaluator: Optional[Evaluator] = None,
    stop_after_cycle: Optional[int] = None,
) -> SearchResult:
    """Run (or resume) a search into ``out_dir``: checkpoint each cycle,
    then history, ledger, summary, and the top genotype files on completion."""
    os.makedirs(out_dir, exist_ok=True)
    checkpoint_path = os.path.join(out_dir, "checkpoint.json")
    seed = cfg.engine_config.seed
    own_evaluator = evaluator is None
    if evaluator is None:
        evaluator = make_evaluator(
            cfg.evaluator_spec, cfg.table, cfg.surrogate_params, seed
        )
    engine = SearchEngine(
        evaluator,
        cfg.engine_config,
        cfg.setting,
        op_set=cfg.op_set,
        network=cfg.network,
        output_rule=cfg.output_rule,
        workers=workers if workers is not None else cfg.workers,
        checkpoint_path=checkpoint_path,
        algorithm=cfg.algorithm,
    )
    if os.path.exists(checkpoint_path):
        if not resume and not force:
            raise HarnessError(
                "checkpoint already present in %s; pass resume to continue or "
                "force to start over" % out_dir
            )
        if resume:
            with open(checkpoint_path, "r", encoding="utf-8") as fh:
                engine.load_checkpoint_obj(json.load(fh))
    try:
        result = engine.run(stop_after_cycle=stop_after_cycle)
    finally:
        if own_evaluator and isinstance(evaluator, ExternalEvaluator):
            evaluator.close()
    if stop_after_cycle is None or engine.state.next_cycle > cfg.engine_config.cycles:
        write_search_outputs(result, cfg, out_dir)
    return result


def write_search_outputs(result: SearchResult, cfg: SearchCommandConfig, out_dir: str) -> None:
    write_log(os.path.join(out_dir, "history.jsonl"), result.history_records())
    ledger = result.ledger

    ledger_path = os.path.join(out_dir, "ledger.jsonl")
    tmp = ledger_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(
            json.dumps(
                {"kind": "budget_ledger", "schema_version": SCHEMA_VERSION}, sort_keys=True
            )
            + "\n"
        )
        for e in ledger.entries:
            fh.write(json.dumps(asdict(e), sort_keys=True) + "\n")
    os.replace(tmp, ledger_path)

    summary = {
        "schema_version": SCHEMA_VERSION,
        "kind": "search_summary",
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
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(encode(t.genotype))
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
        fh.write("\n")


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
    records = read_log(log_path, on_duplicate="keep_last" if allow_duplicates else "error")
    report = analysis.build_report(
        records, gt_label, table, top_k=top_k, windows=windows, tolerant_b=tolerant_b
    )
    rho_f = None
    if rho_f_sizes:
        rho_f = analysis.rho_f_curve(
            records, gt_label, rho_f_sizes, trials=rho_f_trials, seed=seed
        )
    paths = analysis.write_report_files(report, out_dir, rho_f=rho_f)
    return report, paths


# -- bridge self-test -----------------------------------------------------------------


def default_serve_command(table_name: str, seed: int, params_path: Optional[str] = None) -> list:
    command = [
        sys.executable,
        "-m",
        "econas.cli",
        "surrogate-serve",
        "--table",
        table_name,
        "--seed",
        str(seed),
    ]
    if params_path:
        command += ["--params", params_path]
    return command


def bridge_selftest(
    command=None,
    table: Optional[ReductionTable] = None,
    params: Optional[SurrogateParams] = None,
    seed: int = 7,
    checks: int = 3,
) -> list[str]:
    """Spawn the surrogate behind the wire protocol and verify it answers
    exactly like the in-process surrogate, including a resumed evaluation.
    Returns human-readable check lines; raises HarnessError on mismatch.
    """
    from .proxy import CIFAR10_TABLE

    table = table if table is not None else CIFAR10_TABLE
    params = params if params is not None else SurrogateParams().with_seed(seed)
    local = SurrogateEvaluator(params, table)
    if command is None:
        command = default_serve_command(table.name, seed)
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

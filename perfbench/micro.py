"""Layer micro-timings on inputs captured from a workload's run.

Each function calls econas's public functions directly, outside any traced
region, and returns ``{metric name: (value, unit)}``. Per-item timings take
the median of a few repeats per item and then the median over items.
"""

from __future__ import annotations

import dataclasses
import io
import json
import random
import statistics
import time

from econas.bridge import ExternalEvaluator
from econas.genotype import decode, encode, mutate
from econas.metrics import (
    RankVector,
    fractional_ranks,
    hard_rank_error,
    rho_f_subsample,
    spearman,
    tolerant_spearman,
)
from econas.proxy import parse_label
from econas.records import by_setting, read_log
from econas.search import SearchEngine

REPEATS = 3


def _median_time(fn, repeats: int = REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def genotype_micro(genotypes: list) -> dict:
    """encode / decode / content_hash / mutate, p50 over ``genotypes``."""
    docs = [encode(g) for g in genotypes]
    enc, dec, hsh, mut = [], [], [], []
    for i, (g, doc) in enumerate(zip(genotypes, docs)):
        enc.append(_median_time(lambda: encode(g)))
        dec.append(_median_time(lambda: decode(doc)))
        # content_hash is cached per instance, so hash fresh copies.
        copies = [dataclasses.replace(g) for _ in range(REPEATS)]
        hsh.append(_median_time(lambda: copies.pop().content_hash))
        rngs = [random.Random(i * REPEATS + k) for k in range(REPEATS)]
        mut.append(_median_time(lambda: mutate(g, rngs.pop())))
    return {
        "genotype.encode_us": (statistics.median(enc) * 1e6, "us"),
        "genotype.decode_us": (statistics.median(dec) * 1e6, "us"),
        "genotype.hash_us": (statistics.median(hsh) * 1e6, "us"),
        "genotype.mutate_us": (statistics.median(mut) * 1e6, "us"),
    }


def parse_label_micro(labels: list, table, calls: int = 50) -> dict:
    per_call = [
        _median_time(lambda: [parse_label(label, table) for _ in range(calls)]) / calls
        for label in labels
    ]
    return {"proxy.parse_label_us": (statistics.median(per_call) * 1e6, "us")}


def rank_micro(log_path: str, gt_label: str, rho_f_seed: int) -> dict:
    """The rank kernels on a zoo evaluation log, at the log's zoo size."""
    grouped = by_setting(read_log(log_path))
    accuracies = {
        label: {mid: rec.test_accuracy for mid, rec in group.items()}
        for label, group in grouped.items()
    }
    gt_acc = accuracies[gt_label]
    gt_vec = RankVector.from_accuracies(gt_acc)
    labels = sorted(label for label in accuracies if label != gt_label)
    sample = labels[:: max(1, len(labels) // 20)]
    ids = sorted(gt_acc)
    frac, sp = [], []
    for label in sample:
        values = [accuracies[label][mid] for mid in ids]
        red_vec = RankVector.from_accuracies(accuracies[label])
        frac.append(_median_time(lambda: fractional_ranks(values)))
        sp.append(_median_time(lambda: spearman(gt_vec, red_vec)))
    tol, hre = [], []
    for label in sample[:5]:
        red_vec = RankVector.from_accuracies(accuracies[label])
        tol.append(_median_time(lambda: tolerant_spearman(gt_acc, accuracies[label])))
        hre.append(_median_time(lambda: hard_rank_error(gt_vec, red_vec)))
    rho_f = _median_time(
        lambda: rho_f_subsample(accuracies, gt_label, 50, trials=100, seed=rho_f_seed),
        repeats=1,
    )
    return {
        "metrics.fractional_ranks_us": (statistics.median(frac) * 1e6, "us"),
        "metrics.spearman_us": (statistics.median(sp) * 1e6, "us"),
        "metrics.tolerant_spearman_ms": (statistics.median(tol) * 1e3, "ms"),
        "metrics.hard_rank_error_ms": (statistics.median(hre) * 1e3, "ms"),
        "metrics.rho_f_subsample_s": (rho_f, "s"),
    }


def checkpoint_micro(cfg, evaluator, mid: bytes, final: bytes) -> dict:
    """checkpoint_obj plus JSON serialisation, and JSON parse plus
    load_checkpoint_obj, on the mid-run and final checkpoints of a search."""

    def engine():
        return SearchEngine(
            evaluator,
            cfg.engine_config,
            cfg.setting,
            op_set=cfg.op_set,
            network=cfg.network,
            output_rule=cfg.output_rule,
            algorithm=cfg.algorithm,
        )

    out = {}
    for tag, blob in (("mid", mid), ("final", final)):
        loaded = engine()
        loaded.load_checkpoint_obj(json.loads(blob))
        out["search.ckpt_encode_ms_" + tag] = (
            _median_time(
                lambda: json.dump(loaded.checkpoint_obj(), io.StringIO(), sort_keys=True)
            ) * 1e3,
            "ms",
        )
        out["search.ckpt_decode_ms_" + tag] = (
            _median_time(lambda: engine().load_checkpoint_obj(json.loads(blob))) * 1e3,
            "ms",
        )
    return out


def bridge_micro(command: list, genotypes: list, setting, calls: int = 200) -> dict:
    """ExternalEvaluator.evaluate round trips against a trainer that does not
    sleep."""
    latencies = []
    with ExternalEvaluator(command, timeout=30.0) as remote:
        remote.ping()
        for i in range(calls):
            g = genotypes[i % len(genotypes)]
            start = time.perf_counter()
            remote.evaluate(g, setting, 0, setting.epochs)
            latencies.append(time.perf_counter() - start)
    return {"bridge.roundtrip_ms_p50": (statistics.median(latencies) * 1e3, "ms")}

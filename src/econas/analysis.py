"""Turn an evaluation log into consistency tables.

Everything downstream of raw (model, setting, accuracy) records lives here:
per-setting rank-consistency rows against the Ground-Truth setting, entropy
tables along the channel and resolution dimensions, best-setting
recommendations per acceleration group, rank-scatter pairs, and the
subsample-dependence curve. Outputs are plain delimited tables with a fixed
column order; rendering into figures is out of scope.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .metrics import (
    ConsistencyRow,
    RankVector,
    entropy,
    hard_rank_error,
    overfit_gap,
    recommend_settings,
    retained_top,
    rho_f_subsample,
    spearman,
    tolerant_spearman,
)
from .proxy import ReductionTable, nominal_speedup, parse_label
from .records import EvaluationRecord, by_setting

SCHEMA_VERSION = 1


class AnalysisError(ValueError):
    pass


@dataclass(frozen=True)
class EntropyRow:
    s_idx: int
    epochs: int
    dimension: str  # "c" or "r"
    fixed_index: Optional[int]  # None = mean over the fixed dimension
    value: float


@dataclass(frozen=True)
class ScatterPoint:
    label: str
    model_id: str
    gt_rank: float
    red_rank: float


@dataclass
class ConsistencyReport:
    gt_label: str
    table_name: str
    top_k: int
    windows: tuple[int, ...]
    tolerant_b: float
    rows: list
    entropy_rows: list
    recommendations: list
    scatter: list


def acceleration_ratio(label: str, gt_label: str, table: ReductionTable) -> float:
    """Training-cost ratio of the Ground-Truth setting over a reduced one:
    the nominal per-iteration speed-up times the epoch ratio. The built-in
    sample ratios are exact powers of two, so the sample factor is already
    inside the nominal speed-up."""
    setting = parse_label(label, table)
    gt = parse_label(gt_label, table)
    return nominal_speedup(setting) / nominal_speedup(gt) * (gt.epochs / setting.epochs)


def build_report(
    records: Iterable[EvaluationRecord],
    gt_label: str,
    table: ReductionTable,
    top_k: int = 10,
    windows: Sequence[int] = (15, 20),
    tolerant_b: float = 0.0015,
) -> ConsistencyReport:
    grouped = by_setting(records)
    if gt_label not in grouped:
        raise AnalysisError("log has no records for ground-truth setting %s" % gt_label)
    parse_label(gt_label, table)
    gt_records = grouped[gt_label]
    gt_ids = set(gt_records)

    missing = sorted(
        {
            mid
            for label, group in grouped.items()
            for mid in group
            if mid not in gt_ids
        }
    )
    if missing:
        raise AnalysisError(
            "models missing ground-truth records: %s" % ", ".join(m[:16] for m in missing)
        )

    rows = []
    scatter = []
    rho_by_dims: dict[tuple[int, int], dict[tuple[int, int], float]] = {}
    labels = sorted(
        (label for label in grouped if label != gt_label),
        key=lambda l: parse_label(l, table),
    )
    for label in labels:
        setting = parse_label(label, table)
        group = grouped[label]
        gt_acc = {mid: gt_records[mid].test_accuracy for mid in group}
        red_acc = {mid: rec.test_accuracy for mid, rec in group.items()}
        gt_vec = RankVector.from_accuracies(gt_acc)
        red_vec = RankVector.from_accuracies(red_acc)
        rho = spearman(gt_vec, red_vec)
        retained = tuple(
            retained_top(gt_vec, red_vec, top_k=top_k, window=w) for w in windows
        )
        gap = None
        if all(rec.train_accuracy is not None for rec in group.values()):
            gap = overfit_gap(group.values())
        rows.append(
            ConsistencyRow(
                label=label,
                rho_sp=rho,
                tolerant_rho=tolerant_spearman(gt_acc, red_acc, tolerant_b),
                hre=hard_rank_error(gt_vec, red_vec),
                speedup=nominal_speedup(setting),
                acceleration=acceleration_ratio(label, gt_label, table),
                retained=retained,
                overfit_gap=gap,
            )
        )
        rho_by_dims.setdefault((setting.s_idx, setting.epochs), {})[
            (setting.c_idx, setting.r_idx)
        ] = rho
        red_ranks = red_vec.rank_of()
        for mid, rank in sorted(gt_vec.rank_of().items()):
            scatter.append(ScatterPoint(label, mid, rank, red_ranks[mid]))

    entropy_rows = _entropy_tables(rho_by_dims, table)
    return ConsistencyReport(
        gt_label=gt_label,
        table_name=table.name,
        top_k=top_k,
        windows=tuple(windows),
        tolerant_b=tolerant_b,
        rows=rows,
        entropy_rows=entropy_rows,
        recommendations=recommend_settings(rows),
        scatter=scatter,
    )


def _entropy_tables(rho_by_dims, table: ReductionTable) -> list:
    """Entropy of rho_sp along c (per fixed r) and along r (per fixed c),
    plus a mean row per dimension, for every (s, epochs) slice whose full
    channel x resolution grid is present."""
    n_c = len(table.channels)
    n_r = len(table.resolutions)
    out = []
    for (s_idx, epochs), grid in sorted(rho_by_dims.items()):
        if len(grid) != n_c * n_r:
            continue
        along_c = []
        for b in range(n_r):
            value = entropy([grid[(a, b)] for a in range(n_c)])
            along_c.append(value)
            out.append(EntropyRow(s_idx, epochs, "c", b, value))
        out.append(EntropyRow(s_idx, epochs, "c", None, sum(along_c) / len(along_c)))
        along_r = []
        for a in range(n_c):
            value = entropy([grid[(a, b)] for b in range(n_r)])
            along_r.append(value)
            out.append(EntropyRow(s_idx, epochs, "r", a, value))
        out.append(EntropyRow(s_idx, epochs, "r", None, sum(along_r) / len(along_r)))
    return out


def mean_entropy(report: ConsistencyReport, dimension: str, s_idx: int, epochs: int) -> float:
    for row in report.entropy_rows:
        if (
            row.dimension == dimension
            and row.fixed_index is None
            and row.s_idx == s_idx
            and row.epochs == epochs
        ):
            return row.value
    raise AnalysisError(
        "no complete %s-entropy slice at s%d e%d" % (dimension, s_idx, epochs)
    )


def rho_f_curve(
    records: Iterable[EvaluationRecord],
    gt_label: str,
    sizes: Sequence[int],
    trials: int = 100,
    seed: int = 0,
) -> list[tuple[int, float]]:
    grouped = by_setting(records)
    accuracies = {
        label: {mid: rec.test_accuracy for mid, rec in group.items()}
        for label, group in grouped.items()
    }
    return [
        (m, rho_f_subsample(accuracies, gt_label, m, trials=trials, seed=seed))
        for m in sizes
    ]


# -- delimited table output ---------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_table(path: str, comment: str, header: list, rows: list) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("# %s\n" % comment)
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(_fmt(v) for v in row) + "\n")
    os.replace(tmp, path)


def write_report_files(
    report: ConsistencyReport,
    out_dir: str,
    rho_f: Optional[list] = None,
) -> list[str]:
    """Emit report.tsv, entropy.tsv, recommendations.tsv, rank_scatter.tsv
    (and rho_f.tsv when given); returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    meta = (
        "schema_version=%d ground_truth=%s table=%s top_k=%d windows=%s tolerant_b=%s"
        % (
            SCHEMA_VERSION,
            report.gt_label,
            report.table_name,
            report.top_k,
            ",".join(str(w) for w in report.windows),
            repr(report.tolerant_b),
        )
    )
    paths = []

    path = os.path.join(out_dir, "report.tsv")
    header = ["label", "rho_sp", "tolerant_rho", "hre", "speedup", "acceleration"]
    header += ["retained_w%d" % w for w in report.windows]
    header += ["overfit_gap"]
    _write_table(
        path,
        "kind=consistency_report " + meta,
        header,
        [
            [r.label, r.rho_sp, r.tolerant_rho, r.hre, r.speedup, r.acceleration]
            + list(r.retained)
            + [r.overfit_gap]
            for r in report.rows
        ],
    )
    paths.append(path)

    path = os.path.join(out_dir, "entropy.tsv")
    _write_table(
        path,
        "kind=entropy_tables " + meta,
        ["s_idx", "epochs", "dimension", "fixed_index", "entropy"],
        [
            [e.s_idx, e.epochs, e.dimension, "mean" if e.fixed_index is None else e.fixed_index, e.value]
            for e in report.entropy_rows
        ],
    )
    paths.append(path)

    path = os.path.join(out_dir, "recommendations.tsv")
    _write_table(
        path,
        "kind=recommendations " + meta,
        ["bucket", "label", "rho_sp", "acceleration", "speedup"],
        [
            [rec.bucket, rec.row.label, rec.row.rho_sp, rec.row.acceleration, rec.row.speedup]
            for rec in report.recommendations
        ],
    )
    paths.append(path)

    path = os.path.join(out_dir, "rank_scatter.tsv")
    _write_table(
        path,
        "kind=rank_scatter " + meta,
        ["label", "model_id", "gt_rank", "red_rank"],
        [[p.label, p.model_id, p.gt_rank, p.red_rank] for p in report.scatter],
    )
    paths.append(path)

    if rho_f is not None:
        path = os.path.join(out_dir, "rho_f.tsv")
        _write_table(
            path,
            "kind=rho_f_curve " + meta,
            ["subsample_size", "rho_f"],
            [[m, value] for m, value in rho_f],
        )
        paths.append(path)
    return paths

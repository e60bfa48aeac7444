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
from itertools import repeat
from operator import attrgetter
from typing import Iterable, Optional, Sequence, Union

from . import documents
from .metrics import (
    ConsistencyRow,
    entropy,
    fractional_ranks,
    recommend_settings,
    rho_f_columns,
    setting_scores,
)
from .proxy import ReductionTable, nominal_speedup, parse_label
from .records import EvaluationRecord, read_fields
from .seeding import left_sum

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


@dataclass(frozen=True)
class SettingColumns:
    """A log's records grouped once per setting label. ``columns`` holds
    each setting's sorted model ids, as a tuple shared by every setting over
    the same models, and their test accuracies in that order; ``gaps`` holds
    each setting's :func:`~econas.metrics.overfit_gap`, or None when a record
    lacks a train accuracy. :func:`build_report` and :func:`rho_f_curve`
    take it in place of the records, so one grouping serves both."""

    columns: dict
    gaps: dict

    @classmethod
    def of(cls, records) -> "SettingColumns":
        """The columns of ``records``; given columns, those columns."""
        if isinstance(records, cls):
            return records
        return _grouped(map(_RECORD_FIELDS, records))


_RECORD_FIELDS = attrgetter("model_id", "setting", "test_accuracy", "train_accuracy")


def read_columns(path: str, on_duplicate: str = "error") -> SettingColumns:
    """The columns of the log at ``path``: ``SettingColumns.of(read_log(path,
    on_duplicate))``, with the same errors, grouped from the fields
    :func:`~econas.records.read_fields` reads without building a record."""
    return _grouped(read_fields(path, on_duplicate).values())


def _grouped(fields) -> SettingColumns:
    """The columns of records given as their fields (model id, setting, test
    accuracy, train accuracy, ...) in record order; a later record of the
    same (model, setting) replaces the earlier one in its place."""
    groups: dict[str, dict] = {}
    for f in fields:
        group = groups.get(f[1])
        if group is None:
            groups[f[1]] = group = {}
        group[f[0]] = f
    columns, gaps, shared = {}, {}, {}
    for label, group in groups.items():
        ids = tuple(sorted(group))
        ids = shared.setdefault(ids, ids)
        columns[label] = ids, [group[mid][2] for mid in ids]
        # overfit_gap's float sum, in record order, on which it depends.
        rows = group.values()
        complete = all(f[3] is not None for f in rows)
        gaps[label] = left_sum([f[3] - f[2] for f in rows]) / len(rows) if complete else None
    return SettingColumns(columns, gaps)


def acceleration_ratio(label: str, gt_label: str, table: ReductionTable) -> float:
    """Training-cost ratio of the Ground-Truth setting over a reduced one:
    the nominal per-iteration speed-up times the epoch ratio. The built-in
    sample ratios are exact powers of two, so the sample factor is already
    inside the nominal speed-up."""
    setting = parse_label(label, table)
    gt = parse_label(gt_label, table)
    return nominal_speedup(setting) / nominal_speedup(gt) * (gt.epochs / setting.epochs)


def build_report(
    records: Union[Iterable[EvaluationRecord], SettingColumns],
    gt_label: str,
    table: ReductionTable,
    top_k: int = 10,
    windows: Sequence[int] = (15, 20),
    tolerant_b: float = 0.0015,
) -> ConsistencyReport:
    """Every reduced setting's scores against ``gt_label``. Ground Truth is
    ranked once per distinct model set, and each setting goes through
    :func:`~econas.metrics.setting_scores` once."""
    grouped = SettingColumns.of(records)
    columns = grouped.columns
    if gt_label not in columns:
        raise AnalysisError("log has no records for ground-truth setting %s" % gt_label)
    parse_label(gt_label, table)
    gt_acc = dict(zip(*columns[gt_label]))
    model_sets = {ids for ids, _ in columns.values()}
    missing = sorted(set().union(*model_sets) - gt_acc.keys())
    if missing:
        raise AnalysisError(
            "models missing ground-truth records: %s" % ", ".join(m[:16] for m in missing)
        )

    rows = []
    scatter = []
    rho_by_dims: dict[tuple[int, int], dict[tuple[int, int], float]] = {}
    gt_by_models: dict[tuple, tuple] = {}
    labels = sorted(
        (label for label in columns if label != gt_label),
        key=lambda l: parse_label(l, table),
    )
    for label in labels:
        setting = parse_label(label, table)
        ids, values = columns[label]
        if ids not in gt_by_models:
            gt_values = [gt_acc[mid] for mid in ids]
            gt_by_models[ids] = gt_values, fractional_ranks(gt_values)
        gt_values, gt_ranks = gt_by_models[ids]
        rho, retained, tolerant, hre, ranks = setting_scores(
            gt_values, gt_ranks, values, tolerant_b, top_k, windows
        )
        rows.append(
            ConsistencyRow(
                label=label,
                rho_sp=rho,
                tolerant_rho=tolerant,
                hre=hre,
                speedup=nominal_speedup(setting),
                acceleration=acceleration_ratio(label, gt_label, table),
                retained=retained,
                overfit_gap=grouped.gaps[label],
            )
        )
        rho_by_dims.setdefault((setting.s_idx, setting.epochs), {})[
            (setting.c_idx, setting.r_idx)
        ] = rho
        scatter += map(ScatterPoint, repeat(label), ids, gt_ranks, ranks)

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
        out.append(EntropyRow(s_idx, epochs, "c", None, left_sum(along_c) / len(along_c)))
        along_r = []
        for a in range(n_c):
            value = entropy([grid[(a, b)] for b in range(n_r)])
            along_r.append(value)
            out.append(EntropyRow(s_idx, epochs, "r", a, value))
        out.append(EntropyRow(s_idx, epochs, "r", None, left_sum(along_r) / len(along_r)))
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
    records: Union[Iterable[EvaluationRecord], SettingColumns],
    gt_label: str,
    sizes: Sequence[int],
    trials: int = 100,
    seed: int = 0,
) -> list[tuple[int, float]]:
    columns = SettingColumns.of(records).columns
    return list(zip(sizes, rho_f_columns(columns, gt_label, sizes, trials, seed)))


# -- delimited table output ---------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _row(values) -> str:
    return "\t".join(map(_fmt, values)) + "\n"


def _scatter_row(p: ScatterPoint) -> str:
    """:func:`_row` of a scatter point, whose ranks are floats."""
    return "%s\t%s\t%r\t%r\n" % (p.label, p.model_id, p.gt_rank, p.red_rank)


def _write_table(path: str, comment: str, header: list, rows, row=_row) -> None:
    with documents.replacing(path) as fh:
        fh.write("# %s\n" % comment)
        fh.write("\t".join(header) + "\n")
        fh.writelines(map(row, rows))


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
        report.scatter,
        _scatter_row,
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

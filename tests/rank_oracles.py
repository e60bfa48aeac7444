"""The code the fast ``analyze`` path replaced, kept as oracles.

These are the O(K^2) pair loops, the rho_F loop that re-ranks every
subsample from scratch, ``read_log`` parsing every line as JSON, and
``build_report`` and ``rho_f_curve`` grouping the records themselves and
scoring every setting through the public metric functions. Tests compare
the fast code with them using ``==``; ``tests/analyze_scaling.py`` times
``analyze`` with them patched in.
"""

from econas import documents, records as records_module
from econas.analysis import (
    AnalysisError,
    ConsistencyReport,
    ScatterPoint,
    _entropy_tables,
    acceleration_ratio,
)
from econas.metrics import (
    ConsistencyRow,
    MetricError,
    RankVector,
    _aligned_ranks,
    _spearman_from_ranks,
    fractional_ranks,
    overfit_gap,
    recommend_settings,
    retained_top,
    spearman,
    spearman_values,
)
from econas.proxy import nominal_speedup, parse_label
from econas.records import EvaluationRecord, LogError, by_setting
from econas.seeding import derive_rng


def _sign(v):
    return (v > 0) - (v < 0)


def tolerant_spearman(gt_acc, red_acc, b=0.0015):
    if set(gt_acc) != set(red_acc):
        raise MetricError("accuracy maps cover different model id sets")
    if b < 0:
        raise MetricError("tolerance b must be >= 0")
    ids = sorted(gt_acc)
    concordant = discordant = scored = 0
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            dg = gt_acc[ids[i]] - gt_acc[ids[j]]
            dr = red_acc[ids[i]] - red_acc[ids[j]]
            if abs(dg) <= b and abs(dr) <= b:
                continue
            scored += 1
            # Compare signs, not the sign of dg * dr, which underflows to 0
            # for tiny gaps.
            score = _sign(dg) * _sign(dr)
            if score > 0:
                concordant += 1
            elif score < 0:
                discordant += 1
    if scored == 0:
        return 1.0
    return (concordant - discordant) / scored


def hard_rank_error(gt, red):
    x, y = _aligned_ranks(gt, red)
    k = len(x)
    if k < 2:
        raise MetricError("hard rank error needs at least 2 models, got %d" % k)
    errors = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            sg = (x[i] > x[j]) - (x[i] < x[j])
            sr = (y[i] > y[j]) - (y[i] < y[j])
            if sg == 0 or sr == 0:
                errors += 0.5
            elif sg != sr:
                errors += 1.0
    return errors / (k * (k - 1) / 2)


def _check_rho_f(setting_accuracies, gt_label, sizes):
    """Every size is checked before the settings' model sets."""
    if gt_label not in setting_accuracies:
        raise MetricError("ground-truth label %r not present" % gt_label)
    labels = sorted(l for l in setting_accuracies if l != gt_label)
    if len(labels) < 2:
        raise MetricError("need at least 2 reduced settings for rho_F")
    gt_map = setting_accuracies[gt_label]
    k = len(gt_map)
    for m in sizes:
        if m < 3:
            raise MetricError("subsample size must be >= 3, got %d" % m)
        if m > k:
            raise MetricError("subsample size %d exceeds zoo size %d" % (m, k))
    for label in labels:
        if set(setting_accuracies[label]) != set(gt_map):
            raise MetricError("setting %r covers a different model id set" % label)


def rho_f_subsample(setting_accuracies, gt_label, m, trials=100, seed=0):
    _check_rho_f(setting_accuracies, gt_label, [m])
    labels = sorted(l for l in setting_accuracies if l != gt_label)
    gt_map = setting_accuracies[gt_label]
    ids = sorted(gt_map)
    k = len(ids)

    gt_all = [gt_map[i] for i in ids]
    red_all = {label: [setting_accuracies[label][i] for i in ids] for label in labels}

    gt_ranks_full = fractional_ranks(gt_all)
    rho_full = []
    for label in labels:
        rho_full.append(
            _spearman_from_ranks(gt_ranks_full, fractional_ranks(red_all[label]))
        )

    total = 0.0
    for trial in range(trials):
        rng = derive_rng(seed, "rho_f", m, trial)
        idx = sorted(rng.sample(range(k), m))
        gt_ranks = fractional_ranks([gt_all[i] for i in idx])
        rho_sub = [
            _spearman_from_ranks(
                gt_ranks, fractional_ranks([red_all[label][i] for i in idx])
            )
            for label in labels
        ]
        total += spearman_values(rho_sub, rho_full)
    return total / trials


def rho_f_subsamples(setting_accuracies, gt_label, sizes, trials=100, seed=0):
    _check_rho_f(setting_accuracies, gt_label, sizes)
    return [rho_f_subsample(setting_accuracies, gt_label, m, trials, seed) for m in sizes]


def read_log(path, on_duplicate="error"):
    if on_duplicate not in ("error", "keep_last"):
        raise LogError("on_duplicate must be 'error' or 'keep_last'")
    records = {}
    order = []
    try:
        for lineno, obj in documents.read_lines(path, "evaluation_log"):
            rec = EvaluationRecord(*records_module._record_fields(obj, lineno))
            if rec.key() in records:
                if on_duplicate == "error":
                    raise LogError(
                        "line %d: duplicate record for (%s, %s)"
                        % (lineno, rec.model_id, rec.setting)
                    )
            else:
                order.append(rec.key())
            records[rec.key()] = rec
    except documents.Rejected as exc:
        raise LogError(str(exc)) from None
    return [records[k] for k in order]


def build_report(records, gt_label, table, top_k=10, windows=(15, 20), tolerant_b=0.0015):
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
    rho_by_dims = {}
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

    return ConsistencyReport(
        gt_label=gt_label,
        table_name=table.name,
        top_k=top_k,
        windows=tuple(windows),
        tolerant_b=tolerant_b,
        rows=rows,
        entropy_rows=_entropy_tables(rho_by_dims, table),
        recommendations=recommend_settings(rows),
        scatter=scatter,
    )


def rho_f_curve(records, gt_label, sizes, trials=100, seed=0):
    accuracies = {
        label: {mid: rec.test_accuracy for mid, rec in group.items()}
        for label, group in by_setting(records).items()
    }
    return list(zip(sizes, rho_f_subsamples(accuracies, gt_label, sizes, trials, seed)))

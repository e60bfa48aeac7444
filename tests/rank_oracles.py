"""The pairwise definitions of the rank kernels in ``econas.metrics``.

These are the O(K^2) loops (and the rho_F loop that re-ranks every
subsample from scratch) that the fast kernels replaced. Tests compare the
kernels with them using ``==``; ``tests/analyze_scaling.py`` times
``analyze`` with them patched in.
"""

from econas.metrics import (
    MetricError,
    _aligned_ranks,
    _spearman_from_ranks,
    fractional_ranks,
    spearman_values,
)
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


def rho_f_subsample(setting_accuracies, gt_label, m, trials=100, seed=0):
    if gt_label not in setting_accuracies:
        raise MetricError("ground-truth label %r not present" % gt_label)
    labels = sorted(l for l in setting_accuracies if l != gt_label)
    if len(labels) < 2:
        raise MetricError("need at least 2 reduced settings for rho_F")
    gt_map = setting_accuracies[gt_label]
    ids = sorted(gt_map)
    k = len(ids)
    if m < 3:
        raise MetricError("subsample size must be >= 3, got %d" % m)
    if m > k:
        raise MetricError("subsample size %d exceeds zoo size %d" % (m, k))
    for label in labels:
        if set(setting_accuracies[label]) != set(gt_map):
            raise MetricError("setting %r covers a different model id set" % label)

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
    return [rho_f_subsample(setting_accuracies, gt_label, m, trials, seed) for m in sizes]

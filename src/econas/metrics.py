"""Rank-consistency measurements between a Ground-Truth setting and
reduced-setting evaluations of the same model zoo.

Ranks are fractional: rank 1 is the best accuracy and tied accuracies get
the average of their positions, which keeps the rank-difference formula
well defined with ties. Accuracies are compared exactly; the only tolerance
anywhere is the explicit interval of :func:`tolerant_spearman`.

The pair statistics (:func:`tolerant_spearman`, :func:`hard_rank_error`)
count discordant pairs in O(K log K) comparisons instead of visiting all
K(K-1)/2 pairs, and :func:`rho_f_subsample` ranks each subsample from the
full zoo's sort order instead of re-ranking it. Every count they combine is
an integer, so each returns exactly (``==``) the float of its pairwise
definition; the test suite keeps those O(K^2) loops as oracles.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Mapping, Sequence

from .seeding import derive_rng


class MetricError(ValueError):
    """Inputs unusable for a rank metric (mismatched ids, too few models)."""


def fractional_ranks(values: Sequence[float], best_high: bool = True) -> list[float]:
    """Ranks with 1 = best; runs of exactly equal values share their average
    position."""
    n = len(values)
    order = sorted(range(n), key=lambda i: -values[i] if best_high else values[i])
    ranks = [0.0] * n
    start = 0
    while start < n:
        stop = start
        while stop + 1 < n and values[order[stop + 1]] == values[order[start]]:
            stop += 1
        mean_rank = (start + stop) / 2.0 + 1.0
        for k in range(start, stop + 1):
            ranks[order[k]] = mean_rank
        start = stop + 1
    return ranks


@dataclass(frozen=True)
class RankVector:
    model_ids: tuple[str, ...]
    ranks: tuple[float, ...]

    def __post_init__(self):
        if len(self.model_ids) != len(self.ranks):
            raise MetricError("model_ids and ranks differ in length")
        if len(set(self.model_ids)) != len(self.model_ids):
            raise MetricError("duplicate model ids in rank vector")

    @staticmethod
    def from_accuracies(accuracies: Mapping[str, float]) -> "RankVector":
        ids = tuple(sorted(accuracies))
        ranks = fractional_ranks([accuracies[i] for i in ids])
        return RankVector(ids, tuple(ranks))

    def rank_of(self) -> dict[str, float]:
        return dict(zip(self.model_ids, self.ranks))

    def __len__(self) -> int:
        return len(self.model_ids)


def _aligned_ranks(gt: RankVector, red: RankVector) -> tuple[list[float], list[float]]:
    if set(gt.model_ids) != set(red.model_ids):
        raise MetricError("rank vectors cover different model id sets")
    red_ranks = red.rank_of()
    return list(gt.ranks), [red_ranks[i] for i in gt.model_ids]


def _spearman_from_d2(d2: float, k: int) -> float:
    return 1.0 - 6.0 * d2 / (k * (k * k - 1))


def _spearman_from_ranks(x: Sequence[float], y: Sequence[float]) -> float:
    k = len(x)
    if k < 2:
        raise MetricError("Spearman needs at least 2 models, got %d" % k)
    return _spearman_from_d2(sum((a - b) ** 2 for a, b in zip(x, y)), k)


def _tied_pairs(values: Iterable) -> int:
    return sum(n * (n - 1) // 2 for n in Counter(values).values())


def _pair_counts(x: Sequence[float], y: Sequence[float]) -> tuple[int, int]:
    """(discordant, tied) over all unordered position pairs: discordant pairs
    are ordered strictly oppositely by ``x`` and ``y``; tied pairs are equal
    in ``x``, in ``y`` or in both.

    After sorting by (x, y), a discordant pair is exactly a strict inversion
    of y (Knight, JASA 1966); a sorted list counts the earlier y values
    above each one by bisection. O(K log K) comparisons; each insertion is
    one memmove. Tied pairs come from the sizes of groups of equal values.
    """
    seen: list = []
    discordant = 0
    for n, (_, v) in enumerate(sorted(zip(x, y))):
        at = bisect_right(seen, v)
        discordant += n - at
        seen.insert(at, v)
    tied = _tied_pairs(x) + _tied_pairs(y) - _tied_pairs(zip(x, y))
    return discordant, tied


def spearman(gt: RankVector, red: RankVector) -> float:
    """1 - 6*sum(d_i^2) / (K(K^2-1)) over per-model rank differences d_i."""
    x, y = _aligned_ranks(gt, red)
    return _spearman_from_ranks(x, y)


def spearman_values(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman of two equally long value lists (ranked internally)."""
    if len(x) != len(y):
        raise MetricError("value lists differ in length")
    return _spearman_from_ranks(fractional_ranks(x), fractional_ranks(y))


def spearman_accuracies(
    gt_acc: Mapping[str, float], red_acc: Mapping[str, float]
) -> float:
    return spearman(RankVector.from_accuracies(gt_acc), RankVector.from_accuracies(red_acc))


def tolerant_spearman(
    gt_acc: Mapping[str, float],
    red_acc: Mapping[str, float],
    b: float = 0.0015,
) -> float:
    """Pairwise concordance that ignores pairs too close to call.

    A model pair is neutral when its accuracy gap is within ``b`` in BOTH
    settings; remaining pairs score +1 (same gap sign in both settings) or
    -1 (opposite signs); a pair with a zero gap in one setting scores 0.
    Returns the mean score over non-neutral pairs, and 1.0 by convention when
    every pair is neutral. Accuracies must be finite.

    Cost: O(K log K) comparisons to count signs over all pairs, plus one
    step per pair within ``b`` in Ground Truth, the only neutral candidates
    (O(K^2) only when nearly every accuracy lies within ``b``). The result
    equals the pairwise definition exactly.
    """
    if set(gt_acc) != set(red_acc):
        raise MetricError("accuracy maps cover different model id sets")
    if b < 0:
        raise MetricError("tolerance b must be >= 0")
    g = list(gt_acc.values())
    r = [red_acc[i] for i in gt_acc]
    k = len(g)
    discordant, tied = _pair_counts(g, r)
    scored = k * (k - 1) // 2
    concordant = scored - tied - discordant
    # Take the neutral pairs back out. Sorted by Ground Truth, a model's gaps
    # to the models after it only grow (rounded subtraction is monotone), so
    # each scan stops at the first gap above b.
    by_gt = sorted(zip(g, r))
    for i, (gi, ri) in enumerate(by_gt):
        for j in range(i + 1, k):
            gj, rj = by_gt[j]
            if gj - gi > b:
                break
            if abs(rj - ri) <= b:
                scored -= 1
                if gj > gi and rj > ri:
                    concordant -= 1
                elif gj > gi and rj < ri:
                    discordant -= 1
    if scored == 0:
        return 1.0
    return (concordant - discordant) / scored


def hard_rank_error(gt: RankVector, red: RankVector) -> float:
    """Fraction of unordered model pairs whose relative order flips between
    the two rankings; a pair tied in either ranking counts half.

    Cost: O(K log K) comparisons. The error count is a multiple of 1/2, so
    the result equals the pairwise definition exactly."""
    x, y = _aligned_ranks(gt, red)
    k = len(x)
    if k < 2:
        raise MetricError("hard rank error needs at least 2 models, got %d" % k)
    discordant, tied = _pair_counts(x, y)
    errors = discordant + 0.5 * tied
    return errors / (k * (k - 1) / 2)


def entropy(values: Sequence[float], base: Sequence[float] | None = None) -> float:
    """Monotonic-trend score of a value sequence: its Spearman coefficient
    against a strictly increasing base set (positions 1..n by default).
    +1 means cleanly increasing, -1 cleanly decreasing; the choice of base
    set does not matter because only ranks enter."""
    if len(values) < 2:
        raise MetricError("entropy needs at least 2 values, got %d" % len(values))
    if base is None:
        base = list(range(1, len(values) + 1))
    if len(base) != len(values):
        raise MetricError("base set must match values in length")
    if any(a >= b for a, b in zip(base, base[1:])):
        raise MetricError("base set must be strictly increasing")
    return spearman_values(values, base)


def retained_top(
    gt: RankVector, red: RankVector, top_k: int = 10, window: int = 15
) -> int:
    """How many Ground-Truth top-``top_k`` models stay within the reduced
    setting's top-``window``."""
    if len(gt) < window:
        raise MetricError(
            "retained_top needs at least window=%d models, got %d" % (window, len(gt))
        )
    x, y = _aligned_ranks(gt, red)
    return sum(1 for rg, rr in zip(x, y) if rg <= top_k and rr <= window)


def rho_f_subsample(
    setting_accuracies: Mapping[str, Mapping[str, float]],
    gt_label: str,
    m: int,
    trials: int = 100,
    seed: int = 0,
) -> float:
    """Rank agreement between proxy scores measured on a model subsample and
    on the whole zoo.

    Per trial: subsample ``m`` models uniformly; recompute every reduced
    setting's Spearman-vs-Ground-Truth on the subsample; the trial value is
    the Spearman between that score vector and the full-zoo score vector.
    Returns the mean over trials. Each trial derives its own random stream
    from (seed, trial), so results do not depend on execution order.
    """
    return rho_f_subsamples(setting_accuracies, gt_label, [m], trials, seed)[0]


def rho_f_subsamples(
    setting_accuracies: Mapping[str, Mapping[str, float]],
    gt_label: str,
    sizes: Sequence[int],
    trials: int = 100,
    seed: int = 0,
) -> list[float]:
    """:func:`rho_f_subsample` for each subsample size in ``sizes``.

    Cost: one O(K log K) sort per setting and the full-zoo score ranks,
    shared by every size; then per size, trial and setting one O(m log m)
    sort of the subsample by the full-zoo order. Doubled ranks are
    integers, so every squared rank difference is summed exactly and the
    result equals re-ranking each subsample from scratch.
    """
    if gt_label not in setting_accuracies:
        raise MetricError("ground-truth label %r not present" % gt_label)
    labels = sorted(l for l in setting_accuracies if l != gt_label)
    if len(labels) < 2:
        raise MetricError("need at least 2 reduced settings for rho_F")
    gt_map = setting_accuracies[gt_label]
    ids = sorted(gt_map)
    k = len(ids)
    for m in sizes:
        if m < 3:
            raise MetricError("subsample size must be >= 3, got %d" % m)
        if m > k:
            raise MetricError("subsample size %d exceeds zoo size %d" % (m, k))
    for label in labels:
        if set(setting_accuracies[label]) != set(gt_map):
            raise MetricError("setting %r covers a different model id set" % label)

    gt_order = _best_first([gt_map[i] for i in ids])
    red_orders = [
        _best_first([setting_accuracies[label][i] for i in ids]) for label in labels
    ]

    def scores(idx) -> list[float]:
        """Every reduced setting's Spearman against Ground Truth on ``idx``."""
        n = len(idx)
        order, ranks, gt_sq = _doubled_ranks(idx, *gt_order)
        gt_rank = dict(zip(order, ranks))
        out = []
        for pos, group in red_orders:
            order, ranks, sq = _doubled_ranks(idx, pos, group)
            cross = sum(map(mul, map(gt_rank.__getitem__, order), ranks))
            out.append(_spearman_from_d2((gt_sq + sq - 2 * cross) / 4, n))
        return out

    full_ranks = fractional_ranks(scores(range(k)))
    means = []
    for m in sizes:
        total = 0.0
        for trial in range(trials):
            rng = derive_rng(seed, "rho_f", m, trial)
            rho_sub = scores(rng.sample(range(k), m))
            total += _spearman_from_ranks(fractional_ranks(rho_sub), full_ranks)
        means.append(total / trials)
    return means


def _best_first(values: Sequence[float]) -> tuple[list[int], list[int] | None]:
    """Each position's place in the best-first order of ``values`` and its
    tie-group id, or None for the groups when no two values are equal."""
    order = sorted(range(len(values)), key=lambda i: -values[i])
    pos = [0] * len(values)
    group = [0] * len(values)
    gid = 0
    for p, i in enumerate(order):
        pos[i] = p
        if p and values[i] != values[order[p - 1]]:
            gid += 1
        group[i] = gid
    return pos, (group if gid + 1 < len(values) else None)


def _doubled_ranks(idx, pos: list[int], group: list[int] | None) -> tuple:
    """The positions ``idx`` in best-first order, their fractional ranks
    among themselves times two (always integers), and the sum of the
    squares of those."""
    order = sorted(idx, key=pos.__getitem__)
    n = len(order)
    if group is None:
        return order, range(2, 2 * n + 1, 2), 2 * n * (n + 1) * (2 * n + 1) // 3
    ranks: list[int] = []
    start = 0
    while start < n:
        stop = start
        while stop + 1 < n and group[order[stop + 1]] == group[order[start]]:
            stop += 1
        ranks += [start + stop + 2] * (stop - start + 1)
        start = stop + 1
    return order, ranks, sum(map(mul, ranks, ranks))


def overfit_gap(records: Iterable) -> float:
    """Mean train-minus-test accuracy over one setting's records."""
    gaps = []
    for rec in records:
        if rec.train_accuracy is None:
            raise MetricError("record for %r has no train accuracy" % rec.model_id)
        gaps.append(rec.train_accuracy - rec.test_accuracy)
    if not gaps:
        raise MetricError("no records given")
    return sum(gaps) / len(gaps)


@dataclass(frozen=True)
class ConsistencyRow:
    """One reduced setting's scores against the Ground-Truth setting."""

    label: str
    rho_sp: float
    tolerant_rho: float
    hre: float
    speedup: int
    acceleration: float
    retained: tuple[int, ...]
    overfit_gap: float | None = None


@dataclass(frozen=True)
class Recommendation:
    bucket: int
    row: ConsistencyRow


def recommend_settings(rows: Sequence[ConsistencyRow]) -> list[Recommendation]:
    """Best setting per power-of-two acceleration group.

    Settings are bucketed by floor(log2(acceleration)); within a bucket the
    highest rho_sp wins, ties broken by higher acceleration then smaller
    label."""
    if not rows:
        raise MetricError("no rows to recommend from")
    buckets: dict[int, list[ConsistencyRow]] = {}
    for row in rows:
        if row.acceleration <= 0:
            raise MetricError("acceleration must be positive for %r" % row.label)
        buckets.setdefault(math.floor(math.log2(row.acceleration)), []).append(row)
    picks = []
    for bucket in sorted(buckets):
        best = sorted(
            buckets[bucket], key=lambda r: (-r.rho_sp, -r.acceleration, r.label)
        )[0]
        picks.append(Recommendation(bucket, best))
    return picks

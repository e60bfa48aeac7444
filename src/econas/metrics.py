"""Rank-consistency measurements between a Ground-Truth setting and
reduced-setting evaluations of the same model zoo.

Ranks are fractional: rank 1 is the best accuracy and tied accuracies get
the average of their positions, which keeps the rank-difference formula
well defined with ties. Accuracies are compared exactly; the only tolerance
anywhere is the explicit interval of :func:`tolerant_spearman`. One tie
walk, :func:`_best_first` then :func:`_doubled_ranks`, ranks everything.

The pair statistics (:func:`tolerant_spearman`, :func:`hard_rank_error`)
count discordant pairs in O(K log K) comparisons instead of visiting all
K(K-1)/2 pairs, and rho_F ranks each subsample from the full zoo's sort
order instead of re-ranking it. Every count they combine is an integer, so
each returns exactly (``==``) the float of its pairwise definition; the
test suite keeps those O(K^2) loops as oracles.

A report scores every reduced setting through one kernel,
:func:`setting_scores`: given the Ground Truth's ranks, it ranks the
setting once and counts its pairs once, and the Spearman, retained-top,
tolerant-Spearman and hard-rank-error values all come from those. rho_F
works on columns (:func:`rho_f_columns`): each setting's sorted model ids
and its accuracies in that order; :func:`rho_f_subsample` builds them from
accuracy maps.

A :class:`MetricError` rejects a tolerance ``b`` below 0 or NaN, a
``top_k`` or window below 1, and fewer than 1 rho_F trial.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter, mul
from typing import Iterable, Mapping, Sequence

from .seeding import derive_rng, left_sum


class MetricError(ValueError):
    """Inputs unusable for a rank metric (mismatched ids, too few models)."""


def fractional_ranks(values: Sequence[float]) -> list[float]:
    """Ranks with 1 = best, the highest value; runs of exactly equal values
    share their average position."""
    order, group = _best_first(values)
    ranks = [0.0] * len(values)
    for i, rank in zip(order, _doubled_ranks(order, group)[0]):
        ranks[i] = rank / 2
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
    return _spearman_from_d2(left_sum((a - b) ** 2 for a, b in zip(x, y)), k)


def _tied_pairs(values: Iterable) -> int:
    counts = Counter(values).values()
    return (sum(map(mul, counts, counts)) - sum(counts)) // 2


def _pair_counts(pairs: Sequence[tuple]) -> tuple[int, int]:
    """(discordant, tied) over all unordered pairs of the (x, y) ``pairs``,
    given sorted: discordant pairs are ordered strictly oppositely by x and
    y; tied pairs are equal in x, in y or in both.

    Sorted by (x, y), a discordant pair is exactly a strict inversion of y
    (Knight, JASA 1966); a sorted list counts the earlier y values above
    each one by bisection. O(K log K) comparisons; each insertion is one
    memmove. Tied pairs come from the sizes of groups of equal values. The
    counts are the same on accuracies as on their fractional ranks, which
    reverse the order and keep exactly the ties.
    """
    seen: list = []
    discordant = 0
    for n, (_, v) in enumerate(pairs):
        at = bisect_right(seen, v)
        discordant += n - at
        seen.insert(at, v)
    # ``seen`` now holds every y value.
    tied = _tied_pairs(map(itemgetter(0), pairs)) + _tied_pairs(seen) - _tied_pairs(pairs)
    return discordant, tied


def _tolerant(pairs: Sequence[tuple], discordant: int, tied: int, b: float) -> float:
    """Tolerant Spearman from the sorted (Ground Truth, reduced) accuracy
    ``pairs`` and their :func:`_pair_counts`."""
    if not b >= 0:  # also rejects NaN
        raise MetricError("tolerance b must be >= 0, got %r" % b)
    k = len(pairs)
    scored = k * (k - 1) // 2
    concordant = scored - tied - discordant
    # Take the neutral pairs back out. Sorted by Ground Truth, a model's gaps
    # to the models after it only grow (rounded subtraction is monotone), so
    # each scan stops at the first gap above b.
    for i, (gi, ri) in enumerate(pairs):
        for j in range(i + 1, k):
            gj, rj = pairs[j]
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


def _hard_rank_error(discordant: int, tied: int, k: int) -> float:
    return (discordant + 0.5 * tied) / (k * (k - 1) / 2)


def _retained(x: Sequence[float], y: Sequence[float], top_k: int, window: int) -> int:
    if top_k < 1 or window < 1:
        raise MetricError("top_k and window must be >= 1, got %d and %d" % (top_k, window))
    if len(x) < window:
        raise MetricError("retained_top needs at least window=%d models, got %d" % (window, len(x)))
    return sum(1 for rg, rr in zip(x, y) if rg <= top_k and rr <= window)


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
    pairs = sorted(zip(gt_acc.values(), map(red_acc.__getitem__, gt_acc)))
    return _tolerant(pairs, *_pair_counts(pairs), b)


def hard_rank_error(gt: RankVector, red: RankVector) -> float:
    """Fraction of unordered model pairs whose relative order flips between
    the two rankings; a pair tied in either ranking counts half.

    Cost: O(K log K) comparisons. The error count is a multiple of 1/2, so
    the result equals the pairwise definition exactly."""
    x, y = _aligned_ranks(gt, red)
    k = len(x)
    if k < 2:
        raise MetricError("hard rank error needs at least 2 models, got %d" % k)
    return _hard_rank_error(*_pair_counts(sorted(zip(x, y))), k)


def setting_scores(
    gt_values: Sequence[float],
    gt_ranks: Sequence[float],
    values: Sequence[float],
    b: float,
    top_k: int,
    windows: Sequence[int],
) -> tuple[float, tuple[int, ...], float, float, list[float]]:
    """One reduced setting against Ground Truth, from accuracy lists aligned
    on the same models and the Ground Truth's fractional ranks: (Spearman,
    :func:`retained_top` per window, tolerant Spearman, hard rank error, the
    setting's fractional ranks). One ranking and one :func:`_pair_counts`
    serve every score; each equals its public function's result exactly."""
    ranks = fractional_ranks(values)
    rho = _spearman_from_ranks(gt_ranks, ranks)
    retained = tuple(_retained(gt_ranks, ranks, top_k, w) for w in windows)
    pairs = sorted(zip(gt_values, values))
    discordant, tied = _pair_counts(pairs)
    tolerant = _tolerant(pairs, discordant, tied, b)
    return rho, retained, tolerant, _hard_rank_error(discordant, tied, len(pairs)), ranks


def entropy(values: Sequence[float]) -> float:
    """Monotonic-trend score of a value sequence: its Spearman coefficient
    against its positions. +1 means cleanly increasing, -1 cleanly
    decreasing; any strictly increasing base set would give the same score,
    because only ranks enter."""
    if len(values) < 2:
        raise MetricError("entropy needs at least 2 values, got %d" % len(values))
    return spearman_values(values, range(len(values)))


def retained_top(
    gt: RankVector, red: RankVector, top_k: int = 10, window: int = 15
) -> int:
    """How many Ground-Truth top-``top_k`` models stay within the reduced
    setting's top-``window``."""
    return _retained(*_aligned_ranks(gt, red), top_k, window)


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
    columns = {}
    for label, accuracies in setting_accuracies.items():
        ids = tuple(sorted(accuracies))
        columns[label] = ids, [accuracies[i] for i in ids]
    return rho_f_columns(columns, gt_label, [m], trials, seed)[0]


def rho_f_columns(
    columns: Mapping[str, tuple[tuple[str, ...], Sequence[float]]],
    gt_label: str,
    sizes: Sequence[int],
    trials: int = 100,
    seed: int = 0,
) -> list[float]:
    """:func:`rho_f_subsample` for each subsample size in ``sizes``, from
    each setting's column: its sorted model ids, as a tuple, and their
    accuracies in that order.

    Cost: one O(K log K) sort per setting and the full-zoo score ranks,
    shared by every size; then per size, trial and setting one ordering of
    the subsample by the full-zoo order: a filter of that order in C for
    zoos of up to 256 models and samples of up to 127, an O(m log m) sort
    otherwise. Doubled ranks are integers, so every squared rank difference
    is summed exactly and the result equals re-ranking each subsample from
    scratch.
    """
    if gt_label not in columns:
        raise MetricError("ground-truth label %r not present" % gt_label)
    labels = sorted(l for l in columns if l != gt_label)
    if len(labels) < 2:
        raise MetricError("need at least 2 reduced settings for rho_F")
    ids, gt = columns[gt_label]
    for m in sizes:
        if m < 3:
            raise MetricError("subsample size must be >= 3, got %d" % m)
        if m > len(ids):
            raise MetricError("subsample size %d exceeds zoo size %d" % (m, len(ids)))
    if trials < 1:
        raise MetricError("rho_F needs at least 1 trial, got %d" % trials)
    for label in labels:
        if columns[label][0] != ids:
            raise MetricError("setting %r covers a different model id set" % label)

    k = len(gt)
    gt_order, gt_group = _best_first(gt)
    # Samples sort by each model's place in a best-first order, its inverse.
    gt_place = sorted(range(k), key=gt_order.__getitem__).__getitem__
    # The settings without ties come first; rho_F does not depend on the
    # order of the settings, since squared half-integer rank gaps sum exactly.
    orders = [_best_first(columns[label][1]) for label in labels]
    orders.sort(key=lambda o: o[1] is not None)
    keys = [(sorted(range(k), key=order.__getitem__).__getitem__, g) for order, g in orders]
    # With at most 256 models each model index fits in a byte, and so does a
    # doubled rank in a sample of at most 127. Then a setting's sample in
    # best-first order is its whole best-first order with the other models
    # deleted, which bytes.translate does while it looks up each model's
    # Ground-Truth rank.
    as_bytes = k <= 256
    if as_bytes:
        untied_bytes = [bytes(order) for order, group in orders if group is None]
        everyone = bytes(range(k))
    gt_rank = [0] * k  # doubled Ground-Truth rank of each model in the sample
    gt_rank_of = gt_rank.__getitem__

    def scores(idx) -> list[float]:
        """Every reduced setting's Spearman against Ground Truth on ``idx``,
        each from one ordering of ``idx`` and one sum of rank products."""
        n = len(idx)
        order = sorted(idx, key=gt_place)
        ranks, gt_sq = _doubled_ranks(order, gt_group)
        for i, rank in zip(order, ranks):
            gt_rank[i] = rank
        # 4 * sum(d^2) for each setting, exact because doubled ranks are
        # integers. The untied settings on the byte path come first; every
        # other setting sorts the sample, and an untied one gets the evens.
        d2x4 = []
        if as_bytes and 2 * n < 256:
            evens, evens_sq = _doubled_ranks(range(n), None)
            table = bytearray(256)
            for i, rank in zip(order, ranks):
                table[i] = rank
            others = everyone.translate(None, bytes(idx))
            d2x4 = [
                gt_sq + evens_sq - 2 * sum(map(mul, whole.translate(table, others), evens))
                for whole in untied_bytes
            ]
        for key, group in keys[len(d2x4):]:
            order = sorted(idx, key=key)
            ranks, sq = _doubled_ranks(order, group)
            d2x4.append(gt_sq + sq - 2 * sum(map(mul, map(gt_rank_of, order), ranks)))
        return [_spearman_from_d2(d / 4, n) for d in d2x4]

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


def _best_first(values: Sequence[float]) -> tuple:
    """The positions of ``values`` in best-first order and each position's
    tie-group id, or None for the groups when no two values are equal."""
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    distinct = set(values)
    if len(distinct) == len(values):
        return order, None
    gid = dict(zip(distinct, range(len(distinct))))
    return order, list(map(gid.__getitem__, values))


def _doubled_ranks(order, group: list[int] | None) -> tuple:
    """The fractional ranks, times two (always integers), of the positions
    ``order``, given best first, among themselves, and the sum of their
    squares; ``group`` holds each position's tie group, None for no ties."""
    n = len(order)
    if group is None:
        return range(2, 2 * n + 1, 2), 2 * n * (n + 1) * (2 * n + 1) // 3
    ranks: list[int] = []
    for _, run in groupby(map(group.__getitem__, order)):
        size = len(list(run))
        ranks += [2 * len(ranks) + size + 1] * size  # twice the run's mean rank
    return ranks, sum(map(mul, ranks, ranks))


def overfit_gap(records: Iterable) -> float:
    """Mean train-minus-test accuracy over one setting's records."""
    gaps = []
    for rec in records:
        if rec.train_accuracy is None:
            raise MetricError("record for %r has no train accuracy" % rec.model_id)
        gaps.append(rec.train_accuracy - rec.test_accuracy)
    if not gaps:
        raise MetricError("no records given")
    return left_sum(gaps) / len(gaps)


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

import itertools
import random

import pytest

from econas.metrics import (
    ConsistencyRow,
    MetricError,
    RankVector,
    entropy,
    fractional_ranks,
    hard_rank_error,
    recommend_settings,
    retained_top,
    rho_f_subsample,
    spearman,
    spearman_accuracies,
    spearman_values,
    tolerant_spearman,
)
from econas.records import EvaluationRecord
from econas.metrics import overfit_gap


# -- independent oracles ------------------------------------------------------


def oracle_ranks(values):
    """O(K^2) ranking: rank = 1 + #strictly-better + half the other ties."""
    return [
        1.0 + sum(v > x for v in values) + (sum(v == x for v in values) - 1) / 2.0
        for x in values
    ]


def oracle_spearman(x_vals, y_vals):
    rx, ry = oracle_ranks(x_vals), oracle_ranks(y_vals)
    k = len(rx)
    d2 = sum((a - b) ** 2 for a, b in zip(rx, ry))
    return 1.0 - 6.0 * d2 / (k * (k * k - 1))


def oracle_pairwise_discordance(x_ranks, y_ranks):
    total = errors = 0.0
    for i, j in itertools.combinations(range(len(x_ranks)), 2):
        total += 1
        sx = (x_ranks[i] > x_ranks[j]) - (x_ranks[i] < x_ranks[j])
        sy = (y_ranks[i] > y_ranks[j]) - (y_ranks[i] < y_ranks[j])
        if sx == 0 or sy == 0:
            errors += 0.5
        elif sx != sy:
            errors += 1.0
    return errors / total


def vecs(gt_values, red_values):
    ids = ["m%03d" % i for i in range(len(gt_values))]
    return (
        RankVector.from_accuracies(dict(zip(ids, gt_values))),
        RankVector.from_accuracies(dict(zip(ids, red_values))),
    )


# -- fractional ranks ----------------------------------------------------------


def test_fractional_ranks_basic_and_ties():
    assert fractional_ranks([0.9, 0.7, 0.8]) == [1.0, 3.0, 2.0]
    assert fractional_ranks([0.5, 0.5, 0.1]) == [1.5, 1.5, 3.0]
    assert fractional_ranks([1, 1, 1]) == [2.0, 2.0, 2.0]
    for trial in range(50):
        rng = random.Random(trial)
        values = [rng.random() for _ in range(30)]
        assert fractional_ranks(values) == oracle_ranks(values)
        with_ties = [round(v, 1) for v in values]
        assert fractional_ranks(with_ties) == oracle_ranks(with_ties)


# -- spearman -------------------------------------------------------------------


def test_spearman_examples():
    gt, red = vecs([0.9, 0.8, 0.7, 0.6], [0.9, 0.8, 0.7, 0.6])
    assert spearman(gt, red) == 1.0
    gt, red = vecs([0.9, 0.8, 0.7, 0.6], [0.6, 0.7, 0.8, 0.9])
    assert spearman(gt, red) == -1.0
    # ranks (1,2,3) vs (2,1,3): sum d^2 = 2 -> 1 - 12/24
    gt, red = vecs([0.9, 0.8, 0.7], [0.8, 0.9, 0.7])
    assert spearman(gt, red) == 0.5
    assert oracle_spearman([0.9, 0.8, 0.7], [0.8, 0.9, 0.7]) == 0.5


def test_spearman_matches_oracle_on_random_permutations():
    rng = random.Random(123)
    for trial in range(200):
        k = rng.randint(2, 100)
        x = list(range(k))
        y = list(range(k))
        rng.shuffle(x)
        rng.shuffle(y)
        xs = [float(v) for v in x]
        ys = [float(v) for v in y]
        assert abs(spearman_values(xs, ys) - oracle_spearman(xs, ys)) < 1e-12


def test_spearman_self_and_reverse_exact():
    rng = random.Random(7)
    for k in (2, 3, 10, 57, 100):
        values = rng.sample(range(10 * k), k)
        ids = ["m%d" % i for i in range(k)]
        acc = dict(zip(ids, map(float, values)))
        rev = {i: -v for i, v in acc.items()}
        assert spearman_accuracies(acc, acc) == 1.0
        assert spearman_accuracies(acc, rev) == -1.0


def test_spearman_monotone_transform_invariance():
    rng = random.Random(11)
    for trial in range(50):
        k = rng.randint(3, 40)
        x = [rng.random() for _ in range(k)]
        y = [rng.random() for _ in range(k)]
        base = spearman_values(x, y)
        assert spearman_values([2.0 * v + 1.0 for v in x], y) == base
        assert spearman_values([v**3 for v in x], [10.0 ** v for v in y]) == base


def test_spearman_with_ties_uses_average_ranks():
    gt, red = vecs([0.9, 0.9, 0.1], [0.9, 0.5, 0.1])
    # gt ranks (1.5, 1.5, 3); red ranks (1, 2, 3); sum d^2 = 0.5
    assert spearman(gt, red) == 1.0 - 6.0 * 0.5 / (3 * 8)


def test_spearman_errors():
    gt, _ = vecs([0.9, 0.8], [0.8, 0.9])
    other = RankVector.from_accuracies({"x": 0.5, "y": 0.4})
    with pytest.raises(MetricError):
        spearman(gt, other)
    with pytest.raises(MetricError):
        spearman_accuracies({"a": 0.5}, {"a": 0.5})


# -- tolerant spearman --------------------------------------------------------------


def test_tolerant_identical_and_all_neutral():
    acc = {"a": 0.95, "b": 0.90, "c": 0.85}
    assert tolerant_spearman(acc, acc, b=0.0) == 1.0
    near = {"a": 0.9001, "b": 0.9002, "c": 0.9003}
    assert tolerant_spearman(near, near, b=0.0015) == 1.0  # every pair neutral


def test_tolerant_b0_equals_sign_statistic():
    rng = random.Random(3)
    for trial in range(50):
        k = rng.randint(3, 25)
        ids = ["m%d" % i for i in range(k)]
        gt = {i: rng.random() for i in ids}
        red = {i: rng.random() for i in ids}
        conc = disc = 0
        for i, j in itertools.combinations(ids, 2):
            prod = (gt[i] - gt[j]) * (red[i] - red[j])
            conc += prod > 0
            disc += prod < 0
        expected = (conc - disc) / (conc + disc)
        assert tolerant_spearman(gt, red, b=0.0) == pytest.approx(expected, abs=1e-15)


def test_tolerant_example_partial_neutrality():
    gt = {"a": 0.950, "b": 0.949, "c": 0.90}
    red = {"a": 0.80, "b": 0.81, "c": 0.70}
    # (a,b): within b in gt only -> scored, signs disagree -> discordant.
    # (a,c), (b,c): concordant. Result (2 - 1) / 3.
    assert tolerant_spearman(gt, red, b=0.0015) == pytest.approx(1.0 / 3.0)


def test_tolerant_rank_agreement_with_hre_complement():
    # With b=0 and tie-free data the two statistics order settings identically.
    rng = random.Random(19)
    ids = ["m%d" % i for i in range(20)]
    gt = {i: rng.random() for i in ids}
    gt_vec = RankVector.from_accuracies(gt)
    tolerant_vals, hre_complements = [], []
    for case in range(100):
        red = {i: rng.random() for i in ids}
        tolerant_vals.append(tolerant_spearman(gt, red, b=0.0))
        hre_complements.append(
            1.0 - hard_rank_error(gt_vec, RankVector.from_accuracies(red))
        )
    assert spearman_values(tolerant_vals, hre_complements) == pytest.approx(1.0)
    for t, h in zip(tolerant_vals, hre_complements):
        assert (t > 0) == (h > 0.5) or t == 0


def test_tolerant_scores_tiny_gaps_by_sign():
    # 5e-324 * 0.5 underflows to 0.0; the pair is still ordered alike.
    assert tolerant_spearman({"a": 0.0, "b": 5e-324}, {"a": 0.0, "b": 0.5}, b=0.0) == 1.0
    assert tolerant_spearman({"a": 0.0, "b": 5e-324}, {"a": 0.5, "b": 0.0}, b=0.0) == -1.0


def test_tolerant_errors():
    with pytest.raises(MetricError):
        tolerant_spearman({"a": 0.5}, {"b": 0.5})
    with pytest.raises(MetricError):
        tolerant_spearman({"a": 0.5, "b": 0.4}, {"a": 0.5, "b": 0.4}, b=-0.1)


# -- hard rank error -----------------------------------------------------------------


def test_hre_examples():
    gt, red = vecs([0.9, 0.8, 0.7], [0.9, 0.8, 0.7])
    assert hard_rank_error(gt, red) == 0.0
    gt, red = vecs([0.9, 0.8, 0.7, 0.6], [0.6, 0.7, 0.8, 0.9])
    assert hard_rank_error(gt, red) == 1.0
    gt, red = vecs([0.9, 0.8, 0.7], [0.8, 0.9, 0.7])
    assert hard_rank_error(gt, red) == pytest.approx(1.0 / 3.0)


def test_hre_symmetry_and_rho_link():
    rng = random.Random(5)
    for trial in range(30):
        k = rng.randint(3, 30)
        x = rng.sample(range(1000), k)
        y = rng.sample(range(1000), k)
        gt, red = vecs([float(v) for v in x], [float(v) for v in y])
        assert hard_rank_error(gt, red) == hard_rank_error(red, gt)
        assert (hard_rank_error(gt, red) == 0.0) == (spearman(gt, red) == 1.0)
        assert hard_rank_error(gt, red) == pytest.approx(
            oracle_pairwise_discordance(list(gt.ranks), [red.rank_of()[i] for i in gt.model_ids])
        )


def test_hre_ties_count_half():
    gt, red = vecs([0.9, 0.9, 0.1], [0.9, 0.8, 0.1])
    # one tied pair in gt out of three pairs
    assert hard_rank_error(gt, red) == pytest.approx(0.5 / 3.0)


# -- entropy -------------------------------------------------------------------------


def test_entropy_examples():
    assert entropy([0.70, 0.74, 0.79, 0.85]) == 1.0
    assert entropy([0.85, 0.79, 0.74, 0.70]) == -1.0
    assert entropy([5, 3, 4, 1, 2]) == pytest.approx(-0.8)
    assert entropy([5, 3, 4, 1, 2]) == pytest.approx(
        oracle_spearman([5, 3, 4, 1, 2], [1, 2, 3, 4, 5])
    )


def test_entropy_base_set_invariance():
    values = [0.3, 0.9, 0.1, 0.5]
    assert entropy(values) == spearman_values(values, [-5.0, 0.1, 7.3, 400.0])
    with pytest.raises(MetricError):
        entropy([0.5])


# -- retained top ---------------------------------------------------------------------


def test_retained_top_examples():
    rng = random.Random(2)
    values = [float(v) for v in rng.sample(range(200), 50)]
    gt, red = vecs(values, values)
    assert retained_top(gt, red, top_k=10, window=15) == 10
    gt, red = vecs(values, [-v for v in values])
    assert retained_top(gt, red, top_k=10, window=15) == 0


def test_retained_top_monotone_in_window():
    rng = random.Random(9)
    values = [float(v) for v in rng.sample(range(500), 60)]
    other = [float(v) for v in rng.sample(range(500), 60)]
    gt, red = vecs(values, other)
    counts = [retained_top(gt, red, top_k=10, window=w) for w in (12, 15, 20, 30, 60)]
    assert counts == sorted(counts)


def test_retained_top_random_permutation_expectation():
    # E[count] = 10 * 15/50 = 3 for a uniformly random reduced ranking.
    rng = random.Random(31)
    k, trials = 50, 10_000
    gt_values = [float(v) for v in range(k)]
    total = 0
    for _ in range(trials):
        red_values = gt_values[:]
        rng.shuffle(red_values)
        gt, red = vecs(gt_values, red_values)
        total += retained_top(gt, red, top_k=10, window=15)
    assert abs(total / trials - 3.0) < 0.1


def test_retained_top_window_error():
    gt, red = vecs([0.9, 0.8], [0.8, 0.9])
    with pytest.raises(MetricError):
        retained_top(gt, red, top_k=1, window=15)


# -- rho_F ---------------------------------------------------------------------------


def _setting_maps(k=12, settings=5, seed=0):
    rng = random.Random(seed)
    ids = ["m%02d" % i for i in range(k)]
    gt = {i: rng.random() for i in ids}
    maps = {"gt": gt}
    for s in range(settings):
        noise = 0.05 * (s + 1)
        maps["s%d" % s] = {i: gt[i] + rng.uniform(-noise, noise) for i in ids}
    return maps


def test_rho_f_full_subsample_is_one():
    maps = _setting_maps()
    assert rho_f_subsample(maps, "gt", m=12, trials=5, seed=1) == 1.0


def test_rho_f_two_settings_trial_values():
    maps = _setting_maps(settings=2, seed=3)
    value = rho_f_subsample(maps, "gt", m=5, trials=1, seed=2)
    assert value in (-1.0, 1.0) or value == 0.5  # 0.5 only if the pair ties


def test_rho_f_errors():
    maps = _setting_maps()
    with pytest.raises(MetricError):
        rho_f_subsample(maps, "gt", m=2, trials=5)
    with pytest.raises(MetricError):
        rho_f_subsample(maps, "gt", m=13, trials=5)
    with pytest.raises(MetricError):
        rho_f_subsample(maps, "missing", m=5, trials=5)
    with pytest.raises(MetricError):
        rho_f_subsample({"gt": maps["gt"], "s0": maps["s0"]}, "gt", m=5, trials=5)


def test_rho_f_deterministic_in_seed():
    maps = _setting_maps(settings=6, seed=5)
    a = rho_f_subsample(maps, "gt", m=6, trials=20, seed=42)
    b = rho_f_subsample(maps, "gt", m=6, trials=20, seed=42)
    c = rho_f_subsample(maps, "gt", m=6, trials=20, seed=43)
    assert a == b
    assert a != c


# -- overfit gap -----------------------------------------------------------------------


def _records(pairs):
    return [
        EvaluationRecord("m%d" % i, "c0r0s0e30", test, train, 30)
        for i, (test, train) in enumerate(pairs)
    ]


def test_overfit_gap():
    assert overfit_gap(_records([(0.8, 0.8), (0.7, 0.7)])) == 0.0
    assert overfit_gap(_records([(0.8, 0.85), (0.7, 0.75)])) == pytest.approx(0.05)
    with pytest.raises(MetricError):
        overfit_gap(_records([(0.8, None)]))
    with pytest.raises(MetricError):
        overfit_gap([])


def test_overfit_gap_adds_gaps_from_the_left():
    # (test, train) pairs whose gaps a compensated sum would total differently.
    pairs = [(0.094, 0.028), (0.836, 0.433), (0.762, 0.002), (0.445, 0.722)]
    assert overfit_gap(_records(pairs)) == -0.23800000000000004


def test_spearman_adds_squared_differences_from_the_left():
    # d^2 = (1e16, 1, 1): from the left both 1s are lost; a compensated sum keeps them.
    ids = ("a", "b", "c")
    rho = spearman(RankVector(ids, (1e8, 1.0, 1.0)), RankVector(ids, (0.0, 0.0, 0.0)))
    assert rho == 1.0 - 1e16 / 4


# -- recommendations ---------------------------------------------------------------------


def _row(label, rho, accel):
    return ConsistencyRow(
        label=label,
        rho_sp=rho,
        tolerant_rho=rho,
        hre=1 - rho,
        speedup=1,
        acceleration=accel,
        retained=(0,),
    )


def test_recommend_single_setting():
    picks = recommend_settings([_row("c0r0s0e30", 0.7, 2.0)])
    assert len(picks) == 1 and picks[0].row.label == "c0r0s0e30"
    assert picks[0].bucket == 1


def test_recommend_argmax_within_bucket():
    rows = [_row("a", 0.8, 2.0), _row("b", 0.7, 3.9)]
    picks = recommend_settings(rows)
    assert len(picks) == 1 and picks[0].row.label == "a"


def test_recommend_tie_breaking():
    rows = [_row("bbb", 0.8, 2.0), _row("aaa", 0.8, 2.0), _row("ccc", 0.8, 3.0)]
    picks = recommend_settings(rows)
    # equal rho: higher acceleration wins; label breaks the remaining tie
    assert picks[0].row.label == "ccc"
    rows = [_row("bbb", 0.8, 2.0), _row("aaa", 0.8, 2.0)]
    assert recommend_settings(rows)[0].row.label == "aaa"


def test_recommend_matches_bruteforce():
    rng = random.Random(17)
    rows = [
        _row("s%02d" % i, round(rng.uniform(0.2, 0.99), 3), rng.uniform(1.0, 500.0))
        for i in range(60)
    ]
    picks = recommend_settings(rows)
    import math

    buckets = {}
    for row in rows:
        buckets.setdefault(math.floor(math.log2(row.acceleration)), []).append(row)
    assert len(picks) == len(buckets)
    for pick in picks:
        candidates = buckets[pick.bucket]
        best_rho = max(r.rho_sp for r in candidates)
        assert pick.row.rho_sp == best_rho

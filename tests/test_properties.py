"""Property tests over generated inputs (hypothesis)."""

import dataclasses
import hashlib
import json

from hypothesis import example, given, settings, strategies as st

from econas.genotype import (
    NetworkConfig,
    OutputRule,
    SEARCH8,
    ZOO13,
    decode,
    encode,
    mutate,
    random_genotype,
    slot_diff,
)
import rank_oracles as oracle
from test_metrics import oracle_ranks
from econas.metrics import (
    RankVector,
    fractional_ranks,
    hard_rank_error,
    rho_f_columns,
    rho_f_subsample,
    spearman_values,
    tolerant_spearman,
)
from econas.proxy import ReducedSetting, format_label, nominal_speedup, parse_label
from econas.seeding import derive_rng

settings.register_profile("suite", deadline=None, max_examples=200)
settings.load_profile("suite")


@given(
    c=st.integers(0, 30),
    r=st.integers(0, 30),
    s=st.integers(0, 30),
    e=st.integers(1, 100_000),
)
def test_label_round_trip(c, r, s, e):
    setting = ReducedSetting(c, r, s, e)
    assert parse_label(format_label(setting)) == setting
    assert nominal_speedup(setting) == 2 ** (c + r + s)


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60))
def test_spearman_bounded_and_self_perfect(values):
    assert -1.0 <= spearman_values(values, values[::-1]) <= 1.0
    assert spearman_values(values, values) == 1.0


@given(
    st.one_of(
        st.lists(st.integers(-1000, 1000), max_size=50).map(lambda l: [float(v) for v in l]),
        # Few distinct values, 0.0 and -0.0 among them: ties everywhere.
        st.lists(st.sampled_from([0.0, -0.0, 0.25, -1.5, 3.0]), max_size=40),
    )
)
@example([])
@example([-0.0])
def test_fractional_ranks_partition_positions(values):
    ranks = fractional_ranks(values)
    n = len(values)
    assert sum(ranks) == n * (n + 1) / 2  # rank mass is conserved under ties
    assert all(1.0 <= r <= n for r in ranks)
    # rho_F's oracle ranks through fractional_ranks, which shares its tie
    # walk with rho_F; the pairwise ranks keep that oracle independent.
    assert ranks == oracle_ranks(values)


@given(
    seed=st.integers(0, 10_000),
    node_count=st.integers(1, 6),
    zoo=st.booleans(),
    mutations=st.integers(1, 8),
)
def test_mutation_chain_stays_valid_and_single_step(seed, node_count, zoo, mutations):
    op_set = ZOO13 if zoo else SEARCH8
    rule = OutputRule.ALL_INTERMEDIATE if zoo else OutputRule.UNUSED_ONLY
    g = random_genotype(
        derive_rng("prop", seed), NetworkConfig(node_count=node_count), op_set, rule
    )
    assert decode(encode(g)) == g
    current = g
    for step in range(mutations):
        child = mutate(current, derive_rng("prop-mut", seed, step))
        assert slot_diff(current, child) == 1
        child.normal.validate()
        child.reduction.validate()
        assert decode(encode(child)) == child
        current = child


@given(
    seed=st.integers(0, 10_000),
    node_count=st.integers(1, 6),
    zoo=st.booleans(),
    mutations=st.integers(0, 4),
    indent=st.sampled_from([None, 0, 2, "\t"]),
)
def test_cached_document_is_canonical(seed, node_count, zoo, mutations, indent):
    op_set = ZOO13 if zoo else SEARCH8
    rule = OutputRule.ALL_INTERMEDIATE if zoo else OutputRule.UNUSED_ONLY
    g = random_genotype(
        derive_rng("doc", seed), NetworkConfig(node_count=node_count), op_set, rule
    )
    for step in range(mutations):
        g = mutate(g, derive_rng("doc-mut", seed, step))
    doc = encode(g)
    assert encode(g) is doc  # built once per instance
    assert encode(dataclasses.replace(g)) == doc  # an uncached re-encoding
    assert g.content_hash == hashlib.sha256(doc.encode("utf-8")).hexdigest()
    assert decode(doc) == g
    # Decoding other whitespace re-encodes from the fields, not the input text.
    other = json.dumps(json.loads(doc), indent=indent)
    assert other != doc
    assert encode(decode(other)) == doc


# -- rank kernels against their pairwise definitions -----------------------------

# Gaps between these underflow when multiplied together.
SUBNORMAL = (0.0, 5e-324, 1e-323, 2.2250738585072014e-308, 1.0)


@st.composite
def accuracy_maps(draw, count, min_k=2, max_k=60):
    """``count`` accuracy maps over the same K model ids, drawing values
    from [0, 1], from a small set (heavy ties) or with subnormal gaps."""
    kind = draw(st.sampled_from(["spread", "ties", "subnormal"]))
    if kind == "spread":
        values = st.floats(0.0, 1.0)
    elif kind == "ties":
        values = st.sampled_from(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)))
    else:
        values = st.sampled_from(SUBNORMAL)
    ids = ["m%02d" % i for i in range(draw(st.integers(min_k, max_k)))]
    return [{i: draw(values) for i in ids} for _ in range(count)]


@given(
    accuracy_maps(2),
    st.one_of(st.sampled_from([0.0, 0.0015]), st.floats(0.0, 0.5)),
)
def test_pair_kernels_equal_their_pairwise_definitions(maps, b):
    gt, red = maps
    assert tolerant_spearman(gt, red, b) == oracle.tolerant_spearman(gt, red, b)
    # Every accuracy lies in [0, 1], so at b = 1 every pair is neutral.
    assert tolerant_spearman(gt, red, 1.0) == oracle.tolerant_spearman(gt, red, 1.0) == 1.0
    gt_vec, red_vec = RankVector.from_accuracies(gt), RankVector.from_accuracies(red)
    assert hard_rank_error(gt_vec, red_vec) == oracle.hard_rank_error(gt_vec, red_vec)


def _columns(by_label):
    """Each setting's sorted model ids and their accuracies in that order."""
    return {
        label: (tuple(sorted(accuracies)), [accuracies[i] for i in sorted(accuracies)])
        for label, accuracies in by_label.items()
    }


@settings(max_examples=60)
@given(
    maps=st.integers(3, 6).flatmap(lambda n: accuracy_maps(n, min_k=3, max_k=30)),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    seed=st.integers(0, 1000),
)
def test_rho_f_equals_re_ranking_every_subsample(maps, fractions, seed):
    by_label = {"s%d" % i: accuracies for i, accuracies in enumerate(maps)}
    k = len(maps[0])
    sizes = [3 + round(fraction * (k - 3)) for fraction in fractions]
    expected = [oracle.rho_f_subsample(by_label, "s0", m, trials=4, seed=seed) for m in sizes]
    assert [rho_f_subsample(by_label, "s0", m, trials=4, seed=seed) for m in sizes] == expected
    assert rho_f_columns(_columns(by_label), "s0", sizes, trials=4, seed=seed) == expected


@settings(max_examples=10)
@given(
    k=st.sampled_from([127, 128, 256, 257, 300]),
    ties=st.booleans(),
    seed=st.integers(0, 1000),
)
def test_rho_f_on_zoos_past_a_byte_equals_re_ranking(k, ties, seed):
    # Up to 256 models and samples of up to 127, ranks are looked up through
    # bytes; other sizes sort. Both meet the oracle.
    rng = derive_rng("big-zoo", k, seed)
    by_label = {
        "s%d" % s: {
            "m%03d" % i: (rng.randrange(5) / 4 if ties and s == 1 else rng.random())
            for i in range(k)
        }
        for s in range(4)
    }
    sizes = sorted({3, 127, min(128, k), k})
    expected = [oracle.rho_f_subsample(by_label, "s0", m, trials=2, seed=seed) for m in sizes]
    assert rho_f_columns(_columns(by_label), "s0", sizes, trials=2, seed=seed) == expected

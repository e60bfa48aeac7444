import math
import statistics

import pytest

from econas.evaluator import ContractViolation
from econas.genotype import (
    CellSpec,
    Genotype,
    InputRef,
    NetworkConfig,
    NodeSpec,
    OperationKind,
    OperationSet,
    OutputRule,
    SEARCH8,
    ZOO13,
    random_genotype,
)
from econas.metrics import spearman_accuracies
from econas.proxy import CIFAR10_TABLE, IMAGENET_TABLE, ReducedSetting
from econas.seeding import derive_rng
from econas.surrogate import (
    DEFAULT_OP_SCORES,
    SurrogateError,
    SurrogateEvaluator,
    SurrogateParams,
    enumerate_space,
    make_token,
    space_size,
    surrogate_evaluate,
    true_quality,
)


def _genotype(seed=0, node_count=4, op_set=SEARCH8):
    return random_genotype(
        derive_rng("surrogate", seed), NetworkConfig(node_count=node_count), op_set,
        OutputRule.UNUSED_ONLY,
    )


# -- params ---------------------------------------------------------------------


def test_params_invariants_enforced():
    with pytest.raises(SurrogateError):
        SurrogateParams(beta_c=(0.01, 0.02, 0.03, 0.04, 0.05))  # must be non-increasing
    with pytest.raises(SurrogateError):
        SurrogateParams(beta_r=(0.05, 0.01, 0.02, 0.03, 0.04))  # must be non-decreasing
    with pytest.raises(SurrogateError):
        SurrogateParams(beta_s=(0.0, -0.01, 0.02, 0.03))
    with pytest.raises(SurrogateError):
        SurrogateParams(sigma_s=(0.02, 0.01, 0.03, 0.04))
    with pytest.raises(SurrogateError):
        SurrogateParams(tau=0.0)


@pytest.mark.parametrize("name,direction", [
    ("beta_c", "non-increasing"),
    ("beta_r", "non-decreasing"),
    ("beta_s", "non-decreasing"),
    ("sigma_c", "non-decreasing"),
    ("sigma_r", "non-decreasing"),
    ("sigma_s", "non-decreasing"),
])
def test_every_ladder_rejects_a_negative_entry_and_a_wrong_step(name, direction):
    ladder = [0.0, 0.01, 0.02, 0.03]
    if direction == "non-increasing":
        ladder.reverse()
    SurrogateParams(**{name: tuple(ladder)})
    negative = [-0.01 if v == 0.0 else v for v in ladder]  # the direction still holds
    with pytest.raises(SurrogateError, match="^%s must be non-negative$" % name):
        SurrogateParams(**{name: tuple(negative)})
    with pytest.raises(SurrogateError, match="^%s must be %s$" % (name, direction)):
        SurrogateParams(**{name: tuple(reversed(ladder))})


def test_params_roundtrip_and_packaged_document(tmp_path):
    params = SurrogateParams()
    path = tmp_path / "params.json"
    params.save(str(path))
    assert SurrogateParams.load(str(path)) == params

    import importlib.resources as resources

    with resources.as_file(
        resources.files("econas").joinpath("data/surrogate_cifar10.json")
    ) as packaged:
        assert SurrogateParams.load(str(packaged)) == params


def test_params_save_writes_the_packaged_document_bytes(tmp_path):
    import importlib.resources as resources

    path = tmp_path / "params.json"
    SurrogateParams().save(str(path))
    packaged = resources.files("econas").joinpath("data/surrogate_cifar10.json")
    assert path.read_bytes() == packaged.read_bytes()


def test_params_op_scores_left_out_keep_their_defaults(tmp_path):
    path = tmp_path / "params.json"
    path.write_text('{"kind": "surrogate_params", "op_scores": {"conv_3x3": 0.9}}')
    params = SurrogateParams.load(str(path))
    assert params.op_scores == {**DEFAULT_OP_SCORES, OperationKind.CONV_3X3: 0.9}


def test_params_fit_both_builtin_tables():
    SurrogateParams().validate_for_table(CIFAR10_TABLE)
    SurrogateParams().validate_for_table(IMAGENET_TABLE)
    short = SurrogateParams(beta_c=(0.05, 0.04), sigma_c=(0.0, 0.0))
    with pytest.raises(SurrogateError):
        short.validate_for_table(CIFAR10_TABLE)


# -- true quality -----------------------------------------------------------------


def test_quality_deterministic_function_of_content():
    params = SurrogateParams()
    a = _genotype(seed=4)
    b = _genotype(seed=4)
    assert a == b
    assert true_quality(a, params) == true_quality(b, params)
    assert 0.0 < true_quality(a, params) < 1.0


def test_true_quality_adds_op_scores_from_the_left():
    # A compensated sum of these 20 scores gives 0.726901.
    g = random_genotype(
        derive_rng("naive", 5), NetworkConfig(node_count=5), ZOO13, OutputRule.ALL_INTERMEDIATE
    )
    assert true_quality(g, SurrogateParams()) == 0.7269009999999999


def test_all_zeros_genotype_minimal_op_contribution():
    zeros_set = OperationSet("z", (OperationKind.ZEROS, OperationKind.SEP_CONV_5X5))
    params = SurrogateParams()
    nodes_zero = tuple(
        NodeSpec(InputRef.cell(0), InputRef.cell(1), OperationKind.ZEROS, OperationKind.ZEROS)
        for _ in range(3)
    )
    nodes_conv = tuple(
        NodeSpec(
            InputRef.cell(0), InputRef.cell(1),
            OperationKind.SEP_CONV_5X5, OperationKind.SEP_CONV_5X5,
        )
        for _ in range(3)
    )
    g_zero = Genotype(CellSpec(nodes_zero, OutputRule.UNUSED_ONLY), CellSpec(nodes_zero, OutputRule.UNUSED_ONLY), zeros_set)
    g_conv = Genotype(CellSpec(nodes_conv, OutputRule.UNUSED_ONLY), CellSpec(nodes_conv, OutputRule.UNUSED_ONLY), zeros_set)
    assert true_quality(g_zero, params) < true_quality(g_conv, params)
    # same wiring: the difference is exactly the op-preference range
    assert true_quality(g_zero, params) == pytest.approx(
        params.quality_low
        + (params.quality_high - params.quality_low)
        * params.connectivity_weight
        * (2 / 4 + 2 / 4)
        / 2
    )


# -- evaluation --------------------------------------------------------------------


def test_same_call_twice_identical():
    ev = SurrogateEvaluator(SurrogateParams(), CIFAR10_TABLE)
    g = _genotype(seed=1)
    s = ReducedSetting(2, 1, 1, 30)
    assert ev.evaluate(g, s, 0, 30) == ev.evaluate(g, s, 0, 30)


def test_resume_equals_direct():
    ev = SurrogateEvaluator(SurrogateParams(), CIFAR10_TABLE)
    g = _genotype(seed=2)
    s = ReducedSetting(4, 4, 0, 20)
    first = ev.evaluate(g, s, 0, 20)
    second = ev.evaluate(g, s.with_epochs(40), 20, 40, first.resume_token)
    direct = ev.evaluate(g, s.with_epochs(40), 0, 40)
    assert second == direct


def test_resume_token_mismatch_is_contract_violation():
    ev = SurrogateEvaluator(SurrogateParams(), CIFAR10_TABLE)
    g, other = _genotype(seed=3), _genotype(seed=4)
    s = ReducedSetting(0, 0, 0, 20)
    token = ev.evaluate(other, s, 0, 20).resume_token
    with pytest.raises(ContractViolation):
        ev.evaluate(g, s.with_epochs(40), 20, 40, token)
    with pytest.raises(ContractViolation):
        ev.evaluate(g, s.with_epochs(40), 30, 40, make_token(g.content_hash, 20))
    with pytest.raises(ContractViolation):
        ev.evaluate(g, s, 20, 20)  # empty span


def test_monotone_learning_curves_without_noise():
    params = SurrogateParams(sigma_base=0.0, sigma_s=(0.0, 0.0, 0.0, 0.0))
    for seed in range(10):
        g = _genotype(seed=seed, node_count=5, op_set=ZOO13)
        for dims in ((0, 0, 0), (4, 4, 0), (0, 4, 1), (2, 2, 1)):
            s = ReducedSetting(dims[0], dims[1], dims[2], 1)
            accs = [
                surrogate_evaluate(g, s.with_epochs(e), 0, e, params, CIFAR10_TABLE).accuracy
                for e in (1, 5, 10, 30, 60, 120, 300, 600, 1200)
            ]
            assert all(a <= b + 1e-15 for a, b in zip(accs, accs[1:])), (dims, accs)


def test_long_training_limit_is_true_quality():
    params = SurrogateParams(
        beta_c=(0.0,) * 5, beta_r=(0.0,) * 5, beta_s=(0.0,) * 4,
        sigma_base=0.0, sigma_s=(0.0,) * 4,
    )
    g = _genotype(seed=6)
    s = ReducedSetting(0, 0, 0, 1)
    acc = surrogate_evaluate(g, s.with_epochs(10_000), 0, 10_000, params, CIFAR10_TABLE).accuracy
    assert acc == pytest.approx(true_quality(g, params), abs=1e-12)


def test_train_gap_shrinks_with_channel_index():
    ev = SurrogateEvaluator(SurrogateParams(), CIFAR10_TABLE)
    g = _genotype(seed=7)
    gaps = []
    for a in range(5):
        r = ev.evaluate(g, ReducedSetting(a, 0, 0, 60), 0, 60)
        gaps.append(r.train_accuracy - r.accuracy)
    assert all(x > y for x, y in zip(gaps, gaps[1:]))


# -- qualitative zoo regressions (default seed) -------------------------------------


def _mean_rho(grid_accuracies, gt_label, s_idx, epochs):
    gt = grid_accuracies[gt_label]
    values = []
    for a in range(5):
        for b in range(5):
            label = "c%dr%ds%de%d" % (a, b, s_idx, epochs)
            values.append(spearman_accuracies(gt, grid_accuracies[label]))
    return statistics.mean(values)


def test_epoch_training_sharpens_ranking(grid_accuracies):
    m30 = _mean_rho(grid_accuracies, "c0r0s0e600", 0, 30)
    m60 = _mean_rho(grid_accuracies, "c0r0s0e600", 0, 60)
    assert m60 - m30 > 0.02
    # pinned regression values from the default-seed run
    assert m30 == pytest.approx(0.5626641056422569, abs=1e-9)
    assert m60 == pytest.approx(0.8703711884753902, abs=1e-9)


def test_adopted_proxy_setting_is_consistent(grid_accuracies):
    gt = grid_accuracies["c0r0s0e600"]
    rho = spearman_accuracies(gt, grid_accuracies["c4r4s0e60"])
    assert rho == pytest.approx(0.817046818727491, abs=1e-9)


# -- toy space ------------------------------------------------------------------------


def test_space_size_formula():
    assert space_size(1, 2) == 256  # (2*2 inputs * 2*2 ops)^2
    assert space_size(1, 8) == 65536
    assert space_size(2, 2) == (4 * 4 * 9 * 4) ** 2


def test_enumerate_two_op_single_node_space():
    ops = OperationSet("duo", (OperationKind.ZEROS, OperationKind.IDENTITY))
    space = enumerate_space(1, ops, OutputRule.UNUSED_ONLY)
    assert len(space.genotypes) == 256
    assert len(space.quality) == 256  # duplicate-free by hash
    threshold = space.quality_threshold(0.01)
    top = [h for h, q in space.quality.items() if q >= threshold]
    assert len(top) >= max(1, math.ceil(0.01 * 256))


def test_enumerate_space_errors():
    ops = OperationSet("duo", (OperationKind.ZEROS, OperationKind.IDENTITY))
    with pytest.raises(SurrogateError):
        enumerate_space(0, ops)
    with pytest.raises(SurrogateError):
        enumerate_space(2, SEARCH8, cap=10**5)  # 331k genotypes > cap
    space = enumerate_space(1, ops)
    with pytest.raises(SurrogateError):
        space.in_top_fraction("no-such-hash", 0.01)
    with pytest.raises(SurrogateError):
        space.quality_threshold(0.0)

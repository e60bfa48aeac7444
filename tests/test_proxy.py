import json

import pytest

from econas.genotype import (
    CellSpec,
    Genotype,
    InputRef,
    NetworkConfig,
    NodeSpec,
    OperationKind,
    OperationSet,
    OutputRule,
    ZOO13,
    random_genotype,
)
from econas.proxy import (
    BUILTIN_TABLES,
    CIFAR10_TABLE,
    GROUND_TRUTH_EPOCHS,
    IMAGENET_TABLE,
    ReducedSetting,
    ReductionTable,
    SettingError,
    derive_level,
    flops_estimate,
    format_label,
    load_table,
    nominal_speedup,
    parse_label,
    resolve_table,
)
from econas.seeding import derive_rng


def test_speedup_examples():
    assert nominal_speedup(ReducedSetting(0, 0, 0, 60)) == 1
    assert nominal_speedup(ReducedSetting(1, 1, 1, 30)) == 8
    assert nominal_speedup(ReducedSetting(2, 1, 1, 90)) == 16


def test_speedup_multiplicative():
    for a in range(5):
        for b in range(5):
            for c in range(2):
                combined = nominal_speedup(ReducedSetting(a, b, c, 30))
                product = (
                    nominal_speedup(ReducedSetting(a, 0, 0, 30))
                    * nominal_speedup(ReducedSetting(0, b, 0, 30))
                    * nominal_speedup(ReducedSetting(0, 0, c, 30))
                )
                assert combined == product


def test_derive_level_examples():
    assert derive_level(32, 2) == 16
    assert derive_level(36, 1) == 24
    assert derive_level(36, 0) == 36


def test_derive_level_reproduces_cifar_ladders():
    assert [derive_level(32, x) for x in range(5)] == [32, 24, 16, 12, 8]
    assert [derive_level(36, x) for x in range(4)] == [36, 24, 18, 12]
    # The published channel entry at level 4 overrides the halving rule,
    # which lands on 9; the table constant is pinned to 8.
    assert derive_level(36, 4) == 9
    assert CIFAR10_TABLE.channels[4] == 8


def test_builtin_tables():
    assert CIFAR10_TABLE.channels == (36, 24, 18, 12, 8)
    assert CIFAR10_TABLE.resolutions == (32, 24, 16, 12, 8)
    assert CIFAR10_TABLE.sample_ratios == (1.0, 0.5, 0.25, 0.125)
    assert CIFAR10_TABLE.epoch_choices == (30, 60, 90, 120)
    assert IMAGENET_TABLE.channels == (48, 32, 24, 16)
    assert IMAGENET_TABLE.resolutions == (224, 168, 112, 84)
    assert IMAGENET_TABLE.test_resolutions == (256, 192, 128, 96)
    assert IMAGENET_TABLE.sample_ratios == (1.0,)
    assert set(BUILTIN_TABLES) == {"cifar10", "imagenet"}
    assert GROUND_TRUTH_EPOCHS["cifar10"] == 600


def test_table_validation():
    with pytest.raises(SettingError):
        ReductionTable("bad", (8, 16), (32, 24), (1.0,), (30,))
    with pytest.raises(SettingError):
        ReductionTable("bad", (16, 8), (32, 24), (0.5, 1.0), (30,))
    with pytest.raises(SettingError):
        ReductionTable("bad", (16, 8), (32, 24), (1.0, 0.5), (60, 30))
    with pytest.raises(SettingError):
        ReductionTable("bad", (16, 8), (32, 24), (1.0,), (30,), test_resolutions=(36,))


def test_label_round_trip_both_tables():
    for table in (CIFAR10_TABLE, IMAGENET_TABLE):
        epochs = list(table.epoch_choices) + [GROUND_TRUTH_EPOCHS[table.name]]
        for setting in table.grid(epochs):
            label = format_label(setting)
            assert parse_label(label, table) == setting


def test_label_examples():
    assert format_label(ReducedSetting(4, 4, 0, 60)) == "c4r4s0e60"
    assert parse_label("c0r0s0e600") == ReducedSetting(0, 0, 0, 600)
    with pytest.raises(SettingError):
        parse_label("c9r0s0e30", CIFAR10_TABLE)
    with pytest.raises(SettingError):
        parse_label("r0c0s0e30")
    with pytest.raises(SettingError):
        parse_label("c0r0s0")


def test_load_table_document(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(
        json.dumps(
            {
                "name": "tiny",
                "channels": [16, 8],
                "resolutions": [28, 20],
                "sample_ratios": [1.0, 0.5],
                "epoch_choices": [5, 10],
            }
        )
    )
    table = load_table(str(path))
    assert table.name == "tiny"
    assert table.channels == (16, 8)
    assert resolve_table(str(path)).name == "tiny"
    assert resolve_table("cifar10") is CIFAR10_TABLE


def _zoo_genotype(seed):
    return random_genotype(
        derive_rng("flops", seed), NetworkConfig.for_zoo(), ZOO13,
        OutputRule.ALL_INTERMEDIATE,
    )


def test_flops_self_ratio():
    g = _zoo_genotype(0)
    cfg = NetworkConfig.for_zoo()
    s = ReducedSetting(0, 0, 0, 60)
    assert flops_estimate(g, cfg, s, CIFAR10_TABLE) == flops_estimate(
        g, cfg, s, CIFAR10_TABLE
    )


def test_flops_quarter_ratio_for_c1r1():
    # Channel ratio (24/36)^2 times resolution ratio (24/32)^2 is exactly 1/4
    # for conv-dominated cells; pooling terms may push it off a little.
    cfg = NetworkConfig.for_zoo()
    base = ReducedSetting(0, 0, 0, 60)
    red = ReducedSetting(1, 1, 0, 60)
    for seed in range(10):
        g = _zoo_genotype(seed)
        ratio = flops_estimate(g, cfg, red, CIFAR10_TABLE) / flops_estimate(
            g, cfg, base, CIFAR10_TABLE
        )
        assert abs(ratio / 0.25 - 1.0) < 0.15, ratio


def _pooling_only_genotype(node_count=4):
    op = OperationKind.MAX_POOL_3X3
    op_set = OperationSet("poolonly", (op,))
    nodes = tuple(
        NodeSpec(InputRef.cell(0), InputRef.cell(1), op, op) for _ in range(node_count)
    )
    cell = CellSpec(nodes, OutputRule.ALL_INTERMEDIATE)
    return Genotype(cell, cell, op_set)


def test_flops_pooling_scaling():
    g = _pooling_only_genotype()
    cfg = NetworkConfig(node_count=4)
    f00 = flops_estimate(g, cfg, ReducedSetting(0, 0, 0, 30), CIFAR10_TABLE)
    f10 = flops_estimate(g, cfg, ReducedSetting(1, 0, 0, 30), CIFAR10_TABLE)
    f01 = flops_estimate(g, cfg, ReducedSetting(0, 1, 0, 30), CIFAR10_TABLE)
    # linear in channels, quadratic in resolution
    assert f10 / f00 == pytest.approx(24 / 36, rel=1e-12)
    assert f01 / f00 == pytest.approx((24 / 32) ** 2, rel=1e-12)


def test_flops_strictly_decreasing_in_each_index():
    cfg = NetworkConfig.for_zoo()
    for seed in range(5):
        g = _zoo_genotype(seed)
        for b in range(5):
            costs = [
                flops_estimate(g, cfg, ReducedSetting(a, b, 0, 30), CIFAR10_TABLE)
                for a in range(5)
            ]
            assert all(x > y for x, y in zip(costs, costs[1:]))
        for a in range(5):
            costs = [
                flops_estimate(g, cfg, ReducedSetting(a, b, 0, 30), CIFAR10_TABLE)
                for b in range(5)
            ]
            assert all(x > y for x, y in zip(costs, costs[1:]))
        per_epoch = [
            flops_estimate(
                g, cfg, ReducedSetting(0, 0, c, 30), CIFAR10_TABLE, per_epoch=True
            )
            for c in range(4)
        ]
        assert all(x > y for x, y in zip(per_epoch, per_epoch[1:]))


def test_setting_validation():
    with pytest.raises(SettingError):
        CIFAR10_TABLE.validate_setting(ReducedSetting(5, 0, 0, 30))
    with pytest.raises(SettingError):
        CIFAR10_TABLE.validate_setting(ReducedSetting(0, 5, 0, 30))
    with pytest.raises(SettingError):
        CIFAR10_TABLE.validate_setting(ReducedSetting(0, 0, 4, 30))
    with pytest.raises(SettingError):
        ReducedSetting(0, 0, 0, 0)
    with pytest.raises(SettingError):
        ReducedSetting(-1, 0, 0, 30)


def test_grid_sizes():
    assert len(CIFAR10_TABLE.grid()) == 5 * 5 * 4 * 4
    assert len(CIFAR10_TABLE.grid(epochs=[30, 60])) == 5 * 5 * 4 * 2
    assert len(IMAGENET_TABLE.grid()) == 4 * 4 * 1 * 4


def test_grid_keeps_the_given_levels_in_nesting_order():
    assert CIFAR10_TABLE.grid([60, 30], c=[4, 0], r=[1], s=[0]) == [
        ReducedSetting(4, 1, 0, 60), ReducedSetting(4, 1, 0, 30),
        ReducedSetting(0, 1, 0, 60), ReducedSetting(0, 1, 0, 30),
    ]
    assert len(CIFAR10_TABLE.grid(s=range(2))) == 5 * 5 * 2 * 4

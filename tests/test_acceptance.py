"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live).

The headline full-training results are out of scope by design; acceptance is
property-based plus surrogate-scale reproduction of the qualitative
reduced-setting findings, all at pinned seeds and stated tolerances.
"""

import json
import random
import statistics
import sys
import time
from contextlib import contextmanager

from econas.analysis import build_report, mean_entropy, rho_f_curve
from econas.cli import main
from econas.genotype import NetworkConfig, OutputRule, SEARCH8, ZOO13, random_genotype
from econas.metrics import spearman_accuracies, spearman_values
from econas.proxy import (
    CIFAR10_TABLE,
    IMAGENET_TABLE,
    ReducedSetting,
    derive_level,
    flops_estimate,
    nominal_speedup,
)
from econas.search import EcoNasConfig, FlatConfig, econas_search, flat_config_to_econas
from econas.seeding import derive_rng
from econas.surrogate import SurrogateEvaluator, SurrogateParams

GT_LABEL = "c0r0s0e600"


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print("\nACCEPTANCE %2d (%s): FAIL" % (number, description))
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, (
        "criterion %d exceeded its %.0fs budget (%.1fs)"
        % (number, budget_seconds, elapsed)
    )
    print("\nACCEPTANCE %2d (%s): PASS [%.1fs]" % (number, description, elapsed))


# -- 1: metric exactness ---------------------------------------------------------


def _oracle_spearman(x_vals, y_vals):
    def ranks(values):
        return [
            1.0 + sum(v > x for v in values) + (sum(v == x for v in values) - 1) / 2.0
            for x in values
        ]

    rx, ry = ranks(x_vals), ranks(y_vals)
    k = len(rx)
    return 1.0 - 6.0 * sum((a - b) ** 2 for a, b in zip(rx, ry)) / (k * (k * k - 1))


def test_criterion_1_metric_exactness():
    with criterion(1, "metric exactness vs O(K^2) oracle", 1.0):
        rng = random.Random(202)
        for _ in range(200):
            k = rng.randint(2, 100)
            x = [float(v) for v in rng.sample(range(5 * k), k)]
            y = [float(v) for v in rng.sample(range(5 * k), k)]
            assert abs(spearman_values(x, y) - _oracle_spearman(x, y)) < 1e-12
        for k in (2, 10, 57, 100):
            values = [float(v) for v in rng.sample(range(1000), k)]
            ids = ["m%d" % i for i in range(k)]
            acc = dict(zip(ids, values))
            assert spearman_accuracies(acc, acc) == 1.0
            assert spearman_accuracies(acc, {i: -v for i, v in acc.items()}) == -1.0
        from econas.metrics import entropy

        assert entropy([0.1, 0.4, 0.5, 0.93]) == 1.0
        assert entropy([5.0, 2.0, 1.5, 0.0, -3.0]) == -1.0


# -- 2: speed-up law --------------------------------------------------------------


def test_criterion_2_speedup_law():
    with criterion(2, "2^(a+b+c) speed-up law and FLOPs quarter ratio", 5.0):
        for table in (CIFAR10_TABLE, IMAGENET_TABLE):
            for setting in table.grid():
                assert nominal_speedup(setting) == (
                    2**setting.c_idx * 2**setting.r_idx * 2**setting.s_idx
                )
        assert nominal_speedup(ReducedSetting(0, 0, 0, 600)) == 1
        assert nominal_speedup(ReducedSetting(1, 1, 1, 30)) == 8

        cfg = NetworkConfig.for_zoo()
        base = ReducedSetting(0, 0, 0, 60)
        reduced = ReducedSetting(1, 1, 0, 60)
        for seed in range(10):
            g = random_genotype(
                derive_rng("accept2", seed), cfg, ZOO13, OutputRule.ALL_INTERMEDIATE
            )
            ratio = flops_estimate(g, cfg, reduced, CIFAR10_TABLE) / flops_estimate(
                g, cfg, base, CIFAR10_TABLE
            )
            assert abs(ratio / 0.25 - 1.0) < 0.15


# -- 3: table fidelity --------------------------------------------------------------


def test_criterion_3_table_fidelity():
    with criterion(3, "derivation rule reproduces the published ladders", 1.0):
        assert [derive_level(32, x) for x in range(5)] == [32, 24, 16, 12, 8]
        assert [derive_level(36, x) for x in range(4)] == [36, 24, 18, 12]
        assert CIFAR10_TABLE.channels == (36, 24, 18, 12, 8)  # c4 = 8 pinned
        assert CIFAR10_TABLE.resolutions == (32, 24, 16, 12, 8)


# -- 4 & 5: surrogate reproductions ---------------------------------------------------


def _mean_rho(grid_accuracies, s_idx, epochs):
    gt = grid_accuracies[GT_LABEL]
    return statistics.mean(
        spearman_accuracies(gt, grid_accuracies["c%dr%ds%de%d" % (a, b, s_idx, epochs)])
        for a in range(5)
        for b in range(5)
    )


def test_criterion_4_observation_one(grid_accuracies):
    with criterion(4, "more epochs / more samples give higher consistency", 120.0):
        means_s0 = [_mean_rho(grid_accuracies, 0, e) for e in (30, 60, 90, 120)]
        assert all(a < b for a, b in zip(means_s0, means_s0[1:])), means_s0
        for e in (30, 60):
            full_data = _mean_rho(grid_accuracies, 0, e)
            half_data = _mean_rho(grid_accuracies, 1, 2 * e)
            assert full_data > half_data, (e, full_data, half_data)
        print(
            "  mean rho at s0 by epochs:",
            ["%.4f" % v for v in means_s0],
        )


def test_criterion_5_observation_two(grid_records):
    with criterion(5, "channel reduction helps, resolution reduction hurts", 120.0):
        report = build_report(
            grid_records, GT_LABEL, CIFAR10_TABLE, top_k=10, windows=(15, 20)
        )
        along_c = mean_entropy(report, "c", s_idx=0, epochs=60)
        along_r = mean_entropy(report, "r", s_idx=0, epochs=60)
        print("  entropy along c: %.3f, along r: %.3f" % (along_c, along_r))
        assert along_c >= 0.5, along_c
        assert along_r <= -0.5, along_r


# -- 6: budget ledger ------------------------------------------------------------------


def test_criterion_6_budget_ledger():
    with criterion(6, "paper-constant run trains 1650 models / 57000 epochs", 300.0):
        evaluator = SurrogateEvaluator(SurrogateParams(), CIFAR10_TABLE)
        cfg = EcoNasConfig(seed=11)
        results = [
            econas_search(
                evaluator, cfg, ReducedSetting(4, 4, 0, 1),
                network=NetworkConfig.for_search(), workers=workers,
            )
            for workers in (1, 3)
        ]
        for res in results:
            assert res.ledger.from_scratch_models == 1650
            assert res.ledger.total_epochs == 57_000
        assert results[0].history == results[1].history  # worker-count independent


# -- 7: search quality vs exhaustive oracle ----------------------------------------------


def test_criterion_7_search_quality(toy_space):
    with criterion(7, "scaled search finds true top-1% models", 600.0):
        params = SurrogateParams.toy()
        evaluator = SurrogateEvaluator(params, CIFAR10_TABLE)
        setting = ReducedSetting(4, 4, 0, 1)
        net = NetworkConfig(node_count=1)

        hier_hits = 0
        hier_quality, flat_quality = [], []
        for seed in range(20):
            cfg = EcoNasConfig(
                n_init=20, cycles=30, epoch_unit=5, mutants_per_cycle=8,
                promote_to_2e=4, promote_to_3e=2, seed=seed,
            )
            res = econas_search(evaluator, cfg, setting, op_set=SEARCH8, network=net)
            assert res.ledger.total_epochs == 2200
            best = res.top[0].model_id
            hier_hits += toy_space.in_top_fraction(best, 0.01)
            hier_quality.append(toy_space.quality[best])

            flat_cfg = FlatConfig(
                n_init=20, cycles=25, mutants_per_cycle=8, epochs=10, seed=seed
            )
            flat_res = econas_search(
                evaluator, flat_config_to_econas(flat_cfg), setting.with_epochs(flat_cfg.epochs),
                algorithm="flat", op_set=SEARCH8, network=net,
            )
            assert flat_res.ledger.total_epochs == 2200  # equal epoch ledgers
            flat_quality.append(toy_space.quality[flat_res.top[0].model_id])

        hier_mean = statistics.mean(hier_quality)
        flat_mean = statistics.mean(flat_quality)
        print(
            "  hierarchical top-1%% hits: %d/20; mean quality %.5f vs flat %.5f"
            % (hier_hits, hier_mean, flat_mean)
        )
        assert hier_hits >= 18
        assert flat_mean <= hier_mean + 1e-12


# -- 8: retained-top monotonicity ----------------------------------------------------------


def test_criterion_8_retained_top_tracks_consistency(grid_records):
    with criterion(8, "better settings retain more top models", 120.0):
        report = build_report(
            grid_records, GT_LABEL, CIFAR10_TABLE, top_k=10, windows=(15, 20)
        )
        rho_values = [row.rho_sp for row in report.rows]
        retained_15 = [row.retained[0] for row in report.rows]
        agreement = spearman_values(rho_values, retained_15)
        print("  spearman(rho_sp, retained@15) = %.4f over %d settings" % (agreement, len(report.rows)))
        assert agreement > 0.5


# -- 9: determinism and resume ----------------------------------------------------------------


def test_criterion_9_determinism_and_resume(tmp_path):
    with criterion(9, "kill/resume and wire-protocol runs are byte-identical", 300.0):
        config = {
            "schema_version": 1,
            "kind": "search_config",
            "algorithm": "hierarchical",
            "table": "cifar10",
            "setting": "c4r4s0",
            "evaluator": "surrogate",
            "op_set": "search8",
            "node_count": 1,
            "config": {
                "n_init": 10, "cycles": 8, "epoch_unit": 5, "mutants_per_cycle": 4,
                "promote_to_2e": 2, "promote_to_3e": 1, "seed": 13,
            },
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))

        full = tmp_path / "full"
        assert main(["search", "--config", str(config_path), "--out", str(full)]) == 0

        # interrupted at a cycle boundary, then resumed
        part = tmp_path / "part"
        assert main(
            ["search", "--config", str(config_path), "--out", str(part),
             "--stop-after-cycle", "3"]
        ) == 0
        assert main(
            ["search", "--config", str(config_path), "--out", str(part), "--resume"]
        ) == 0
        for name in ("history.jsonl", "ledger.jsonl", "summary.json"):
            assert (part / name).read_bytes() == (full / name).read_bytes()

        # same search through the subprocess wire protocol, with one child
        # and with three concurrent children
        for workers in (1, 3):
            wire_config = dict(config, workers=workers)
            wire_config["evaluator"] = "cmd:%s -m econas.cli surrogate-serve --table cifar10 --seed 13" % sys.executable
            wire_path = tmp_path / ("wire%d.json" % workers)
            wire_path.write_text(json.dumps(wire_config))
            wire = tmp_path / ("wire%d" % workers)
            assert main(["search", "--config", str(wire_path), "--out", str(wire)]) == 0
            assert (wire / "history.jsonl").read_bytes() == (full / "history.jsonl").read_bytes()
            assert (wire / "ledger.jsonl").read_bytes() == (full / "ledger.jsonl").read_bytes()


# -- 10: subsample dependence curve --------------------------------------------------------------


def test_criterion_10_rho_f_curve(grid_records):
    with criterion(10, "subsample dependence grows with zoo sample size", 180.0):
        curve = rho_f_curve(
            grid_records, GT_LABEL, sizes=(5, 10, 15, 20, 30, 50), trials=100, seed=0
        )
        values = [v for _, v in curve]
        print("  rho_F:", ", ".join("m=%d: %.4f" % (m, v) for m, v in curve))
        assert all(a <= b for a, b in zip(values, values[1:])), values
        assert values[-1] == 1.0  # the full zoo agrees with itself exactly

import json
import os
import signal
import sys
import threading
import time

import pytest

from econas import documents, search as search_module
from econas.evaluator import EvalResult, EvaluatorFailure
from econas.genotype import GenotypeError, NetworkConfig
from econas.proxy import CIFAR10_TABLE, ReducedSetting
from econas.search import (
    Candidate,
    EcoNasConfig,
    FlatConfig,
    SearchEngine,
    SearchError,
    _draw_parent,
    _evaluate_jobs,
    _rank_tiers,
    econas_search,
    flat_config_to_econas,
    remove_dead,
)
from econas.seeding import derive_rng
from econas.surrogate import SurrogateEvaluator, SurrogateParams

SETTING = ReducedSetting(4, 4, 0, 1)
TOY_NET = NetworkConfig(node_count=1)


def toy_evaluator(seed=7):
    return SurrogateEvaluator(SurrogateParams.toy(seed), CIFAR10_TABLE)


def toy_config(**overrides):
    base = dict(
        n_init=10,
        cycles=8,
        epoch_unit=5,
        mutants_per_cycle=4,
        promote_to_2e=2,
        promote_to_3e=1,
        seed=3,
    )
    base.update(overrides)
    return EcoNasConfig(**base)


def cand(model_id, accuracy, epochs=5):
    return Candidate(genotype=None, model_id=model_id, accuracy=accuracy, epochs_trained=epochs)


def tier(population, units, epoch_unit=5):
    """The members of ``population`` that have trained ``units`` epoch units."""
    return [c for c in population if c.epochs_trained == units * epoch_unit]


# -- config --------------------------------------------------------------------


def test_config_defaults_are_paper_constants():
    cfg = EcoNasConfig()
    assert (cfg.n_init, cfg.cycles, cfg.epoch_unit) == (50, 100, 20)
    assert (cfg.mutants_per_cycle, cfg.promote_to_2e, cfg.promote_to_3e) == (16, 8, 4)
    assert cfg.top_k_return == 5
    assert cfg.capacity_e == 50
    assert cfg.capacity_2e == 16
    assert cfg.capacity_3e == 80
    assert cfg.tier_weights == (1.0, 2.0, 4.0)


def test_config_validation():
    with pytest.raises(SearchError):
        EcoNasConfig(promote_to_2e=20)  # exceeds mutants per cycle
    with pytest.raises(SearchError):
        EcoNasConfig(promote_to_3e=10)  # exceeds promote_to_2e
    with pytest.raises(SearchError):
        EcoNasConfig(tier_weights=(2.0, 2.0, 4.0))
    with pytest.raises(SearchError):
        EcoNasConfig(n_init=0)


@pytest.mark.parametrize("weights", [(1.0, 2.0), (1.0, 2.0, 4.0, 8.0), ()])
def test_tier_weights_of_another_length_are_a_search_error(weights):
    with pytest.raises(SearchError, match="tier_weights must hold 3 weights, one per tier"):
        EcoNasConfig(tier_weights=weights)


@pytest.mark.parametrize("name, value", [("tier_weights", 5), ("cap_e", "3"), ("n_init", "4")])
def test_a_wrong_type_from_the_api_is_a_search_error_naming_the_field(name, value):
    with pytest.raises(SearchError, match="^%s must be " % name):
        EcoNasConfig(**{name: value})


def test_a_config_document_still_converts_its_values_first():
    obj = {"n_init": "4", "cap_e": "3", "tier_weights": [1, 2, 4]}
    assert documents.build(EcoNasConfig, obj) == EcoNasConfig(n_init=4, cap_e=3)
    with pytest.raises(documents.Rejected, match="expected a list, got 5"):
        documents.build(EcoNasConfig, {"tier_weights": 5})


# -- parent draws -----------------------------------------------------------------


def test_sample_parent_single_tier_deterministic():
    rng = derive_rng("sp", 0)
    assert _draw_parent(_rank_tiers([cand("a", 0.9)], toy_config()), rng).model_id == "a"


def test_sample_parent_empty_error():
    with pytest.raises(SearchError):
        _draw_parent(_rank_tiers([], toy_config()), derive_rng(0))


def test_sample_parent_rank_weights():
    population = [cand("low", 0.1), cand("high", 0.9), cand("mid", 0.5)]
    cfg = toy_config()
    counts = {"high": 0, "mid": 0, "low": 0}
    n = 100_000
    for i in range(n):
        counts[_draw_parent(_rank_tiers(population, cfg), derive_rng("rank", i)).model_id] += 1
    assert abs(counts["high"] / n - 3 / 6) < 0.02
    assert abs(counts["mid"] / n - 2 / 6) < 0.02
    assert abs(counts["low"] / n - 1 / 6) < 0.02


def test_sample_parent_tier_weights_renormalized():
    population = [cand("e", 0.5), cand("best", 0.7, epochs=15)]
    cfg = toy_config(tier_weights=(1.0, 2.0, 4.0))
    n = 50_000
    hits = sum(
        _draw_parent(_rank_tiers(population, cfg), derive_rng("tw", i)).model_id == "best"
        for i in range(n)
    )
    # weights renormalize over non-empty tiers: 4 / (1 + 4)
    assert abs(hits / n - 0.8) < 0.02


class _FixedDraw:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def test_sample_parent_adds_tier_weights_from_the_left():
    # (0.1 + 0.2) + 0.3 is 0.6000000000000001, so a draw of 1/6 lands just past
    # tier E; a compensated sum (0.6) would keep it inside.
    population = [cand("e", 0.5), cand("2e", 0.5, epochs=10), cand("3e", 0.5, epochs=15)]
    cfg = toy_config(tier_weights=(0.1, 0.2, 0.3))
    assert _draw_parent(_rank_tiers(population, cfg), _FixedDraw(1 / 6)).model_id == "2e"


# -- promotion phases ---------------------------------------------------------------


def _outcomes(evaluator, jobs, workers=1):
    """Each job's outcome in slot order, as :func:`_evaluate_jobs` hands them over."""
    by_slot = {}
    _evaluate_jobs(evaluator, jobs, workers, by_slot.__setitem__)
    return [by_slot[slot] for slot in range(len(by_slot))]


def _promote(engine, n):
    """The 2E promotion phase of a cycle: the step trains the best ``n`` of
    tier E, as :func:`_rank_tiers` orders it, one more epoch unit."""
    [(best_first, _), *_] = _rank_tiers(engine.state.population, engine.cfg)
    return engine._train(1, "2e", best_first[:n])


def test_promote_clamps_to_tier_size():
    ev = toy_evaluator()
    cfg = toy_config()
    engine = SearchEngine(ev, cfg, SETTING, network=TOY_NET)
    engine.run(stop_after_cycle=0)  # init only
    population = engine.state.population
    population[:] = population[:2]
    _promote(engine, 8)
    assert len(tier(population, 1)) == 0
    assert len(tier(population, 2)) == 2
    for c in tier(population, 2):
        assert c.epochs_trained == 2 * cfg.epoch_unit


def test_promote_picks_most_accurate_and_remeasures():
    ev = toy_evaluator()
    cfg = toy_config()
    engine = SearchEngine(ev, cfg, SETTING, network=TOY_NET)
    engine.run(stop_after_cycle=0)
    population = engine.state.population
    best = max(tier(population, 1), key=lambda c: c.accuracy)
    expected = ev.evaluate(
        best.genotype, SETTING.with_epochs(2 * cfg.epoch_unit), 0, 2 * cfg.epoch_unit
    )
    _promote(engine, 1)
    assert len(tier(population, 2)) == 1
    promoted = tier(population, 2)[0]
    assert promoted.model_id == best.model_id
    # accuracy replaced by the longer-epoch measurement, not the old value
    assert promoted.accuracy == expected.accuracy


class _FailingEvaluator:
    def __init__(self, inner, fail_ids):
        self.inner = inner
        self.fail_ids = set(fail_ids)

    def evaluate(self, genotype, setting, start_epoch, end_epoch, resume_token=None):
        if genotype.content_hash in self.fail_ids:
            raise EvaluatorFailure("injected failure")
        return self.inner.evaluate(genotype, setting, start_epoch, end_epoch, resume_token)


def test_promote_failure_leaves_candidate_in_place():
    ev = toy_evaluator()
    cfg = toy_config()
    engine = SearchEngine(ev, cfg, SETTING, network=TOY_NET)
    engine.run(stop_after_cycle=0)
    population = engine.state.population
    ranked = sorted(tier(population, 1), key=lambda c: -c.accuracy)
    engine.evaluator = _FailingEvaluator(ev, [ranked[0].model_id])
    _promote(engine, 2)
    assert ranked[0] in tier(population, 1)  # best stayed (its evaluation failed)
    assert len(tier(population, 2)) == 1
    assert tier(population, 2)[0].model_id == ranked[1].model_id


class _FailsFirstOf:
    """Fails the first training from each listed start epoch, and records
    which model it failed."""

    def __init__(self, inner, starts):
        self.inner = inner
        self.failed = dict.fromkeys(starts)

    def evaluate(self, genotype, setting, start_epoch, end_epoch, resume_token=None):
        if start_epoch in self.failed and self.failed[start_epoch] is None:
            self.failed[start_epoch] = genotype.content_hash
            raise EvaluatorFailure("injected failure")
        return self.inner.evaluate(genotype, setting, start_epoch, end_epoch, resume_token)


def test_a_failed_child_and_promotion_each_log_one_warning(caplog):
    cfg = toy_config()
    engine = SearchEngine(toy_evaluator(), cfg, SETTING, network=TOY_NET)
    engine.run(stop_after_cycle=0)
    engine.evaluator = failing = _FailsFirstOf(engine.evaluator, (0, cfg.epoch_unit))
    with caplog.at_level("WARNING", logger="econas.search"):
        engine.run(stop_after_cycle=1)
    child, promoted = failing.failed[0], failing.failed[cfg.epoch_unit]
    assert child is not None and promoted is not None and child != promoted
    for model_id, phase in ((child, "child"), (promoted, "2e")):
        [message] = [r.getMessage() for r in caplog.records if model_id[:12] in r.getMessage()]
        assert "cycle 1 %s phase" % phase in message


# -- remove_dead --------------------------------------------------------------------


def test_remove_dead_under_capacity_noop():
    cfg = toy_config(cap_e=10)
    population = [cand("a", 0.5), cand("b", 0.6)]
    remove_dead(population, cfg)
    assert [c.model_id for c in population] == ["a", "b"]


def test_remove_dead_removes_oldest_regardless_of_accuracy():
    cfg = toy_config(cap_e=2)
    population = [cand("old-great", 0.99), cand("mid-bad", 0.10), cand("new-ok", 0.50)]
    remove_dead(population, cfg)
    assert [c.model_id for c in population] == ["mid-bad", "new-ok"]


def test_remove_dead_ties_break_by_insertion_order():
    # Each tier ages on its own, in population order: the oldest of tier E
    # goes although an older candidate of tier 2E stays.
    cfg = toy_config(cap_e=1)
    population = [cand("2e", 0.5, epochs=10), cand("first", 0.9), cand("second", 0.1)]
    remove_dead(population, cfg)
    assert [c.model_id for c in population] == ["2e", "second"]


# -- full runs -------------------------------------------------------------------------


def test_zero_cycles_only_initial_models():
    cfg = toy_config(cycles=0)
    res = econas_search(toy_evaluator(), cfg, SETTING, network=TOY_NET)
    assert len(res.history) == cfg.n_init
    assert all(h.epochs_trained == cfg.epoch_unit for h in res.history)
    assert res.ledger.from_scratch_models == cfg.n_init
    assert res.ledger.total_epochs == cfg.n_init * cfg.epoch_unit
    assert len(res.top) == cfg.top_k_return


def test_paper_constants_budget_arithmetic():
    cfg = EcoNasConfig(seed=5)
    res = econas_search(
        toy_evaluator(), cfg, SETTING, network=NetworkConfig.for_search()
    )
    assert res.ledger.from_scratch_models == 50 + 100 * 16 == 1650
    assert res.ledger.total_epochs == 20 * (50 + 100 * (16 + 8 + 4)) == 57_000
    assert len(res.history) == 50 + 100 * (16 + 8 + 4)
    assert res.top[0].epochs_trained == 3 * cfg.epoch_unit


def test_history_and_tier_invariants_cycle_by_cycle():
    cfg = toy_config(cycles=6)
    engine = SearchEngine(toy_evaluator(), cfg, SETTING, network=TOY_NET)
    before = []
    for stop in range(cfg.cycles + 1):
        engine.run(stop_after_cycle=stop)
        population = engine.state.population
        ids = [c.model_id for c in population]
        assert len(ids) == len(set(ids))  # each hash in at most one tier
        assert len(tier(population, 1)) <= cfg.capacity_e
        assert len(tier(population, 2)) <= cfg.capacity_2e
        assert len(tier(population, 3)) <= cfg.capacity_3e
        expected = cfg.n_init + stop * (
            cfg.mutants_per_cycle + cfg.promote_to_2e + cfg.promote_to_3e
        )
        assert len(engine.state.history) == expected
        for c in population:
            assert c.epochs_trained in (5, 10, 15)
        # Population order is creation order: the survivors keep their
        # order and the cycle's new candidates follow them.
        assert ids == [m for m in before if m in ids] + [m for m in ids if m not in before]
        before = ids


def test_workers_do_not_change_history():
    cfg = toy_config(cycles=5)
    res1 = econas_search(toy_evaluator(), cfg, SETTING, network=TOY_NET, workers=1)
    res4 = econas_search(toy_evaluator(), cfg, SETTING, network=TOY_NET, workers=4)
    assert res1.history == res4.history
    assert res1.ledger.entries == res4.ledger.entries


def test_seed_changes_history():
    res_a = econas_search(toy_evaluator(), toy_config(seed=1), SETTING, network=TOY_NET)
    res_b = econas_search(toy_evaluator(), toy_config(seed=2), SETTING, network=TOY_NET)
    assert res_a.history != res_b.history


def test_failed_children_are_dropped_but_search_continues():
    ev = toy_evaluator()
    cfg = toy_config(cycles=3)
    clean = econas_search(ev, cfg, SETTING, network=TOY_NET)
    cycle2_children = sorted(
        h.model_id for h in clean.history if h.cycle == 2 and h.epochs_trained == 5
    )
    failing = _FailingEvaluator(ev, cycle2_children[:2])  # some, not all
    res = econas_search(failing, cfg, SETTING, network=TOY_NET)
    assert len(res.history) < len(clean.history)
    assert max(h.cycle for h in res.history) == cfg.cycles
    assert not any(h.model_id in cycle2_children[:2] for h in res.history)


class _AlwaysFailing:
    def evaluate(self, *args, **kwargs):
        raise EvaluatorFailure("nope")


def test_all_failures_abort():
    with pytest.raises(SearchError, match="all 10 new models failed in cycle 0$"):
        econas_search(_AlwaysFailing(), toy_config(), SETTING, network=TOY_NET)


class _ScratchFailsWhenArmed:
    """Once ``armed``, every evaluation from scratch fails."""

    def __init__(self, inner):
        self.inner = inner
        self.armed = False

    def evaluate(self, genotype, setting, start_epoch, end_epoch, resume_token=None):
        if self.armed and start_epoch == 0:
            raise EvaluatorFailure("injected failure")
        return self.inner.evaluate(genotype, setting, start_epoch, end_epoch, resume_token)


def _failing_mutate(parent, rng):
    raise GenotypeError("injected mutation failure")


@pytest.mark.parametrize("fault", ["evaluator", "mutate"])
def test_cycle_whose_every_child_fails_aborts_and_its_checkpoint_resumes(
    tmp_path, monkeypatch, fault
):
    cfg = toy_config(cycles=5)
    full = econas_search(toy_evaluator(), cfg, SETTING, network=TOY_NET)
    ev = _ScratchFailsWhenArmed(toy_evaluator())
    path = str(tmp_path / "checkpoint.json")
    engine = SearchEngine(ev, cfg, SETTING, network=TOY_NET, checkpoint_path=path)
    engine.run(stop_after_cycle=2)
    with monkeypatch.context() as patch:
        if fault == "evaluator":
            ev.armed = True
        else:
            patch.setattr(search_module, "mutate", _failing_mutate)
        with pytest.raises(SearchError, match="all 4 new models failed in cycle 3$"):
            engine.run()
    resumed = SearchEngine(toy_evaluator(), cfg, SETTING, network=TOY_NET, checkpoint_path=path)
    resumed.load_checkpoint()
    assert resumed.state.next_cycle == 3
    assert resumed.run().history == full.history


def test_cycle_with_some_failed_mutations_continues(monkeypatch):
    cfg = toy_config(cycles=3)
    mutate, calls = search_module.mutate, []

    def every_other_fails(parent, rng):
        calls.append(parent)
        if len(calls) % 2:
            return _failing_mutate(parent, rng)
        return mutate(parent, rng)

    monkeypatch.setattr(search_module, "mutate", every_other_fails)
    res = econas_search(toy_evaluator(), cfg, SETTING, network=TOY_NET)
    assert len(calls) == cfg.cycles * cfg.mutants_per_cycle
    for cycle in range(1, cfg.cycles + 1):
        children = [h for h in res.history if h.cycle == cycle and h.epochs_trained == 5]
        assert len(children) == cfg.mutants_per_cycle // 2


def test_return_rule_prefers_longest_trained():
    cfg = toy_config(cycles=4)
    res = econas_search(toy_evaluator(), cfg, SETTING, network=TOY_NET)
    assert res.top[0].epochs_trained == 15
    epochs = [t.epochs_trained for t in res.top]
    assert epochs == sorted(epochs, reverse=True)
    accs_at_15 = [t.accuracy for t in res.top if t.epochs_trained == 15]
    assert accs_at_15 == sorted(accs_at_15, reverse=True)


# -- checkpointing -----------------------------------------------------------------------


def test_checkpoint_resume_matches_uninterrupted(tmp_path):
    cfg = toy_config(cycles=7)
    full = econas_search(toy_evaluator(), cfg, SETTING, network=TOY_NET)

    ckpt = str(tmp_path / "checkpoint.json")
    first = SearchEngine(
        toy_evaluator(), cfg, SETTING, network=TOY_NET, checkpoint_path=ckpt
    )
    first.run(stop_after_cycle=3)
    assert len(first.state.history) < len(full.history)

    second = SearchEngine(
        toy_evaluator(), cfg, SETTING, network=TOY_NET, checkpoint_path=ckpt
    )
    with open(ckpt, "r", encoding="utf-8") as fh:
        second.load_checkpoint_obj(json.load(fh))
    resumed = second.run()
    assert resumed.history == full.history
    assert resumed.ledger.entries == full.ledger.entries
    assert [(t.model_id, t.accuracy) for t in resumed.top] == [
        (t.model_id, t.accuracy) for t in full.top
    ]


def test_checkpoint_stores_the_population_once_in_creation_order(tmp_path):
    ckpt = tmp_path / "checkpoint.json"
    engine = SearchEngine(
        toy_evaluator(), toy_config(), SETTING, network=TOY_NET, checkpoint_path=str(ckpt)
    )
    engine.run(stop_after_cycle=4)
    obj = json.loads(ckpt.read_text())
    assert obj["schema_version"] == 2
    assert not {"tiers", "seq_counter"} & set(obj)
    population = obj["population"]
    assert [c["model_id"] for c in population] == [c.model_id for c in engine.state.population]
    assert {frozenset(c) for c in population} == {
        frozenset({"model_id", "accuracy", "epochs_trained", "resume_token"})
    }
    assert {c["epochs_trained"] for c in population} == {5, 10, 15}


V1_CHECKPOINT = os.path.join(os.path.dirname(__file__), "data", "checkpoint_v1_cycle2.json")


def _v1_engine(**kwargs):
    """An engine of the run that ``V1_CHECKPOINT`` stopped after cycle 2."""
    cfg = EcoNasConfig(
        n_init=8, cycles=6, epoch_unit=5, mutants_per_cycle=4, promote_to_2e=2,
        promote_to_3e=1, seed=3,
    )
    return SearchEngine(
        SurrogateEvaluator(SurrogateParams().with_seed(3), CIFAR10_TABLE), cfg, SETTING,
        network=TOY_NET, **kwargs,
    )


def test_schema_1_checkpoint_loads_its_tiers_in_seq_order():
    with open(V1_CHECKPOINT, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    engine = _v1_engine()
    engine.load_checkpoint_obj(obj)
    members = sorted((c for tier in obj["tiers"].values() for c in tier), key=lambda c: c["seq"])
    # The file's tier lists, read in key order, are not in creation order.
    assert [c["model_id"] for c in members] != [
        c["model_id"] for key in ("e", "2e", "3e") for c in obj["tiers"][key]
    ]
    assert [
        (c.model_id, c.accuracy, c.epochs_trained, c.resume_token)
        for c in engine.state.population
    ] == [(c["model_id"], c["accuracy"], c["epochs_trained"], c["resume_token"]) for c in members]
    written = engine.checkpoint_obj()
    assert written["schema_version"] == 2 and "tiers" not in written


@pytest.mark.parametrize("seed", range(6))
def test_stop_at_any_cycle_leaves_the_final_checkpoint_unchanged(tmp_path, seed):
    # The CI search config at 8 cycles. Aging drops the first members of a
    # tier in population order; unless a resume restores the population in
    # creation order, some stops (seed 3, cycle 7) write another final
    # snapshot than a straight run.
    cfg = EcoNasConfig(
        n_init=8, cycles=8, epoch_unit=5, mutants_per_cycle=4, promote_to_2e=2,
        promote_to_3e=1, seed=seed,
    )

    def engine(path):
        return SearchEngine(
            SurrogateEvaluator(SurrogateParams().with_seed(seed), CIFAR10_TABLE), cfg, SETTING,
            network=NetworkConfig(2), checkpoint_path=str(path),
        )

    engine(tmp_path / "straight.json").run()
    straight = (tmp_path / "straight.json").read_bytes()
    for stop in range(cfg.cycles):
        path = tmp_path / ("stopped%d.json" % stop)
        engine(path).run(stop_after_cycle=stop)
        resumed = engine(path)
        resumed.load_checkpoint()
        resumed.run()
        assert path.read_bytes() == straight, "stopped at cycle %d" % stop


@pytest.mark.parametrize("algorithm", ["hierarchical", "flat"])
def test_engine_without_checkpoint_path_keeps_no_genotype_document(tmp_path, algorithm):
    if algorithm == "flat":
        cfg = flat_config_to_econas(
            FlatConfig(n_init=6, cycles=5, mutants_per_cycle=3, epochs=10, seed=1)
        )
    else:
        cfg = toy_config(cycles=5)

    def engine(**kwargs):
        return SearchEngine(
            toy_evaluator(), cfg, SETTING, network=TOY_NET, algorithm=algorithm, **kwargs
        )

    plain, checkpointed = engine(), engine(checkpoint_path=str(tmp_path / "checkpoint.json"))
    assert plain.run().history == checkpointed.run().history
    assert plain.state.genotypes.keys() == checkpointed.state.genotypes.keys()
    assert not [g for g in plain.state.genotypes.values() if "_document" in vars(g)]
    assert all("_document" in vars(g) for g in checkpointed.state.genotypes.values())


def test_checkpoint_config_mismatch_refused(tmp_path):
    ckpt = str(tmp_path / "checkpoint.json")
    engine = SearchEngine(
        toy_evaluator(), toy_config(), SETTING, network=TOY_NET, checkpoint_path=ckpt
    )
    engine.run(stop_after_cycle=2)
    other = SearchEngine(
        toy_evaluator(), toy_config(seed=99), SETTING, network=TOY_NET, checkpoint_path=ckpt
    )
    with open(ckpt, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    with pytest.raises(SearchError):
        other.load_checkpoint_obj(obj)
    wrong_setting = SearchEngine(
        toy_evaluator(), toy_config(), ReducedSetting(0, 0, 0, 1), network=TOY_NET,
        checkpoint_path=ckpt,
    )
    with pytest.raises(SearchError):
        wrong_setting.load_checkpoint_obj(obj)


def _reloaded(engine):
    """A fresh engine restored from ``engine``'s checkpoint and journal."""
    fresh = SearchEngine(
        engine.evaluator, engine.cfg, engine.setting_base, op_set=engine.op_set,
        network=engine.network, output_rule=engine.output_rule,
        checkpoint_path=engine.checkpoint_path, algorithm=engine.algorithm,
    )
    fresh.load_checkpoint()
    return fresh


def _assert_snapshot_is_reference(engine):
    with open(engine.checkpoint_path, "rb") as fh:
        written = fh.read()
    reference = json.dumps(engine.checkpoint_obj(), sort_keys=True) + "\n"
    assert written == reference.encode("utf-8"), "cycle %d" % engine.state.next_cycle


@pytest.fixture
def checked_writes(monkeypatch):
    """After every checkpoint write, a fresh engine that loads the snapshot
    and replays the journal must hold the writer's state. Every snapshot
    (a write that leaves no journal), and the checkpoint left when ``run``
    returns, must be the reference serialization of ``checkpoint_obj``.
    Collects ``next_cycle`` per write."""
    cycles = []
    write, run = SearchEngine._write_checkpoint, SearchEngine.run

    def checked(engine, *args, **kwargs):
        write(engine, *args, **kwargs)
        assert _reloaded(engine).checkpoint_obj() == engine.checkpoint_obj()
        if not os.path.exists(engine.journal_path):
            _assert_snapshot_is_reference(engine)
        cycles.append(engine.state.next_cycle)

    def checked_run(engine, *args, **kwargs):
        result = run(engine, *args, **kwargs)
        assert not os.path.exists(engine.journal_path)
        _assert_snapshot_is_reference(engine)
        return result

    monkeypatch.setattr(SearchEngine, "_write_checkpoint", checked)
    monkeypatch.setattr(SearchEngine, "run", checked_run)
    return cycles


class _EveryNthFails:
    def __init__(self, inner, n):
        self.inner = inner
        self.n = n
        self.calls = 0
        self.failures = 0

    def evaluate(self, *args, **kwargs):
        self.calls += 1
        if self.calls % self.n == 0:
            self.failures += 1
            raise EvaluatorFailure("injected failure")
        return self.inner.evaluate(*args, **kwargs)


def test_streamed_checkpoint_with_failures_and_rediscovery(tmp_path, checked_writes):
    ev = _EveryNthFails(toy_evaluator(), 5)
    cfg = toy_config(cycles=20)
    engine = SearchEngine(
        ev, cfg, SETTING, network=TOY_NET, checkpoint_path=str(tmp_path / "c.json")
    )
    res = engine.run()
    assert checked_writes == list(range(0, cfg.cycles + 2))  # 0: the start snapshot
    assert ev.failures > 0
    # Failed children are registered although they have no history entry.
    assert set(engine.state.genotypes) > {h.model_id for h in res.history}
    scratch = [h.model_id for h in res.history if h.epochs_trained == cfg.epoch_unit]
    assert len(set(scratch)) < len(scratch)  # a hash was trained from scratch twice


def test_streamed_checkpoint_flat(tmp_path, checked_writes):
    cfg = FlatConfig(n_init=6, cycles=5, mutants_per_cycle=3, epochs=10, seed=1)
    econas_search(
        toy_evaluator(), flat_config_to_econas(cfg), SETTING.with_epochs(cfg.epochs),
        algorithm="flat", network=TOY_NET, checkpoint_path=str(tmp_path / "c.json"),
    )
    assert checked_writes == list(range(0, cfg.cycles + 2))


def test_streamed_checkpoint_after_resuming_its_own_files(tmp_path, checked_writes):
    # The resumed engine appends to the files it read, and every write
    # still reloads to its state.
    cfg = toy_config(cycles=7)
    path = str(tmp_path / "c.json")
    SearchEngine(
        toy_evaluator(), cfg, SETTING, network=TOY_NET, checkpoint_path=path
    ).run(stop_after_cycle=3)
    engine = SearchEngine(toy_evaluator(), cfg, SETTING, network=TOY_NET, checkpoint_path=path)
    engine.load_checkpoint()
    del checked_writes[:]
    engine.run()
    assert checked_writes == list(range(5, cfg.cycles + 2))


def test_streamed_checkpoint_after_resuming_v1_file(tmp_path, checked_writes):
    # The file holds a run stopped after cycle 2, written by a version that
    # still stored the budget ledger.
    engine = _v1_engine(checkpoint_path=str(tmp_path / "c.json"))
    with open(V1_CHECKPOINT, "r", encoding="utf-8") as fh:
        engine.load_checkpoint_obj(json.load(fh))
    engine.run()
    assert checked_writes == [3, 4, 5, 6, 7]  # 3: the loaded state, snapshotted first


def test_streamed_checkpoint_after_load_into_used_engine(tmp_path, checked_writes):
    # The two engines see different accuracies, so JSON text kept from the
    # first engine's own run would not match the state it loads.
    cfg = toy_config(cycles=7)
    other = SearchEngine(
        toy_evaluator(seed=8), cfg, SETTING, network=TOY_NET,
        checkpoint_path=str(tmp_path / "other.json"),
    )
    other.run(stop_after_cycle=2)
    engine = SearchEngine(
        toy_evaluator(), cfg, SETTING, network=TOY_NET, checkpoint_path=str(tmp_path / "c.json")
    )
    engine.run(stop_after_cycle=5)
    with open(tmp_path / "other.json", "r", encoding="utf-8") as fh:
        engine.load_checkpoint_obj(json.load(fh))
    del checked_writes[:]
    engine.run()
    assert checked_writes == list(range(3, cfg.cycles + 2))


# -- interrupted batches -----------------------------------------------------------------


class _Interrupt(BaseException):
    pass


class _InterruptedAt:
    """Call number ``n`` (from 1) raises ``_Interrupt`` in its worker, or
    sends SIGINT to the main thread. The calls before it take ``pace``
    seconds; each call after it waits, for at most ``bound`` seconds, until
    ``dropped`` is set, so its worker starts no job between the
    interruption and its delivery, unless that comes later than ``bound``."""

    def __init__(self, n, by_signal, pace=0.05, bound=30):
        self.n = n
        self.by_signal = by_signal
        self.pace = pace
        self.bound = bound
        self.calls = 0
        self.dropped = threading.Event()
        self._lock = threading.Lock()

    def evaluate(self, *args):
        with self._lock:
            self.calls += 1
            call = self.calls
        if call > self.n:
            self.dropped.wait(self.bound)
        elif call == self.n:
            if not self.by_signal:
                raise _Interrupt()
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        else:
            time.sleep(self.pace)
        return call


@pytest.mark.parametrize("by_signal", [False, True], ids=["in_a_job", "sigint"])
@pytest.mark.parametrize("workers,n", [(2, 3), (4, 10)])
def test_interruption_drops_jobs_not_yet_started(monkeypatch, workers, n, by_signal):
    ev = _InterruptedAt(n, by_signal)

    class Pool(search_module.ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            ev.dropped.set()  # the jobs not yet started are cancelled by now, or never will be
            super().shutdown(wait=wait)

    monkeypatch.setattr(search_module, "ThreadPoolExecutor", Pool)
    jobs = [(None, None, 0, 1, None)] * 100
    with pytest.raises(KeyboardInterrupt if by_signal else _Interrupt):
        _evaluate_jobs(ev, jobs, workers, lambda slot, outcome: None)
    # Only the jobs in flight when the interruption came have run.
    assert ev.calls <= n + workers


@pytest.mark.parametrize("by_signal", [False, True], ids=["in_a_job", "sigint"])
def test_interruption_early_in_a_long_batch_starts_no_further_job(monkeypatch, by_signal):
    # Call 50 of 200,000 comes while a runner that queues its whole batch
    # first would still be queueing it; the calls after it would then run
    # (at once, or each after ``bound``) until the queueing ends.
    ev = _InterruptedAt(50, by_signal, pace=0.001, bound=0.1)

    class Pool(search_module.ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            ev.dropped.set()
            super().shutdown(wait=wait)

    monkeypatch.setattr(search_module, "ThreadPoolExecutor", Pool)
    with pytest.raises(KeyboardInterrupt if by_signal else _Interrupt):
        _evaluate_jobs(ev, [(None, None, 0, 1, None)] * 200_000, 2, lambda slot, outcome: None)
    assert ev.calls <= 50 + 2


class _Counted:
    """Counts the jobs taken from ``jobs(count)`` and the calls finished,
    and keeps the largest difference seen at a take; each call returns its
    job's start epoch as the resume token."""

    def __init__(self):
        self.taken = self.finished = self.most_unfinished = 0
        self._lock = threading.Lock()

    def jobs(self, count):
        for start in range(count):
            with self._lock:
                self.taken += 1
                self.most_unfinished = max(self.most_unfinished, self.taken - self.finished)
            yield (None, None, start, start + 1, None)

    def evaluate(self, g, setting, start, end, token):
        with self._lock:
            self.finished += 1
        return EvalResult(0.5, None, str(start))


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_runner_takes_a_job_only_when_a_worker_is_free(workers):
    ev = _Counted()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        outcomes = _outcomes(ev, ev.jobs(10_000), workers)
    finally:
        sys.setswitchinterval(interval)
    assert [outcome.resume_token for outcome in outcomes] == [str(i) for i in range(10_000)]
    assert ev.finished == 10_000
    assert ev.most_unfinished <= (1 if workers == 1 else 2 * workers)


class _Sleeps:
    """Each job's genotype is (seconds, what): the call waits until all five
    jobs are in flight, so none is cancelled before it starts, then sleeps,
    then raises ``_Interrupt``, fails or returns a result."""

    def __init__(self):
        self.in_flight = threading.Barrier(5, timeout=30)

    def evaluate(self, g, *args):
        seconds, what = g
        self.in_flight.wait()
        time.sleep(seconds)
        if what == "interrupt":
            raise _Interrupt()
        if what == "fail":
            raise EvaluatorFailure("failed in flight")
        return EvalResult(0.5, None, what)


def test_interruption_reports_the_results_in_flight_but_not_their_failures():
    reported = []
    jobs = [((0, "interrupt"), None, 0, 1, None)] + [
        ((0.2, what), None, 0, 1, None) for what in ("fail", "t", "fail", "u")
    ]
    with pytest.raises(_Interrupt):
        _evaluate_jobs(_Sleeps(), jobs, 5, lambda slot, outcome: reported.append((slot, outcome)))
    assert sorted(reported) == [(2, EvalResult(0.5, None, "t")), (4, EvalResult(0.5, None, "u"))]


class _Returns:
    def __init__(self, outcome):
        self.outcome = outcome

    def evaluate(self, *args):
        return self.outcome


@pytest.mark.parametrize("outcome", [
    EvalResult(93.1, None, "t"),
    EvalResult(float("nan"), 0.5, "t"),
    EvalResult("0.5", None, "t"),
    EvalResult(0.5, 1.5, "t"),
    EvalResult(0.5, float("nan"), "t"),
    EvalResult(0.5, None, None),
    EvalResult(0.5, None, 7),
    7,
    EvalResult(True, None, "t"),
    EvalResult(0.5, False, "t"),
])
def test_broken_outcome_is_a_failure_naming_it(outcome):
    [result] = _outcomes(_Returns(outcome), [(None, None, 0, 1, None)])
    assert isinstance(result, EvaluatorFailure)
    assert repr(outcome) in str(result)


@pytest.mark.parametrize("outcome", [EvalResult(0.5, None, "t"), EvalResult(1, 0.0, "")])
def test_outcome_within_the_contract_passes_unchanged(outcome):
    assert _outcomes(_Returns(outcome), [(None, None, 0, 1, None)]) == [outcome]


def test_integer_accuracy_enters_as_the_float_it_names():
    [result] = _outcomes(_Returns(EvalResult(1, 0, "t")), [(None, None, 0, 1, None)])
    assert result == EvalResult(1.0, 0.0, "t")
    assert [type(value) for value in result[:2]] == [float, float]


# -- flat baseline ------------------------------------------------------------------------


def test_flat_zero_cycles():
    cfg = FlatConfig(n_init=8, cycles=0, mutants_per_cycle=4, epochs=10, seed=1)
    res = econas_search(
        toy_evaluator(), flat_config_to_econas(cfg), SETTING.with_epochs(cfg.epochs),
        algorithm="flat", network=TOY_NET,
    )
    assert len(res.history) == 8
    assert all(h.epochs_trained == 10 for h in res.history)


def test_flat_equal_epoch_ledger():
    hier = toy_config(n_init=20, cycles=30, mutants_per_cycle=8, promote_to_2e=4, promote_to_3e=2)
    res_h = econas_search(toy_evaluator(), hier, SETTING, network=TOY_NET)
    flat = FlatConfig(n_init=20, cycles=25, mutants_per_cycle=8, epochs=10, seed=3)
    res_f = econas_search(
        toy_evaluator(), flat_config_to_econas(flat), SETTING.with_epochs(flat.epochs),
        algorithm="flat", network=TOY_NET,
    )
    assert res_h.ledger.total_epochs == res_f.ledger.total_epochs == 2200


def test_flat_population_aging():
    cfg = FlatConfig(n_init=6, cycles=10, mutants_per_cycle=3, epochs=5, seed=2)
    res = econas_search(
        toy_evaluator(), flat_config_to_econas(cfg), SETTING.with_epochs(cfg.epochs),
        algorithm="flat", network=TOY_NET,
    )
    assert res.ledger.from_scratch_models == 6 + 10 * 3
    assert all(h.setting == "c4r4s0e5" for h in res.history)

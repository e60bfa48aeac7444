import json
import os
import pathlib
import random
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import threading
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from econas import genotype as genotype_module, harness, search
from econas.analysis import AnalysisError, build_report
from econas.cli import main
from econas.evaluator import EvalResult, EvaluatorFailure
from econas.genotype import OperationKind, OperationSet, OutputRule, ZOO13, decode, encode
from econas.harness import (
    ExperimentManifest,
    HarnessError,
    default_serve_command,
    load_manifest,
    load_search_config,
    load_zoo,
    make_evaluator,
    run_analyze,
    run_search,
    zoo_evaluate,
    zoo_generate,
)
from econas.proxy import CIFAR10_TABLE, parse_label
from econas.records import EvaluationRecord, LogError, read_log, write_log
from econas.search import EcoNasConfig, FlatConfig, SearchError, flat_config_to_econas
from econas.surrogate import SurrogateEvaluator, SurrogateParams


def _dir_bytes(root):
    snapshot = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                snapshot[os.path.relpath(path, root)] = fh.read()
    return snapshot


# -- zoo generate -----------------------------------------------------------------


def test_zoo_generate_refuses_more_models_than_the_space_holds(tmp_path, capsys):
    # One op and one node: 2 inputs squared per cell, squared for two cells.
    one_op = OperationSet("one", (OperationKind.SEP_CONV_3X3,))
    entries = zoo_generate(str(tmp_path / "all"), count=16, node_count=1, op_set=one_op)
    assert len({mid for mid, _ in entries}) == 16
    start = time.monotonic()
    with pytest.raises(HarnessError, match="only 16"):
        zoo_generate(str(tmp_path / "more"), count=17, node_count=1, op_set=one_op)
    assert time.monotonic() - start < 1.0
    assert not (tmp_path / "more").exists()
    argv = ["zoo", "generate", "--out", str(tmp_path / "cli"), "--count", "65537",
            "--nodes", "1", "--op-set", "search8"]
    assert main(argv) == 2
    assert "only 65536" in capsys.readouterr().err


def test_zoo_generate_counts_and_idempotence(tmp_path):
    out = tmp_path / "zoo"
    entries = zoo_generate(str(out), count=10, node_count=3, seed=5)
    assert len(entries) == 10
    first = _dir_bytes(out)
    assert len([n for n in first if n != "index.json"]) == 10
    zoo_generate(str(out), count=10, node_count=3, seed=5, force=True)
    assert _dir_bytes(out) == first

    models = load_zoo(str(out))
    assert [h for h, _ in models] == [h for h, _ in entries]
    for h, g in models:
        assert g.content_hash == h
        assert g.node_count == 3


def test_zoo_generate_empty_and_refusal(tmp_path):
    out = tmp_path / "zoo0"
    entries = zoo_generate(str(out), count=0)
    assert entries == []
    index = json.loads((out / "index.json").read_text())
    assert index["models"] == []
    with pytest.raises(HarnessError):
        zoo_generate(str(out), count=0)  # refuses without force
    zoo_generate(str(out), count=2, node_count=2, force=True)
    assert len(load_zoo(str(out))) == 2


@pytest.mark.parametrize("kwargs,message", [
    ({"count": -1}, "count must be at least 0, got -1"),
    ({"node_count": 0}, "node_count must be at least 1, got 0"),
])
def test_zoo_generate_rejects_a_negative_count_or_no_nodes_before_writing(
    tmp_path, kwargs, message
):
    out = tmp_path / "zoo"
    with pytest.raises(HarnessError, match="^%s$" % message):
        zoo_generate(str(out), **kwargs)
    assert not out.exists()


def test_load_zoo_builds_no_document_for_a_canonical_zoo(tmp_path, monkeypatch):
    out = tmp_path / "zoo"
    entries = zoo_generate(str(out), count=5, node_count=3, seed=5)

    def refuse(g):
        raise AssertionError("built a genotype document")

    monkeypatch.setattr(genotype_module, "_build_document", refuse)
    models = load_zoo(str(out))
    assert [(h, g.content_hash) for h, g in models] == [(h, h) for h, _ in entries]
    for (h, filename), (_, g) in zip(entries, models):
        assert encode(g) == (out / filename).read_text(encoding="utf-8")


def test_load_zoo_takes_a_reformatted_file_of_the_same_genotype(tmp_path):
    out = tmp_path / "zoo"
    (h, filename), *_ = zoo_generate(str(out), count=3, node_count=3, seed=5)
    canonical = (out / filename).read_text(encoding="utf-8")
    obj = json.loads(canonical)
    (out / filename).write_text(json.dumps(dict(reversed(list(obj.items())))), encoding="utf-8")
    (got_id, got), *_ = load_zoo(str(out))
    assert got_id == got.content_hash == h
    assert encode(got) == canonical


def test_load_zoo_rejects_an_edited_genotype(tmp_path):
    out = tmp_path / "zoo"
    (_, filename), *_ = zoo_generate(str(out), count=3, node_count=3, seed=5)
    obj = json.loads((out / filename).read_text(encoding="utf-8"))
    node = obj["normal"]["nodes"][0]
    node["op_a"] = next(op.value for op in ZOO13.members if op.value != node["op_a"])
    (out / filename).write_text(encode(decode(json.dumps(obj))), encoding="utf-8")
    with pytest.raises(HarnessError, match="does not match its indexed hash"):
        load_zoo(str(out))


def test_zoo_generate_cli_roundtrip(tmp_path):
    out = tmp_path / "zoo"
    assert main(["zoo", "generate", "--out", str(out), "--count", "4", "--nodes", "2",
                 "--seed", "3"]) == 0
    models = load_zoo(str(out))
    assert len(models) == 4
    for _, g in models:
        for cell in (g.normal, g.reduction):
            assert cell.output_rule is OutputRule.ALL_INTERMEDIATE
            for node in cell.nodes:
                assert node.op_a in ZOO13


# -- zoo evaluate --------------------------------------------------------------------


def _mini_manifest(tmp_path, labels=("c0r0s0e600", "c4r4s0e60", "c2r2s1e30"), workers=1):
    zoo_dir = tmp_path / "zoo"
    if not zoo_dir.exists():
        zoo_generate(str(zoo_dir), count=6, node_count=2, seed=2)
    return ExperimentManifest(
        table=CIFAR10_TABLE,
        settings=sorted(parse_label(l, CIFAR10_TABLE) for l in labels),
        zoo_dir=str(zoo_dir),
        evaluator_spec="surrogate",
        seed=7,
        output_log=str(tmp_path / "eval.jsonl"),
        workers=workers,
    )


def test_zoo_evaluate_full_grid(tmp_path):
    manifest = _mini_manifest(tmp_path)
    completed, failed, total = zoo_evaluate(manifest)
    assert (completed, failed, total) == (18, 0, 18)
    records = read_log(manifest.output_log)
    assert len(records) == 18
    keys = [(r.model_id, r.setting) for r in records]
    assert keys == sorted(keys)
    assert all(r.train_accuracy is not None for r in records)


def test_zoo_evaluate_single_setting_gives_k_records(tmp_path):
    manifest = _mini_manifest(tmp_path, labels=("c0r0s0e30",))
    completed, failed, total = zoo_evaluate(manifest)
    assert completed == total == 6


def test_zoo_evaluate_resume_after_truncation(tmp_path):
    manifest = _mini_manifest(tmp_path)
    zoo_evaluate(manifest)
    with open(manifest.output_log, "rb") as fh:
        full_bytes = fh.read()
    full_records = read_log(manifest.output_log)

    # drop half the records, keep the header line
    kept = full_records[: len(full_records) // 2]
    write_log(manifest.output_log, kept)
    completed, failed, total = zoo_evaluate(manifest)
    assert completed == total == 18
    assert read_log(manifest.output_log) == full_records
    with open(manifest.output_log, "rb") as fh:
        assert fh.read() == full_bytes


def test_zoo_evaluate_resumes_after_a_torn_last_line(tmp_path, caplog):
    manifest = _mini_manifest(tmp_path)
    zoo_evaluate(manifest)
    with open(manifest.output_log, "rb") as fh:
        full_bytes = fh.read()
    # A crash mid-append leaves a last line without its newline; cut there at
    # random offsets, from the header's first byte to the final record's end.
    inside = [i for i in range(1, len(full_bytes)) if full_bytes[i - 1:i] != b"\n"]
    rng = random.Random(11)
    for cut in [1, len(full_bytes) - 1] + rng.sample(inside, 10):
        with open(manifest.output_log, "wb") as fh:
            fh.write(full_bytes[:cut])
        caplog.clear()
        with caplog.at_level("WARNING", logger="econas.harness"):
            assert zoo_evaluate(manifest) == (18, 0, 18)
        assert "unfinished last line" in caplog.text
        with open(manifest.output_log, "rb") as fh:
            assert fh.read() == full_bytes


def test_zoo_evaluate_without_resume_replaces_the_log(tmp_path):
    zoo_evaluate(_mini_manifest(tmp_path))  # 18 records under other settings
    labels = ("c0r0s0e600", "c4r4s0e60")
    manifest = _mini_manifest(tmp_path, labels=labels)
    assert zoo_evaluate(manifest, resume=False) == (12, 0, 12)
    reference = _mini_manifest(tmp_path / "ref", labels=labels)
    reference.zoo_dir = manifest.zoo_dir
    zoo_evaluate(reference)
    with open(manifest.output_log, "rb") as fh, open(reference.output_log, "rb") as ref:
        assert fh.read() == ref.read()
    assert zoo_evaluate(manifest) == (12, 0, 12)  # a later resume reads it
    assert main([
        "analyze", "--log", manifest.output_log, "--ground-truth", "c0r0s0e600",
        "--out", str(tmp_path / "report"), "--top-k", "2", "--windows", "2,3",
    ]) == 0


def test_torn_or_damaged_log_still_rejected_elsewhere(tmp_path):
    manifest = _mini_manifest(tmp_path)
    zoo_evaluate(manifest)
    with open(manifest.output_log, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    torn = b"".join(lines)[:-5]
    with open(manifest.output_log, "wb") as fh:
        fh.write(torn)
    with pytest.raises(LogError, match="not valid JSON"):
        run_analyze(manifest.output_log, "c0r0s0e600", str(tmp_path / "out"), CIFAR10_TABLE)
    with open(manifest.output_log, "rb") as fh:
        assert fh.read() == torn
    # A bad complete line is damage, not an interrupted append.
    lines[3] = lines[3][:10] + b"\n"
    with open(manifest.output_log, "wb") as fh:
        fh.write(b"".join(lines))
    with pytest.raises(LogError, match="line 4: not valid JSON"):
        zoo_evaluate(manifest)


def test_zoo_evaluate_workers_same_bytes(tmp_path):
    m1 = _mini_manifest(tmp_path)
    zoo_evaluate(m1)
    with open(m1.output_log, "rb") as fh:
        bytes1 = fh.read()
    m4 = _mini_manifest(tmp_path, workers=4)
    m4.output_log = str(tmp_path / "eval4.jsonl")
    zoo_evaluate(m4)
    with open(m4.output_log, "rb") as fh:
        assert fh.read() == bytes1


@pytest.mark.parametrize("held", [False, True], ids=["fresh_log", "log_with_records"])
@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("at", ["first", "middle", "last"])
def test_interrupted_zoo_evaluate_resumes_to_a_straight_runs_bytes(tmp_path, held, workers, at):
    straight = _mini_manifest(tmp_path)
    assert zoo_evaluate(straight) == (18, 0, 18)
    reference = pathlib.Path(straight.output_log).read_bytes()
    manifest = _mini_manifest(tmp_path, workers=workers)
    log = tmp_path / "interrupted.jsonl"
    manifest.output_log = str(log)
    kept = read_log(straight.output_log)[1::3][::-1] if held else []
    if kept:  # out of canonical order, so the resume has to rewrite the log
        write_log(str(log), kept)
    before = log.read_bytes() if kept else None
    surrogate = make_evaluator("surrogate", manifest.table, None, manifest.seed)
    n = {"first": 1, "middle": 5, "last": 18 - len(kept)}[at]
    with pytest.raises(_Killed):
        zoo_evaluate(manifest, evaluator=_KilledAt(surrogate, n))
    # The interrupted batch wrote nothing.
    assert (log.read_bytes() if log.exists() else None) == before
    assert zoo_evaluate(manifest, evaluator=surrogate) == (18, 0, 18)
    assert log.read_bytes() == reference


class _Flaky:
    def __init__(self, inner, fail_fraction_ids):
        self.inner = inner
        self.fail_ids = fail_fraction_ids

    def evaluate(self, genotype, setting, start_epoch, end_epoch, resume_token=None):
        if genotype.content_hash in self.fail_ids:
            raise EvaluatorFailure("flaky")
        return self.inner.evaluate(genotype, setting, start_epoch, end_epoch, resume_token)


def test_zoo_evaluate_failures_skipped_with_warning(tmp_path):
    manifest = _mini_manifest(tmp_path)
    models = load_zoo(manifest.zoo_dir)
    flaky = _Flaky(
        SurrogateEvaluator(SurrogateParams().with_seed(7), CIFAR10_TABLE),
        {models[0][0]},
    )
    completed, failed, total = zoo_evaluate(manifest, evaluator=flaky)
    assert failed == 3  # one model x three settings
    assert completed == 15
    assert failed > 0.10 * total  # the CLI would exit nonzero here
    records = read_log(manifest.output_log)
    assert all(r.model_id != models[0][0] for r in records)


class _Percent:
    """Reports test accuracy 93.1, in percent instead of a fraction."""

    def __init__(self, inner):
        self.inner = inner

    def evaluate(self, *args):
        return self.inner.evaluate(*args)._replace(accuracy=93.1)


def test_zoo_evaluate_counts_out_of_range_accuracies_as_failures(tmp_path, caplog):
    manifest = _mini_manifest(tmp_path)
    surrogate = SurrogateEvaluator(SurrogateParams().with_seed(7), CIFAR10_TABLE)
    assert zoo_evaluate(manifest, evaluator=_Percent(surrogate)) == (0, 18, 18)
    assert "accuracy=93.1" in caplog.text
    assert not os.path.exists(manifest.output_log)


class _Boolean:
    """Reports test accuracy True and train accuracy False."""

    def evaluate(self, *args):
        return EvalResult(True, False, "t")


def test_zoo_evaluate_counts_boolean_accuracies_as_failures(tmp_path, caplog):
    manifest = _mini_manifest(tmp_path)
    assert zoo_evaluate(manifest, evaluator=_Boolean()) == (0, 18, 18)
    assert "accuracy=True" in caplog.text
    assert not os.path.exists(manifest.output_log)


def test_search_with_out_of_range_accuracies_fails_initialization_then_resumes(
    tmp_path, caplog, capsys, search_reference
):
    # Initialization is cycle 0 and keeps its start snapshot: a resume drops
    # the journaled failures, since no result follows them, and runs it again.
    config, reference = search_reference
    cfg = load_search_config(config)
    surrogate = make_evaluator("surrogate", cfg.table, None, cfg.engine_config.seed)
    out = tmp_path / "run"
    with pytest.raises(SearchError, match="all 8 new models failed in cycle 0"):
        run_search(cfg, str(out), evaluator=_Percent(surrogate))
    assert "accuracy=93.1" in caplog.text
    capsys.readouterr()
    assert main(["search", "--config", config, "--out", str(out)]) == 2
    assert "checkpoint already present" in capsys.readouterr().err
    assert main(["search", "--config", config, "--out", str(out), "--resume"]) == 0
    _assert_same_outputs(out, reference)


def test_full_grid_manifest_completes_quickly(tmp_path):
    # canonical workload: 50 models x (200-setting grid + ground truth)
    zoo_dir = tmp_path / "zoo"
    zoo_generate(str(zoo_dir), count=50, node_count=5, seed=7)
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "kind": "experiment_manifest",
                "table": "cifar10",
                "zoo": "zoo",
                "evaluator": "surrogate",
                "seed": 7,
                "output_log": "eval.jsonl",
                "settings": {"grid": {}, "include": ["c0r0s0e600"]},
            }
        )
    )
    manifest = load_manifest(str(manifest_path))
    assert len(manifest.settings) == 201
    start = time.monotonic()
    completed, failed, total = zoo_evaluate(manifest)
    elapsed = time.monotonic() - start
    assert (completed, failed, total) == (10_050, 0, 10_050)
    assert elapsed < 120.0  # takes well under a second on a laptop
    assert len(read_log(manifest.output_log)) == 10_050


def test_manifest_document_loading(tmp_path):
    zoo_dir = tmp_path / "zoo"
    zoo_generate(str(zoo_dir), count=3, node_count=2, seed=4)
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "kind": "experiment_manifest",
                "table": "cifar10",
                "zoo": "zoo",
                "evaluator": "surrogate",
                "seed": 9,
                "output_log": "out/eval.jsonl",
                "settings": {
                    "grid": {"c": [0, 4], "r": [0], "s": [0], "epochs": [30, 60]},
                    "include": ["c0r0s0e600"],
                },
            }
        )
    )
    manifest = load_manifest(str(manifest_path))
    assert len(manifest.settings) == 5  # 2*1*1*2 grid + GT
    assert "c0r0s0e600" in manifest.setting_labels()
    assert manifest.output_log.endswith(os.path.join("out", "eval.jsonl"))
    completed, failed, total = zoo_evaluate(manifest)
    assert completed == total == 15


def test_manifest_errors(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"kind": "other"}))
    with pytest.raises(HarnessError):
        load_manifest(str(path))
    path.write_text(
        json.dumps(
            {
                "kind": "experiment_manifest",
                "table": "cifar10",
                "zoo": "missing-dir",
                "output_log": "x.jsonl",
                "settings": ["c0r0s0e30"],
            }
        )
    )
    with pytest.raises(HarnessError, match="zoo directory"):
        load_manifest(str(path))


# -- analyze ---------------------------------------------------------------------------


def _perfect_log(tmp_path, k=20):
    accs = {"m%02d" % i: 0.5 + 0.02 * i for i in range(k)}
    records = []
    for label in ("c0r0s0e600", "c1r0s0e30", "c4r4s0e60"):
        epochs = parse_label(label).epochs
        for mid, acc in accs.items():
            records.append(EvaluationRecord(mid, label, acc, acc + 0.01, epochs))
    path = tmp_path / "log.jsonl"
    write_log(str(path), records)
    return path, records


def test_analyze_perfect_log(tmp_path):
    path, records = _perfect_log(tmp_path)
    report = build_report(records, "c0r0s0e600", CIFAR10_TABLE, top_k=3, windows=(5, 10))
    assert len(report.rows) == 2
    for row in report.rows:
        assert row.rho_sp == 1.0
        assert row.hre == 0.0
        assert row.tolerant_rho == 1.0
        assert row.retained == (3, 3)
        assert row.overfit_gap == pytest.approx(0.01)
    accelerations = {row.label: row.acceleration for row in report.rows}
    assert accelerations["c1r0s0e30"] == pytest.approx(2 * 600 / 30)
    assert accelerations["c4r4s0e60"] == pytest.approx(256 * 600 / 60)


def test_analyze_missing_ground_truth_models(tmp_path):
    _, records = _perfect_log(tmp_path)
    records.append(EvaluationRecord("stray01", "c1r0s0e30", 0.9, None, 30))
    with pytest.raises(AnalysisError, match="stray01"):
        build_report(records, "c0r0s0e600", CIFAR10_TABLE, top_k=3, windows=(5,))


def test_analyze_cli_outputs_are_byte_identical(tmp_path):
    path, _ = _perfect_log(tmp_path)
    args = [
        "analyze",
        "--log", str(path),
        "--ground-truth", "c0r0s0e600",
        "--table", "cifar10",
        "--top-k", "3",
        "--windows", "5,10",
    ]
    assert main(args + ["--out", str(tmp_path / "rep1")]) == 0
    assert main(args + ["--out", str(tmp_path / "rep2")]) == 0
    assert _dir_bytes(tmp_path / "rep1") == _dir_bytes(tmp_path / "rep2")
    report_text = (tmp_path / "rep1" / "report.tsv").read_text()
    assert report_text.startswith("# kind=consistency_report")
    header = report_text.splitlines()[1].split("\t")
    assert header == [
        "label", "rho_sp", "tolerant_rho", "hre", "speedup", "acceleration",
        "retained_w5", "retained_w10", "overfit_gap",
    ]


# -- search command -------------------------------------------------------------------


def _search_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "schema_version": 1,
        "kind": "search_config",
        "algorithm": "hierarchical",
        "table": "cifar10",
        "setting": "c4r4s0",
        "evaluator": "surrogate",
        "op_set": "search8",
        "node_count": 1,
        "config": {
            "n_init": 8,
            "cycles": 6,
            "epoch_unit": 5,
            "mutants_per_cycle": 4,
            "promote_to_2e": 2,
            "promote_to_3e": 1,
            "seed": 3,
        },
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_search_cli_run_and_outputs(tmp_path):
    config = _search_config(tmp_path)
    out = tmp_path / "run"
    assert main(["search", "--config", config, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["models_trained_from_scratch"] == 8 + 6 * 4
    assert summary["total_trained_epochs"] == 5 * (8 + 6 * (4 + 2 + 1))
    history = read_log(str(out / "history.jsonl"), on_duplicate="keep_last")
    assert history
    top_entry = summary["top"][0]
    g = decode((out / top_entry["file"]).read_text())
    assert g.content_hash == top_entry["model_id"]
    assert top_entry["epochs_trained"] == 15


def test_search_cli_refuses_accidental_overwrite(tmp_path):
    config = _search_config(tmp_path)
    out = tmp_path / "run"
    assert main(["search", "--config", config, "--out", str(out)]) == 0
    assert main(["search", "--config", config, "--out", str(out)]) == 2
    assert main(["search", "--config", config, "--out", str(out), "--force"]) == 0


def test_search_stop_and_resume_matches_uninterrupted(tmp_path):
    config = _search_config(tmp_path)
    full = tmp_path / "full"
    assert main(["search", "--config", config, "--out", str(full)]) == 0

    part = tmp_path / "part"
    assert main(
        ["search", "--config", config, "--out", str(part), "--stop-after-cycle", "2"]
    ) == 0
    assert not (part / "history.jsonl").exists()  # not finished yet
    assert (part / "checkpoint.json").exists()
    assert main(["search", "--config", config, "--out", str(part), "--resume"]) == 0

    for name in ("history.jsonl", "ledger.jsonl", "summary.json"):
        assert (part / name).read_bytes() == (full / name).read_bytes()
    assert _dir_bytes(part / "top") == _dir_bytes(full / "top")


@pytest.mark.parametrize("stop", ["6", "9"])
def test_search_stopped_at_or_after_its_last_cycle_finishes(tmp_path, capsys, stop):
    config = _search_config(tmp_path)
    full, out = tmp_path / "full", tmp_path / "run"
    assert main(["search", "--config", config, "--out", str(full)]) == 0
    capsys.readouterr()
    assert main(["search", "--config", config, "--out", str(out), "--stop-after-cycle", stop]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("search done:") and "stopped" not in printed
    for name in ("history.jsonl", "ledger.jsonl", "summary.json"):
        assert (out / name).read_bytes() == (full / name).read_bytes()


def test_search_resumed_with_an_earlier_stop_reports_the_boundary_it_is_at(tmp_path, capsys):
    # A resume never rewinds: asking to stop at 1 a run checkpointed after
    # cycle 3 stops at once, at boundary 3, and writes nothing.
    config = _search_config(tmp_path)
    out = tmp_path / "run"
    assert main(["search", "--config", config, "--out", str(out), "--stop-after-cycle", "3"]) == 0
    before = _dir_bytes(out)
    capsys.readouterr()
    assert main(
        ["search", "--config", config, "--out", str(out), "--resume", "--stop-after-cycle", "1"]
    ) == 0
    assert capsys.readouterr().out == "stopped at cycle boundary 3; checkpoint saved\n"
    assert _dir_bytes(out) == before
    assert not (out / "history.jsonl").exists()


def test_finished_search_resumed_with_a_stop_stays_done(tmp_path, capsys):
    config = _search_config(tmp_path)
    out = tmp_path / "run"
    assert main(["search", "--config", config, "--out", str(out)]) == 0
    before = _dir_bytes(out)
    capsys.readouterr()
    assert main(
        ["search", "--config", config, "--out", str(out), "--resume", "--stop-after-cycle", "2"]
    ) == 0
    assert capsys.readouterr().out.startswith("search done:")
    assert _dir_bytes(out) == before


def test_search_stop_before_initialization_is_a_usage_error(tmp_path, capsys):
    config = _search_config(tmp_path)
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["search", "--config", config, "--out", str(out), "--stop-after-cycle", "-5"])
    assert exc.value.code == 2
    assert "expected a cycle of at least 0, got -5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", 99),
        ("op_set", "zoo13"),
        ("node_count", 2),
        ("stack_n", 3),
        ("output_rule", "all_intermediate"),
    ],
)
def test_search_resume_with_other_config_refused(tmp_path, key, value):
    config = _search_config(tmp_path)
    out = tmp_path / "run"
    main(["search", "--config", config, "--out", str(out), "--stop-after-cycle", "1"])
    obj = json.loads(pathlib.Path(config).read_text())
    (obj["config"] if key == "seed" else obj)[key] = value
    other = tmp_path / "other.json"
    other.write_text(json.dumps(obj))
    assert main(["search", "--config", str(other), "--out", str(out), "--resume"]) == 2


def test_resume_checkpoint_with_stored_ledger(tmp_path):
    # Written by a version that stored the budget ledger in the checkpoint:
    # the _search_config run stopped after cycle 2.
    old = os.path.join(os.path.dirname(__file__), "data", "checkpoint_v1_cycle2.json")
    with open(old, "r", encoding="utf-8") as fh:
        assert "ledger" in json.load(fh)
    config = _search_config(tmp_path)
    full = tmp_path / "full"
    assert main(["search", "--config", config, "--out", str(full)]) == 0
    part = tmp_path / "part"
    part.mkdir()
    (part / "checkpoint.json").write_bytes(pathlib.Path(old).read_bytes())
    assert main(["search", "--config", config, "--out", str(part), "--resume"]) == 0
    for name in ("history.jsonl", "ledger.jsonl", "summary.json"):
        assert (part / name).read_bytes() == (full / name).read_bytes()
    assert "ledger" not in json.loads((part / "checkpoint.json").read_text())


def test_resume_from_damaged_checkpoint_is_a_user_error(tmp_path, capsys):
    config = _search_config(tmp_path)
    out = tmp_path / "run"
    assert main(["search", "--config", config, "--out", str(out), "--stop-after-cycle", "2"]) == 0
    ckpt = out / "checkpoint.json"
    whole = ckpt.read_bytes()
    obj = json.loads(whole)
    del obj["history"]
    for damaged, reason in ((whole[:500], "JSON"), (json.dumps(obj).encode(), "history")):
        ckpt.write_bytes(damaged)
        capsys.readouterr()
        assert main(["search", "--config", config, "--out", str(out), "--resume"]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and reason in err
        assert "Traceback" not in err


def test_flat_search_cli(tmp_path):
    config = _search_config(
        tmp_path,
        name="flat.json",
        algorithm="flat",
        config={
            "n_init": 6,
            "cycles": 4,
            "mutants_per_cycle": 3,
            "epochs": 10,
            "seed": 1,
        },
    )
    out = tmp_path / "flat-run"
    assert main(["search", "--config", config, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["algorithm"] == "flat"
    assert summary["total_trained_epochs"] == 10 * (6 + 4 * 3)
    history = read_log(str(out / "history.jsonl"), on_duplicate="keep_last")
    assert all(r.epochs_trained == 10 for r in history)


# -- kill -9 mid-run, then resume ---------------------------------------------------------


SLOW_SERVER = textwrap.dedent(
    """
    import sys, time

    from econas.bridge import serve
    from econas.proxy import CIFAR10_TABLE
    from econas.surrogate import SurrogateEvaluator, SurrogateParams

    class Slow:
        def __init__(self, inner, delay):
            self.inner = inner
            self.delay = delay

        def evaluate(self, *args, **kwargs):
            time.sleep(self.delay)
            return self.inner.evaluate(*args, **kwargs)

    serve(
        Slow(SurrogateEvaluator(SurrogateParams().with_seed(7), CIFAR10_TABLE), float(sys.argv[1])),
        CIFAR10_TABLE,
    )
    """
)


@pytest.mark.parametrize("workers", [1, 3])
def test_kill_and_resume_identical_outputs(tmp_path, workers):
    # With several workers the SIGKILLed parent leaves several children,
    # which exit on stdin EOF.
    server = tmp_path / "slow_server.py"
    server.write_text(SLOW_SERVER)
    evaluator = "cmd:%s %s 0.02" % (sys.executable, server)
    config = _search_config(
        tmp_path,
        name="kill.json",
        evaluator=evaluator,
        workers=workers,
        config={
            "n_init": 6,
            "cycles": 12,
            "epoch_unit": 5,
            "mutants_per_cycle": 4,
            "promote_to_2e": 2,
            "promote_to_3e": 1,
            "seed": 5,
        },
    )
    reference = tmp_path / "reference"
    assert main(["search", "--config", config, "--out", str(reference)]) == 0

    victim = tmp_path / "victim"
    proc = subprocess.Popen(
        [sys.executable, "-m", "econas.cli", "search", "--config", config, "--out", str(victim)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    time.sleep(1.5)
    proc.send_signal(signal.SIGKILL)
    proc.wait()
    # resume (works whether the kill landed mid-run or after completion)
    assert main(["search", "--config", config, "--out", str(victim), "--resume"]) == 0
    for name in ("history.jsonl", "ledger.jsonl", "summary.json"):
        assert (victim / name).read_bytes() == (reference / name).read_bytes()


KILLING_SERVER = textwrap.dedent(
    """
    import fcntl, os, signal, sys

    from econas.bridge import serve
    from econas.proxy import CIFAR10_TABLE
    from econas.surrogate import SurrogateEvaluator, SurrogateParams

    count_path, kill_at = sys.argv[1], int(sys.argv[2])

    class KillsItsParent:
        # Every evaluate request of every child appends one byte to
        # count_path; request number kill_at SIGKILLs the parent, once.
        def __init__(self, inner):
            self.inner = inner

        def evaluate(self, *args, **kwargs):
            with open(count_path, "ab") as fh:
                fcntl.flock(fh, fcntl.LOCK_EX)
                fh.write(b"x")
                fh.flush()
                number = os.fstat(fh.fileno()).st_size
            marker = count_path + ".killed"
            if number == kill_at and not os.path.exists(marker):
                open(marker, "w").close()
                os.kill(os.getppid(), signal.SIGKILL)
                os._exit(0)
            return self.inner.evaluate(*args, **kwargs)

    serve(
        KillsItsParent(SurrogateEvaluator(SurrogateParams().with_seed(7), CIFAR10_TABLE)),
        CIFAR10_TABLE,
    )
    """
)


@pytest.mark.parametrize("workers", [1, 3])
def test_trainer_killing_its_parent_mid_cycle_costs_only_the_requests_in_flight(
    tmp_path, workers
):
    # A real SIGKILL, sent by the trainer child while it serves request 33:
    # cycle 4's sixth evaluation, its second promotion to 2E.
    server = tmp_path / "killing_server.py"
    server.write_text(KILLING_SERVER)

    def run_config(name, kill_at):
        count = tmp_path / (name + ".count")
        config = _search_config(
            tmp_path,
            name=name + ".json",
            evaluator="cmd:%s %s %s %d" % (sys.executable, server, count, kill_at),
            workers=workers,
            config={
                "n_init": 6,
                "cycles": 12,
                "epoch_unit": 5,
                "mutants_per_cycle": 4,
                "promote_to_2e": 2,
                "promote_to_3e": 1,
                "seed": 5,
            },
        )
        return config, count

    straight_config, straight_count = run_config("straight", 0)
    straight = tmp_path / "straight"
    assert main(["search", "--config", straight_config, "--out", str(straight)]) == 0

    config, count = run_config("victim", 6 + 3 * 7 + 6)
    victim = tmp_path / "victim"
    killed = subprocess.run(
        [sys.executable, "-m", "econas.cli", "search", "--config", config, "--out", str(victim)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=300,
    )
    assert killed.returncode == -signal.SIGKILL
    assert not (victim / "summary.json").exists()
    assert main(["search", "--config", config, "--out", str(victim), "--resume"]) == 0
    _assert_same_outputs(victim, straight)
    assert len(count.read_bytes()) <= len(straight_count.read_bytes()) + workers


# -- killed mid-run: the snapshot and its journal ---------------------------------------


class _Killed(BaseException):
    """Stands in for a kill: no handler inside econas catches it."""


class _KilledAt:
    """Evaluates in-process; call number ``n`` (from 1) raises ``_Killed``
    and the calls numbered in ``fails`` fail. ``calls`` counts every call,
    those that raised among them."""

    def __init__(self, inner, n, fails=()):
        self.inner = inner
        self.n = n
        self.fails = fails
        self.calls = 0
        self._lock = threading.Lock()

    def evaluate(self, *args):
        with self._lock:
            self.calls += 1
            call = self.calls
        if call == self.n:
            raise _Killed()
        if call in self.fails:
            raise EvaluatorFailure("call %d failed" % call)
        return self.inner.evaluate(*args)


# _search_config runs 8 initial evaluations, then 4 + 2 + 1 per cycle.
_EVALUATIONS = 8 + 6 * 7
_IN_CYCLE_2 = 8 + 1 * 7 + 3
_AT_CYCLE_5 = 8 + 4 * 7 + 1
_IN_CYCLE_5 = _AT_CYCLE_5 + 2


def _counted_run(config, out, n=0, workers=1, resume=False, fails=()):
    """Run or resume the search into ``out`` with ``workers`` workers; a
    positive ``n`` kills it at trainer call ``n``, and the calls numbered in
    ``fails`` fail. Returns the calls made."""
    cfg = load_search_config(config)
    cfg.workers = workers
    surrogate = make_evaluator("surrogate", cfg.table, cfg.surrogate_params, cfg.engine_config.seed)
    counted = _KilledAt(surrogate, n, fails)
    if n > 0:
        with pytest.raises(_Killed):
            run_search(cfg, str(out), resume=resume, evaluator=counted)
    else:
        run_search(cfg, str(out), resume=resume, evaluator=counted)
    return counted.calls


def _assert_same_outputs(out, reference):
    for name in ("history.jsonl", "ledger.jsonl", "summary.json", "checkpoint.json"):
        assert (out / name).read_bytes() == (reference / name).read_bytes(), name


@pytest.fixture(scope="module")
def search_reference(tmp_path_factory):
    root = tmp_path_factory.mktemp("reference")
    config = _search_config(root)
    assert main(["search", "--config", config, "--out", str(root / "full")]) == 0
    return config, root / "full"


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, _EVALUATIONS), workers=st.sampled_from([1, 3]))
@example(n=5, workers=1)  # in initialization
@example(n=5, workers=3)
def test_killed_at_any_evaluation_resumes_identically(search_reference, n, workers):
    # Every finished evaluation survives the kill, those of initialization
    # (cycle 0) too: the jobs in flight finish and are journaled, so only
    # the killed call itself is made twice.
    config, reference = search_reference
    with tempfile.TemporaryDirectory() as root:
        out = pathlib.Path(root) / "run"
        killed = _counted_run(config, out, n, workers)
        resumed = _counted_run(config, out, workers=workers, resume=True)
        _assert_same_outputs(out, reference)
        assert killed + resumed == _EVALUATIONS + 1


@pytest.mark.parametrize("workers", [1, 3])
def test_killed_twice_in_one_cycle_keeps_both_runs_results(tmp_path, search_reference, workers):
    # The resume is killed again in the cycle it resumed: the journal then
    # holds that cycle's results from both runs, and the last resume makes
    # only the calls the two kills cost.
    config, reference = search_reference
    out = tmp_path / "run"
    calls = _counted_run(config, out, _IN_CYCLE_5, workers)
    snapshot = (out / "checkpoint.json").read_bytes()
    calls += _counted_run(config, out, 2, workers, resume=True)
    assert (out / "checkpoint.json").read_bytes() == snapshot
    assert _journal_cycles(out)[-1] == 5  # no boundary line for cycle 5 yet
    calls += _counted_run(config, out, workers=workers, resume=True)
    _assert_same_outputs(out, reference)
    assert calls == _EVALUATIONS + 2


_CHILDREN_1_TO_3 = range(_AT_CYCLE_5 + 1, _AT_CYCLE_5 + 4)  # of cycle 5


@pytest.mark.parametrize(
    "failed,killed,kept",
    [
        # Killed at cycle 5's second promotion to 2E, or at its promotion
        # to 3E: the first promotion's result follows the failures.
        (_CHILDREN_1_TO_3, _AT_CYCLE_5 + 5, True),
        (_CHILDREN_1_TO_3, _AT_CYCLE_5 + 6, True),
        # Killed at its first promotion to 2E: no result follows them.
        (_CHILDREN_1_TO_3, _AT_CYCLE_5 + 4, False),
        # Both promotions to 2E fail; killed after the cycle's last
        # evaluation, the promotion to 3E, before its boundary line.
        (range(_AT_CYCLE_5 + 4, _AT_CYCLE_5 + 6), None, True),
    ],
    ids=["children_2e", "children_3e", "children_last", "promotions_cycle_end"],
)
def test_failures_before_a_kill_in_one_cycle(tmp_path, search_reference, monkeypatch,
                                             failed, killed, kept):
    # A failure that a journaled result follows stays a failure, though the
    # resumed trainer would now succeed: a success could change which models
    # the cycle promotes, and the journaled promotions would no longer fit.
    # A failure that no result follows is tried again.
    config, reference = search_reference
    if kept:
        reference = tmp_path / "reference"
        _counted_run(config, reference, fails=failed)
    out = tmp_path / "run"
    if killed is None:
        cycles = iter(range(1, 7))
        remove_dead = search.remove_dead

        def killed_at_cycle_5(tiers, cfg):
            if next(cycles) == 5:
                raise _Killed()
            remove_dead(tiers, cfg)

        monkeypatch.setattr(search, "remove_dead", killed_at_cycle_5)
        with pytest.raises(_Killed):
            _counted_run(config, out, fails=failed)
        calls = _AT_CYCLE_5 + 6
        monkeypatch.undo()
    else:
        calls = _counted_run(config, out, killed, fails=failed)
    calls += _counted_run(config, out, resume=True)
    _assert_same_outputs(out, reference)
    assert calls == _EVALUATIONS + (killed is not None) + (0 if kept else len(failed))


def _cut_last_line(journal, keep):
    data = journal.read_bytes()
    last = data.rstrip(b"\n").rfind(b"\n") + 1
    cut = len(data) - 1 if keep == "all_but_the_newline" else (last + len(data)) // 2
    journal.write_bytes(data[:cut])
    return json.loads(data[last:])


@pytest.mark.parametrize("keep", ["all_but_the_newline", "half_the_line"])
def test_journal_cut_mid_line_resumes_identically(tmp_path, search_reference, caplog, keep):
    # Killed as cycle 5 begins, the journal ends in the line of cycle 4; cut
    # short, cycle 4 runs again, wholly from its journaled results.
    config, reference = search_reference
    out = tmp_path / "run"
    _counted_run(config, out, _AT_CYCLE_5)
    journal = out / "checkpoint.journal"
    assert _cut_last_line(journal, keep)["next_cycle"] == 5
    calls = _counted_run(config, out, resume=True)
    assert "unfinished last line" in caplog.text
    _assert_same_outputs(out, reference)
    assert not journal.exists()  # the final snapshot holds everything
    assert calls == _EVALUATIONS - (_AT_CYCLE_5 - 1)


@pytest.mark.parametrize("keep", ["all_but_the_newline", "half_the_line"])
def test_eval_line_cut_mid_line_reruns_its_slot_only(tmp_path, search_reference, caplog, keep):
    config, reference = search_reference
    out = tmp_path / "run"
    _counted_run(config, out, _IN_CYCLE_5)
    torn = _cut_last_line(out / "checkpoint.journal", keep)
    assert (torn["cycle"], torn["phase"], torn["slot"]) == (5, "child", 1)
    calls = _counted_run(config, out, resume=True)
    assert "unfinished last line" in caplog.text
    _assert_same_outputs(out, reference)
    assert calls == _EVALUATIONS - (_IN_CYCLE_5 - 1) + 1


def _journal_lines(out):
    """Every line of the run's journal after its header, parsed."""
    with open(out / "checkpoint.journal", encoding="utf-8") as fh:
        next(fh)
        return [json.loads(line) for line in fh]


def _journal_cycles(out):
    """``next_cycle`` of every boundary line of the run's journal, in file
    order; eval lines, which carry a ``phase``, are skipped."""
    return [line["next_cycle"] for line in _journal_lines(out) if "phase" not in line]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("first", ["killed", "killed_mid_append", "stopped"])
def test_a_resumed_run_continues_the_journal(tmp_path, search_reference, first, workers):
    # Interrupted once, resumed and killed three cycles later, resumed again:
    # the resume writes no snapshot, its cycles extend the journal without
    # a gap, and the outputs are those of the uninterrupted run.
    config, reference = search_reference
    cfg = load_search_config(config)
    cfg.workers = workers
    out = tmp_path / "run"
    if first == "stopped":
        run_search(cfg, str(out), stop_after_cycle=1)
    else:
        _counted_run(config, out, _IN_CYCLE_2, workers)
    if first == "killed_mid_append":
        journal = out / "checkpoint.journal"
        journal.write_bytes(journal.read_bytes()[:-1])
    snapshot = (out / "checkpoint.json").read_bytes()
    resumed_at = json.loads(snapshot)["next_cycle"]
    _counted_run(config, out, 3 * 7 + 4, workers, resume=True)  # in its fourth cycle
    assert (out / "checkpoint.json").read_bytes() == snapshot
    cycles = _journal_cycles(out)
    assert cycles == list(range(resumed_at + 1, resumed_at + 1 + len(cycles)))
    assert len(cycles) >= 3
    run_search(cfg, str(out), resume=True)
    _assert_same_outputs(out, reference)
    assert not (out / "checkpoint.journal").exists()


def test_journal_with_cycle_deltas_resumes_identically(tmp_path, search_reference):
    # Older versions wrote each cycle's genotypes, history entries, tiers
    # and candidate records on its boundary line. These files hold the
    # reference run stopped at cycle 1, then resumed and killed at the
    # third child of cycle 5, written by such a version; a resume reads
    # only the boundaries' next_cycle and re-runs cycles 2 to 4.
    config, reference = search_reference
    out = tmp_path / "run"
    shutil.copytree(os.path.join(os.path.dirname(__file__), "data", "journal_with_deltas"), out)
    assert _journal_cycles(out) == [3, 4, 5]
    boundaries = [line for line in _journal_lines(out) if "phase" not in line]
    assert all({"genotypes", "history", "tiers", "candidates"} < set(b) for b in boundaries)
    calls = _counted_run(config, out, resume=True)
    _assert_same_outputs(out, reference)
    assert calls == _EVALUATIONS - (_IN_CYCLE_5 - 1)


def test_killed_at_the_journal_removal_after_a_snapshot_skips_what_it_holds(
    tmp_path, search_reference, monkeypatch
):
    # The snapshot of a stopped run is written before the journal it makes
    # obsolete is removed. Killed in between, the resume skips the journal
    # lines of the cycles the snapshot holds and evaluates nothing twice.
    config, reference = search_reference
    out = tmp_path / "run"
    journal = str(out / "checkpoint.journal")
    remove = os.remove

    def killed_at_the_journal(path, *args, **kwargs):
        if path == journal and os.path.exists(path):
            raise _Killed()
        remove(path, *args, **kwargs)

    monkeypatch.setattr(os, "remove", killed_at_the_journal)
    with pytest.raises(_Killed):
        run_search(load_search_config(config), str(out), stop_after_cycle=3)
    monkeypatch.undo()
    assert json.loads((out / "checkpoint.json").read_text())["next_cycle"] == 4
    # The last cycle's eval lines are there, but not its boundary.
    assert _journal_cycles(out) == [1, 2, 3]
    assert _journal_lines(out)[-1]["cycle"] == 3
    calls = _counted_run(config, out, resume=True)
    _assert_same_outputs(out, reference)
    assert calls == _EVALUATIONS - (8 + 3 * 7)


def test_finished_cycle_missing_an_eval_line_evaluates_that_slot_once(tmp_path, search_reference):
    # A finished cycle re-runs from its eval lines; a slot without one is
    # evaluated again on the resume, and journaled, so the next resume
    # serves it.
    config, reference = search_reference
    out = tmp_path / "run"
    _counted_run(config, out, _IN_CYCLE_5)
    journal = out / "checkpoint.journal"
    lines = journal.read_text().splitlines(keepends=True)
    [lost] = [i for i, line in enumerate(lines[1:], 1)
              if {"cycle": 2, "phase": "2e", "slot": 1}.items() <= json.loads(line).items()]
    journal.write_text("".join(lines[:lost] + lines[lost + 1:]))
    cfg = load_search_config(config)
    run_search(cfg, str(out), resume=True, stop_after_cycle=1)
    assert journal.read_text() == "".join(lines[:lost] + lines[lost + 1:] + [lines[lost]])
    calls = _counted_run(config, out, resume=True)
    _assert_same_outputs(out, reference)
    assert calls == _EVALUATIONS - (_IN_CYCLE_5 - 1)


def test_failed_wire_resume_leaves_no_trainer_child_running(tmp_path, monkeypatch):
    # The resume re-runs finished cycle 1: its child slot 0 has no eval line,
    # so a trainer child starts, and its 2e slot 0 names another model, so
    # the resume fails. The child must not outlive the failure.
    config = _search_config(tmp_path)
    out = tmp_path / "run"
    _counted_run(config, out, _IN_CYCLE_2)
    journal = out / "checkpoint.journal"
    header, *lines = journal.read_text().splitlines(keepends=True)
    kept = []
    for line in lines:
        obj = json.loads(line)
        if obj.get("cycle") == 1 and obj["slot"] == 0 and obj["phase"] == "child":
            continue
        if obj.get("cycle") == 1 and obj["slot"] == 0 and obj["phase"] == "2e":
            line = json.dumps(dict(obj, model_id="0" * 64)) + "\n"
        kept.append(line)
    journal.write_text(header + "".join(kept))
    procs = []

    class Recorded(harness.ExternalEvaluator):
        def _ensure_running(self, child):
            procs.append(super()._ensure_running(child))
            return procs[-1]

    monkeypatch.setattr(harness, "ExternalEvaluator", Recorded)
    cfg = load_search_config(config)
    cfg.evaluator_spec = "cmd:" + shlex.join(default_serve_command("cifar10", 3))
    with pytest.raises(SearchError, match="cycle 1 2e slot 0 is of model 0000"):
        run_search(cfg, str(out), resume=True)
    running = [proc for proc in procs if proc.poll() is None]
    for proc in running:
        proc.kill()
        proc.wait()
    assert len(procs) == 1 and running == []


def test_resume_stopped_below_the_journals_last_boundary_changes_nothing(
    tmp_path, search_reference, monkeypatch, capsys
):
    # Cycles 0 to 4 are finished in the journal: stopping the resume at
    # cycle 2 re-runs them from their eval lines, evaluates nothing and
    # writes neither file.
    config, _ = search_reference
    out = tmp_path / "run"
    _counted_run(config, out, _IN_CYCLE_5)
    before = _dir_bytes(out)
    calls = []
    evaluate = SurrogateEvaluator.evaluate
    monkeypatch.setattr(
        SurrogateEvaluator, "evaluate", lambda self, *args: calls.append(args) or evaluate(self, *args)
    )
    capsys.readouterr()
    assert main(["search", "--config", config, "--out", str(out), "--resume",
                 "--stop-after-cycle", "2"]) == 0
    assert capsys.readouterr().out == "stopped at cycle boundary 4; checkpoint saved\n"
    assert calls == []
    assert _dir_bytes(out) == before


@pytest.mark.parametrize("removed", [False, True], ids=["before_removal", "after_removal"])
def test_forced_restart_killed_at_its_journal_removal_keeps_the_old_run(
    tmp_path, search_reference, monkeypatch, removed
):
    # A forced restart removes the old run's journal before its first
    # snapshot, so a kill there never leaves the new snapshot next to the
    # old journal: the old run's files resume to the old run's outputs.
    config, reference = search_reference
    cfg = load_search_config(config)
    out = tmp_path / "run"
    _counted_run(config, out, _IN_CYCLE_5)
    journal = str(out / "checkpoint.journal")
    remove = os.remove

    def killed_at_the_journal(path, *args, **kwargs):
        if path == journal:
            if removed:
                remove(path)
            raise _Killed()
        remove(path, *args, **kwargs)

    monkeypatch.setattr(os, "remove", killed_at_the_journal)
    other = make_evaluator("surrogate", cfg.table, cfg.surrogate_params, cfg.engine_config.seed + 1)
    with pytest.raises(_Killed):
        run_search(cfg, str(out), force=True, evaluator=other)
    monkeypatch.undo()
    run_search(cfg, str(out), resume=True)
    _assert_same_outputs(out, reference)


def _tamper(doc):
    """The same genotype, but a document whose SHA-256 is not its id."""
    return doc + " "


@pytest.mark.parametrize(
    "damage",
    [
        "garbage_line", "cycle_gap", "cycle_gap_without_eval_lines", "checkpoint_genotype_id",
        "checkpoint_tier_epochs", "eval_model_id", "eval_span",
    ],
)
def test_damaged_journal_or_snapshot_is_a_user_error(tmp_path, capsys, damage):
    config = _search_config(tmp_path)
    out = tmp_path / "run"
    if damage.startswith("checkpoint_"):
        # The start snapshot is empty; stop at a boundary for one that
        # holds genotypes and promoted candidates, then kill the resume in
        # cycle 5.
        run_search(load_search_config(config), str(out), stop_after_cycle=1)
        _counted_run(config, out, _IN_CYCLE_5 - (8 + 7), resume=True)
    else:
        _counted_run(config, out, _IN_CYCLE_5)
    journal, ckpt = out / "checkpoint.journal", out / "checkpoint.json"
    # A header, then the eval lines and the boundary line of each cycle from
    # the snapshot's up to cycle 4, then the eval lines of child slots 0
    # and 1 of cycle 5.
    first = json.loads(ckpt.read_text())["next_cycle"]
    lines = journal.read_text().splitlines(keepends=True)
    assert _journal_cycles(out) == list(range(first + 1, 6))
    assert json.loads(lines[-1])["slot"] == 1
    [second] = [  # the line of cycle 2
        i for i, line in enumerate(lines[1:], 1) if json.loads(line).get("next_cycle") == 3
    ]
    damaged, reason = journal, {
        "garbage_line": "JSON", "cycle_gap": "jumps", "cycle_gap_without_eval_lines": "jumps",
        "eval_model_id": "re-derives", "eval_span": "re-derives",
    }.get(damage, "SHA-256")
    if damage == "garbage_line":
        lines[second] = "}{ not json\n"
    elif damage == "cycle_gap":
        del lines[second]
    elif damage == "cycle_gap_without_eval_lines":
        del lines[second]
        lines = [line for line in lines if "phase" not in json.loads(line)]
    elif damage.startswith("eval_"):
        line = json.loads(lines[-1])
        if damage == "eval_model_id":
            line["model_id"] = json.loads(lines[-2])["model_id"]  # slot 0's model
        else:
            line["end_epoch"] += 1
        lines[-1] = json.dumps(line) + "\n"
    elif damage == "checkpoint_genotype_id":
        damaged = ckpt
        obj = json.loads(ckpt.read_text())
        mid = sorted(obj["genotypes"])[0]
        obj["genotypes"][mid] = _tamper(obj["genotypes"][mid])
        ckpt.write_text(json.dumps(obj))
    journal.write_text("".join(lines))
    if damage == "checkpoint_tier_epochs":
        # A member's epochs name its tier: E, 2E or 3E (5, 10 or 15) only.
        whole = ckpt.read_text()
        for epochs in (0, 7, 20):
            obj = json.loads(whole)
            obj["population"][1]["epochs_trained"] = epochs
            ckpt.write_text(json.dumps(obj))
            _assert_user_error(capsys, config, out, ckpt,
                               "has trained %d epochs, not 5, 10 or 15" % epochs)
    else:
        _assert_user_error(capsys, config, out, damaged, reason)


def _assert_user_error(capsys, config, out, damaged, reason):
    """A resume of ``out`` exits 2 with one error line naming ``damaged``
    and ``reason``."""
    capsys.readouterr()
    assert main(["search", "--config", config, "--out", str(out), "--resume"]) == 2
    err = capsys.readouterr().err
    assert str(damaged) in err and reason in err
    assert err.count("error:") == 1 and "Traceback" not in err


# -- search config parsing ----------------------------------------------------------------


def test_load_search_config_fields(tmp_path):
    path = _search_config(tmp_path)
    cfg = load_search_config(path)
    assert cfg.algorithm == "hierarchical"
    assert cfg.setting.dims == (4, 4, 0)
    assert cfg.op_set.name == "search8"
    assert cfg.network.node_count == 1
    assert cfg.engine_config.n_init == 8
    with pytest.raises(HarnessError):
        load_search_config(_search_config(tmp_path, name="bad.json", algorithm="magic"))


def test_load_search_config_empty_config_takes_defaults(tmp_path):
    path = _search_config(tmp_path, config={})
    assert load_search_config(path).engine_config == EcoNasConfig()
    path = _search_config(tmp_path, name="flat.json", algorithm="flat", config={})
    assert load_search_config(path).engine_config == flat_config_to_econas(FlatConfig())


def test_load_search_config_rejects_unknown_key(tmp_path):
    path = _search_config(tmp_path, config={"cycels": 3})
    with pytest.raises(HarnessError, match="cycels"):
        load_search_config(path)
    assert main(["search", "--config", path, "--out", str(tmp_path / "run")]) == 2
    assert not (tmp_path / "run" / "checkpoint.json").exists()


def test_load_search_config_coerces_or_rejects_values(tmp_path):
    path = _search_config(tmp_path, config={"cap_e": "4", "cap_2e": 3, "cap_3e": None})
    cfg = load_search_config(path).engine_config
    assert (cfg.cap_e, cfg.cap_2e, cfg.cap_3e) == (4, 3, None)
    path = _search_config(tmp_path, name="flat.json", algorithm="flat", config={"capacity": "7"})
    assert load_search_config(path).engine_config.cap_e == 7
    for key in ("cap_e", "cap_2e", "cap_3e"):
        path = _search_config(tmp_path, name="bad.json", config={key: "four"})
        with pytest.raises(HarnessError, match=key):
            load_search_config(path)
    path = _search_config(tmp_path, name="bad.json", algorithm="flat", config={"capacity": [7]})
    with pytest.raises(HarnessError, match="capacity"):
        load_search_config(path)
    path = _search_config(tmp_path, name="bad.json", config={"cycles": 2.9})
    with pytest.raises(HarnessError, match="cycles"):
        load_search_config(path)


@pytest.mark.parametrize("algorithm, config", [
    ("hierarchical", {"cap_e": 0}),
    ("hierarchical", {"cap_2e": -3}),
    ("hierarchical", {"cap_3e": 0}),
    ("flat", {"capacity": 0}),
], ids=["cap_e", "cap_2e", "cap_3e", "flat_capacity"])
def test_tier_capacities_below_one_are_rejected(tmp_path, algorithm, config):
    path = _search_config(tmp_path, algorithm=algorithm, config=config)
    with pytest.raises(HarnessError, match="key 'config': .* must be positive"):
        load_search_config(path)
    assert main(["search", "--config", path, "--out", str(tmp_path / "run")]) == 2
    assert not (tmp_path / "run" / "checkpoint.json").exists()


def test_load_search_config_rejects_unknown_top_level_key(tmp_path):
    path = _search_config(tmp_path, workerz=4)
    with pytest.raises(HarnessError, match="workerz"):
        load_search_config(path)
    assert main(["search", "--config", path, "--out", str(tmp_path / "run")]) == 2
    assert not (tmp_path / "run" / "checkpoint.json").exists()


def test_load_search_config_top_level_values(tmp_path):
    path = _search_config(tmp_path, stack_n="3", workers=2.0, output_rule="all_intermediate")
    cfg = load_search_config(path)
    assert (cfg.network.stack_n, cfg.workers, cfg.output_rule) == (
        3, 2, OutputRule.ALL_INTERMEDIATE
    )
    for key, value in (
        ("node_count", "x"),
        ("stack_n", [6]),
        ("workers", 1.5),
        ("output_rule", "nope"),
    ):
        path = _search_config(tmp_path, name="bad.json", **{key: value})
        with pytest.raises(HarnessError, match=key):
            load_search_config(path)
        assert main(["search", "--config", path, "--out", str(tmp_path / "run")]) == 2

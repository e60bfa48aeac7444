import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from econas.analysis import AnalysisError, build_report
from econas.cli import main
from econas.evaluator import EvaluatorFailure
from econas.genotype import OutputRule, ZOO13, decode
from econas.harness import (
    ExperimentManifest,
    HarnessError,
    load_manifest,
    load_search_config,
    load_zoo,
    zoo_evaluate,
    zoo_generate,
)
from econas.proxy import CIFAR10_TABLE, parse_label
from econas.records import EvaluationRecord, read_log, write_log
from econas.search import EcoNasConfig, FlatConfig
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
    obj = json.loads(open(config).read())
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
    (part / "checkpoint.json").write_bytes(open(old, "rb").read())
    assert main(["search", "--config", config, "--out", str(part), "--resume"]) == 0
    for name in ("history.jsonl", "ledger.jsonl", "summary.json"):
        assert (part / name).read_bytes() == (full / name).read_bytes()
    assert "ledger" not in json.loads((part / "checkpoint.json").read_text())


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


def test_kill_and_resume_identical_outputs(tmp_path):
    server = tmp_path / "slow_server.py"
    server.write_text(SLOW_SERVER)
    evaluator = "cmd:%s %s 0.02" % (sys.executable, server)
    config = _search_config(
        tmp_path,
        name="kill.json",
        evaluator=evaluator,
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


# -- search config parsing ----------------------------------------------------------------


def test_load_search_config_fields(tmp_path):
    path = _search_config(tmp_path)
    cfg = load_search_config(path)
    assert cfg.algorithm == "hierarchical"
    assert cfg.setting.dims == (4, 4, 0)
    assert cfg.op_set.name == "search8"
    assert cfg.network.node_count == 1
    assert cfg.econas.n_init == 8
    with pytest.raises(HarnessError):
        load_search_config(_search_config(tmp_path, name="bad.json", algorithm="magic"))


def test_load_search_config_empty_config_takes_defaults(tmp_path):
    path = _search_config(tmp_path, config={})
    assert load_search_config(path).econas == EcoNasConfig()
    path = _search_config(tmp_path, name="flat.json", algorithm="flat", config={})
    assert load_search_config(path).flat == FlatConfig()


def test_load_search_config_rejects_unknown_key(tmp_path):
    path = _search_config(tmp_path, config={"cycels": 3})
    with pytest.raises(HarnessError, match="cycels"):
        load_search_config(path)
    assert main(["search", "--config", path, "--out", str(tmp_path / "run")]) == 2
    assert not (tmp_path / "run" / "checkpoint.json").exists()


def test_load_search_config_coerces_or_rejects_values(tmp_path):
    path = _search_config(tmp_path, config={"cap_e": "4", "cap_2e": 3, "cap_3e": None})
    cfg = load_search_config(path).econas
    assert (cfg.cap_e, cfg.cap_2e, cfg.cap_3e) == (4, 3, None)
    path = _search_config(tmp_path, name="flat.json", algorithm="flat", config={"capacity": "7"})
    assert load_search_config(path).flat.capacity == 7
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

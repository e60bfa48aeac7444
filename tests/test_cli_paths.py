import importlib.resources
import json
import shlex
import sys

import pytest

from econas import harness
from econas.cli import main
from econas.genotype import OperationKind
from econas.harness import zoo_generate
from econas.records import read_log
from econas.surrogate import SurrogateParams


def test_zoo_evaluate_inline_flags(tmp_path, capsys):
    zoo_dir = tmp_path / "zoo"
    zoo_generate(str(zoo_dir), count=4, node_count=2, seed=1)
    log = tmp_path / "eval.jsonl"
    code = main(
        [
            "zoo", "evaluate",
            "--zoo", str(zoo_dir),
            "--table", "cifar10",
            "--settings", "c0r0s0e600,c4r4s0e60",
            "--evaluator", "surrogate",
            "--seed", "7",
            "--out", str(log),
        ]
    )
    assert code == 0
    records = read_log(str(log))
    assert len(records) == 8
    assert {r.setting for r in records} == {"c0r0s0e600", "c4r4s0e60"}


def test_zoo_evaluate_requires_inputs(tmp_path, capsys):
    assert main(["zoo", "evaluate", "--zoo", str(tmp_path)]) == 2
    # The flags are manifest keys, and an error names the key.
    assert "command line: key 'output_log': required key is missing" in capsys.readouterr().err


def test_zoo_evaluate_flags_and_manifest_write_the_same_log(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    zoo_generate("zoo", count=3, node_count=2, seed=1)
    SurrogateParams(tau=9.0).save("params.json")
    labels = ["c0r0s0e600", "c4r4s0e60"]
    (tmp_path / "m.json").write_text(json.dumps({
        "kind": "experiment_manifest", "table": "cifar10", "zoo": "zoo", "seed": 7,
        "output_log": "manifest.jsonl", "settings": labels, "surrogate_params": "params.json",
    }))
    assert main(["zoo", "evaluate", "--manifest", "m.json"]) == 0
    assert main(["zoo", "evaluate", "--zoo", "zoo", "--settings", ",".join(labels),
                 "--params", "params.json", "--out", "flags.jsonl"]) == 0
    assert (tmp_path / "flags.jsonl").read_bytes() == (tmp_path / "manifest.jsonl").read_bytes()


def test_zoo_evaluate_refuses_run_flags_given_with_a_manifest(tmp_path, monkeypatch, capsys):
    # The manifest names the zoo, settings, log, evaluator and seed; a flag
    # that would set one of them too is a usage error, not silently dropped.
    monkeypatch.chdir(tmp_path)
    zoo_generate("zoo", count=2, node_count=2, seed=1)
    (tmp_path / "m.json").write_text(json.dumps({
        "schema_version": 1, "kind": "experiment_manifest", "table": "cifar10", "zoo": "zoo",
        "evaluator": "surrogate", "seed": 7, "output_log": "m.jsonl", "settings": ["c4r4s0e30"],
    }))
    argv = ["zoo", "evaluate", "--manifest", "m.json", "--out", "other.jsonl",
            "--settings", "c0r0s0e30", "--seed", "99", "--evaluator", "cmd:false"]
    assert main(argv) == 2
    assert "--settings, --out, --evaluator, --seed cannot be given with --manifest" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "m.jsonl").exists() and not (tmp_path / "other.jsonl").exists()
    assert main(["zoo", "evaluate", "--manifest", "m.json", "--workers", "2"]) == 0
    assert len(read_log(str(tmp_path / "m.jsonl"))) == 2


def test_zoo_evaluate_with_no_settings_is_an_error(tmp_path, capsys):
    zoo_generate(str(tmp_path / "zoo"), count=2, node_count=2, seed=1)
    log = tmp_path / "eval.jsonl"
    argv = ["zoo", "evaluate", "--zoo", str(tmp_path / "zoo"), "--settings", ",", "--out", str(log)]
    assert main(argv) == 2
    assert "empty" in capsys.readouterr().err
    assert not log.exists()


def test_zoo_evaluate_rejects_a_zoo_file_edited_after_generation(tmp_path, capsys):
    zoo_dir = tmp_path / "zoo"
    _, name = zoo_generate(str(zoo_dir), count=2, node_count=2, seed=1)[0]
    doc = json.loads((zoo_dir / name).read_text())
    node = doc["normal"]["nodes"][0]
    node["op_a"] = next(op for op in doc["op_set"]["members"] if op != node["op_a"])
    (zoo_dir / name).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    log = tmp_path / "eval.jsonl"
    argv = ["zoo", "evaluate", "--zoo", str(zoo_dir), "--settings", "c4r4s0e60", "--out", str(log)]
    assert main(argv) == 2
    assert "zoo file %s does not match its indexed hash" % name in capsys.readouterr().err
    assert not log.exists()


def test_bridge_selftest_cli(capsys):
    assert main(["bridge-selftest", "--checks", "1", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "ping: ok" in out
    assert "all 1 checks passed" in out


def test_bridge_selftest_with_params_compares_like_with_like(capsys):
    params = importlib.resources.files("econas") / "data" / "surrogate_cifar10.json"
    assert main(["bridge-selftest", "--params", str(params), "--seed", "3"]) == 0
    assert "all 3 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("checks", ["0", "-2"])
def test_bridge_selftest_needs_at_least_one_check(capsys, checks):
    with pytest.raises(SystemExit) as exc:
        main(["bridge-selftest", "--checks", checks])
    assert exc.value.code == 2
    assert "--checks: expected a check count of at least 1, got %s" % checks in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize("flag,value,message", [
    ("--count", "-1", "expected a model count of at least 0, got -1"),
    ("--nodes", "0", "expected a node count of at least 1, got 0"),
])
def test_zoo_generate_count_and_nodes_below_their_minimum_are_usage_errors(
    tmp_path, capsys, flag, value, message
):
    out = tmp_path / "zoo"
    with pytest.raises(SystemExit) as exc:
        main(["zoo", "generate", "--out", str(out), flag, value])
    assert exc.value.code == 2
    assert "%s: %s" % (flag, message) in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def eval_log(tmp_path_factory):
    """An 8-model zoo's log over the Ground Truth and three reduced settings."""
    tmp_path = tmp_path_factory.mktemp("analyze")
    zoo_dir = tmp_path / "zoo"
    zoo_generate(str(zoo_dir), count=8, node_count=2, seed=3)
    log = tmp_path / "eval.jsonl"
    labels = "c0r0s0e600,c1r0s0e30,c2r0s0e30,c0r1s0e60"
    assert main(
        ["zoo", "evaluate", "--zoo", str(zoo_dir), "--settings", labels,
         "--out", str(log)]
    ) == 0
    return log


def test_analyze_with_rho_f_file(eval_log, tmp_path):
    out_dir = tmp_path / "report"
    assert main(
        ["analyze", "--log", str(eval_log), "--ground-truth", "c0r0s0e600",
         "--out", str(out_dir), "--top-k", "2", "--windows", "3,5",
         "--rho-f-sizes", "3,5,8", "--rho-f-trials", "10", "--seed", "4"]
    ) == 0
    rho_f_lines = (out_dir / "rho_f.tsv").read_text().splitlines()
    assert rho_f_lines[1] == "subsample_size\trho_f"
    values = [float(line.split("\t")[1]) for line in rho_f_lines[2:]]
    assert len(values) == 3
    assert values[-1] == 1.0


@pytest.mark.parametrize("flags, message", [
    (["--rho-f-trials", "0"], "rho_F needs at least 1 trial, got 0"),
    (["--rho-f-trials", "-2"], "rho_F needs at least 1 trial, got -2"),
    (["--tolerant-b", "nan"], "tolerance b must be >= 0, got nan"),
    (["--tolerant-b", "-0.1"], "tolerance b must be >= 0, got -0.1"),
    (["--top-k", "0"], "top_k and window must be >= 1, got 0 and 3"),
    (["--top-k", "-1"], "top_k and window must be >= 1, got -1 and 3"),
    (["--windows", "0"], "top_k and window must be >= 1, got 2 and 0"),
], ids=["no_trials", "negative_trials", "nan_b", "negative_b", "top_0", "top_negative",
        "window_0"])
def test_analyze_rejects_parameters_no_metric_can_use(eval_log, tmp_path, capsys, flags, message):
    out_dir = tmp_path / "report"
    assert main(
        ["analyze", "--log", str(eval_log), "--ground-truth", "c0r0s0e600",
         "--out", str(out_dir), "--top-k", "2", "--windows", "3,5",
         "--rho-f-sizes", "3,5"] + flags
    ) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out_dir.exists()  # nothing is written


def test_toy_space_quality_extremes(toy_space):
    # exhaustive scoring: the best genotype leans on the top-scored operation,
    # the worst on zero-scored ones
    best_hash = max(toy_space.quality, key=toy_space.quality.get)
    worst_hash = min(toy_space.quality, key=toy_space.quality.get)
    by_hash = {g.content_hash: g for g in toy_space.genotypes}
    best, worst = by_hash[best_hash], by_hash[worst_hash]
    best_ops = {n.op_a for n in best.normal.nodes + best.reduction.nodes}
    best_ops |= {n.op_b for n in best.normal.nodes + best.reduction.nodes}
    worst_ops = {n.op_a for n in worst.normal.nodes + worst.reduction.nodes}
    worst_ops |= {n.op_b for n in worst.normal.nodes + worst.reduction.nodes}
    assert best_ops == {OperationKind.SEP_CONV_5X5}
    assert worst_ops == {OperationKind.ZEROS}
    values = sorted(toy_space.quality.values())
    assert 0.0 < values[0] < values[-1] < 1.0


def test_surrogate_serve_help_does_not_crash():
    # argparse exits with SystemExit(0) on --help; ensure wiring is intact
    with pytest.raises(SystemExit) as exc:
        main(["surrogate-serve", "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("flag", ["--windows", "--rho-f-sizes"])
def test_analyze_integer_lists_are_parsed_as_arguments(tmp_path, capsys, flag):
    argv = ["analyze", "--log", str(tmp_path / "log.jsonl"), "--ground-truth", "c0r0s0e600",
            "--out", str(tmp_path / "report"), flag, "5,a"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["zoo", "evaluate", "--zoo", "zoo", "--settings", "c4r4s0e30", "--out", "e.jsonl",
     "--workers", "0"],
    ["zoo", "evaluate", "--manifest", "manifest.json", "--workers", "-3"],
    ["search", "--config", "search.json", "--out", "run", "--workers", "0"],
])
def test_workers_below_one_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    zoo_generate("zoo", count=2, node_count=2, seed=1)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "e.jsonl").exists()


def _evaluated_log(tmp_path, labels="c0r0s0e600,c4r4s0e60,c2r0s0e30"):
    zoo_generate(str(tmp_path / "zoo"), count=4, node_count=2, seed=1)
    log = tmp_path / "eval.jsonl"
    argv = ["zoo", "evaluate", "--zoo", str(tmp_path / "zoo"), "--settings", labels,
            "--out", str(log)]
    assert main(argv) == 0
    return log


def _analyze(tmp_path, log, ground_truth="c0r0s0e600", *flags):
    return main(["analyze", "--log", str(log), "--ground-truth", ground_truth,
                 "--out", str(tmp_path / "report"), "--top-k", "2", "--windows", "2,3",
                 "--rho-f-sizes", "3", "--rho-f-trials", "2", *flags])


def test_analyze_refuses_a_duplicate_record_unless_allowed(tmp_path, capsys):
    log = _evaluated_log(tmp_path)
    lines = log.read_text().splitlines(keepends=True)
    log.write_text("".join(lines) + lines[1])  # the first record again, as line 14
    capsys.readouterr()
    assert _analyze(tmp_path, log) == 2
    assert "line 14: duplicate record" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()
    assert _analyze(tmp_path, log, "c0r0s0e600", "--allow-duplicates") == 0


def test_analyze_with_an_absent_ground_truth_is_a_user_error(tmp_path, capsys):
    log = _evaluated_log(tmp_path)
    capsys.readouterr()
    assert _analyze(tmp_path, log, "c0r0s0e300") == 2
    assert "no records for ground-truth setting c0r0s0e300" in capsys.readouterr().err


def test_zoo_evaluate_exits_1_when_over_a_tenth_of_the_grid_fails(tmp_path, capsys):
    zoo_generate(str(tmp_path / "zoo"), count=2, node_count=2, seed=1)
    trainer = shlex.join([sys.executable, "-c", "raise SystemExit(3)"])
    argv = ["zoo", "evaluate", "--zoo", str(tmp_path / "zoo"), "--settings", "c4r4s0e30",
            "--out", str(tmp_path / "eval.jsonl"), "--evaluator", "cmd:" + trainer]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "evaluated 0/2 records" in captured.out and "(2 failed)" in captured.out
    assert "more than 10% of the grid failed" in captured.err


def _search_config(tmp_path, evaluator="surrogate"):
    config = tmp_path / "search.json"
    config.write_text(json.dumps({
        "schema_version": 1, "kind": "search_config", "algorithm": "hierarchical",
        "table": "cifar10", "setting": "c4r4s0", "evaluator": evaluator, "op_set": "search8",
        "node_count": 1, "workers": 2,
        "config": {"n_init": 4, "cycles": 2, "epoch_unit": 5, "mutants_per_cycle": 2,
                   "promote_to_2e": 1, "promote_to_3e": 1, "seed": 3},
    }))
    return config


def test_search_workers_flag_overrides_the_config(tmp_path, monkeypatch):
    config = _search_config(tmp_path)
    workers = []
    run_search = harness.run_search

    def recording(cfg, *args, **kwargs):
        workers.append(cfg.workers)
        return run_search(cfg, *args, **kwargs)

    monkeypatch.setattr(harness, "run_search", recording)
    assert main(["search", "--config", str(config), "--out", str(tmp_path / "a"),
                 "--workers", "3"]) == 0
    assert main(["search", "--config", str(config), "--out", str(tmp_path / "b")]) == 0
    assert workers == [3, 2]
    for name in ("history.jsonl", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# -- faults outside the documents: paths and trainer commands -----------------------


def _analyze_a_directory(tmp_path):
    return ["analyze", "--log", str(tmp_path), "--ground-truth", "c0r0s0e600",
            "--out", str(tmp_path / "report")]


def _search_into_a_file(tmp_path):
    (tmp_path / "taken").write_text("")
    return ["search", "--config", str(_search_config(tmp_path)), "--out", str(tmp_path / "taken")]


def _zoo_into_a_file(tmp_path):
    (tmp_path / "taken").write_text("")
    return ["zoo", "generate", "--out", str(tmp_path / "taken"), "--count", "2"]


def _search_with_a_trainer_that_cannot_start(tmp_path):
    # Executable, but no interpreter line and not a binary: exec fails.
    trainer = tmp_path / "trainer"
    trainer.write_text("not a program\n")
    trainer.chmod(0o755)
    config = _search_config(tmp_path, evaluator="cmd:" + shlex.quote(str(trainer)))
    return ["search", "--config", str(config), "--out", str(tmp_path / "run")]


def _selftest_of_a_trainer_that_exits(tmp_path):
    return ["bridge-selftest", "--command", shlex.join([sys.executable, "-c", "pass"])]


@pytest.mark.parametrize("argv", [
    _analyze_a_directory,
    _search_into_a_file,
    _zoo_into_a_file,
    _search_with_a_trainer_that_cannot_start,
    _selftest_of_a_trainer_that_exits,
])
def test_a_path_or_trainer_fault_is_one_error_line(tmp_path, capsys, argv):
    assert main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
    assert "Traceback" not in err
    if argv is _search_with_a_trainer_that_cannot_start:
        command = shlex.quote(str(tmp_path / "trainer"))
        assert "error: cannot start evaluator command %r: [Errno 8] " % command in err

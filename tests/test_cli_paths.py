import pytest

from econas.cli import main
from econas.genotype import OperationKind
from econas.harness import zoo_generate
from econas.records import read_log


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


def test_zoo_evaluate_requires_inputs(tmp_path):
    assert main(["zoo", "evaluate", "--zoo", str(tmp_path)]) == 2


def test_bridge_selftest_cli(capsys):
    assert main(["bridge-selftest", "--checks", "1", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "ping: ok" in out
    assert "all 1 checks passed" in out


def test_analyze_with_rho_f_file(tmp_path):
    zoo_dir = tmp_path / "zoo"
    zoo_generate(str(zoo_dir), count=8, node_count=2, seed=3)
    log = tmp_path / "eval.jsonl"
    labels = "c0r0s0e600,c1r0s0e30,c2r0s0e30,c0r1s0e60"
    assert main(
        ["zoo", "evaluate", "--zoo", str(zoo_dir), "--settings", labels,
         "--out", str(log)]
    ) == 0
    out_dir = tmp_path / "report"
    assert main(
        ["analyze", "--log", str(log), "--ground-truth", "c0r0s0e600",
         "--out", str(out_dir), "--top-k", "2", "--windows", "3,5",
         "--rho-f-sizes", "3,5,8", "--rho-f-trials", "10", "--seed", "4"]
    ) == 0
    rho_f_lines = (out_dir / "rho_f.tsv").read_text().splitlines()
    assert rho_f_lines[1] == "subsample_size\trho_f"
    values = [float(line.split("\t")[1]) for line in rho_f_lines[2:]]
    assert len(values) == 3
    assert values[-1] == 1.0


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

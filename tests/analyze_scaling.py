"""Time ``analyze`` on a surrogate zoo log at K=200 and K=400 models, with
the rank kernels of ``econas.metrics`` and with the O(K^2) loops of
``tests/rank_oracles.py`` patched in their place.

    PYTHONPATH=src python3 tests/analyze_scaling.py

Not collected by pytest (the file name does not start with ``test_``). Each
zoo is evaluated over the canonical 200-setting CIFAR-10 grid plus the
Ground-Truth setting, then ``harness.run_analyze`` runs with rho_F over
subsample sizes 5-50 at 100 trials, as in the benchmark's ``zoo_analyze``
workload. The script asserts that both variants write byte-identical TSV
files and prints one JSON object with the wall time of ``run_analyze``, of
``build_report`` and of ``rho_f_curve`` per variant, and the speed-ups.
"""

import json
import os
import sys
import tempfile
import time

import rank_oracles
from econas import analysis, harness
from econas.genotype import ZOO13, OutputRule
from econas.proxy import CIFAR10_TABLE

GROUND_TRUTH = "c0r0s0e600"
RHO_F_SIZES = [5, 10, 15, 20, 30, 50]
KERNELS = ("tolerant_spearman", "hard_rank_error", "rho_f_subsamples")


def make_log(work: str, k: int) -> str:
    zoo_dir = os.path.join(work, "zoo")
    harness.zoo_generate(
        zoo_dir, count=k, node_count=5, op_set=ZOO13, seed=k,
        output_rule=OutputRule.ALL_INTERMEDIATE,
    )
    manifest_path = os.path.join(work, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "schema_version": 1,
                "kind": "experiment_manifest",
                "table": "cifar10",
                "zoo": "zoo",
                "evaluator": "surrogate",
                "seed": 7,
                "output_log": "eval.jsonl",
                "settings": {"grid": {}, "include": [GROUND_TRUTH]},
            },
            fh,
        )
    manifest = harness.load_manifest(manifest_path)
    harness.zoo_evaluate(manifest)
    return manifest.output_log


def timed_analyze(log: str, out_dir: str) -> dict:
    """run_analyze's wall time, with build_report and rho_f_curve timed
    where harness calls them."""
    phases = {}
    originals = {name: getattr(analysis, name) for name in ("build_report", "rho_f_curve")}

    def timer(name, fn):
        def wrapped(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                phases[name + "_s"] = round(time.perf_counter() - start, 3)
        return wrapped

    for name, fn in originals.items():
        setattr(analysis, name, timer(name, fn))
    try:
        start = time.perf_counter()
        harness.run_analyze(
            log, GROUND_TRUTH, out_dir, CIFAR10_TABLE,
            rho_f_sizes=RHO_F_SIZES, rho_f_trials=100, seed=3,
        )
        phases["analyze_s"] = round(time.perf_counter() - start, 3)
    finally:
        for name, fn in originals.items():
            setattr(analysis, name, fn)
    return phases


def with_oracles(fn):
    originals = {name: getattr(analysis, name) for name in KERNELS}
    for name in KERNELS:
        setattr(analysis, name, getattr(rank_oracles, name))
    try:
        return fn()
    finally:
        for name, kernel in originals.items():
            setattr(analysis, name, kernel)


def tsv_bytes(out_dir: str) -> dict:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def main() -> None:
    result = {"rho_f_sizes": RHO_F_SIZES, "rho_f_trials": 100}
    for k in (200, 400):
        with tempfile.TemporaryDirectory() as work:
            log = make_log(work, k)
            kernels_dir = os.path.join(work, "kernels")
            oracle_dir = os.path.join(work, "oracle")
            fast = timed_analyze(log, kernels_dir)
            slow = with_oracles(lambda: timed_analyze(log, oracle_dir))
            if tsv_bytes(kernels_dir) != tsv_bytes(oracle_dir):
                raise SystemExit("K=%d: report files differ between kernels and oracles" % k)
        result["k%d" % k] = {
            "kernels": fast,
            "oracles": slow,
            "build_report_speedup": round(slow["build_report_s"] / fast["build_report_s"], 2),
            "rho_f_curve_speedup": round(slow["rho_f_curve_s"] / fast["rho_f_curve_s"], 2),
            "analyze_speedup": round(slow["analyze_s"] / fast["analyze_s"], 2),
        }
        print("K=%d done" % k, file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""Time ``analyze`` on a surrogate zoo log at K=200 and K=400 models, phase
by phase, as econas runs it and as the oracles of ``tests/rank_oracles.py``
run it: every line parsed as JSON, every setting scored through the public
O(K^2) pair loops, rho_F re-ranking every subsample. A second pass, not
timed, runs both again under ``tracemalloc`` for each phase's peak memory.

    PYTHONPATH=src python3 tests/analyze_scaling.py

Not collected by pytest (the file name does not start with ``test_``). Each
zoo is evaluated over the canonical 200-setting CIFAR-10 grid plus the
Ground-Truth setting; then analyze runs with rho_F over subsample sizes
5-50 at 100 trials, as in the benchmark's ``zoo_analyze`` workload. The
script asserts that both variants write byte-identical TSV files and prints
one JSON object with, per variant, the wall time of the whole analyze and
of ``read``, ``build_report``, ``rho_f_curve`` and ``write_report_files``,
the speed-ups and, under ``memory``, each phase's peak: the most memory
traced at once while it ran, above what was traced when it began, in MB.
The script fails if econas's ``read`` peak is not below the oracles'.
econas's ``read`` is ``analysis.read_columns``, which reads the log
straight into per-setting columns; the oracles' is their ``read_log``,
which builds a record per line and leaves the grouping to each later
phase. Both variants write through econas's
``write_report_files``.
"""

import json
import os
import sys
import tempfile
import time
import tracemalloc

import rank_oracles
from econas import analysis, harness
from econas.genotype import ZOO13, OutputRule
from econas.proxy import CIFAR10_TABLE

GROUND_TRUTH = "c0r0s0e600"
RHO_F_SIZES = [5, 10, 15, 20, 30, 50]


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


class Phases(dict):
    """Wall time per phase, in seconds."""

    def measured(self, name, fn):
        def wrapped(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self[name + "_s"] = round(time.perf_counter() - start, 3)
        return wrapped


class PeakMemory(dict):
    """Peak traced memory per phase, in MB, above what was traced when the
    phase began; a phase's peak covers the phases nested in it."""

    def __init__(self):
        super().__init__()
        self.highs = []  # the highest traced total seen in each open phase

    def measured(self, name, fn):
        def wrapped(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            self.highs = [max(high, peak) for high in self.highs] + [current]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                high = max(self.highs.pop(), tracemalloc.get_traced_memory()[1])
                self.highs = [max(h, high) for h in self.highs]
                self[name + "_mb"] = round((high - current) / 2**20, 2)
        return wrapped


def econas_analyze(log: str, out_dir: str, phases) -> dict:
    """harness.run_analyze, with each phase measured where harness calls it."""
    patched = [("read_columns", "read")] + [
        (name, name) for name in ("build_report", "rho_f_curve", "write_report_files")
    ]
    originals = [getattr(analysis, name) for name, _ in patched]
    for (name, phase), fn in zip(patched, originals):
        setattr(analysis, name, phases.measured(phase, fn))
    try:
        phases.measured("analyze", harness.run_analyze)(
            log, GROUND_TRUTH, out_dir, CIFAR10_TABLE,
            rho_f_sizes=RHO_F_SIZES, rho_f_trials=100, seed=3,
        )
    finally:
        for (name, _), fn in zip(patched, originals):
            setattr(analysis, name, fn)
    return phases


def oracle_analyze(log: str, out_dir: str, phases) -> dict:
    """The same steps through the oracles, each given the records."""

    def run():
        records = phases.measured("read", rank_oracles.read_log)(log)
        report = phases.measured("build_report", rank_oracles.build_report)(
            records, GROUND_TRUTH, CIFAR10_TABLE
        )
        rho_f = phases.measured("rho_f_curve", rank_oracles.rho_f_curve)(
            records, GROUND_TRUTH, RHO_F_SIZES, trials=100, seed=3
        )
        phases.measured("write_report_files", analysis.write_report_files)(
            report, out_dir, rho_f=rho_f
        )

    phases.measured("analyze", run)()
    return phases


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
            fast = econas_analyze(log, kernels_dir, Phases())
            slow = oracle_analyze(log, oracle_dir, Phases())
            if tsv_bytes(kernels_dir) != tsv_bytes(oracle_dir):
                raise SystemExit("K=%d: report files differ between kernels and oracles" % k)
            tracemalloc.start()
            try:
                memory = {
                    "kernels": econas_analyze(log, kernels_dir, PeakMemory()),
                    "oracles": oracle_analyze(log, oracle_dir, PeakMemory()),
                }
            finally:
                tracemalloc.stop()
        if memory["kernels"]["read_mb"] >= memory["oracles"]["read_mb"]:
            raise SystemExit("K=%d: econas's read peaks at %s MB, the oracles' at %s MB" % (
                k, memory["kernels"]["read_mb"], memory["oracles"]["read_mb"]))
        result["k%d" % k] = {"kernels": fast, "oracles": slow, "memory": memory}
        for phase in sorted(fast):
            result["k%d" % k][phase[:-2] + "_speedup"] = round(slow[phase] / fast[phase], 2)
        print("K=%d done" % k, file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

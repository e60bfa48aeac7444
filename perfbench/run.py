"""econas benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload search_resume --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; econas is imported from ``src/`` next to
this directory. With ``--trace 0`` the run repeats the workload until
``--seconds`` of timed work have passed and reports the end-to-end metrics
listed in ``BENCHMARK.json``; with ``--trace 1`` it times one untraced
iteration, then traced iterations for ``--seconds``, then the layer
micro-timings, and reports the per-layer metrics. Outputs are checked
outside the timed region; a failed check prints ``"correct": false`` and
exits 1. The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from spans import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 5
SETUP_REPEATS_PER_ITERATION = 4
WORKLOAD_NAMES = ("search_resume", "zoo_analyze", "search_wire")


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def provenance(args, iterations: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, IndexError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "iterations": iterations,
    }


def print_metric(name: str, values: list, unit: str, count: str) -> None:
    q1, q3 = quartiles(values)
    print(
        "  %-30s median %-12.6g %-6s q1 %-12.6g q3 %-12.6g n=%d %s"
        % (name, statistics.median(values), unit, q1, q3, len(values), count)
    )


def run_iteration(wl, work: str, index: int, errors: list, tracer=None):
    it = wl.prepare(os.path.join(work, "it%d" % index))
    it.tracer = tracer
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        wl.run(it)
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.finish(it)
    errors.extend("iteration %d: %s" % (index, e) for e in wl.check(it))
    it.busy_s = it.evaluator_busy_s()
    if tracer is not None:
        it.layer = layer_metrics(it, tracer)
        tracer.spans.clear()
    # Kept iterations hold only their summary, so the heap that later
    # iterations' garbage collections walk does not grow from run to run.
    it.eval_spans = it.child_spans = it.evaluator = None
    return it


def measure(wl, args, work: str, errors: list) -> tuple:
    """Untraced iterations until ``--seconds`` of timed work; end-to-end metrics."""
    # Set-up repeats are spread over the run, so that their median samples
    # the machine over the same stretch of time as the iterations.
    setups = [wl.setup() for _ in range(SETUP_REPEATS)]
    wl.reference()
    iterations = []
    while not iterations or sum(it.wall_s for it in iterations) < args.seconds:
        iterations.append(run_iteration(wl, work, len(iterations), errors))
        if len(iterations) == 1:
            # Later iterations raise the high-water mark through allocator
            # fragmentation, which would tie the peak to the iteration count.
            rss = peak_rss_mb()
        setups += [wl.setup() for _ in range(SETUP_REPEATS_PER_ITERATION)]
    series = {
        "wall_s": ([it.wall_s for it in iterations], "s"),
        "setup_s": ([s["setup_s"] for s in setups], "s"),
        "evals_per_s": ([it.completed / it.wall_s for it in iterations], "1/s"),
        "trainer_busy_frac": (
            [it.busy_s / (it.wall_s * it.workers) for it in iterations], "fraction"),
        "rework_evals": ([it.rework for it in iterations], "count"),
        "peak_rss_mb": ([rss], "MB"),
        "error_rate": ([it.failures / it.calls for it in iterations], "fraction"),
    }
    print("%s: %d iterations, %d set-up repetitions; wall_s per iteration %s"
          % (wl.name, len(iterations), len(setups),
             " ".join("%.4f" % it.wall_s for it in iterations)))
    for name, (values, unit) in series.items():
        count = "set-ups" if name == "setup_s" else "iterations"
        print_metric(name, values, unit, count)
    metrics = {name: (statistics.median(values), unit) for name, (values, unit) in series.items()}
    return metrics, iterations


def trace(wl, args, work: str, errors: list) -> tuple:
    """One untraced iteration, traced iterations for ``--seconds``, then the
    layer micro-timings; per-layer metrics."""
    setups = [wl.setup() for _ in range(SETUP_REPEATS)]
    wl.reference()
    untraced = run_iteration(wl, work, 0, errors)
    traced = []
    while not traced or sum(it.wall_s for it in traced) < args.seconds:
        tracer = Tracer(wl.mid_cycle)
        traced.append(run_iteration(wl, work, len(traced) + 1, errors, tracer))
    per_iteration = [it.layer for it in traced]
    metrics = {
        name: (statistics.median(m[name][0] for m in per_iteration), unit)
        for name, (_, unit) in per_iteration[0].items()
    }
    metrics.update(wl.micro(traced[-1]))
    metrics["harness.zoo_generate_s"] = (
        statistics.median(s.get("zoo_generate_s", 0.0) for s in setups), "s")
    metrics["bench.tracing_overhead_s"] = (
        metrics["bench.traced_wall_s"][0] - untraced.wall_s, "s")
    print("%s: 1 untraced and %d traced iterations (untraced wall %.4f s)"
          % (wl.name, len(traced), untraced.wall_s))
    for name in sorted(metrics):
        value, unit = metrics[name]
        print("  %-34s %-14.6g %s" % (name, value, unit))
    return metrics, [untraced] + traced


def run_one(args, spec: dict) -> int:
    if not os.path.isdir(os.path.join(SRC, "econas")):
        print("error: no econas package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import econas

    if os.path.dirname(os.path.abspath(econas.__file__)) != os.path.join(SRC, "econas"):
        print("error: imported econas from %s, not from %s" % (econas.__file__, SRC),
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=WORK_ROOT)
    errors: list = []
    try:
        wl = WORKLOADS[args.workload](args.seed, work, SRC)
        if args.trace:
            metrics, iterations = trace(wl, args, work, errors)
            wanted = spec["per_layer"]
        else:
            metrics, iterations = measure(wl, args, work, errors)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    names = {m["name"]: m["unit"] for m in wanted}
    unknown = sorted(set(metrics) - set(names) - {"error_rate"})
    if unknown:
        errors.append("metrics not listed in BENCHMARK.json: %s" % ", ".join(unknown))
    for name, (_, unit) in metrics.items():
        if name in names and unit != names[name]:
            errors.append("%s is in %s, BENCHMARK.json says %s" % (name, unit, names[name]))
    for error in errors:
        print("CHECK FAILED: %s" % error)
    print("provenance " + json.dumps(provenance(args, len(iterations)), sort_keys=True))
    result = {
        "correct": not errors,
        "attempted": sum(it.calls for it in iterations),
        "failed": sum(it.failures for it in iterations),
        # A layer a workload does not run reads 0.
        "metrics": {
            name: {"value": metrics.get(name, (0, unit))[0], "unit": unit}
            for name, unit in names.items()
        },
    }
    print(json.dumps(result))
    return 0 if not errors else 1


def run_all(args) -> int:
    """Every workload in its own process; exits 1 if any of them fails."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print("%s produced no result (exit %d)" % (name, proc.returncode))
            return proc.returncode or 1
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, metric)] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        print("error: no BENCHMARK.json at %s" % ROOT, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())

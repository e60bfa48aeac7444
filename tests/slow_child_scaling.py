"""Time 64 evaluations through a trainer child that sleeps 50 ms per
evaluation, at 1 and at 4 workers.

    PYTHONPATH=src python3 tests/slow_child_scaling.py

Not collected by pytest (the file name does not start with ``test_``). The
child serves the in-process surrogate through ``econas.bridge.serve`` after
a fixed sleep, and the jobs go through the search's job runner, so the
times show how much of the trainer's waiting the wire path overlaps: with
one child per concurrent evaluation, 4 workers should take about a quarter
of the time of 1. Each timing starts after a ``ping`` has started the first
child, so spawning the other children counts. Prints one JSON object with
the median of three runs per worker count.
"""

import json
import statistics
import sys
import time

from econas.bridge import ExternalEvaluator
from econas.genotype import SEARCH8, NetworkConfig, OutputRule, random_genotype
from econas.proxy import ReducedSetting
from econas.search import _evaluate_jobs
from econas.seeding import derive_rng

CHILD = """
import sys, time
from econas.bridge import serve
from econas.proxy import CIFAR10_TABLE
from econas.surrogate import SurrogateEvaluator, SurrogateParams

class Slow:
    def __init__(self, inner):
        self.inner = inner

    def evaluate(self, *args):
        time.sleep(float(sys.argv[1]))
        return self.inner.evaluate(*args)

serve(Slow(SurrogateEvaluator(SurrogateParams().with_seed(7), CIFAR10_TABLE)), CIFAR10_TABLE)
"""

JOBS = 64
SLEEP_S = 0.05
REPEATS = 3


def timed_run(jobs, workers: int) -> float:
    failed = []

    def done(slot, outcome):
        if isinstance(outcome, Exception):
            failed.append(outcome)

    with ExternalEvaluator([sys.executable, "-c", CHILD, str(SLEEP_S)], timeout=30.0) as ev:
        if not ev.ping():
            raise SystemExit("slow child did not answer ping")
        start = time.perf_counter()
        _evaluate_jobs(ev, jobs, workers, done)
        elapsed = time.perf_counter() - start
    if failed:
        raise SystemExit("%d evaluations failed: %s" % (len(failed), failed[0]))
    return elapsed


def main() -> None:
    setting = ReducedSetting(4, 4, 0, 10)
    jobs = [
        (
            random_genotype(
                derive_rng("slow-child", i), NetworkConfig(node_count=2), SEARCH8,
                OutputRule.UNUSED_ONLY,
            ),
            setting, 0, 10, None,
        )
        for i in range(JOBS)
    ]
    result = {"jobs": JOBS, "sleep_s": SLEEP_S, "repeats": REPEATS}
    for workers in (1, 4):
        times = [timed_run(jobs, workers) for _ in range(REPEATS)]
        result["workers_%d_s" % workers] = round(statistics.median(times), 3)
    result["speedup"] = round(result["workers_1_s"] / result["workers_4_s"], 2)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

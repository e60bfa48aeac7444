"""Slow external trainer for the benchmark's wire-protocol workload.

Serves the in-process surrogate through ``econas.bridge.serve`` and sleeps a
fixed time per trained epoch before answering, so that the parent's
scheduling and protocol overhead show up as trainer idle time. Every
``evaluate`` request leaves a span (start, end, epochs, pid, request key) in
memory; the spans are written to ``<log-dir>/trainer-<pid>.jsonl`` when the
parent closes stdin. Start and end come from ``time.perf_counter``, which on
Linux reads the system-wide monotonic clock, so the parent can line them up
with its own spans.

    python3 perfbench/slow_trainer.py --src src --seed 3 --log-dir DIR \
        --sleep-ms-per-epoch 0.25
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


class SleepyEvaluator:
    """Surrogate that takes ``sleep_s_per_epoch`` per trained epoch."""

    def __init__(self, inner, sleep_s_per_epoch: float):
        self.inner = inner
        self.sleep_s_per_epoch = sleep_s_per_epoch
        self.spans = []

    def evaluate(self, genotype, setting, start_epoch, end_epoch, resume_token=None):
        start = time.perf_counter()
        epochs = end_epoch - start_epoch
        if self.sleep_s_per_epoch > 0 and epochs > 0:
            time.sleep(self.sleep_s_per_epoch * epochs)
        result = self.inner.evaluate(genotype, setting, start_epoch, end_epoch, resume_token)
        end = time.perf_counter()
        self.spans.append((start, end, epochs, genotype, setting, start_epoch, end_epoch))
        return result


def write_spans(path: str, spans: list, format_label) -> None:
    pid = os.getpid()
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for start, end, epochs, genotype, setting, start_epoch, end_epoch in spans:
            fh.write(
                json.dumps(
                    {
                        "start": start,
                        "end": end,
                        "epochs": epochs,
                        "pid": pid,
                        "key": [
                            genotype.content_hash,
                            format_label(setting),
                            start_epoch,
                            end_epoch,
                        ],
                    }
                )
                + "\n"
            )
    os.replace(tmp, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that holds the econas package")
    parser.add_argument("--seed", type=int, required=True, help="surrogate seed")
    parser.add_argument("--log-dir", required=True)
    parser.add_argument("--sleep-ms-per-epoch", type=float, default=0.25)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    from econas.bridge import serve
    from econas.proxy import format_label, resolve_table
    from econas.surrogate import SurrogateEvaluator, SurrogateParams

    table = resolve_table("cifar10")
    evaluator = SleepyEvaluator(
        SurrogateEvaluator(SurrogateParams().with_seed(args.seed), table),
        args.sleep_ms_per_epoch / 1000.0,
    )
    try:
        serve(evaluator, table)
    finally:
        os.makedirs(args.log_dir, exist_ok=True)
        write_spans(
            os.path.join(args.log_dir, "trainer-%d.jsonl" % os.getpid()),
            evaluator.spans,
            format_label,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

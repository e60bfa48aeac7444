"""Every performance claim in a ``BENCH_*.json`` file is about a workload and
an end-to-end metric that ``BENCHMARK.json`` declares, in its unit and
direction; where the file records the runs, its statistics and its verdict
recompute from them under the rule it states: the change wins at least nine
tenths of the pairs, and the gap between the medians exceeds the parent's
interquartile range."""

import glob
import json
import os
import statistics

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


BENCHMARK = _load(os.path.join(ROOT, "BENCHMARK.json"))
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
CLAIMS = [
    pytest.param(claim, id="%s:%d" % (os.path.basename(path), i))
    for path in sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    for i, claim in enumerate(_load(path)["claims"])
]
MEASURED = [p for p in CLAIMS if "runs" in p.values[0].get("parent", {})]
# The files round what they derive to four decimals.
ROUNDED = 1e-4


def _better(direction):
    return (lambda parent, change: change < parent) if direction == "lower" else (
        lambda parent, change: change > parent)


def _check_summary(summary):
    """Median and quartiles of one side, recomputed from its runs."""
    runs = summary["runs"]
    q1, _, q3 = statistics.quantiles(runs, n=4)
    assert summary["median"] == pytest.approx(statistics.median(runs), abs=ROUNDED)
    assert summary["q1"] == pytest.approx(q1, abs=ROUNDED)
    assert summary["q3"] == pytest.approx(q3, abs=ROUNDED)
    return statistics.median(runs), q3 - q1


def test_there_are_claims():
    assert CLAIMS and MEASURED


@pytest.mark.parametrize("claim", CLAIMS)
def test_claim_names_a_declared_workload_and_end_to_end_metric(claim):
    assert claim["workload"] in {w["name"] for w in BENCHMARK["workloads"]}
    assert claim["metric"] in END_TO_END
    declared = END_TO_END[claim["metric"]]
    assert (claim["unit"], claim["better"]) == (declared["unit"], declared["better"])


@pytest.mark.parametrize("claim", MEASURED)
def test_recorded_runs_give_the_stated_statistics_and_verdict(claim):
    better = _better(claim["better"])
    parent, change = claim["parent"]["runs"], claim["change"]["runs"]
    assert len(parent) == len(change) == claim["pairs"]
    parent_median, parent_iqr = _check_summary(claim["parent"])
    change_median, _ = _check_summary(claim["change"])
    wins = sum(better(p, c) for p, c in zip(parent, change))
    assert claim["wins"] == wins
    assert claim["parent_iqr"] == pytest.approx(parent_iqr, abs=2 * ROUNDED)
    assert claim["median_gap"] == pytest.approx(abs(parent_median - change_median), abs=2 * ROUNDED)
    holds = (
        wins >= 0.9 * len(parent)
        and better(parent_median, change_median)
        and abs(parent_median - change_median) > parent_iqr
    )
    assert claim["claim_holds"] == holds


@pytest.mark.parametrize("claim", MEASURED)
def test_every_recorded_metric_recomputes(claim):
    for name, sides in claim.get("all_end_to_end_metrics", {}).items():
        assert name in END_TO_END
        for side in ("parent", "change"):
            _check_summary(sides[side])
        better = _better(END_TO_END[name]["better"])
        pairs = zip(sides["parent"]["runs"], sides["change"]["runs"])
        assert sides["change_better_in_pairs"] == sum(better(p, c) for p, c in pairs), name

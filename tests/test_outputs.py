"""Every whole-file output goes through one writer: the bytes are the ones
earlier versions wrote, and a write interrupted part-way leaves the previous
file, or none, and no temp file."""

import builtins
import dataclasses
import json
import os

import pytest
from hypothesis import given, strategies as st

from econas.analysis import build_report, write_report_files
from econas.genotype import NetworkConfig
from econas.harness import (
    _ledger_line, load_search_config, run_search, write_search_outputs,
    zoo_generate,
)
from econas.proxy import CIFAR10_TABLE, ReducedSetting, parse_label
from econas.records import EvaluationRecord, write_log
from econas.search import EcoNasConfig, LedgerEntry, SearchEngine
from econas.surrogate import SurrogateEvaluator, SurrogateParams

# Written by the writers these replaced, from write_outputs below.
DATA = os.path.join(os.path.dirname(__file__), "data", "outputs")
GOLDEN = {
    "index.json": "zoo/index.json",
    "summary.json": "run/summary.json",
    "ledger.jsonl": "run/ledger.jsonl",
    "history.jsonl": "run/history.jsonl",
}

SEARCH_CONFIG = {
    "schema_version": 1,
    "kind": "search_config",
    "node_count": 1,
    "config": {
        "n_init": 6,
        "cycles": 3,
        "epoch_unit": 5,
        "mutants_per_cycle": 3,
        "promote_to_2e": 2,
        "promote_to_3e": 1,
        "seed": 5,
    },
}


def _search(root):
    path = os.path.join(root, "search.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(SEARCH_CONFIG, fh)
    cfg = load_search_config(path)
    out = os.path.join(root, "run")
    return cfg, out, run_search(cfg, out)


def write_outputs(root):
    zoo_generate(os.path.join(root, "zoo"), count=3, node_count=2, seed=4)
    _search(root)


def test_outputs_keep_their_bytes(tmp_path):
    write_outputs(str(tmp_path))
    for name, written in GOLDEN.items():
        with open(os.path.join(DATA, name), "rb") as fh:
            assert (tmp_path / written).read_bytes() == fh.read(), name


_ID = st.text(st.sampled_from('"\\/\x00\x1f\x7fé\U0001f600') | st.characters())
_INT = st.integers(-(10 ** 30), 10 ** 30)


@given(_INT, _ID, _INT, _INT)
def test_ledger_line_is_the_bytes_of_json_dumps(cycle, model_id, start, end):
    entry = LedgerEntry(cycle, model_id, start, end)
    assert _ledger_line(entry) == json.dumps(dataclasses.asdict(entry), sort_keys=True) + "\n"


# -- interrupted writes ------------------------------------------------------------------


class Interrupted(BaseException):
    """Stands in for a crash or an interrupt part-way through a write."""


class _TornFile:
    """Writes half of the first chunk it is given, then raises."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        self._fh.flush()
        raise Interrupted()

    def __getattr__(self, name):
        return getattr(self._fh, name)


@pytest.fixture
def tear_writes_to(monkeypatch):
    """``tear(name)`` makes every later write- or append-mode ``open`` of a
    file whose name starts with ``name`` (so its temp file too) return a
    torn file; ``tear(None)`` ends that."""
    torn = [None]
    real_open = builtins.open

    def torn_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if torn[0] and mode[0] in "wa" and os.path.basename(str(file)).startswith(torn[0]):
            return _TornFile(fh)
        return fh

    monkeypatch.setattr(builtins, "open", torn_open)

    def tear(name):
        torn[0] = name

    return tear


# Each case sets up under ``root`` and returns (output path, writer).


def _log(root):
    path = os.path.join(root, "log.jsonl")
    records = [EvaluationRecord("m%d" % i, "c0r0s0e600", 0.5 + 0.01 * i) for i in range(3)]
    return path, lambda: write_log(path, records)


def _search_output(name):
    def case(root):
        cfg, out, result = _search(root)
        with open(os.path.join(out, "summary.json"), "r", encoding="utf-8") as fh:
            top_file = json.load(fh)["top"][0]["file"]
        path = os.path.join(out, top_file if name == "top" else name)
        return path, lambda: write_search_outputs(result, cfg, out)

    return case


def _report_table(root):
    records = [
        EvaluationRecord("m%02d" % i, label, 0.5 + 0.02 * i, None, parse_label(label).epochs)
        for label in ("c0r0s0e600", "c4r4s0e60")
        for i in range(20)
    ]
    report = build_report(records, "c0r0s0e600", CIFAR10_TABLE, top_k=3, windows=(5, 10))
    out = os.path.join(root, "report")
    return os.path.join(out, "report.tsv"), lambda: write_report_files(report, out)


def _checkpoint_engine(root):
    path = os.path.join(root, "checkpoint.json")
    cfg = EcoNasConfig(
        n_init=6, cycles=3, epoch_unit=5, mutants_per_cycle=3, promote_to_2e=2,
        promote_to_3e=1, seed=5,
    )
    engine = SearchEngine(
        SurrogateEvaluator(SurrogateParams.toy(), CIFAR10_TABLE), cfg, ReducedSetting(4, 4, 0, 1),
        network=NetworkConfig(node_count=1), checkpoint_path=path,
    )
    engine.run(stop_after_cycle=1)
    return engine


def _checkpoint(root):
    engine = _checkpoint_engine(root)
    return engine.checkpoint_path, lambda: engine._write_checkpoint(snapshot=True)


def _journaled_cycle(engine):
    """One cycle of ``SearchEngine.run`` that is not its last: its
    evaluations and then the write append journal lines, through a handle
    that is closed afterwards, as ``run`` closes it."""
    try:
        engine._run_cycle(engine.state.next_cycle)
        engine.state.next_cycle += 1
        engine._write_checkpoint()
    finally:
        engine._close_journal()


def _resumed_state(engine):
    fresh = SearchEngine(
        engine.evaluator, engine.cfg, engine.setting_base, network=engine.network,
        checkpoint_path=engine.checkpoint_path,
    )
    fresh.load_checkpoint()
    return fresh.checkpoint_obj()


def _tear_a_journal_append(root, tear_writes_to, previous):
    """The checkpoint's other file: an append torn part-way, to a journal
    with a line or to none, leaves a state that resumes as it was before."""
    tear_writes_to(None)
    engine = _checkpoint_engine(root)
    if previous:
        _journaled_cycle(engine)
    before = _resumed_state(engine)
    tear_writes_to("checkpoint.journal")
    with pytest.raises(Interrupted):
        _journaled_cycle(engine)
    assert _resumed_state(engine) == before


def _zoo_index(root):
    out = os.path.join(root, "zoo")
    return (
        os.path.join(out, "index.json"),
        lambda: zoo_generate(out, count=3, node_count=2, seed=4, force=True),
    )


def _params(root):
    path = os.path.join(root, "params.json")
    return path, lambda: SurrogateParams().save(path)


WRITERS = {
    "log": _log,
    "ledger": _search_output("ledger.jsonl"),
    "summary": _search_output("summary.json"),
    "top_file": _search_output("top"),
    "report_table": _report_table,
    "checkpoint": _checkpoint,
    "zoo_index": _zoo_index,
    "params": _params,
}


def _read(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("previous", [True, False], ids=["previous_file", "no_file"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_interrupted_write_keeps_the_previous_file(tmp_path, tear_writes_to, writer, previous):
    path, write = WRITERS[writer](str(tmp_path))
    write()
    before = _read(path)
    assert before
    if not previous:
        os.remove(path)
        before = None
    tear_writes_to(os.path.basename(path))
    with pytest.raises(Interrupted):
        write()
    assert _read(path) == before
    if writer == "checkpoint":
        os.mkdir(tmp_path / "journal")
        _tear_a_journal_append(str(tmp_path / "journal"), tear_writes_to, previous)
    left = [name for _, _, files in os.walk(tmp_path) for name in files if name.endswith(".tmp")]
    assert left == []

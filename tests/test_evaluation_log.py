"""Evaluation-log bytes: the fixed-schema line formatter against the
``json.dumps`` writer it replaced, and the logs ``econas zoo evaluate``
writes against SHA-256 digests pinned from that writer's logs."""

import hashlib
import json
import math
import os

import pytest
from hypothesis import given, strategies as st

from econas.cli import main
from econas.evaluator import EvaluatorFailure
from econas.harness import ExperimentManifest, load_zoo, zoo_evaluate, zoo_generate
from econas.proxy import CIFAR10_TABLE, format_label, parse_label
from econas.records import EvaluationRecord, _line, append_records, read_log, write_log
from econas.surrogate import SurrogateEvaluator, SurrogateParams


# -- the oracle: every log line as json.dumps writes it ------------------------------


def _record_obj(rec):
    obj = {
        "model_id": rec.model_id,
        "setting": rec.setting,
        "test_accuracy": rec.test_accuracy,
        "epochs_trained": rec.epochs_trained,
    }
    if rec.train_accuracy is not None:
        obj["train_accuracy"] = rec.train_accuracy
    return obj


def _oracle_line(rec):
    return json.dumps(_record_obj(rec), sort_keys=True) + "\n"


def _oracle_log(records):
    header = json.dumps({"kind": "evaluation_log", "schema_version": 1}, sort_keys=True)
    return (header + "\n" + "".join(map(_oracle_line, records))).encode("utf-8")


class _Float(float):
    """A float subclass whose own repr json.dumps does not use."""

    def __repr__(self):
        return "not-json"


_SPECIAL = '"\\/\x00\x01\x1f\x7f\b\f\n\r\té  𐏿\U0001f600'
_TEXT = st.text(st.sampled_from(_SPECIAL) | st.characters())
_ACCURACY = st.one_of(
    st.floats(0.0, 1.0, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1 - 2 ** -53]),
    st.integers(0, 1),
    st.booleans(),
    st.floats(0.0, 1.0).map(_Float),
)
_EPOCHS = st.one_of(
    st.integers(0, 600), st.integers(-(10 ** 40), 10 ** 40), st.booleans(),
    st.floats(), st.sampled_from([math.inf, -math.inf, math.nan]),
)


@given(_TEXT, _TEXT, _ACCURACY, st.none() | _ACCURACY, _EPOCHS)
def test_line_is_the_bytes_of_json_dumps(model_id, setting, test_acc, train_acc, epochs):
    rec = EvaluationRecord(model_id, setting, test_acc, train_acc, epochs)
    assert _line(rec) == _oracle_line(rec)


def test_write_and_append_give_the_oracle_bytes(tmp_path):
    records = [
        EvaluationRecord("m\"1\\", "c0r0s0e600", 0.5, None, 600),
        EvaluationRecord("mé2", "c4r4s0e60", 1, 0.0, 60),
        EvaluationRecord("m3", "c2r2s1e30", _Float(0.25), True, 10 ** 30),
    ]
    whole, appended = tmp_path / "whole.jsonl", tmp_path / "appended.jsonl"
    write_log(str(whole), records)
    append_records(str(appended), records[:1])
    append_records(str(appended), records[1:])
    assert whole.read_bytes() == appended.read_bytes() == _oracle_log(records)


# -- zoo evaluate logs ---------------------------------------------------------------

LABELS = "c0r0s0e600,c4r4s0e60,c2r2s1e30"
# Label order (e120 before e30) differs from the numeric setting order.
LABELS_UNORDERED = "c0r0s0e30,c0r0s0e120,c0r0s0e600,c4r4s0e60"

# SHA-256 of the logs the json.dumps writer produced for these grids; every
# way of reaching a complete grid must end in the same bytes.
PINNED = {
    "fresh": "1f2176225fe2770ca3b7a61639aba6cf5e1f83a9700be67183520619819219ba",
    "unordered": "086dfadbf8c61f7f9871a92e5c82de25e0658ba41064bdfc374a46953d484bf7",
    "gaps": "3ca8d96cbd3ea17ae7a49b3c4cdeeb01a0b1915b5c05a0c9f98fd0b115203732",
}


@pytest.fixture(scope="module")
def zoo(tmp_path_factory):
    path = tmp_path_factory.mktemp("zoo") / "zoo"
    zoo_generate(str(path), count=6, node_count=2, seed=2)
    return str(path)


def _evaluate(zoo, log, *flags, labels=LABELS):
    argv = ["zoo", "evaluate", "--zoo", zoo, "--settings", labels, "--seed", "7",
            "--out", str(log), *flags]
    assert main(argv) == 0


def _assert_pinned(log, name):
    """``log`` holds its records in the oracle's bytes, with the pinned digest."""
    data = log.read_bytes()
    assert data == _oracle_log(sorted(read_log(str(log)), key=EvaluationRecord.key))
    assert hashlib.sha256(data).hexdigest() == PINNED[name]


def _cut(log, keep):
    data = log.read_bytes()
    log.write_bytes(data[:keep(data)])


def test_fresh_log(zoo, tmp_path):
    log = tmp_path / "eval.jsonl"
    _evaluate(zoo, log)
    _assert_pinned(log, "fresh")


def test_label_order_differs_from_setting_order(zoo, tmp_path):
    assert [parse_label(l) for l in sorted(LABELS_UNORDERED.split(","))] != sorted(
        parse_label(l) for l in LABELS_UNORDERED.split(",")
    )
    log = tmp_path / "eval.jsonl"
    _evaluate(zoo, log, labels=LABELS_UNORDERED)
    _assert_pinned(log, "unordered")
    # A resume over the first half refills the rest in the same bytes.
    _cut(log, lambda data: data.index(b"\n", len(data) // 2) + 1)
    _evaluate(zoo, log, labels=LABELS_UNORDERED)
    _assert_pinned(log, "unordered")


def test_workers_give_the_same_log(zoo, tmp_path):
    log = tmp_path / "eval.jsonl"
    _evaluate(zoo, log, "--workers", "3")
    _assert_pinned(log, "fresh")


@pytest.mark.parametrize("where", ["after_a_line", "inside_a_line", "inside_the_header"])
def test_resume_after_a_cut(zoo, tmp_path, where):
    log = tmp_path / "eval.jsonl"
    _evaluate(zoo, log)
    keep = {
        "after_a_line": lambda data: data.index(b"\n", len(data) // 3) + 1,
        "inside_a_line": lambda data: data.index(b"\n", len(data) // 3) + 9,
        "inside_the_header": lambda data: 5,
    }[where]
    _cut(log, keep)
    _evaluate(zoo, log)
    _assert_pinned(log, "fresh")


class _FailingAt:
    """Fails every evaluation of one model and every evaluation at one setting
    of another, so the log has gaps in two places."""

    def __init__(self, zoo):
        (first, _), (second, _) = load_zoo(zoo)[:2]
        self.inner = SurrogateEvaluator(SurrogateParams().with_seed(7), CIFAR10_TABLE)
        self.fails = lambda mid, label: mid == first or (mid, label) == (second, "c4r4s0e60")

    def evaluate(self, genotype, setting, start_epoch, end_epoch, resume_token=None):
        if self.fails(genotype.content_hash, format_label(setting)):
            raise EvaluatorFailure("injected")
        return self.inner.evaluate(genotype, setting, start_epoch, end_epoch, resume_token)


def test_a_resume_refills_the_gaps_of_a_failing_evaluator(zoo, tmp_path):
    log = tmp_path / "eval.jsonl"
    manifest = ExperimentManifest(
        table=CIFAR10_TABLE,
        settings=sorted(parse_label(l) for l in LABELS.split(",")),
        zoo_dir=zoo,
        evaluator_spec="surrogate",
        seed=7,
        output_log=str(log),
    )
    assert zoo_evaluate(manifest, evaluator=_FailingAt(zoo)) == (14, 4, 18)
    _assert_pinned(log, "gaps")
    _evaluate(zoo, log)
    _assert_pinned(log, "fresh")


def test_no_resume_over_an_old_log(zoo, tmp_path):
    log = tmp_path / "eval.jsonl"
    _evaluate(zoo, log, labels="c1r0s0e30,c0r0s0e600")
    _evaluate(zoo, log, "--no-resume")
    _assert_pinned(log, "fresh")
    assert not os.path.exists(str(log) + ".tmp")

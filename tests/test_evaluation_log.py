"""Evaluation logs: the fixed-schema line formatter against the
``json.dumps`` writer it replaced, the pattern reader against the JSON
parser it skips, and the logs ``econas zoo evaluate`` writes against SHA-256
digests pinned from that writer's logs."""

import hashlib
import json
import os
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from econas.cli import main
from econas.evaluator import EvalResult, EvaluatorFailure
import rank_oracles as oracle
from econas import harness, records as records_module
from econas.analysis import SettingColumns, read_columns
from econas.metrics import overfit_gap
from econas.harness import (
    ExperimentManifest, load_zoo, run_analyze, zoo_evaluate, zoo_generate,
)
from econas.proxy import CIFAR10_TABLE, ReducedSetting, format_label, parse_label
from econas.records import EvaluationRecord, LogError, _line, append_records, read_log, write_log
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


class _Int(int):
    """An int subclass whose own repr json.dumps does not use."""

    def __repr__(self):
        return "not-json"


_SPECIAL = '"\\/\x00\x01\x1f\x7f\b\f\n\r\té  𐏿\U0001f600'
_TEXT = st.text(st.sampled_from(_SPECIAL) | st.characters())
_ACCURACY = st.one_of(
    st.floats(0.0, 1.0, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1 - 2 ** -53]),
    st.integers(0, 1),
    st.floats(0.0, 1.0).map(_Float),
)
_EPOCHS = st.one_of(
    st.integers(0, 600), st.integers(-(10 ** 40), 10 ** 40), st.integers().map(_Int),
)


@given(_TEXT, _TEXT, _ACCURACY, st.none() | _ACCURACY, _EPOCHS)
def test_line_is_the_bytes_of_json_dumps(model_id, setting, test_acc, train_acc, epochs):
    rec = EvaluationRecord(model_id, setting, test_acc, train_acc, epochs)
    assert _line(rec) == _oracle_line(rec)


def test_write_and_append_give_the_oracle_bytes(tmp_path):
    records = [
        EvaluationRecord("m\"1\\", "c0r0s0e600", 0.5, None, 600),
        EvaluationRecord("mé2", "c4r4s0e60", 1, 0.0, 60),
        EvaluationRecord("m3", "c2r2s1e30", _Float(0.25), 0, 10 ** 30),
    ]
    whole, appended = tmp_path / "whole.jsonl", tmp_path / "appended.jsonl"
    write_log(str(whole), records)
    append_records(str(appended), records[:1])
    append_records(str(appended), records[1:])
    assert whole.read_bytes() == appended.read_bytes() == _oracle_log(records)


# -- the reader: the pattern path against the JSON path it skips ---------------------

def _fields(records):
    """Each record's fields as (type, repr) pairs, so 0.0 and -0.0, or 1 and
    1.0, differ."""
    return [
        [(type(v), repr(v)) for v in (r.model_id, r.setting, r.test_accuracy,
                                      r.train_accuracy, r.epochs_trained)]
        for r in records
    ]


_READ_ACCURACY = st.one_of(
    st.floats(0.0, 1.0, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-05, 2.5e-300, 1 - 2 ** -53]),
    st.integers(0, 1),
)
_READ_EPOCHS = st.one_of(st.integers(0, 600), st.integers(-(10 ** 40), 10 ** 40))


_READ_ROW = st.tuples(_TEXT, _TEXT, _READ_ACCURACY, st.none() | _READ_ACCURACY, _READ_EPOCHS)


@given(st.lists(_READ_ROW, max_size=8))
def test_read_log_equals_the_json_path(tmp_path_factory, rows):
    records = [EvaluationRecord(*row) for row in rows]
    path = str(tmp_path_factory.mktemp("log") / "eval.jsonl")
    write_log(path, records)
    expected = oracle.read_log(path, on_duplicate="keep_last")
    assert _fields(read_log(path, on_duplicate="keep_last")) == _fields(expected)


# A record holds only what the log's JSON path reads back, so that
# read_log takes every log write_log writes.
@pytest.mark.parametrize("fields", [
    ("m", "s", 0.5, None, False),
    ("m", "s", 0.5, None, 30.0),
    ("m", "s", 0.5, None, "30"),
    (5, "s", 0.5, None, 30),
    ("m", None, 0.5, None, 30),
    ("m", "s", True, None, 30),
    ("m", "s", 0.5, False, 30),
], ids=[
    "boolean_epochs", "float_epochs", "string_epochs", "integer_model_id", "null_setting",
    "boolean_test_accuracy", "boolean_train_accuracy",
])
def test_record_rejects_what_the_reader_refuses(fields):
    with pytest.raises(LogError):
        EvaluationRecord(*fields)


def test_canonical_lines_take_the_pattern_path(tmp_path):
    records = [
        EvaluationRecord("m1", "c0r0s0e600", 0.5, None, 600),
        EvaluationRecord("m2", "c4r4s0e60", 1e-05, 0.75, 60),
        EvaluationRecord("m3", "c2r2s1e30", 0, 1, 10 ** 30),
    ]
    path = tmp_path / "eval.jsonl"
    write_log(str(path), records)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)[1:]
    assert [records_module._parse_line(line) for line in lines] == [
        ("m1", "c0r0s0e600", 0.5, None, 600),
        ("m2", "c4r4s0e60", 1e-05, 0.75, 60),
        ("m3", "c2r2s1e30", 0.0, 1.0, 10 ** 30),
    ]
    assert read_log(str(path)) == records


NON_CANONICAL = [
    # reordered keys
    '{"model_id": "a", "setting": "s", "test_accuracy": 0.5, "epochs_trained": 3}',
    # an extra field
    '{"epochs_trained": 3, "model_id": "b", "note": "x", "setting": "s", "test_accuracy": 0.5}',
    '{"epochs_trained": 3, "model_id": "c", "setting": "s", "test_accuracy": 0.5, '
    '"train_accuracy": null}',
    # extra spaces
    '{"epochs_trained": 3,  "model_id": "d", "setting": "s", "test_accuracy": 0.5 }',
    ' {"epochs_trained": 3, "model_id": "e", "setting": "s", "test_accuracy": 0.5}',
    # -0 is an integer to json.loads, so it reads as 0.0; -0.0 stays -0.0
    '{"epochs_trained": -0, "model_id": "f", "setting": "s", "test_accuracy": -0, '
    '"train_accuracy": -0.0}',
    '{"epochs_trained": 3, "model_id": "g", "setting": "s", "test_accuracy": 1E-5, '
    '"train_accuracy": 1}',
    '{"epochs_trained": 3, "model_id": "h", "setting": "s", "test_accuracy": "0.5"}',
    '{"epochs_trained": 3, "model_id": "i\\u00e9\\"", "setting": "s", "test_accuracy": 0.5}',
    '{"epochs_trained": 3, "model_id": "j\u00e9", "setting": "s", "test_accuracy": 0.5}',
    # canonical, for contrast
    '{"epochs_trained": 3, "model_id": "k", "setting": "s", "test_accuracy": 0.25, '
    '"train_accuracy": 0.5}',
]


def test_non_canonical_lines_read_as_json(tmp_path):
    path = tmp_path / "eval.jsonl"
    path.write_text('{"kind": "evaluation_log", "schema_version": 1}\n'
                    + "\n".join(NON_CANONICAL) + "\n\n", encoding="utf-8")
    records = read_log(str(path))
    assert _fields(records) == _fields(oracle.read_log(str(path)))
    by_id = {r.model_id: r for r in records}
    assert repr(by_id["f"].test_accuracy) == "0.0" and repr(by_id["f"].train_accuracy) == "-0.0"
    assert by_id["f"].epochs_trained == 0
    assert (by_id["g"].test_accuracy, by_id["g"].train_accuracy) == (1e-05, 1.0)
    assert by_id["h"].test_accuracy == 0.5 and by_id["c"].train_accuracy is None
    assert {"i\u00e9\"", "j\u00e9"} <= set(by_id)


@pytest.mark.parametrize("line, error", [
    ('{"epochs_trained": 3, "model_id": "a", "setting": "s", "test_accuracy": 1.5}', "outside"),
    ('{"epochs_trained": 3, "model_id": "a", "setting": "s", "test_accuracy": 01}', "JSON"),
    ('{"epochs_trained": 3, "model_id": "a\x01", "setting": "s", "test_accuracy": 0.5}', "JSON"),
    # digits other than ASCII ones, which float() and int() would take
    ('{"epochs_trained": 3, "model_id": "a", "setting": "s", "test_accuracy": 0.5٣}', "JSON"),
    ('{"epochs_trained": 1٣, "model_id": "a", "setting": "s", "test_accuracy": 0.5}', "JSON"),
    # an integer past float range, and one past int()'s digit limit
    ('{"epochs_trained": 3, "model_id": "a", "setting": "s", "test_accuracy": 1%s}' % ("0" * 400),
     "bad record"),
    ('{"epochs_trained": 1%s, "model_id": "a", "setting": "s", "test_accuracy": 0.5}'
     % ("0" * 5000), "JSON"),
    ('{"epochs_trained": 3, "model_id": "a", "setting": "s"}', "bad record"),
    # the JSON path reads no boolean as a number, no number as a string and
    # no fraction as an integer
    ('{"epochs_trained": 3, "model_id": "a", "setting": "s", "test_accuracy": true}',
     "test_accuracy: expected a number"),
    ('{"epochs_trained": 3, "model_id": 5, "setting": "s", "test_accuracy": 0.5}',
     "model_id: expected a string"),
    ('{"epochs_trained": 2.7, "model_id": "a", "setting": "s", "test_accuracy": 0.5}',
     "epochs_trained: expected an integer"),
    ('[3, "a", "s", 0.5]', "bad record"),
    ('{"epochs_trained": false, "model_id": "a", "setting": "s", "test_accuracy": 0.5}',
     "epochs_trained: expected an integer"),
], ids=[
    "accuracy_above_1", "leading_zero", "control_character", "non_ascii_digit",
    "non_ascii_digit_epochs", "integer_past_float_range", "integer_past_digit_limit",
    "missing_key", "boolean_accuracy", "integer_model_id", "fractional_epochs",
    "not_an_object", "boolean_epochs",
])
def test_bad_lines_fail_as_on_the_json_path(tmp_path, line, error):
    path = tmp_path / "eval.jsonl"
    path.write_text('{"kind": "evaluation_log", "schema_version": 1}\n' + line + "\n",
                    encoding="utf-8")
    with pytest.raises(LogError, match=error) as got:
        read_log(str(path))
    with pytest.raises(LogError) as expected:
        oracle.read_log(str(path))
    assert str(got.value) == str(expected.value)


# -- the column reader: a log's fields grouped without records -----------------------

_LOG_IDS = st.sampled_from(["m1", "m2", 'm"3', "mé", "m\\4"])
_LOG_LABELS = st.sampled_from(["c0r0s0e600", "c1r0s0e30", "c2r0s0e30"])
_BAD_LINES = [
    '{"epochs_trained": 3, "model_id": "m1", "setting": "s", "test_accuracy": 1.5}',
    '{"epochs_trained": 3, "model_id": "m1", "setting": "s", "test_accuracy": 0.5, '
    '"train_accuracy": -0.25}',
    '{"epochs_trained": 3, "model_id": "m1", "setting": "s"}',
    '{"epochs_trained": 3, "model_id": "m1", "setting": "s", "test_accuracy": true}',
    '{"epochs_trained": 3, "model_id": "m1", "setting": "s", "test_accuracy": 0.5',
    "[3, 0.5]",
]


@st.composite
def _log_text(draw):
    """A log whose lines are canonical, JSON in another shape (reordered keys,
    extra fields, escapes, integer accuracies, a null train accuracy), blank,
    or now and then bad; ids and labels repeat, so keys do too."""
    lines = ['{"kind": "evaluation_log", "schema_version": 1}']
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["canonical"] * 4 + ["json"] * 3 + ["blank", "bad"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t "])))
            continue
        if kind == "bad":
            lines.append(draw(st.sampled_from(_BAD_LINES)))
            continue
        rec = EvaluationRecord(draw(_LOG_IDS), draw(_LOG_LABELS), draw(_READ_ACCURACY),
                               draw(st.none() | _READ_ACCURACY), draw(_READ_EPOCHS))
        if kind == "canonical":
            lines.append(_line(rec)[:-1])
            continue
        obj = _record_obj(rec)
        if rec.train_accuracy is None and draw(st.booleans()):
            obj["train_accuracy"] = None
        if draw(st.booleans()):
            obj["note"] = draw(st.sampled_from(["x", 'q"\\', "\u00e9\x01"]))
        items = draw(st.permutations(list(obj.items())))
        lines.append(json.dumps(dict(items), ensure_ascii=draw(st.booleans())))
    return "\n".join(lines) + "\n"


def _columns_of(read):
    """A column reader's outcome, each accuracy and gap by type and repr and
    each setting in its place, or the LogError text."""
    try:
        columns = read()
    except LogError as exc:
        return str(exc)
    return [
        (label, ids, [(type(v), repr(v)) for v in values], repr(columns.gaps[label]))
        for label, (ids, values) in columns.columns.items()
    ]


def _grouped_by_oracle(records):
    """The columns, grouped from the JSON-path oracle's records by
    ``by_setting`` and ``overfit_gap``."""
    columns, gaps = {}, {}
    for label, group in records_module.by_setting(records).items():
        ids = tuple(sorted(group))
        columns[label] = ids, [group[mid].test_accuracy for mid in ids]
        complete = all(rec.train_accuracy is not None for rec in group.values())
        gaps[label] = overfit_gap(group.values()) if complete else None
    return SettingColumns(columns, gaps)


@settings(max_examples=300, deadline=None)
@given(_log_text(), st.sampled_from(["error", "keep_last"]))
def test_read_columns_equals_the_record_path(tmp_path_factory, text, on_duplicate):
    path = str(tmp_path_factory.mktemp("log") / "eval.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    got = _columns_of(lambda: read_columns(path, on_duplicate))
    assert got == _columns_of(lambda: SettingColumns.of(read_log(path, on_duplicate)))
    assert got == _columns_of(lambda: _grouped_by_oracle(oracle.read_log(path, on_duplicate)))


def test_analyze_rejects_every_torn_last_line(tmp_path):
    path = tmp_path / "eval.jsonl"
    write_log(str(path), [
        EvaluationRecord("m%d" % i, label, 0.5 + i / 100, 0.75, 30)
        for i in range(3) for label in ("c0r0s0e600", "c1r0s0e30", "c2r0s0e30")
    ])
    data = path.read_bytes()
    last = data.rindex(b"\n", 0, len(data) - 1) + 1
    for keep in range(last + 1, len(data) - 1):  # cut inside the last line, before its "}"
        path.write_bytes(data[:keep])
        with pytest.raises(LogError, match="not valid JSON"):
            run_analyze(str(path), "c0r0s0e600", str(tmp_path / "out"), CIFAR10_TABLE,
                        top_k=1, windows=(2,))


@pytest.mark.parametrize("tail", [b'{"model_id": "m', b"x" * 150_000], ids=["short", "long"])
def test_a_torn_tail_is_cut_reading_only_the_end(tmp_path, tail):
    # Over 2 MB of complete lines, then a torn one: a short one, and one
    # longer than two 64 KiB reads. The cut peaks at about 70 KB; reading
    # the whole file would take 2.3 MB.
    path = str(tmp_path / "eval.jsonl")
    write_log(path, [
        EvaluationRecord("m%05d" % i, "c1r0s0e30", 0.5, 0.75, 30) for i in range(20_000)
    ])
    size = os.path.getsize(path)
    assert size > 2_000_000
    with open(path, "ab") as fh:
        fh.write(tail)
    assert _traced_peak(lambda: records_module.truncate_torn_tail(path)) < 300_000
    assert os.path.getsize(path) == size
    assert len(read_log(path)) == 20_000
    assert not records_module.truncate_torn_tail(path)  # nothing left to cut


@pytest.mark.parametrize("data", [b"x", b'{"schema_version": 1', b"y" * 150_000],
                         ids=["one_byte", "torn_header", "longer_than_two_reads"])
def test_a_file_without_a_newline_is_cut_to_empty(tmp_path, data):
    path = tmp_path / "eval.jsonl"
    path.write_bytes(data)
    assert records_module.truncate_torn_tail(str(path))
    assert path.read_bytes() == b""
    assert not records_module.truncate_torn_tail(str(path))


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


def test_a_resume_holds_one_string_per_model_id_and_per_label(zoo, tmp_path, monkeypatch):
    log = tmp_path / "eval.jsonl"
    _evaluate(zoo, log)
    _cut(log, lambda data: data.index(b"\n", len(data) // 2) + 1)
    held = []

    def read_fields(path):
        held.append(records_module.read_fields(path))
        return held[-1]

    monkeypatch.setattr(harness, "read_fields", read_fields)
    _evaluate(zoo, log)
    _assert_pinned(log, "fresh")
    [by_key] = held
    shared = {}
    for key, fields in by_key.items():
        assert key == fields[:2]
        assert all(shared.setdefault(s, s) is s for s in key + fields[:2])
    assert len(shared) < len(by_key)  # some model or label holds several records


# -- memory per record ----------------------------------------------------------------


def _traced_peak(fn) -> int:
    """The most memory, in bytes, that ``fn()`` had allocated at once."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class _Tokens:
    """Answers each call with a resume token of its own, 4 KB long."""

    def __init__(self):
        self.calls = 0

    def evaluate(self, genotype, setting, start_epoch, end_epoch, resume_token=None):
        self.calls += 1
        return EvalResult(self.calls / 4096, 0.5, "%08d" % self.calls * 512)


# zoo evaluate keeps two accuracies per pair until its batch ends: a peak of
# about 0.16 MB over these 3,000 pairs (CPython 3.11), where their resume
# tokens alone take 12 MB.
ZOO_EVALUATE_PEAK = 1 << 20


@pytest.mark.parametrize("workers", [1, 2])
def test_zoo_evaluate_keeps_no_resume_token(tmp_path, workers):
    zoo_generate(str(tmp_path / "zoo"), count=20, node_count=2, seed=2)
    manifest = ExperimentManifest(
        table=CIFAR10_TABLE,
        settings=[ReducedSetting(c, r, s, e)
                  for c in range(5) for r in range(5) for s in range(2) for e in (30, 60, 90)],
        zoo_dir=str(tmp_path / "zoo"),
        evaluator_spec="surrogate",
        seed=7,
        output_log=str(tmp_path / "eval.jsonl"),
        workers=workers,
    )
    tokens = _Tokens()
    peak = _traced_peak(lambda: zoo_evaluate(manifest, evaluator=tokens))
    assert tokens.calls == len(read_log(manifest.output_log)) == 3000
    assert peak < ZOO_EVALUATE_PEAK


# read_columns keeps a (test, train) pair per record under one id string per
# model: a peak of 139 bytes a record here on CPython 3.11 to 3.13 and 154 on
# 3.10, against 326 to 357 when each record's fields held their own strings.
READ_COLUMNS_PEAK_PER_RECORD = 300


def test_read_columns_peak_memory_per_record(tmp_path):
    rng = random.Random(5)
    ids = sorted(hashlib.sha256(b"%d" % i).hexdigest() for i in range(100))
    labels = sorted(format_label(ReducedSetting(c, r, s, 30))
                    for c in range(5) for r in range(5) for s in range(4))
    path = str(tmp_path / "eval.jsonl")
    write_log(path, (EvaluationRecord(mid, label, rng.random(), rng.random(), 30)
                     for mid in ids for label in labels))
    peak = _traced_peak(lambda: read_columns(path))
    assert peak / (len(ids) * len(labels)) < READ_COLUMNS_PEAK_PER_RECORD

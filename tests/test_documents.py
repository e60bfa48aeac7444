"""Every JSON input document is read by one loader: each fault in any of
them is a user error (exit status 2, no traceback) naming the file and,
where there is one, the key."""

import json
import os
from typing import Optional

import pytest

from econas import documents, harness
from econas.cli import main
from econas.harness import load_manifest, load_search_config, load_zoo, zoo_generate
from econas.proxy import CIFAR10_TABLE, load_table
from econas.surrogate import SurrogateEvaluator, SurrogateParams


def _manifest(tmp_path):
    doc = {
        "schema_version": 1,
        "kind": "experiment_manifest",
        "table": "cifar10",
        "zoo": "zoo",
        "output_log": "eval.jsonl",
        "settings": ["c4r4s0e30"],
    }
    path = tmp_path / "manifest.json"
    return doc, path, ["zoo", "evaluate", "--manifest", str(path)]


def _search_config(tmp_path):
    doc = {"schema_version": 1, "kind": "search_config", "config": {"n_init": 2, "cycles": 0}}
    path = tmp_path / "search.json"
    return doc, path, ["search", "--config", str(path), "--out", str(tmp_path / "run")]


def _evaluate_argv(tmp_path):
    return ["zoo", "evaluate", "--zoo", str(tmp_path / "zoo"), "--settings", "c4r4s0e30",
            "--out", str(tmp_path / "eval.jsonl")]


def _params(tmp_path):
    path = tmp_path / "params.json"
    SurrogateParams().save(str(path))
    return json.loads(path.read_text()), path, _evaluate_argv(tmp_path) + ["--params", str(path)]


def _table(tmp_path):
    doc = {
        "kind": "reduction_table",
        "name": "tiny",
        "channels": [16, 8],
        "resolutions": [28, 20],
        "sample_ratios": [1.0, 0.5],
        "epoch_choices": [5, 10],
    }
    path = tmp_path / "table.json"
    argv = ["analyze", "--log", str(tmp_path / "eval.jsonl"), "--ground-truth", "c0r0s0e10",
            "--out", str(tmp_path / "report"), "--table", str(path)]
    return doc, path, argv


def _zoo_index(tmp_path):
    path = tmp_path / "zoo" / "index.json"
    return json.loads(path.read_text()), path, _evaluate_argv(tmp_path)


DOCUMENTS = {
    "manifest": _manifest,
    "search_config": _search_config,
    "params": _params,
    "table": _table,
    "zoo_index": _zoo_index,
}

LOADERS = {
    "manifest": load_manifest,
    "search_config": load_search_config,
    "params": SurrogateParams.load,
    "table": load_table,
    "zoo_index": lambda path: load_zoo(os.path.dirname(path)),
}

# (key, value) per document: a value that does not convert to the field type.
BAD_VALUE = {
    "manifest": ("seed", "x"),
    "search_config": ("workers", "x"),
    "params": ("tau", "x"),
    "table": ("epoch_choices", [5, "x"]),
    "zoo_index": ("node_count", "x"),
}
# A value of the right type that the dataclass rejects, and the key its
# message names.
REJECTED = {
    "manifest": ("workers", 0, "workers"),
    "search_config": ("config", {"n_init": 0}, "config"),
    "params": ("tau", 0, "tau"),
    "table": ("epoch_choices", [10, 5], "epoch_choices"),
    "zoo_index": ("count", 99, "count"),
}
# The search config and the surrogate parameters have a default for every key.
REQUIRED = {"manifest": "table", "table": "channels", "zoo_index": "models"}


def _fault(name, fault, doc):
    """(document text, key the error must name or None)."""
    if fault == "not_json":
        return "{not json", None
    if fault == "not_object":
        return "[1, 2]", None
    if fault == "wrong_kind":
        doc["kind"] = "something_else"
        return json.dumps(doc), "kind"
    if fault == "unknown_key":
        doc["bogus_key"] = 1
        return json.dumps(doc), "bogus_key"
    if fault == "bad_value":
        key, value = BAD_VALUE[name]
        doc[key] = value
        return json.dumps(doc), key
    if fault == "missing_key":
        del doc[REQUIRED[name]]
        return json.dumps(doc), REQUIRED[name]
    key, value, named = REJECTED[name]
    doc[key] = value
    return json.dumps(doc), named


FAULTS = ["not_json", "not_object", "wrong_kind", "unknown_key", "bad_value", "missing_key",
          "rejected"]
CASES = [
    (name, fault)
    for name in DOCUMENTS
    for fault in FAULTS
    if fault != "missing_key" or name in REQUIRED
]


@pytest.fixture
def zoo(tmp_path):
    zoo_generate(str(tmp_path / "zoo"), count=2, node_count=2, seed=1)


@pytest.mark.parametrize("name,fault", CASES)
def test_document_fault_is_a_user_error(tmp_path, capsys, zoo, name, fault):
    doc, path, argv = DOCUMENTS[name](tmp_path)
    text, key = _fault(name, fault, doc)
    path.write_text(text)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert key is None or key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", DOCUMENTS)
def test_unbroken_documents_load(tmp_path, zoo, name):
    # So each fault above is what makes its case fail.
    doc, path, _ = DOCUMENTS[name](tmp_path)
    path.write_text(json.dumps(doc))
    assert LOADERS[name](str(path))


# The documents that name an evaluator and may give it a wire timeout.
EVALUATOR_DOCUMENTS = ["manifest", "search_config"]


@pytest.mark.parametrize("value", ["soon", 0, -1.5])
@pytest.mark.parametrize("name", EVALUATOR_DOCUMENTS)
def test_bad_evaluator_timeout_is_a_user_error(tmp_path, capsys, zoo, name, value):
    doc, path, argv = DOCUMENTS[name](tmp_path)
    path.write_text(json.dumps(dict(doc, evaluator_timeout=value)))
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "evaluator_timeout" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", EVALUATOR_DOCUMENTS)
def test_evaluator_timeout_reaches_the_trainer_client(tmp_path, monkeypatch, zoo, name):
    timeouts = []

    class Recorded:
        """Stands in for the wire-protocol client and evaluates in-process."""

        def __init__(self, command, timeout):
            timeouts.append(timeout)
            self._inner = SurrogateEvaluator(SurrogateParams(), CIFAR10_TABLE)

        def evaluate(self, *args):
            return self._inner.evaluate(*args)

        def close(self):
            pass

    monkeypatch.setattr(harness, "ExternalEvaluator", Recorded)
    doc, path, argv = DOCUMENTS[name](tmp_path)
    path.write_text(json.dumps(dict(doc, evaluator="cmd:trainer --long", evaluator_timeout=7200)))
    assert main(argv) == 0
    assert timeouts == [7200.0]


def test_a_bug_inside_a_document_read_is_not_a_user_error(tmp_path, monkeypatch, zoo):
    # Only a ValueError or a UserError is a fault of the document's key.
    def broken(settings, table):
        raise RuntimeError("a bug, not a fault of the manifest")

    monkeypatch.setattr(harness, "_resolve_settings", broken)
    doc, path, _ = _manifest(tmp_path)
    path.write_text(json.dumps(doc))
    with pytest.raises(RuntimeError, match="a bug") as caught:
        load_manifest(str(path))
    assert type(caught.value) is RuntimeError


def test_relative_paths_follow_the_document(tmp_path, zoo):
    (tmp_path / "sub").mkdir()
    doc, _, _ = _table(tmp_path)
    (tmp_path / "sub" / "table.json").write_text(json.dumps(doc))
    SurrogateParams(tau=9.0).save(str(tmp_path / "sub" / "params.json"))
    manifest = {
        "kind": "experiment_manifest",
        "table": "sub/table.json",
        "zoo": "zoo",
        "output_log": "out/eval.jsonl",
        "settings": {"grid": {"c": [1], "epochs": [5]}, "include": ["c0r0s0e10"]},
        "surrogate_params": "sub/params.json",
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    loaded = load_manifest(str(path))
    assert loaded.table.name == "tiny"
    assert loaded.surrogate_params.tau == 9.0
    assert loaded.setting_labels() == ["c0r0s0e10", "c1r0s0e5", "c1r0s1e5", "c1r1s0e5",
                                       "c1r1s1e5"]
    assert loaded.output_log == str(tmp_path / "out" / "eval.jsonl")


def test_convert_field_types():
    assert documents.convert(Optional[int], None) is None
    assert documents.convert(Optional[int], 3.0) == 3
    assert documents.convert(tuple[float, ...], [1, 2.5]) == (1.0, 2.5)
    assert documents.convert(dict[str, int], {"a": "4"}) == {"a": 4}
    for hint, value in ((int, True), (int, 1.5), (str, 3), (tuple[int, int], [1]),
                        (dict[str, int], [1])):
        with pytest.raises(ValueError):
            documents.convert(hint, value)

import io
import json
import os
import sys
import textwrap
import threading
import time

import pytest

from econas import bridge
from econas.bridge import ExternalEvaluator, serve
from econas.evaluator import EvalResult, EvaluatorFailure
from econas.genotype import NetworkConfig, OutputRule, SEARCH8, encode, random_genotype
from econas.harness import bridge_selftest, default_serve_command
from econas.proxy import CIFAR10_TABLE, ReducedSetting, format_label
from econas.search import _evaluate_jobs
from econas.seeding import derive_rng
from econas.surrogate import SurrogateEvaluator, SurrogateParams


def _genotype(seed=0):
    return random_genotype(
        derive_rng("bridge", seed), NetworkConfig(node_count=2), SEARCH8,
        OutputRule.UNUSED_ONLY,
    )


SETTING = ReducedSetting(4, 4, 0, 10)


# -- serve() protocol, in process ------------------------------------------------


def _serve_lines(requests):
    fin = io.StringIO("".join(json.dumps(r) + "\n" for r in requests))
    fout = io.StringIO()
    serve(SurrogateEvaluator(SurrogateParams(), CIFAR10_TABLE), CIFAR10_TABLE, fin, fout)
    return [json.loads(line) for line in fout.getvalue().splitlines()]


def test_serve_ping_and_evaluate_with_unknown_fields():
    g = _genotype()
    from econas.genotype import encode

    responses = _serve_lines(
        [
            {"id": 1, "op": "ping", "some_future_field": 42},
            {
                "id": 2,
                "op": "evaluate",
                "genotype": encode(g),
                "setting": format_label(SETTING),
                "start_epoch": 0,
                "end_epoch": 10,
                "resume_token": None,
                "extra": {"ignored": True},
            },
        ]
    )
    assert responses[0]["status"] == "ok" and responses[0]["id"] == 1
    assert responses[1]["status"] == "ok"
    local = SurrogateEvaluator(SurrogateParams(), CIFAR10_TABLE)
    expected = local.evaluate(g, SETTING, 0, 10)
    assert responses[1]["accuracy"] == expected.accuracy
    assert responses[1]["resume_token"] == expected.resume_token


def test_serve_error_responses_do_not_kill_loop():
    genotype = encode(_genotype())
    responses = _serve_lines(
        [
            {"id": 1, "op": "nonsense"},
            {"id": 2, "op": "evaluate", "genotype": "not a doc", "setting": "c0r0s0e10",
             "start_epoch": 0, "end_epoch": 10},
            {"id": 3, "op": "shutdown"},
            {"id": 4, "op": "ping"},
            # epochs are JSON integers: a fraction, a boolean or a string is
            # not converted
            {"id": 5, "op": "evaluate", "genotype": genotype, "setting": "c0r0s0e10",
             "start_epoch": 0, "end_epoch": 20.9},
            {"id": 6, "op": "evaluate", "genotype": genotype, "setting": "c0r0s0e10",
             "start_epoch": True, "end_epoch": 10},
            {"id": 7, "op": "evaluate", "genotype": genotype, "setting": "c0r0s0e10",
             "start_epoch": 0, "end_epoch": "20"},
            {"id": 8, "op": "evaluate", "genotype": genotype, "setting": "c0r0s0e10",
             "start_epoch": 0, "end_epoch": 10},
        ]
    )
    assert [r["status"] for r in responses] == ["error"] * 3 + ["ok"] + ["error"] * 3 + ["ok"]
    assert responses[2]["error"] == "unknown op 'shutdown'"
    assert responses[4]["error"] == "expected an integer epoch, got 20.9"
    assert responses[5]["error"] == "expected an integer epoch, got true"
    assert responses[6]["error"] == 'expected an integer epoch, got "20"'


def test_serve_malformed_line_reports_error():
    fin = io.StringIO("this is not json\n" + json.dumps({"id": 2, "op": "ping"}) + "\n")
    fout = io.StringIO()
    serve(SurrogateEvaluator(SurrogateParams(), CIFAR10_TABLE), CIFAR10_TABLE, fin, fout)
    responses = [json.loads(line) for line in fout.getvalue().splitlines()]
    assert responses[0]["status"] == "error"
    assert responses[1]["status"] == "ok"


def test_serve_rejects_an_oversized_or_non_object_request_then_serves_the_next():
    oversized = json.dumps({"id": 1, "op": "ping", "pad": "x" * bridge.MAX_LINE_BYTES})
    responses = _serve_lines([json.loads(oversized), [1, 2], {"id": 3, "op": "ping"}])
    assert [(r["id"], r["status"]) for r in responses] == [(None, "error")] * 2 + [(3, "ok")]
    assert "exceeds" in responses[0]["error"]
    assert "JSON object" in responses[1]["error"]


# -- subprocess path ---------------------------------------------------------------


def test_bridge_selftest_roundtrip():
    lines = bridge_selftest(default_serve_command("cifar10", 7), CIFAR10_TABLE, None, 7, 2)
    assert lines[-1].startswith("bridge-selftest: all 2 checks passed")


def test_external_evaluator_matches_in_process():
    local = SurrogateEvaluator(SurrogateParams().with_seed(7), CIFAR10_TABLE)
    with ExternalEvaluator(default_serve_command("cifar10", 7), timeout=30) as remote:
        for seed in range(3):
            g = _genotype(seed)
            mine = local.evaluate(g, SETTING, 0, 10)
            theirs = remote.evaluate(g, SETTING, 0, 10)
            assert mine == theirs


STUB = textwrap.dedent(
    """
    import json, os, sys, time

    from econas.genotype import decode
    from econas.proxy import CIFAR10_TABLE, parse_label
    from econas.surrogate import SurrogateEvaluator, SurrogateParams

    mode = sys.argv[1]
    REPLIES = {
        "true_accuracy": {"accuracy": True, "resume_token": "t"},
        "string_accuracy": {"accuracy": "0.93", "resume_token": "t"},
        "false_train_accuracy": {"accuracy": 0.5, "train_accuracy": False, "resume_token": "t"},
        "integer_accuracy": {"accuracy": 1, "train_accuracy": 0, "resume_token": "t"},
    }
    with open(__file__ + ".pids", "a") as pids:
        pids.write("%d\\n" % os.getpid())
    ev = SurrogateEvaluator(SurrogateParams().with_seed(7), CIFAR10_TABLE)
    for line in sys.stdin:
        obj = json.loads(line)
        if obj.get("op") == "ping":
            print(json.dumps({"id": obj["id"], "status": "ok"}), flush=True)
            continue
        if obj.get("end_epoch") == 13:  # fault marker
            if mode == "garbage":
                print("%% this is not json %%", flush=True)
                continue
            if mode == "not_an_object":
                print(json.dumps([1, 2]), flush=True)
                continue
            if mode == "error":
                print(json.dumps({"id": obj["id"], "status": "error", "error": "out of memory"}),
                      flush=True)
                continue
            if mode == "wrong_id":
                print(json.dumps({"id": obj["id"] + 1, "status": "ok", "accuracy": 0.5,
                                  "resume_token": "t"}), flush=True)
                continue
            if mode == "no_accuracy":
                print(json.dumps({"id": obj["id"], "status": "ok", "resume_token": "t"}),
                      flush=True)
                continue
            if mode == "nan":
                print(json.dumps({"id": obj["id"], "status": "ok", "accuracy": float("nan"),
                                  "resume_token": None}), flush=True)
                continue
            if mode in REPLIES:
                print(json.dumps(dict(REPLIES[mode], id=obj["id"], status="ok")), flush=True)
                continue
            if mode == "sleep":
                time.sleep(10)
            if mode == "exit":
                sys.exit(3)
            if mode == "flood":  # 2 MiB without a newline, then stay alive
                sys.stdout.write("x" * (2 << 20))
                sys.stdout.flush()
                time.sleep(30)
        g = decode(obj["genotype"])
        s = parse_label(obj["setting"], CIFAR10_TABLE)
        r = ev.evaluate(g, s, obj["start_epoch"], obj["end_epoch"], obj.get("resume_token"))
        print(
            json.dumps(
                {
                    "id": obj["id"],
                    "status": "ok",
                    "accuracy": r.accuracy,
                    "train_accuracy": r.train_accuracy,
                    "resume_token": r.resume_token,
                }
            ),
            flush=True,
        )
    """
)


@pytest.fixture
def fast_restarts(monkeypatch):
    """A failed child restarts after 0.05 s instead of the default backoff."""
    monkeypatch.setattr(bridge, "RESTART_BACKOFF", 0.05)


def _stub_command(tmp_path, mode):
    path = tmp_path / "stub_evaluator.py"
    path.write_text(STUB)
    return [sys.executable, str(path), mode]


def _stub_pids(tmp_path):
    """Pids of every stub child started so far, in start order."""
    path = tmp_path / "stub_evaluator.py.pids"
    return [int(line) for line in path.read_text().split()] if path.exists() else []


_FAULTS = {
    "garbage": "malformed line",
    "not_an_object": "non-object line",
    "exit": "exited mid-request",
    "wrong_id": "mismatched id",
    "no_accuracy": "missing fields",
}


@pytest.mark.parametrize("mode", list(_FAULTS))
def test_misbehaving_child_fails_single_request_then_recovers(tmp_path, mode, fast_restarts):
    g = _genotype(1)
    with ExternalEvaluator(_stub_command(tmp_path, mode), timeout=20) as ev:
        ok = ev.evaluate(g, SETTING, 0, 10)
        with pytest.raises(EvaluatorFailure, match=_FAULTS[mode]):
            ev.evaluate(g, SETTING.with_epochs(13), 0, 13)
        again = ev.evaluate(g, SETTING, 0, 10)  # served by a restarted child
        assert again == ok
    assert len(_stub_pids(tmp_path)) == 2


def test_error_reply_fails_its_request_and_keeps_the_child(tmp_path):
    # A clean protocol-level error is the trainer's answer, not a fault of
    # the child: the same process serves the next request.
    g = _genotype(7)
    with ExternalEvaluator(_stub_command(tmp_path, "error"), timeout=20) as ev:
        ok = ev.evaluate(g, SETTING, 0, 10)
        with pytest.raises(EvaluatorFailure, match="reported failure: out of memory"):
            ev.evaluate(g, SETTING.with_epochs(13), 0, 13)
        assert ev.evaluate(g, SETTING, 0, 10) == ok
    assert len(_stub_pids(tmp_path)) == 1


def test_nan_accuracy_and_null_token_fail_the_evaluation(tmp_path):
    g = _genotype(6)
    with ExternalEvaluator(_stub_command(tmp_path, "nan"), timeout=20.0) as ev:
        assert ev.evaluate(g, SETTING.with_epochs(13), 0, 13).resume_token is None
        [outcome] = _evaluate_jobs(ev, [(g, SETTING.with_epochs(13), 0, 13, None)], 1)
    assert isinstance(outcome, EvaluatorFailure)
    assert "accuracy=nan" in str(outcome) and "resume_token=None" in str(outcome)


@pytest.mark.parametrize("mode, value", [
    ("true_accuracy", "accuracy=True"),
    ("string_accuracy", "accuracy='0.93'"),
    ("false_train_accuracy", "train_accuracy=False"),
])
def test_non_number_accuracy_fails_its_evaluation_and_keeps_the_child(tmp_path, mode, value):
    g = _genotype(8)
    jobs = [(g, SETTING, 0, 10, None), (g, SETTING.with_epochs(13), 0, 13, None)]
    with ExternalEvaluator(_stub_command(tmp_path, mode), timeout=20.0) as ev:
        ok, broken, again = _evaluate_jobs(ev, jobs + jobs[:1], 1)
    assert isinstance(broken, EvaluatorFailure) and value in str(broken)
    assert isinstance(ok, EvalResult) and again == ok
    assert len(_stub_pids(tmp_path)) == 1


def test_integer_accuracy_on_the_wire_enters_as_a_float(tmp_path):
    g = _genotype(9)
    with ExternalEvaluator(_stub_command(tmp_path, "integer_accuracy"), timeout=20.0) as ev:
        [result] = _evaluate_jobs(ev, [(g, SETTING.with_epochs(13), 0, 13, None)], 1)
    assert result == EvalResult(1.0, 0.0, "t")
    assert [type(value) for value in result[:2]] == [float, float]


def test_hung_child_times_out_and_restarts(tmp_path, fast_restarts):
    g = _genotype(2)
    with ExternalEvaluator(
        _stub_command(tmp_path, "sleep"), timeout=1.0
    ) as ev:
        ok = ev.evaluate(g, SETTING, 0, 10)
        start = time.monotonic()
        with pytest.raises(EvaluatorFailure, match="timed out"):
            ev.evaluate(g, SETTING.with_epochs(13), 0, 13)
        assert time.monotonic() - start < 5.0
        assert ev.evaluate(g, SETTING, 0, 10) == ok


def test_child_without_newline_fails_promptly_as_oversized(tmp_path, fast_restarts):
    g = _genotype(3)
    with ExternalEvaluator(
        _stub_command(tmp_path, "flood"), timeout=10.0
    ) as ev:
        ok = ev.evaluate(g, SETTING, 0, 10)
        start = time.monotonic()
        with pytest.raises(EvaluatorFailure, match="oversized"):
            ev.evaluate(g, SETTING.with_epochs(13), 0, 13)
        assert time.monotonic() - start < 5.0
        assert ev.evaluate(g, SETTING, 0, 10) == ok


# -- one child per concurrent caller -------------------------------------------------


def _concurrently(calls, timeout=60.0):
    """Run the calls in threads released together; return (result | exception)
    per call, in order."""
    barrier = threading.Barrier(len(calls))
    outcomes = [None] * len(calls)

    def run(i):
        barrier.wait()
        try:
            outcomes[i] = calls[i]()
        except EvaluatorFailure as exc:
            outcomes[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
        assert not t.is_alive()
    return outcomes


def test_hung_child_does_not_stall_other_callers(tmp_path, fast_restarts):
    g = _genotype(4)
    with ExternalEvaluator(
        _stub_command(tmp_path, "sleep"), timeout=4.0
    ) as ev:
        ok = ev.evaluate(g, SETTING, 0, 10)
        hung_outcome = []
        hung = threading.Thread(
            target=lambda: hung_outcome.append(
                pytest.raises(EvaluatorFailure, ev.evaluate, g, SETTING.with_epochs(13), 0, 13)
            )
        )
        hung.start()
        time.sleep(0.2)  # let the hung request take the only idle child
        for _ in range(5):
            assert ev.evaluate(g, SETTING, 0, 10) == ok
        assert hung.is_alive()  # still waiting out its timeout
        hung.join(30)
        assert not hung.is_alive()
        assert hung_outcome[0].match("timed out")
        # both children serve again, the hung one after its restart
        outcomes = _concurrently([lambda: ev.evaluate(g, SETTING, 0, 10)] * 2)
        assert outcomes == [ok, ok]
    assert len(_stub_pids(tmp_path)) == 3  # two children, one restarted once


def test_exit_fault_fails_only_its_own_concurrent_request(tmp_path, fast_restarts):
    g = _genotype(5)
    expected = SurrogateEvaluator(SurrogateParams().with_seed(7), CIFAR10_TABLE).evaluate(
        g, SETTING, 0, 10
    )
    with ExternalEvaluator(
        _stub_command(tmp_path, "exit"), timeout=20.0
    ) as ev:
        outcomes = _concurrently(
            [
                lambda: ev.evaluate(g, SETTING, 0, 10),
                lambda: ev.evaluate(g, SETTING.with_epochs(13), 0, 13),
                lambda: ev.evaluate(g, SETTING, 0, 10),
            ]
        )
    assert outcomes[0] == outcomes[2] == expected
    assert isinstance(outcomes[1], EvaluatorFailure)


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_children_follow_peak_concurrency_and_close_reaps_them(tmp_path):
    # More callers than cores with a short switch interval: a lost update on
    # the free list would hand one child to two callers (mismatched ids) or
    # drop a child that close() then never reaps.
    threads, calls = 6, 20
    ev = ExternalEvaluator(_stub_command(tmp_path, "none"), timeout=20.0)
    assert ev.ping()
    assert len(_stub_pids(tmp_path)) == 1  # a lone ping spawns one child
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outcomes = _concurrently([lambda: [ev.ping() for _ in range(calls)]] * threads)
    finally:
        sys.setswitchinterval(interval)
    assert outcomes == [[True] * calls] * threads
    pids = _stub_pids(tmp_path)
    assert 1 <= len(pids) <= threads
    assert all(_alive(pid) for pid in pids)
    ev.close()
    assert not any(_alive(pid) for pid in pids)

"""Pipelined external checker requests: ``check_many`` and ``run_many``."""

import contextlib
import json
import subprocess
import sys
import textwrap
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gecmetric import grammaticality
from gecmetric.errors import DetectorError
from gecmetric.grammaticality import (
    CHECKER_WINDOW,
    DetectorSuite,
    ExternalChecker,
    Wordlist,
    build_default_suite,
)
from test_external_checker import CHECKER_SOURCE, checker_script, command  # noqa: F401

SLOW_CHECKER = textwrap.dedent(
    """
    import json, os, sys, time

    delay, answers = float(sys.argv[1]), int(sys.argv[2])
    for line in sys.stdin:
        req = json.loads(line)
        answers -= 1
        if answers == 0:
            os.close(0)  # from here on, sending a request fails
        time.sleep(delay)
        errors = [{"start": i, "end": i + 1, "category": "EXT"}
                  for i, tok in enumerate(req["tokens"]) if tok == "bad"]
        print(json.dumps({"id": req["id"], "errors": errors}), flush=True)
        if answers == 0:
            sys.exit(0)
    """
)


# Replies that cannot be routed to a request in flight, (silent) no
# reply, or (slow) a reply after 0.3 s; any other mode answers normally.
# With a second argument, only the request of that id gets the mode's
# reply.
ROUTING_CHECKER = textwrap.dedent(
    """
    import json, os, sys, time

    at = int(sys.argv[2]) if len(sys.argv) > 2 else None
    out = sys.stdout.buffer
    try:
        for line in sys.stdin:
            req = json.loads(line)
            reply = {"id": req["id"], "errors": []}
            mode = sys.argv[1] if at in (None, req["id"]) else "answer"
            if mode == "silent":
                continue
            if mode == "slow":
                time.sleep(0.3)
            if mode == "list-id":
                reply["id"] = [req["id"]]
            elif mode == "float-id":
                reply["id"] = float(req["id"])
            elif mode == "bool-id":
                reply["id"] = bool(req["id"])
            elif mode == "unknown-id":
                out.write(b'{"id": 1000, "errors": []}\\n')
            elif mode == "bad-bytes":
                out.write(b"\\xff\\n")
            elif mode == "deep":
                out.write(b"[" * 100000 + b"\\n")
            elif mode == "bool-span":
                reply["errors"] = [{"start": False, "end": True, "category": "X"}]
            out.write((json.dumps(reply) + "\\n").encode() * (2 if mode == "duplicate" else 1))
            out.flush()
    except BrokenPipeError:
        # gecmetric stopped reading: leave quietly, with nothing left to flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
    """
)


@pytest.fixture
def slow_script(tmp_path):
    path = tmp_path / "slow.py"
    path.write_text(SLOW_CHECKER, encoding="utf-8")
    return path


def _spans(results):
    return [[(s.start, s.end, s.category) for s in spans] for spans in results]


def test_swapped_replies_come_back_in_request_order(checker_script):
    """The swap mode answers each pair of requests in reverse order."""
    seqs = [("bad",), ("ok",), ("ok", "bad"), ("bad", "ok", "bad")]
    with ExternalChecker(command(checker_script, "swap"), timeout=30.0) as checker:
        results = checker.check_many(seqs)
    assert _spans(results) == [
        [(0, 1, "EXT")], [], [(1, 2, "EXT")], [(0, 1, "EXT"), (2, 3, "EXT")]
    ]


def test_window_depth_does_not_use_up_the_timeout(slow_script):
    """Ten requests at 0.1 s each take about 1 s in all, but no single
    reply takes longer than the 0.3 s timeout after the one before."""
    seqs = [("bad",) if k % 2 else ("ok",) for k in range(10)]
    cmd = [sys.executable, str(slow_script), "0.1", "11"]
    with ExternalChecker(cmd, timeout=30.0) as checker:
        checker(("ok",))  # the checker's start-up is not what is timed here
        checker.timeout = 0.3
        results = checker.check_many(seqs)
    assert _spans(results) == [[(0, 1, "EXT")] if k % 2 else [] for k in range(10)]


def test_exit_in_mid_window_reports_the_closed_output(slow_script):
    """The checker stops reading after two requests and exits after
    answering them, so sending the next requests of the window fails; the
    error is the one a serial run would give."""
    seqs = [("ok",)] * (3 * CHECKER_WINDOW)
    cmd = [sys.executable, str(slow_script), "0", "2"]
    with ExternalChecker(cmd, timeout=10.0) as checker:
        with pytest.raises(DetectorError, match="closed its output"):
            checker.check_many(seqs)


@pytest.mark.parametrize("mode", ["die", "garbage", "sleep"])
def test_failures_raise_the_same_error_as_a_single_call(checker_script, mode):
    messages = []
    for ask in (lambda c: c(("a",)), lambda c: c.check_many([("a",), ("b",), ("c",)])):
        with ExternalChecker(
            command(checker_script, mode),
            detector_id="lint",
            timeout=0.3 if mode == "sleep" else 10.0,
        ) as checker:
            with pytest.raises(DetectorError) as err:
                ask(checker)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "'lint'" in messages[0]


def test_check_many_of_nothing_starts_no_process():
    checker = ExternalChecker(["/no/such/binary"])
    assert checker.check_many([]) == []


def test_run_many_equals_run_per_sequence(checker_script):
    seqs = [
        ("bad", "bad", "ok"),
        (),
        ("the", "the", "bad", "."),
        ("ok", "ok"),
        ("bad", "bad", "ok"),
    ]
    # the doubled-token and terminal-punctuation rules read no word list
    built_in = {d.detector_id: d for d in build_default_suite(Wordlist(["ok"])).detectors}
    with ExternalChecker(command(checker_script, "flag"), detector_id="ext") as checker:
        suite = DetectorSuite([built_in["dup"], checker, built_in["terminal"]])
        assert suite.run_many(seqs) == [suite.run(tokens) for tokens in seqs]
        assert suite.run_many([]) == []


@pytest.fixture
def routing_script(tmp_path):
    path = tmp_path / "routing.py"
    path.write_text(ROUTING_CHECKER, encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "mode, reason",
    [
        ("list-id", "reply id [0] is not a request in flight"),
        ("float-id", "reply id 0.0 is not a request in flight"),
        ("bool-id", "reply id False is not a request in flight"),
        ("unknown-id", "reply id 1000 is not a request in flight"),
        ("duplicate", "reply id 0 is not a request in flight"),
        ("bad-bytes", "response line is not UTF-8"),
        ("deep", "malformed response line: '[[["),
    ],
)
def test_unroutable_reply_fails_at_once(routing_script, monkeypatch, mode, reason):
    """A reply that answers no request in flight fails the call without
    waiting for the timeout, and the reader thread ends without an error."""
    thread_errors = []
    monkeypatch.setattr(threading, "excepthook", thread_errors.append)
    started = time.monotonic()
    cmd = [sys.executable, str(routing_script), mode]
    with ExternalChecker(cmd, detector_id="lint", timeout=10.0) as checker:
        with pytest.raises(DetectorError) as err:
            checker.check_many([("a",), ("b",)])
    assert time.monotonic() - started < 5.0
    assert str(err.value).startswith("detector 'lint': ")
    assert reason in str(err.value)
    assert thread_errors == []


def test_close_after_an_unroutable_reply_lets_the_next_call_answer(routing_script):
    """The failure that ended a call goes with the processes ``close``
    ends; the next call starts a fresh process."""
    cmd = [sys.executable, str(routing_script), "unknown-id", "0"]
    with ExternalChecker(cmd, detector_id="lint", timeout=10.0) as checker:
        with pytest.raises(DetectorError, match="no response can be routed"):
            checker.check_many([("a",), ("b",)])
        checker.close()
        assert checker.check_many([("a",), ("b",)]) == [[], []]
        assert checker(("c",)) == []


# Answers the first request with the bytes of the file named by argv[1],
# then exits.
ONE_REPLY_CHECKER = textwrap.dedent(
    """
    import sys

    sys.stdin.readline()
    with open(sys.argv[1], "rb") as f:
        sys.stdout.buffer.write(f.read())
    """
)

_JSON = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers(-1, 3) | st.text(max_size=3)
    | st.integers(min_value=10**300, max_value=10**400),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
_BOUND = st.integers(-1, 3) | _JSON
_ENTRY = _JSON | st.fixed_dictionaries(
    {"start": _BOUND, "end": _BOUND,
     "category": st.text(min_size=1, max_size=3) | _JSON}
)
_REPLY = _JSON | st.fixed_dictionaries(
    {"id": st.just(0) | _JSON, "errors": st.lists(_ENTRY, max_size=3) | _JSON}
)
# Nesting about as deep as the JSON parser allows, in each place a reply
# can hold it.
_DEEP = st.builds(
    lambda template, n: template % (b"[" * n + b"]" * n),
    st.sampled_from([b"%b", b'{"id": %b}', b'{"id": 0, "errors": %b}',
                     b'{"id": 0, "errors": [{"start": %b}]}',
                     b'{"id": 0, "errors": {"x": %b}}']),
    st.integers(1, 1500),
)
_LINE = st.one_of(
    _REPLY.map(lambda value: json.dumps(value).encode()),
    _DEEP,
    st.just(b"[" * 100_000),
    st.just(b'{"id": 1' + b"0" * 5000 + b', "errors": []}'),  # int past the digit limit
    st.binary(max_size=12),  # non-UTF-8 bytes, stray newlines
)
_REPLY_BYTES = st.builds(
    lambda blanks, line: blanks + line + b"\n",
    st.sampled_from([b"", b"\n", b" \t\r\n"]),
    _LINE,
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(reply=_REPLY_BYTES)
def test_any_reply_gives_spans_or_a_detector_error(tmp_path, monkeypatch, reply):
    """Whatever one reply line holds, the call returns spans inside the
    sentence or raises DetectorError, and the reader thread ends cleanly."""
    thread_errors = []
    monkeypatch.setattr(threading, "excepthook", thread_errors.append)
    script, reply_path = tmp_path / "one_reply.py", tmp_path / "reply.bin"
    script.write_text(ONE_REPLY_CHECKER, encoding="utf-8")
    reply_path.write_bytes(reply)
    before = set(threading.enumerate())
    try:
        cmd = [sys.executable, "-S", str(script), str(reply_path)]
        with ExternalChecker(cmd) as checker:
            spans = checker(("a", "b"))
    except DetectorError:
        pass
    else:
        for span in spans:
            assert 0 <= span.start <= span.end <= 2 and isinstance(span.category, str)
    for thread in set(threading.enumerate()) - before:
        thread.join(5.0)
    assert thread_errors == []


# ---------------------------------------------------------------------------
# a batch spread over several checker processes


def _pool(monkeypatch, cpus, processes=3):
    """Let checkers see ``cpus`` usable CPUs and spread a batch over at
    most ``processes`` copies; returns the list of the processes they
    start from here on."""
    monkeypatch.setattr(grammaticality, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(grammaticality, "CHECKER_PROCESSES", processes)
    started = []
    popen = subprocess.Popen

    def record(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", record)
    return started


def _numbered(count):
    """``count`` distinct sequences; the "bad" tokens of sequence k are
    the set bits of k."""
    return [tuple("bad" if k >> b & 1 else "ok" for b in range(8)) for k in range(count)]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_pool_gives_the_spans_of_one_process_in_request_order(
    checker_script, monkeypatch, cpus
):
    """The swap mode answers each pair of a process's requests in
    reverse order."""
    started = _pool(monkeypatch, cpus)
    seqs = _numbered(3 * CHECKER_WINDOW)
    with ExternalChecker(command(checker_script, "swap"), timeout=30.0) as checker:
        results = checker.check_many(seqs)
    assert len(started) == cpus
    assert _spans(results) == [
        [(b, b + 1, "EXT") for b in range(8) if k >> b & 1] for k in range(len(seqs))
    ]


@pytest.mark.parametrize(
    "count, processes",
    [(1, 1), (CHECKER_WINDOW, 1), (CHECKER_WINDOW + 1, 2), (10 * CHECKER_WINDOW, 3)],
)
def test_one_process_per_window_of_the_batch_up_to_the_cpus(
    checker_script, monkeypatch, count, processes
):
    started = _pool(monkeypatch, 3)
    with ExternalChecker(command(checker_script, "flag")) as checker:
        checker.check_many(_numbered(count))
        assert checker(("bad",)) != []
        checker.check_many(_numbered(count))
    assert len(started) == processes


@pytest.mark.parametrize("mode", ["flag", "die"])
def test_close_ends_every_process(checker_script, monkeypatch, mode):
    started = _pool(monkeypatch, 3)
    with ExternalChecker(command(checker_script, mode)) as checker:
        with pytest.raises(DetectorError) if mode == "die" else contextlib.nullcontext():
            checker.check_many(_numbered(3 * CHECKER_WINDOW))
    assert len(started) == 3
    assert [proc.poll() is not None for proc in started] == [True] * 3


def test_a_batch_starts_at_most_checker_processes_copies(checker_script, monkeypatch):
    """However many CPUs the host has, a batch of ten windows starts two
    checkers."""
    started = _pool(monkeypatch, 8, grammaticality.CHECKER_PROCESSES)
    with ExternalChecker(command(checker_script, "flag")) as checker:
        checker.check_many(_numbered(10 * CHECKER_WINDOW))
    assert len(started) == grammaticality.CHECKER_PROCESSES == 2


@pytest.mark.parametrize("at", [0, 50])
@pytest.mark.parametrize("mode", ["unknown-id", "duplicate", "silent"])
def test_pool_fails_with_the_one_process_message(routing_script, monkeypatch, mode, at):
    """Request ``at`` gets a bad reply or none; 50 is past the first
    window, and on three processes it is the 17th request of the third."""
    messages = []
    for cpus in (1, 3):
        started = _pool(monkeypatch, cpus)
        with ExternalChecker(
            [sys.executable, str(routing_script), mode, str(at)],
            detector_id="lint",
            timeout=1.0 if mode == "silent" else 10.0,
        ) as checker:
            with pytest.raises(DetectorError) as err:
                checker.check_many(_numbered(3 * CHECKER_WINDOW))
        messages.append(str(err.value))
        assert len(started) == cpus
        assert [proc.poll() is not None for proc in started] == [True] * cpus
    assert messages[0] == messages[1]
    if mode != "unknown-id":
        assert f" {at} " in messages[0]


def test_a_lowered_timeout_governs_every_copy(routing_script, monkeypatch):
    """Both copies start on the first batch; once the timeout is lowered,
    a reply on the second copy that is slower than it fails the call."""
    started = _pool(monkeypatch, 2)
    slow = 2 * CHECKER_WINDOW + 1  # the second request of the second batch
    cmd = [sys.executable, str(routing_script), "slow", str(slow)]
    with ExternalChecker(cmd, detector_id="lint", timeout=30.0) as checker:
        checker.check_many(_numbered(2 * CHECKER_WINDOW))
        assert len(started) == 2
        checker.timeout = 0.1
        with pytest.raises(DetectorError, match=f"no response for request {slow} after 0.1s"):
            checker.check_many(_numbered(2 * CHECKER_WINDOW))
    assert len(started) == 2


def test_a_copy_that_cannot_start_fails_and_the_first_is_closed(
    checker_script, monkeypatch
):
    started = _pool(monkeypatch, 2)
    popen = subprocess.Popen

    def first_only(*args, **kwargs):
        if started:
            raise FileNotFoundError(2, "No such file or directory")
        return popen(*args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", first_only)
    with ExternalChecker(command(checker_script, "flag"), detector_id="lint") as checker:
        with pytest.raises(DetectorError, match="^detector 'lint': failed to start: "):
            checker.check_many(_numbered(2 * CHECKER_WINDOW))
    assert len(started) == 1
    assert started[0].poll() is not None

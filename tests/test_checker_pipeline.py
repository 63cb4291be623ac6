"""Pipelined external checker requests: ``check_many`` and ``run_many``."""

import json
import sys
import textwrap
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gecmetric.errors import DetectorError
from gecmetric.grammaticality import (
    CHECKER_WINDOW,
    DetectorSuite,
    DuplicateTokenDetector,
    ExternalChecker,
    TerminalPunctuationDetector,
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


# Replies that cannot be routed to a request in flight; any other mode
# answers normally.
ROUTING_CHECKER = textwrap.dedent(
    """
    import json, sys

    mode = sys.argv[1]
    out = sys.stdout.buffer
    for line in sys.stdin:
        req = json.loads(line)
        reply = {"id": req["id"], "errors": []}
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
    with ExternalChecker(command(checker_script, "flag"), detector_id="ext") as checker:
        suite = DetectorSuite([DuplicateTokenDetector(), checker, TerminalPunctuationDetector()])
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

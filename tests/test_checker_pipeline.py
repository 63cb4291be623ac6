"""Pipelined external checker requests: ``check_many`` and ``run_many``."""

import sys
import textwrap

import pytest

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

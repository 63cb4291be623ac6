import sys
import textwrap
import threading

import pytest

from gecmetric.errors import DetectorError, ValidationError
from gecmetric.grammaticality import DetectorSuite, ExternalChecker

CHECKER_SOURCE = textwrap.dedent(
    """
    import json, sys, time

    mode = sys.argv[1] if len(sys.argv) > 1 else "flag"
    held = []
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        req = json.loads(line)
        if mode == "die":
            sys.exit(3)
        if mode == "garbage":
            print("not json at all")
            sys.stdout.flush()
            continue
        if mode == "sleep":
            time.sleep(5)
        if mode == "wrong-id":
            req["id"] = req["id"] + 1000
        errors = []
        if mode in ("flag", "wrong-id", "swap"):
            for i, tok in enumerate(req["tokens"]):
                if tok == "bad":
                    errors.append({"start": i, "end": i + 1, "category": "EXT"})
        if mode == "overflow":
            errors = [{"start": 0, "end": 99, "category": "EXT"}]
        if mode == "badshape":
            errors = [{"start": 0}]
        if mode == "huge":
            errors = "x" * 1000000
        if mode == "huge-entry":
            errors = [{"start": "x" * 1000000, "end": 1, "category": "X"}]
        reply = json.dumps({"id": req["id"], "errors": errors})
        if mode == "swap":
            held.append(reply)
            if len(held) == 2:
                print(held[1]); print(held[0])
                sys.stdout.flush()
                held = []
            continue
        print(reply)
        sys.stdout.flush()
    """
)


@pytest.fixture
def checker_script(tmp_path):
    path = tmp_path / "checker.py"
    path.write_text(CHECKER_SOURCE, encoding="utf-8")
    return path


def command(script, mode):
    return [sys.executable, str(script), mode]


def test_flags_reported_spans(checker_script):
    with ExternalChecker(command(checker_script, "flag")) as checker:
        spans = checker(("ok", "bad", "ok"))
        assert [(s.start, s.end, s.category) for s in spans] == [(1, 2, "EXT")]
        assert checker(("ok",)) == []


def test_malformed_response_raises_detector_error(checker_script):
    with ExternalChecker(
        command(checker_script, "garbage"), detector_id="lint"
    ) as checker:
        with pytest.raises(DetectorError, match="'lint'") as err:
            checker(("a",))
        assert "malformed" in str(err.value)


def test_early_exit_raises_detector_error(checker_script):
    with ExternalChecker(command(checker_script, "die")) as checker:
        with pytest.raises(DetectorError, match="closed its output"):
            checker(("a",))


def test_timeout_raises_detector_error(checker_script):
    with ExternalChecker(command(checker_script, "sleep"), timeout=0.3) as checker:
        with pytest.raises(DetectorError, match="no response"):
            checker(("a",))


def test_unknown_response_id_times_out(checker_script):
    with ExternalChecker(
        command(checker_script, "wrong-id"), timeout=0.3
    ) as checker:
        with pytest.raises(DetectorError, match="no response"):
            checker(("bad",))


def test_out_of_bounds_span_rejected(checker_script):
    with ExternalChecker(command(checker_script, "overflow")) as checker:
        with pytest.raises(DetectorError, match="exceeds"):
            checker(("a",))


def test_missing_fields_rejected(checker_script):
    with ExternalChecker(command(checker_script, "badshape")) as checker:
        with pytest.raises(DetectorError, match="bad error entry"):
            checker(("a",))


@pytest.mark.parametrize(
    "mode, reason",
    [
        ("huge", "response missing 'errors' list: {'id': 0, 'errors': 'xxx"),
        ("huge-entry", "bad error entry {'start': 'xxx"),
    ],
)
def test_huge_reply_gives_a_short_message(checker_script, mode, reason):
    """A reply of a megabyte is cut in the message, which stays one
    short line."""
    with ExternalChecker(command(checker_script, mode), detector_id="lint") as checker:
        with pytest.raises(DetectorError) as err:
            checker(("a",))
    assert reason in str(err.value)
    assert len(str(err.value)) < 500


def test_nonexistent_command_raises_detector_error():
    checker = ExternalChecker(["/no/such/binary"], detector_id="ghost")
    with pytest.raises(DetectorError, match="failed to start"):
        checker(("a",))


def test_close_is_idempotent(checker_script):
    checker = ExternalChecker(command(checker_script, "flag"))
    assert checker(("bad",)) != []
    checker.close()
    checker.close()


def test_checker_in_suite(checker_script):
    checker = ExternalChecker(command(checker_script, "flag"), detector_id="ext")
    with checker:
        suite = DetectorSuite([checker])
        spans = suite.run(("bad", "bad"))
        assert len(spans) == 2


def test_checker_validation():
    with pytest.raises(ValidationError):
        ExternalChecker([])
    # above threading.TIMEOUT_MAX, the first wait would overflow
    for timeout in (0.0, float("nan"), float("inf"), 1e10):
        with pytest.raises(ValidationError):
            ExternalChecker(["x"], timeout=timeout)
    assert ExternalChecker(["x"], timeout=threading.TIMEOUT_MAX).timeout > 0


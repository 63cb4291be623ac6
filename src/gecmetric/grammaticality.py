"""Reference-less grammaticality scoring over pluggable error detectors.

A detector is any callable with a ``detector_id`` attribute that maps a
token sequence to a list of :class:`ErrorSpan`. The built-in detectors
cover surface errors that need no syntactic analysis: unknown words,
doubled tokens, a/an agreement, sentence-initial lowercase, missing
terminal punctuation, and punctuation split off by a space. External
checkers run as child processes speaking line-delimited JSON, so any
language or toolchain can plug in.

The error-count score of a sentence is ``max(0, 1 - errors / tokens)``;
an empty sentence scores 1.0. Corpus mode pools the raw error and token
counts before dividing, which deliberately weights long sentences more
than the per-sentence mean does.
"""

from __future__ import annotations

import contextlib
import json
import os
import queue
import string
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Protocol, Sequence

from ._config import CHECKER_TIMEOUT, check_timeout
from .analysis import mean_score
from .corpus import Sentence
from .errors import DetectorError, ValidationError
from .formats import _read_text, split_lines

__all__ = [
    "ErrorSpan",
    "Detector",
    "Wordlist",
    "BUILT_IN",
    "RuleDetector",
    "DetectorSuite",
    "build_default_suite",
    "ErrorCountStats",
    "error_count_stats",
    "error_count_stats_many",
    "error_count_score",
    "error_count_pool",
    "error_count_corpus",
    "ExternalChecker",
    "check_timeout",
]

# Requests each external checker process has in flight at once; a batch
# of more than this many is spread over several processes (see
# check_many).
CHECKER_WINDOW = 32
# Most checker processes one batch is spread over, and never more than
# the usable CPUs. On a 2-core host, 1,758 requests of 2 ms took 3.7-4.0 s
# on one process and 2.0 s on two, whether the checker slept or spun;
# three or four copies of a spinning checker were slower than two. More
# copies are unmeasured, and each costs a checker's start-up and memory.
CHECKER_PROCESSES = 2

_VOWELS = frozenset("aeiou")
_CLAUSE_PUNCT = frozenset({",", ".", ";", ":", "!", "?"})
_Spans = list[tuple[int, int]]  # a rule's (start, end) spans


@dataclass(frozen=True, order=True)
class ErrorSpan:
    """Half-open token span [start, end) tagged with an error category."""

    start: int
    end: int
    category: str

    def __post_init__(self):
        # bools are ints to isinstance, so check the type
        if type(self.start) is not int or type(self.end) is not int:
            raise ValidationError(f"span bounds must be ints, got {self!r}")
        if self.start < 0 or self.end < self.start:
            raise ValidationError(f"bad span ({self.start}, {self.end})")
        if not self.category or not isinstance(self.category, str):
            raise ValidationError(f"bad category {self.category!r}")


class Detector(Protocol):
    detector_id: str

    def __call__(self, tokens: Sequence[str]) -> list[ErrorSpan]: ...


class Wordlist:
    """Case-tolerant vocabulary for spell checking.

    A token is *known* if, after stripping punctuation from both ends, the
    core appears in the list verbatim, lowercased, or with only its first
    letter lowercased (so sentence-initial capitalization never counts as
    a misspelling). Cores without any letters are always known. Each
    distinct token is looked up once; later calls read the memo.
    """

    def __init__(self, words: Iterable[str]):
        self._words = frozenset(words)
        if not self._words:
            raise ValidationError("empty wordlist")
        self._known: dict[str, bool] = {}

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, word: str) -> bool:
        return word in self._words

    @staticmethod
    def core(token: str) -> str:
        return token.strip(string.punctuation)

    def knows(self, token: str) -> bool:
        known = self._known.get(token)
        if known is None:
            core = self.core(token)
            known = self._known[token] = (
                not any(ch.isalpha() for ch in core)
                or core in self._words
                or core.lower() in self._words
                or core[0].lower() + core[1:] in self._words
            )
        return known

    @classmethod
    def from_file(cls, path) -> "Wordlist":
        lines = split_lines(_read_text(path))
        return cls(word for word in (line.strip() for line in lines) if word)


def _spell(tokens: Sequence[str], wordlist: Wordlist) -> _Spans:
    return [(i, i + 1) for i, token in enumerate(tokens) if not wordlist.knows(token)]


def _dup(tokens: Sequence[str], wordlist: Wordlist) -> _Spans:
    return [(i, i + 2) for i in range(len(tokens) - 1) if tokens[i] == tokens[i + 1]]


def _article(tokens: Sequence[str], wordlist: Wordlist) -> _Spans:
    return [
        (i, i + 2)
        for i, (word, after) in enumerate(zip(tokens, tokens[1:]))
        if word in ("a", "A") and after[0].lower() in _VOWELS
        or word in ("an", "An") and after[0].isalpha() and after[0].lower() not in _VOWELS
    ]


def _capital(tokens: Sequence[str], wordlist: Wordlist) -> _Spans:
    return [(0, 1)] if tokens and tokens[0][0].islower() else []


def _terminal(tokens: Sequence[str], wordlist: Wordlist) -> _Spans:
    # point span: the error is a missing token, not a bad one
    n = len(tokens)
    return [(n, n)] if tokens and not tokens[-1].endswith((".", "!", "?")) else []


def _spacepunct(tokens: Sequence[str], wordlist: Wordlist) -> _Spans:
    return [(i, i + 1) for i in range(1, len(tokens)) if tokens[i] in _CLAUSE_PUNCT]


# The built-in detectors, in the order build_default_suite runs them: each
# row is (detector id, category, rule), where rule(tokens, wordlist) lists
# the (start, end) spans the detector flags.
BUILT_IN = (
    ("spell", "SPELL", _spell),
    ("dup", "DUP", _dup),
    ("article", "ART", _article),
    ("capital", "CAP", _capital),
    ("terminal", "TERM", _terminal),
    ("spacepunct", "SPACE", _spacepunct),
)


class RuleDetector:
    """A :data:`BUILT_IN` row bound to a word list, as a :class:`Detector`."""

    def __init__(self, row, wordlist: Wordlist):
        self.detector_id, self.category, self.rule = row
        self.wordlist = wordlist

    def __call__(self, tokens: Sequence[str]) -> list[ErrorSpan]:
        return [ErrorSpan(s, e, self.category) for s, e in self.rule(tokens, self.wordlist)]


class DetectorSuite:
    """Runs detectors and merges their spans into one deduplicated list."""

    def __init__(self, detectors: Sequence[Detector]):
        if not detectors:
            raise ValidationError("at least one detector is required")
        ids = [d.detector_id for d in detectors]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"duplicate detector ids in {ids}")
        self.detectors = tuple(detectors)

    def run(self, tokens: Sequence[str]) -> list[ErrorSpan]:
        return self.run_many([tokens])[0]

    def run_many(self, token_seqs: Sequence[Sequence[str]]) -> list[list[ErrorSpan]]:
        """``run`` over each sequence. Each distinct sequence is run once;
        a detector with ``check_many`` (an external checker) gets all of
        them in one pipelined call."""
        distinct = list(dict.fromkeys(map(tuple, token_seqs)))
        found = [
            d.check_many(distinct) if hasattr(d, "check_many")
            else [d(tokens) for tokens in distinct]
            for d in self.detectors
        ]
        merged = {
            tokens: self._merge(tokens, [spans[k] for spans in found])
            for k, tokens in enumerate(distinct)
        }
        return [list(merged[tuple(tokens)]) for tokens in token_seqs]

    def _merge(self, tokens, per_detector) -> list[ErrorSpan]:
        merged = set()
        for detector, spans in zip(self.detectors, per_detector):
            for span in spans:
                if not isinstance(span, ErrorSpan):
                    raise DetectorError(detector.detector_id, f"returned non-span {span!r}")
                if span.end > len(tokens):
                    raise DetectorError(
                        detector.detector_id,
                        f"span ({span.start}, {span.end}) exceeds "
                        f"sentence length {len(tokens)}",
                    )
                if type(span) is not ErrorSpan:  # a subclass compares only with itself
                    span = ErrorSpan(span.start, span.end, span.category)
                merged.add(span)
        return sorted(merged)


def build_default_suite(wordlist: Wordlist) -> DetectorSuite:
    return DetectorSuite([RuleDetector(row, wordlist) for row in BUILT_IN])


class ErrorCountStats(NamedTuple):
    """One sentence's detected errors and tokens; ``score`` is its
    error-count score."""

    score: float
    errors: int
    tokens: int


def error_count_stats(sentence: Sentence, suite: DetectorSuite) -> ErrorCountStats:
    return error_count_stats_many([sentence], suite)[0]


def error_count_stats_many(
    sentences: Sequence[Sentence], suite: DetectorSuite
) -> list[ErrorCountStats]:
    """``error_count_stats`` of each sentence, from one ``suite.run_many``
    call (which runs each distinct token sequence once)."""
    found = suite.run_many([sentence.tokens for sentence in sentences])
    out = []
    for sentence, spans in zip(sentences, found):
        n_errors, tokens = len(spans), len(sentence)
        score = max(0.0, 1.0 - n_errors / tokens) if tokens else 1.0
        out.append(ErrorCountStats(score, n_errors, tokens))
    return out


def error_count_score(sentence: Sentence, suite: DetectorSuite) -> float:
    return error_count_stats(sentence, suite).score


def error_count_pool(stats: Sequence[ErrorCountStats]) -> float:
    """Score of the error and token counts pooled over sentences."""
    tokens = sum(s.tokens for s in stats)
    if tokens == 0:
        return 1.0
    return max(0.0, 1.0 - sum(s.errors for s in stats) / tokens)


def error_count_corpus(
    sentences: Sequence[Sentence], suite: DetectorSuite, mode: str = "corpus"
) -> float:
    """Corpus score: pooled in ``corpus`` mode, averaged in ``sentence``."""
    if not sentences:
        raise ValidationError("empty corpus")
    if mode not in ("sentence", "corpus"):
        raise ValidationError(f"unknown aggregation mode {mode!r}")
    stats = error_count_stats_many(sentences, suite)
    if mode == "sentence":
        return mean_score([s.score for s in stats])
    return error_count_pool(stats)


class ExternalChecker:
    """Error detector backed by child processes.

    The protocol is line-delimited JSON on stdin/stdout: each request is
    ``{"id": <int>, "tokens": [...]}`` and each response is
    ``{"id": <int>, "errors": [{"start": ..., "end": ..., "category": ...}]}``.
    Requests are pipelined (see :meth:`check_many`): each checker process
    has up to ``CHECKER_WINDOW`` requests in flight, and a larger batch
    is spread over up to ``CHECKER_PROCESSES`` copies of the command, one
    per usable CPU. The copies share no state, so a reply must depend
    only on its request's tokens; ``timeout`` governs the replies of
    every copy. :meth:`close` ends every copy, and the next call starts
    fresh ones.
    Responses may arrive out of order. A reader thread per process hands
    each output line to the calling thread, which routes it by id among
    that process's requests; a checker serves one thread at a time. Any
    malformed or unroutable response (an id that is not a request in
    flight on that process, or a line that is not UTF-8), early exit, or
    timeout raises :class:`DetectorError` naming this detector — never a
    silent empty result.
    """

    def __init__(
        self,
        command: Sequence[str],
        detector_id: str = "external",
        timeout: float = CHECKER_TIMEOUT,
    ):
        if not command:
            raise ValidationError("empty checker command")
        check_timeout(timeout)
        self.command = tuple(command)
        self.detector_id = detector_id
        self.timeout = timeout
        self._procs: list[_Process] = []  # the running copies of the command
        self._next_id = 0

    def __call__(self, tokens: Sequence[str]) -> list[ErrorSpan]:
        return self.check_many([tokens])[0]

    def check_many(self, token_seqs: Sequence[Sequence[str]]) -> list[list[ErrorSpan]]:
        """Spans of each sequence, in order. Request k goes to process
        ``k % n``, where ``n`` is ``CHECKER_PROCESSES``, the number of
        usable CPUs or the number of ``CHECKER_WINDOW``-sized slices of
        the batch, whichever is smallest. Each process has up to
        ``CHECKER_WINDOW`` requests in flight; each reply's timeout
        starts when the previous reply has been taken. Request ids are
        numbered across all processes, as on one."""
        n = min(CHECKER_PROCESSES, _usable_cpus(), -(-len(token_seqs) // CHECKER_WINDOW))
        while len(self._procs) < n:
            try:
                proc = subprocess.Popen(self.command, stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True, encoding="utf-8")
            except OSError as exc:
                raise DetectorError(self.detector_id, f"failed to start: {exc}") from exc
            self._procs.append(_Process(proc))
        procs = self._procs[:n]
        first_id, sent = self._next_id, 0
        out = []
        for k, tokens in enumerate(token_seqs):
            while sent < min(k + n * CHECKER_WINDOW, len(token_seqs)):
                self._send(procs[sent % n], first_id + sent, token_seqs[sent])
                sent += 1
                self._next_id += 1
            reply = self._receive(procs[k % n], first_id + k)
            out.append(self._parse_errors(reply, len(tokens)))
        return out

    def _send(self, process: _Process, request_id: int, tokens: Sequence[str]) -> None:
        process.replies[request_id] = None
        request = json.dumps({"id": request_id, "tokens": list(tokens)})
        try:
            process.proc.stdin.write(request + "\n")
            process.proc.stdin.flush()
        except (OSError, ValueError) as exc:
            # A checker that exited while earlier requests were in flight:
            # report why it stopped, as waiting for those replies would.
            with contextlib.suppress(DetectorError):
                # routes lines until a failure or the timeout
                self._receive(process, request_id)
            raise DetectorError(
                self.detector_id, process.failure or f"write failed: {exc}"
            ) from exc

    def _receive(self, process: _Process, request_id: int):
        deadline = time.monotonic() + self.timeout
        while process.replies[request_id] is None:
            if process.failure is not None:
                raise DetectorError(self.detector_id, process.failure)
            remaining = deadline - time.monotonic()
            try:
                if remaining <= 0:  # a checker that keeps writing lines times out too
                    raise queue.Empty
                item = process.lines.get(timeout=remaining)
            except queue.Empty:
                raise DetectorError(
                    self.detector_id,
                    f"no response for request {request_id} after {self.timeout:g}s",
                ) from None
            process.failure = process.route(item)
        return process.replies.pop(request_id)

    def _parse_errors(self, payload, n_tokens: int) -> list[ErrorSpan]:
        errors = payload.get("errors") if isinstance(payload, dict) else None
        if not isinstance(errors, list):
            raise DetectorError(
                self.detector_id, f"response missing 'errors' list: {payload!r:.200}"
            )
        spans = []
        for item in errors:
            try:
                span = ErrorSpan(item["start"], item["end"], item["category"])
            except (TypeError, KeyError, ValidationError) as exc:
                raise DetectorError(
                    self.detector_id, f"bad error entry {item!r:.200}: {exc!s:.200}"
                ) from exc
            if span.end > n_tokens:
                raise DetectorError(
                    self.detector_id,
                    f"span ({span.start}, {span.end}) exceeds "
                    f"sentence length {n_tokens}",
                )
            spans.append(span)
        return spans

    def close(self) -> None:
        """End every checker process's input and drop the processes; kill
        those that have not exited 2 s later."""
        procs, self._procs = [process.proc for process in self._procs], []
        for proc in procs:
            with contextlib.suppress(OSError):
                proc.stdin.close()
        deadline = time.monotonic() + 2.0
        for proc in procs:
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def __enter__(self) -> "ExternalChecker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _Process:
    """One process of an :class:`ExternalChecker`: the lines its reader
    thread forwards, its replies by request id (None while the request is
    in flight), and why its lines ended or one could not be routed."""

    def __init__(self, proc: subprocess.Popen):
        self.proc = proc
        self.lines: queue.SimpleQueue = queue.SimpleQueue()
        self.replies: dict[int, object] = {}
        self.failure: str | None = None
        threading.Thread(
            target=_forward_lines, args=(proc.stdout, self.lines), daemon=True
        ).start()

    def route(self, item) -> str | None:
        """Store one reply line under its request id; returns why the line
        cannot be routed, or why the lines ended."""
        if not isinstance(item, str):
            return item[0]
        line = item.strip()
        if not line:
            return None
        try:
            payload = json.loads(line)
            response_id = payload["id"]
        except (ValueError, TypeError, KeyError, RecursionError):
            return f"malformed response line: {line[:200]!r}"
        # bools and floats compare equal to ints, so check the type
        sent = type(response_id) is int and response_id in self.replies
        if not sent or self.replies[response_id] is not None:
            return (
                f"no response can be routed: reply id {response_id!r:.100} is "
                "not a request in flight (unknown or already answered)"
            )
        self.replies[response_id] = payload
        return None


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forward_lines(stream, lines: queue.SimpleQueue) -> None:
    """Reader thread of an :class:`ExternalChecker`: put each line of
    ``stream`` on ``lines``, then a 1-tuple holding why the lines ended;
    the thread owns ``stream`` and closes it."""
    try:
        with stream:
            for line in stream:
                lines.put(line)
        end = "checker process closed its output"
    except UnicodeDecodeError as exc:
        end = f"response line is not UTF-8: {exc}"
    lines.put((end,))

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
import queue
import string
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Protocol, Sequence

from .analysis import mean_score
from .corpus import Sentence
from .errors import DetectorError, ValidationError
from .formats import _read_text, split_lines

__all__ = [
    "ErrorSpan",
    "Detector",
    "Wordlist",
    "SpellingDetector",
    "DuplicateTokenDetector",
    "ArticleAgreementDetector",
    "CapitalizationDetector",
    "TerminalPunctuationDetector",
    "SpacedPunctuationDetector",
    "DetectorSuite",
    "build_default_suite",
    "ErrorCountStats",
    "error_count_stats",
    "error_count_stats_many",
    "error_count_score",
    "error_count_pool",
    "error_count_corpus",
    "ExternalChecker",
]

# Requests an external checker has in flight at once (see check_many).
CHECKER_WINDOW = 32
# Seconds an external checker may take to answer one request.
CHECKER_TIMEOUT = 10.0

_VOWELS = frozenset("aeiou")
_CLAUSE_PUNCT = frozenset({",", ".", ";", ":", "!", "?"})


@dataclass(frozen=True)
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


class SpellingDetector:
    detector_id = "spell"
    category = "SPELL"

    def __init__(self, wordlist: Wordlist):
        self.wordlist = wordlist

    def __call__(self, tokens: Sequence[str]) -> list[ErrorSpan]:
        return [
            ErrorSpan(i, i + 1, self.category)
            for i, token in enumerate(tokens)
            if not self.wordlist.knows(token)
        ]


class DuplicateTokenDetector:
    detector_id = "dup"
    category = "DUP"

    def __call__(self, tokens: Sequence[str]) -> list[ErrorSpan]:
        return [
            ErrorSpan(i, i + 2, self.category)
            for i in range(len(tokens) - 1)
            if tokens[i] == tokens[i + 1]
        ]


class ArticleAgreementDetector:
    detector_id = "article"
    category = "ART"

    def __call__(self, tokens: Sequence[str]) -> list[ErrorSpan]:
        spans = []
        for i in range(len(tokens) - 1):
            head = tokens[i + 1][0]
            if tokens[i] in ("a", "A") and head.lower() in _VOWELS:
                spans.append(ErrorSpan(i, i + 2, self.category))
            elif (
                tokens[i] in ("an", "An")
                and head.isalpha()
                and head.lower() not in _VOWELS
            ):
                spans.append(ErrorSpan(i, i + 2, self.category))
        return spans


class CapitalizationDetector:
    detector_id = "capital"
    category = "CAP"

    def __call__(self, tokens: Sequence[str]) -> list[ErrorSpan]:
        if tokens and tokens[0][0].islower():
            return [ErrorSpan(0, 1, self.category)]
        return []


class TerminalPunctuationDetector:
    detector_id = "terminal"
    category = "TERM"

    def __call__(self, tokens: Sequence[str]) -> list[ErrorSpan]:
        if tokens and not tokens[-1].endswith((".", "!", "?")):
            # point span: the error is a missing token, not a bad one
            return [ErrorSpan(len(tokens), len(tokens), self.category)]
        return []


class SpacedPunctuationDetector:
    detector_id = "spacepunct"
    category = "SPACE"

    def __call__(self, tokens: Sequence[str]) -> list[ErrorSpan]:
        return [
            ErrorSpan(i, i + 1, self.category)
            for i in range(1, len(tokens))
            if tokens[i] in _CLAUSE_PUNCT
        ]


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
        """``run`` over each sequence; a detector with ``check_many`` (an
        external checker) gets all of them in one pipelined call."""
        found = [
            d.check_many(token_seqs) if hasattr(d, "check_many")
            else [d(tokens) for tokens in token_seqs]
            for d in self.detectors
        ]
        return [
            self._merge(tokens, [spans[k] for spans in found])
            for k, tokens in enumerate(token_seqs)
        ]

    def _merge(self, tokens, per_detector) -> list[ErrorSpan]:
        merged: dict[tuple[int, int, str], ErrorSpan] = {}
        for detector, spans in zip(self.detectors, per_detector):
            for span in spans:
                if not isinstance(span, ErrorSpan):
                    raise DetectorError(
                        detector.detector_id, f"returned non-span {span!r}"
                    )
                if span.end > len(tokens):
                    raise DetectorError(
                        detector.detector_id,
                        f"span ({span.start}, {span.end}) exceeds "
                        f"sentence length {len(tokens)}",
                    )
                merged.setdefault((span.start, span.end, span.category), span)
        return sorted(merged.values(), key=lambda s: (s.start, s.end, s.category))


def build_default_suite(wordlist: Wordlist) -> DetectorSuite:
    return DetectorSuite(
        [
            SpellingDetector(wordlist),
            DuplicateTokenDetector(),
            ArticleAgreementDetector(),
            CapitalizationDetector(),
            TerminalPunctuationDetector(),
            SpacedPunctuationDetector(),
        ]
    )


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
    """``error_count_stats`` of each sentence; each distinct token
    sequence goes through ``suite.run_many`` once."""
    distinct = list(dict.fromkeys(s.tokens for s in sentences))
    errors = dict(zip(distinct, map(len, suite.run_many(distinct))))
    out = []
    for sentence in sentences:
        n_errors, tokens = errors[sentence.tokens], len(sentence)
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
    """Error detector backed by a child process.

    The protocol is line-delimited JSON on stdin/stdout: each request is
    ``{"id": <int>, "tokens": [...]}`` and each response is
    ``{"id": <int>, "errors": [{"start": ..., "end": ..., "category": ...}]}``.
    Requests are pipelined (see :meth:`check_many`) and responses may
    arrive out of order. A reader thread hands each output line to the
    calling thread, which routes it by id; a checker serves one thread at
    a time. Any malformed or unroutable response (an id that is not a
    request in flight, or a line that is not UTF-8), early exit, or
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
        if not 0 < timeout <= threading.TIMEOUT_MAX:  # also rejects nan
            raise ValidationError(
                f"timeout must be in (0, {threading.TIMEOUT_MAX:.0f}] seconds, got {timeout}"
            )
        self.command = tuple(command)
        self.detector_id = detector_id
        self.timeout = timeout
        self._proc: subprocess.Popen | None = None
        self._lines: queue.SimpleQueue | None = None  # filled by the reader thread
        self._responses: dict[int, object] = {}
        self._in_flight: set[int] = set()  # ids sent and not yet answered
        self._next_id = 0
        self._failure: str | None = None

    def _ensure_started(self) -> None:
        if self._proc is not None:
            return
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                encoding="utf-8",
            )
        except OSError as exc:
            raise DetectorError(self.detector_id, f"failed to start: {exc}") from exc
        self._lines = queue.SimpleQueue()
        threading.Thread(
            target=_forward_lines, args=(self._proc.stdout, self._lines), daemon=True
        ).start()

    def _route(self, item) -> str | None:
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
        if type(response_id) is not int or response_id not in self._in_flight:
            return (
                f"no response can be routed: reply id {response_id!r:.100} is "
                "not a request in flight (unknown or already answered)"
            )
        self._in_flight.remove(response_id)
        self._responses[response_id] = payload
        return None

    def __call__(self, tokens: Sequence[str]) -> list[ErrorSpan]:
        return self.check_many([tokens])[0]

    def check_many(self, token_seqs: Sequence[Sequence[str]]) -> list[list[ErrorSpan]]:
        """Spans of each sequence, in order. Up to ``CHECKER_WINDOW``
        requests are in flight at once; each reply's timeout starts when
        the previous reply has been taken."""
        ids: list[int] = []
        out = []
        for k, tokens in enumerate(token_seqs):
            while len(ids) < min(k + CHECKER_WINDOW, len(token_seqs)):
                ids.append(self._send(token_seqs[len(ids)]))
            out.append(self._parse_errors(self._receive(ids[k]), len(tokens)))
        return out

    def _send(self, tokens: Sequence[str]) -> int:
        self._ensure_started()
        request_id = self._next_id
        self._next_id += 1
        self._in_flight.add(request_id)
        request = json.dumps({"id": request_id, "tokens": list(tokens)})
        try:
            self._proc.stdin.write(request + "\n")
            self._proc.stdin.flush()
        except (OSError, ValueError) as exc:
            # A checker that exited while earlier requests were in flight:
            # report why it stopped, as waiting for those replies would.
            with contextlib.suppress(DetectorError):
                self._receive(request_id)  # routes lines until a failure or the timeout
            raise DetectorError(
                self.detector_id, self._failure or f"write failed: {exc}"
            ) from exc
        return request_id

    def _receive(self, request_id: int):
        deadline = time.monotonic() + self.timeout
        while request_id not in self._responses:
            if self._failure is not None:
                raise DetectorError(self.detector_id, self._failure)
            remaining = deadline - time.monotonic()
            try:
                if remaining <= 0:  # a checker that keeps writing lines times out too
                    raise queue.Empty
                item = self._lines.get(timeout=remaining)
            except queue.Empty:
                raise DetectorError(
                    self.detector_id,
                    f"no response for request {request_id} after {self.timeout:g}s",
                ) from None
            self._failure = self._route(item)
        return self._responses.pop(request_id)

    def _parse_errors(self, payload, n_tokens: int) -> list[ErrorSpan]:
        errors = payload.get("errors") if isinstance(payload, dict) else None
        if not isinstance(errors, list):
            raise DetectorError(
                self.detector_id, f"response missing 'errors' list: {payload!r}"
            )
        spans = []
        for item in errors:
            try:
                span = ErrorSpan(item["start"], item["end"], item["category"])
            except (TypeError, KeyError, ValidationError) as exc:
                raise DetectorError(
                    self.detector_id, f"bad error entry {item!r}: {exc}"
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
        proc, self._proc = self._proc, None
        if proc is None:
            return
        with contextlib.suppress(OSError):
            proc.stdin.close()
        try:
            proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def __enter__(self) -> "ExternalChecker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _forward_lines(stream, lines: queue.SimpleQueue) -> None:
    """Reader thread of an :class:`ExternalChecker`: put each line of
    ``stream`` on ``lines``, then a 1-tuple holding why the lines ended."""
    try:
        for line in stream:
            lines.put(line)
        end = "checker process closed its output"
    except UnicodeDecodeError as exc:
        end = f"response line is not UTF-8: {exc}"
    lines.put((end,))

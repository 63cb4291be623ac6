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

import json
import string
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Protocol, Sequence, runtime_checkable

from .analysis import mean_score
from .corpus import Sentence
from .errors import DetectorError, ValidationError

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
    "error_count_score",
    "error_count_pool",
    "error_count_corpus",
    "ExternalChecker",
]

_VOWELS = frozenset("aeiou")
_CLAUSE_PUNCT = frozenset({",", ".", ";", ":", "!", "?"})


@dataclass(frozen=True)
class ErrorSpan:
    """Half-open token span [start, end) tagged with an error category."""

    start: int
    end: int
    category: str

    def __post_init__(self):
        if not isinstance(self.start, int) or not isinstance(self.end, int):
            raise ValidationError(f"span bounds must be ints, got {self!r}")
        if self.start < 0 or self.end < self.start:
            raise ValidationError(f"bad span ({self.start}, {self.end})")
        if not self.category or not isinstance(self.category, str):
            raise ValidationError(f"bad category {self.category!r}")


@runtime_checkable
class Detector(Protocol):
    detector_id: str

    def __call__(self, tokens: Sequence[str]) -> list[ErrorSpan]: ...


class Wordlist:
    """Case-tolerant vocabulary for spell checking.

    A token is *known* if, after stripping punctuation from both ends, the
    core appears in the list verbatim, lowercased, or with only its first
    letter lowercased (so sentence-initial capitalization never counts as
    a misspelling). Cores without any letters are always known.
    """

    def __init__(self, words: Iterable[str]):
        self._words = frozenset(words)
        if not self._words:
            raise ValidationError("empty wordlist")

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, word: str) -> bool:
        return word in self._words

    @staticmethod
    def core(token: str) -> str:
        return token.strip(string.punctuation)

    def knows(self, token: str) -> bool:
        core = self.core(token)
        if not core or not any(ch.isalpha() for ch in core):
            return True
        return (
            core in self._words
            or core.lower() in self._words
            or core[0].lower() + core[1:] in self._words
        )

    @classmethod
    def from_file(cls, path) -> "Wordlist":
        with open(path, encoding="utf-8") as handle:
            return cls(word for word in (line.strip() for line in handle) if word)


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
        merged: dict[tuple[int, int, str], ErrorSpan] = {}
        for detector in self.detectors:
            for span in detector(tokens):
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
    errors = len(suite.run(sentence.tokens))
    tokens = len(sentence)
    score = max(0.0, 1.0 - errors / tokens) if tokens else 1.0
    return ErrorCountStats(score, errors, tokens)


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
    stats = [error_count_stats(s, suite) for s in sentences]
    if mode == "sentence":
        return mean_score([s.score for s in stats])
    return error_count_pool(stats)


class ExternalChecker:
    """Error detector backed by a child process.

    The protocol is line-delimited JSON on stdin/stdout: each request is
    ``{"id": <int>, "tokens": [...]}`` and each response is
    ``{"id": <int>, "errors": [{"start": ..., "end": ..., "category": ...}]}``.
    Responses may arrive out of order; a reader thread routes them by id.
    Any malformed response, early exit, or timeout raises
    :class:`DetectorError` naming this detector — never a silent empty
    result.
    """

    def __init__(
        self,
        command: Sequence[str],
        detector_id: str = "external",
        timeout: float = 10.0,
    ):
        if not command:
            raise ValidationError("empty checker command")
        if timeout <= 0:
            raise ValidationError(f"timeout must be positive, got {timeout}")
        self.command = tuple(command)
        self.detector_id = detector_id
        self.timeout = timeout
        self._proc: subprocess.Popen | None = None
        self._reader: threading.Thread | None = None
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._responses: dict[int, object] = {}
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
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()

    def _read_loop(self) -> None:
        proc = self._proc
        assert proc is not None and proc.stdout is not None
        failure = None
        for line in proc.stdout:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                response_id = payload["id"]
            except (ValueError, TypeError, KeyError):
                failure = f"malformed response line: {line[:200]!r}"
                break
            with self._ready:
                self._responses[response_id] = payload
                self._ready.notify_all()
        with self._ready:
            if failure is not None:
                self._failure = failure
            elif self._failure is None:
                self._failure = "checker process closed its output"
            self._ready.notify_all()

    def __call__(self, tokens: Sequence[str]) -> list[ErrorSpan]:
        self._ensure_started()
        proc = self._proc
        assert proc is not None and proc.stdin is not None
        with self._lock:
            request_id = self._next_id
            self._next_id += 1
        request = json.dumps({"id": request_id, "tokens": list(tokens)})
        try:
            proc.stdin.write(request + "\n")
            proc.stdin.flush()
        except (OSError, ValueError) as exc:
            raise DetectorError(self.detector_id, f"write failed: {exc}") from exc
        deadline = time.monotonic() + self.timeout
        with self._ready:
            while request_id not in self._responses:
                if self._failure is not None:
                    raise DetectorError(self.detector_id, self._failure)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DetectorError(
                        self.detector_id,
                        f"no response for request {request_id} "
                        f"after {self.timeout:g}s",
                    )
                self._ready.wait(remaining)
            payload = self._responses.pop(request_id)
        return self._parse_errors(payload, len(tokens))

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
        if proc.stdin is not None:
            try:
                proc.stdin.close()
            except OSError:
                pass
        try:
            proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if self._reader is not None:
            self._reader.join(timeout=2.0)
            self._reader = None

    def __enter__(self) -> "ExternalChecker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

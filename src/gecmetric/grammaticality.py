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
    "error_count_stats_many",
    "error_count_score",
    "error_count_pool",
    "error_count_corpus",
    "ExternalChecker",
]

# Requests an external checker has in flight at once (see check_many).
CHECKER_WINDOW = 32

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
        with open(path, encoding="utf-8-sig") as handle:
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
    arrive out of order; a reader thread routes them by id.
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
        with self._lock:  # threads sending at once must share one process
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
                raise DetectorError(
                    self.detector_id, f"failed to start: {exc}"
                ) from exc
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
            # A checker that exited while earlier requests were in flight:
            # report why it stopped, as waiting for those replies would.
            if self._reader is not None:
                self._reader.join(self.timeout)
            raise DetectorError(
                self.detector_id, self._failure or f"write failed: {exc}"
            ) from exc
        return request_id

    def _receive(self, request_id: int):
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

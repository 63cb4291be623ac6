"""Core data model: sentences and annotated sources.

Tokens are plain strings validated at container boundaries: a token is
non-empty and contains no whitespace. Token comparison is case-sensitive
everywhere; no normalization is applied. A gold edit is the key
``(start, end, replacement)``: its span is 0-based and end-exclusive
(``start == end`` marks an insertion point). All types are immutable
after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .errors import ValidationError

__all__ = [
    "Sentence",
    "AnnotatedSource",
    "tokenize",
]


def _check_token(surface: object) -> str:
    if not isinstance(surface, str):
        raise ValidationError(f"token must be a string, got {type(surface).__name__}")
    if not surface:
        raise ValidationError("token must be non-empty")
    if surface.split() != [surface]:
        raise ValidationError(f"token {surface!r} contains whitespace")
    return surface


@dataclass(frozen=True)
class Sentence:
    """An ordered sequence of tokens. May be empty."""

    tokens: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        for tok in self.tokens:
            _check_token(tok)

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[str]:
        return iter(self.tokens)

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


def tokenize(raw: str) -> Sentence:
    """Split ``raw`` on runs of Unicode whitespace.

    No case or punctuation normalization is performed; inputs are assumed
    to be pre-tokenized text where whitespace is the only separator.
    """
    # str.split() yields no empty token and none holding whitespace, so
    # the tokens skip the check Sentence() runs
    sentence = object.__new__(Sentence)
    object.__setattr__(sentence, "tokens", tuple(raw.split()))
    return sentence


class AnnotatedSource(NamedTuple):
    """A source sentence and its gold edits, as the annotation parser reads
    them: ``gold`` holds an ``(annotator, frozenset of edit keys)`` pair per
    annotator, by id, and ``identity`` counts the edits left out of it
    because their replacement equals the source span."""

    source: Sentence
    gold: tuple[tuple[int, frozenset[tuple[int, int, tuple[str, ...]]]], ...]
    identity: int = 0

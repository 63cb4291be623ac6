"""Core data model: sentences, edits and annotations.

Tokens are plain strings validated at container boundaries: a token is
non-empty and contains no whitespace. Token comparison is case-sensitive
everywhere; no normalization is applied. Edit spans are 0-based and
end-exclusive (``start == end`` marks an insertion point). All types are
immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import ValidationError

__all__ = [
    "Sentence",
    "Edit",
    "AnnotationSet",
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


@dataclass(frozen=True)
class Edit:
    """A span replacement on a source sentence.

    ``start``/``end`` index source tokens (0-based, end-exclusive);
    ``start == end`` inserts ``replacement`` before position ``start``.
    An edit holds only what scoring reads; the annotator that made it is
    the one of the :class:`AnnotationSet` holding it.
    """

    start: int
    end: int
    replacement: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "replacement", tuple(self.replacement))
        if not isinstance(self.start, int) or not isinstance(self.end, int):
            raise ValidationError("edit span indices must be integers")
        if self.start < 0:
            raise ValidationError(f"edit start {self.start} is negative")
        if self.end < self.start:
            raise ValidationError(
                f"edit span ({self.start}, {self.end}) has end before start"
            )
        for tok in self.replacement:
            _check_token(tok)

    @property
    def key(self) -> tuple[int, int, tuple[str, ...]]:
        """Identity used for edit matching: (start, end, replacement)."""
        return (self.start, self.end, self.replacement)

    def __str__(self) -> str:
        repl = " ".join(self.replacement)
        return f"({self.start},{self.end})->{repl!r}"


def _check_edit_sequence(edits: Sequence[Edit]) -> None:
    """Raise unless edits are sorted, non-overlapping, and insertion-distinct."""
    prev: Edit | None = None
    for edit in edits:
        if prev is not None:
            if (edit.start, edit.end) < (prev.start, prev.end):
                raise ValidationError(
                    f"edits out of order: {prev} precedes {edit}"
                )
            if edit.start < prev.end:
                raise ValidationError(f"edit {edit} overlaps {prev}")
            if (
                prev.start == prev.end == edit.start == edit.end
            ):
                raise ValidationError(
                    f"two insertions at the same point: {prev} and {edit}"
                )
        prev = edit


@dataclass(frozen=True)
class AnnotationSet:
    """All edits of one annotator for one source sentence."""

    annotator: int
    edits: tuple[Edit, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "edits", tuple(self.edits))
        if self.annotator < 0:
            raise ValidationError(f"annotator id {self.annotator} is negative")
        _check_edit_sequence(self.edits)


@dataclass(frozen=True)
class AnnotatedSource:
    """A source sentence together with one or more annotation sets."""

    source: Sentence
    annotations: tuple[AnnotationSet, ...]

    def __post_init__(self):
        object.__setattr__(self, "annotations", tuple(self.annotations))
        if not self.annotations:
            raise ValidationError("annotated source needs at least one annotation set")
        seen: set[int] = set()
        for aset in self.annotations:
            if aset.annotator in seen:
                raise ValidationError(f"duplicate annotator id {aset.annotator}")
            seen.add(aset.annotator)
            for edit in aset.edits:
                if edit.end > len(self.source):
                    raise ValidationError(
                        f"edit {edit} exceeds source length {len(self.source)}"
                    )

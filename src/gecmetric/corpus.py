"""Core data model: sentences, edits, annotations, references, outputs.

Tokens are plain strings validated at container boundaries: a token is
non-empty and contains no whitespace. Token comparison is case-sensitive
everywhere; no normalization is applied. Edit spans are 0-based and
end-exclusive (``start == end`` marks an insertion point). All types are
immutable after construction and safe to share across worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError

__all__ = [
    "Sentence",
    "Edit",
    "AnnotationSet",
    "AnnotatedSource",
    "ReferenceSet",
    "Corpus",
    "SystemOutput",
    "ValidationReport",
    "tokenize",
    "detokenize",
    "apply_edits",
    "validate_alignment",
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
    return Sentence(tuple(raw.split()))


def detokenize(sentence: Sentence) -> str:
    """Inverse of :func:`tokenize` up to whitespace normalization."""
    return sentence.text


@dataclass(frozen=True)
class Edit:
    """A span replacement on a source sentence.

    ``start``/``end`` index source tokens (0-based, end-exclusive);
    ``start == end`` inserts ``replacement`` before position ``start``.
    ``required_flag`` and ``comment`` are carried through from annotation
    files for round-tripping and are ignored by all scoring.
    """

    start: int
    end: int
    replacement: tuple[str, ...] = ()
    category: str = "UNK"
    annotator: int = 0
    required_flag: str = "REQUIRED"
    comment: str = "-NONE-"

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
        if self.annotator < 0:
            raise ValidationError(f"annotator id {self.annotator} is negative")

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
        for edit in self.edits:
            if edit.annotator != self.annotator:
                raise ValidationError(
                    f"edit {edit} carries annotator {edit.annotator}, "
                    f"expected {self.annotator}"
                )
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


@dataclass(frozen=True)
class ReferenceSet:
    """Per-sentence reference lists; every sentence has the same count.

    ``per_sentence[i]`` holds the references for corpus sentence ``i``.
    Missing references are disallowed: all inner tuples share one length.
    """

    per_sentence: tuple[tuple[Sentence, ...], ...] = ()

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.per_sentence)
        object.__setattr__(self, "per_sentence", rows)
        if rows:
            width = len(rows[0])
            if width < 1:
                raise ValidationError("each sentence needs at least one reference")
            for i, row in enumerate(rows):
                if len(row) != width:
                    raise ValidationError(
                        f"sentence {i} has {len(row)} references, expected {width}"
                    )
                for ref in row:
                    if not isinstance(ref, Sentence):
                        raise ValidationError("references must be Sentence values")

    @property
    def n_refs(self) -> int:
        return len(self.per_sentence[0]) if self.per_sentence else 0

    def __len__(self) -> int:
        return len(self.per_sentence)

    def for_sentence(self, index: int) -> tuple[Sentence, ...]:
        return self.per_sentence[index]


@dataclass(frozen=True)
class Corpus:
    """An ordered collection of annotated source sentences."""

    units: tuple[AnnotatedSource, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "units", tuple(self.units))
        for unit in self.units:
            if not isinstance(unit, AnnotatedSource):
                raise ValidationError("corpus units must be AnnotatedSource values")

    def __len__(self) -> int:
        return len(self.units)

    def __iter__(self) -> Iterator[AnnotatedSource]:
        return iter(self.units)

    @property
    def sources(self) -> tuple[Sentence, ...]:
        return tuple(unit.source for unit in self.units)


@dataclass(frozen=True)
class SystemOutput:
    """One system's hypotheses, aligned 1:1 with a corpus."""

    system_id: str
    hypotheses: tuple[Sentence, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "hypotheses", tuple(self.hypotheses))
        if not self.system_id:
            raise ValidationError("system id must be non-empty")
        for hyp in self.hypotheses:
            if not isinstance(hyp, Sentence):
                raise ValidationError("hypotheses must be Sentence values")

    def __len__(self) -> int:
        return len(self.hypotheses)


def apply_edits(source: Sentence, edits: Sequence[Edit]) -> Sentence:
    """Apply ``edits`` to ``source`` and return the corrected sentence.

    Edits must be sorted by span, non-overlapping, and within bounds;
    violations raise :class:`ValidationError` naming the offending edit.
    The result is independent of application order for valid inputs.
    """
    edits = tuple(edits)
    for edit in edits:
        if edit.end > len(source):
            raise ValidationError(
                f"edit {edit} exceeds source length {len(source)}"
            )
    _check_edit_sequence(edits)
    out: list[str] = []
    cursor = 0
    for edit in edits:
        out.extend(source.tokens[cursor : edit.start])
        out.extend(edit.replacement)
        cursor = edit.end
    out.extend(source.tokens[cursor:])
    return Sentence(tuple(out))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a cross-object consistency check."""

    issues: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.issues


def validate_alignment(
    corpus: Corpus,
    output: SystemOutput | None = None,
    refs: ReferenceSet | None = None,
) -> ValidationReport:
    """Check that outputs and references line up with ``corpus``.

    Returns a report listing every size mismatch and edit-bound violation;
    the report is empty exactly when all alignment invariants hold.
    """
    issues: list[str] = []
    n = len(corpus)
    for i, unit in enumerate(corpus.units):
        for aset in unit.annotations:
            for edit in aset.edits:
                if edit.end > len(unit.source):
                    issues.append(
                        f"sentence {i}: edit {edit} exceeds source length "
                        f"{len(unit.source)}"
                    )
    if output is not None and len(output) != n:
        issues.append(
            f"system {output.system_id!r} has {len(output)} hypotheses "
            f"for {n} sources"
        )
    if refs is not None and len(refs) != n:
        issues.append(f"reference set covers {len(refs)} sentences, corpus has {n}")
    return ValidationReport(tuple(issues))

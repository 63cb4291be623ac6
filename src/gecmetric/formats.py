"""On-disk formats: annotated corpora, parallel text, rankings, reports.

The annotation format is line-oriented UTF-8 (a leading BOM is stripped):

    S <token> <token> ...
    A <start> <end>|||<type>|||<correction>|||<required>|||<comment>|||<annotator>

A unit starts at an ``S`` line, collects ``A`` lines, and ends at a blank
line or end of input. Edits are grouped per annotator. The correction
``-NONE-`` with type ``noop`` marks an annotator who made no edits and
yields an empty annotation set; a unit with no ``A`` lines at all gets a
single empty annotation set for annotator 0. Every field must be present,
but scoring reads only the span, the correction and the annotator: the
type serves the noop test, and the type, required flag and comment are
not kept.
"""

from __future__ import annotations

import codecs
import json
import math
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .corpus import AnnotatedSource, AnnotationSet, Edit, Sentence, tokenize
from .errors import ParseError, ValidationError

__all__ = [
    "parse_m2",
    "read_m2_file",
    "read_parallel_text",
    "read_reference_files",
    "parse_human_ranking",
    "read_human_ranking",
    "build_report",
    "render_report",
    "write_report",
]

_NOOP_TYPE = "noop"
_NONE_FIELD = "-NONE-"
_SIG_DIGITS = 6  # significant digits of every real number in a report


def _parse_a_line(line: str, lineno: int) -> tuple[int, int, str, str, int]:
    """The span, type, correction and annotator id of an ``A`` line."""
    body = line[2:]
    parts = body.split("|||")
    if len(parts) != 6:
        raise ParseError(
            f"expected 6 |||-separated fields in annotation, got {len(parts)}", lineno
        )
    span_field, category, correction, _required, _comment, annot_field = parts
    span = span_field.split()
    if len(span) != 2:
        raise ParseError(f"bad span field {span_field!r}", lineno)
    try:
        start, end = int(span[0]), int(span[1])
    except ValueError:
        raise ParseError(f"non-integer span {span_field!r}", lineno) from None
    try:
        annotator = int(annot_field)
    except ValueError:
        raise ParseError(f"non-integer annotator id {annot_field!r}", lineno) from None
    if annotator < 0:
        raise ParseError(f"annotator id {annotator} is negative", lineno)
    return start, end, category, correction, annotator


class _UnitBuilder:
    def __init__(self, tokens: Sequence[str], lineno: int):
        self.tokens = tuple(tokens)
        self.lineno = lineno
        self.edits: dict[int, list[Edit]] = {}
        self.noop: set[int] = set()

    def add(self, line: str, lineno: int) -> None:
        start, end, category, correction, annotator = _parse_a_line(line, lineno)
        if category == _NOOP_TYPE and correction == _NONE_FIELD:
            if annotator in self.edits:
                raise ParseError(
                    f"annotator {annotator} has both noop and edits", lineno
                )
            self.noop.add(annotator)
            return
        if annotator in self.noop:
            raise ParseError(f"annotator {annotator} has both noop and edits", lineno)
        try:
            edit = Edit(start, end, tuple(correction.split()))
        except ValidationError as exc:
            raise ParseError(str(exc), lineno) from exc
        self.edits.setdefault(annotator, []).append(edit)

    def finish(self) -> AnnotatedSource:
        ids = sorted(set(self.edits) | self.noop) or [0]
        sets = []
        try:
            for annotator in ids:
                edits = sorted(
                    self.edits.get(annotator, ()), key=lambda e: (e.start, e.end)
                )
                sets.append(AnnotationSet(annotator, tuple(edits)))
            return AnnotatedSource(Sentence(self.tokens), tuple(sets))
        except ValidationError as exc:
            raise ParseError(f"in unit starting here: {exc}", self.lineno) from exc


def split_lines(text: str) -> list[str]:
    """Lines of ``text`` split on ``\\n`` only, each without a trailing ``\\r``.

    ``str.splitlines`` also breaks on U+0085, U+2028 and other characters
    that can occur inside a sentence; here one line is one record.
    """
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the text is empty or ends with a newline
    return [line[:-1] if line.endswith("\r") else line for line in lines]


def _read_text(path: str | Path) -> str:
    """The text of a UTF-8 file without its BOM, line ends untouched.

    Every input file is read here; invalid UTF-8 is a :class:`ParseError`
    naming the file and the byte offset.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        return data[start:].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: invalid UTF-8 at byte {start + exc.start}") from None


def parse_m2(text: str) -> list[AnnotatedSource]:
    """Parse annotated-corpus text into a list of annotated sources."""
    units: list[AnnotatedSource] = []
    current: _UnitBuilder | None = None
    for lineno, raw in enumerate(split_lines(text), 1):
        line = raw.lstrip("﻿") if lineno == 1 else raw
        if not line.strip():
            if current is not None:
                units.append(current.finish())
                current = None
            continue
        if line == "S" or line.startswith("S "):
            if current is not None:
                units.append(current.finish())
            current = _UnitBuilder(line[2:].split(), lineno)
        elif line.startswith("A "):
            if current is None:
                raise ParseError("annotation line before any source line", lineno)
            current.add(line, lineno)
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)
    if current is not None:
        units.append(current.finish())
    return units


def read_m2_file(path: str | Path) -> list[AnnotatedSource]:
    return parse_m2(_read_text(path))


def read_parallel_text(path: str | Path) -> list[Sentence]:
    """Read one sentence per line; blank lines become empty sentences."""
    return [tokenize(line) for line in split_lines(_read_text(path))]


def read_reference_files(paths: Sequence[str | Path]) -> tuple[tuple[Sentence, ...], ...]:
    """Read parallel reference files into per-sentence rows.

    Row ``i`` holds sentence ``i`` of each file, in file order; all files
    must have the same number of lines.
    """
    if not paths:
        raise ValidationError("at least one reference file is required")
    columns = [read_parallel_text(p) for p in paths]
    length = len(columns[0])
    for path, col in zip(paths, columns):
        if len(col) != length:
            raise ValidationError(
                f"reference file {path} has {len(col)} sentences, expected {length}"
            )
    return tuple(zip(*columns))


def parse_human_ranking(text: str) -> dict[str, float]:
    """Parse tab-separated ``system<TAB>score`` lines into a dict from
    system id to score, in file order; higher means better."""
    scores: dict[str, float] = {}
    for lineno, raw in enumerate(split_lines(text), 1):
        line = raw.rstrip()  # a leading tab leaves the id column empty
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(
                f"expected two tab-separated columns, got {len(parts)}", lineno
            )
        system_id, score_field = parts[0].strip(), parts[1].strip()
        if not system_id:
            raise ParseError("empty system id", lineno)
        if system_id in scores:
            raise ParseError(f"duplicate system id {system_id!r}", lineno)
        try:
            score = float(score_field)
        except ValueError:
            raise ParseError(f"non-numeric score {score_field!r}", lineno) from None
        if not math.isfinite(score):
            raise ParseError(f"non-finite score {score_field!r}", lineno)
        scores[system_id] = score
    return scores


def read_human_ranking(path: str | Path) -> dict[str, float]:
    return parse_human_ranking(_read_text(path))


def _round_floats(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v) for v in value]
    if type(value) is float:
        return float(f"{value:.{_SIG_DIGITS}g}")
    return value


def build_report(
    systems: Iterable[Mapping[str, Any]] = (),
    correlations: Iterable[Mapping[str, Any]] = (),
    sweep: Mapping[str, Any] | None = None,
    *,
    rankings: Iterable[Mapping[str, Any]] | None = None,
    ablation: Iterable[Mapping[str, Any]] | None = None,
    detections: Iterable[Mapping[str, Any]] | None = None,
) -> dict[str, Any]:
    """Assemble the report document with a fixed key order.

    Keys appear in the order ``format_version``, ``systems``,
    ``correlations``, ``sweep``; optional sections follow in the order
    ``rankings``, ``ablation``, ``detections`` and are omitted when absent.
    Real numbers are rounded to six significant digits.
    """
    doc: dict[str, Any] = {
        "format_version": 1,
        "systems": [dict(entry) for entry in systems],
        "correlations": [dict(entry) for entry in correlations],
        "sweep": dict(sweep) if sweep is not None else None,
    }
    if rankings is not None:
        doc["rankings"] = [dict(entry) for entry in rankings]
    if ablation is not None:
        doc["ablation"] = [dict(entry) for entry in ablation]
    if detections is not None:
        doc["detections"] = [dict(entry) for entry in detections]
    return _round_floats(doc)


def render_report(doc: Mapping[str, Any]) -> str:
    """The report as JSON text; a non-finite number is a
    :class:`ValidationError`, as JSON has no NaN or infinity."""
    try:
        return json.dumps(doc, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValidationError(f"report holds a non-finite number: {exc}") from None


def write_report(path: str | Path, doc: Mapping[str, Any]) -> None:
    """Write a report document as UTF-8 JSON with a fixed layout.

    Identical documents always produce byte-identical files, and a
    document that cannot be rendered leaves no file.
    """
    text = render_report(doc)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)

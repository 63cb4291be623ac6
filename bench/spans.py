"""In-memory span tracing from outside the program.

The traced run wraps the public functions of each gecmetric layer, found
by object identity in every ``gecmetric.*`` namespace, so a call made
through any imported name is recorded. A target that no longer exists
(renamed or moved by a refactor) is skipped and reported as missing;
only that layer loses its numbers.

Spans are kept in memory as ``[name, start, end, parent]`` lists and
written out once, after the run. A span's self time is its duration
minus the part of its interval covered by its child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Sequence


def _sentences_key(args, kwargs):
    source, hypothesis, refs = args[:3]
    return (source, hypothesis, tuple(refs))


def _m2_key(args, kwargs):
    # One annotation tuple per gold unit lives for the whole invocation,
    # so its identity stands for its (costly to hash) contents.
    source, hypothesis, annotations = args[:3]
    return (source, hypothesis, id(annotations))


def _tokens_key(args, kwargs):
    return tuple(args[1])  # args[0] is the suite


# (module, attribute path, span name, key of the distinct-argument count).
# Span names follow <module>.<function>; methods keep their class name.
# Wordlist.from_file, load_lfm_model and write_report are not reported as
# layer metrics; they are traced so that named spans cover all of ``main``.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("formats", "read_parallel_text", "formats.read_parallel_text", None),
    ("formats", "read_reference_files", "formats.read_reference_files", None),
    ("formats", "read_m2_file", "formats.read_m2_file", None),
    ("formats", "read_human_ranking", "formats.read_human_ranking", None),
    ("formats", "build_report", "formats.build_report", None),
    ("formats", "render_report", "formats.render_report", None),
    ("corpus", "tokenize", "corpus.tokenize", None),
    ("gleu", "gleu_multi_ref", "gleu.gleu_multi_ref", _sentences_key),
    ("gleu", "gleu_corpus", "gleu.gleu_corpus", None),
    ("maxmatch", "m2_sentence", "maxmatch.m2_sentence", _m2_key),
    ("maxmatch", "m2_corpus", "maxmatch.m2_corpus", None),
    ("imeasure", "i_measure_sentence", "imeasure.i_measure_sentence", _sentences_key),
    ("imeasure", "i_measure_corpus", "imeasure.i_measure_corpus", None),
    ("grammaticality", "error_count_score", "grammaticality.error_count_score", None),
    ("grammaticality", "error_count_corpus", "grammaticality.error_count_corpus", None),
    ("grammaticality", "DetectorSuite.run", "grammaticality.DetectorSuite.run", _tokens_key),
    ("grammaticality", "ExternalChecker.__call__", "grammaticality.ExternalChecker.call", None),
    ("grammaticality", "Wordlist.from_file", "grammaticality.Wordlist.from_file", None),
    ("lfm", "train_lm", "lfm.train_lm", None),
    ("lfm", "featurize", "lfm.featurize", None),
    ("lfm", "lfm_score", "lfm.lfm_score", None),
    ("lfm", "load_lfm_model", "lfm.load_lfm_model", None),
    ("analysis", "sweep_lambda", "analysis.sweep_lambda", None),
    ("analysis", "ablate_references", "analysis.ablate_references", None),
    ("analysis", "gaming_check", "analysis.gaming_check", None),
    ("formats", "write_report", "formats.write_report", None),
)


class Tracer:
    """Records nested spans and distinct-argument keys in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.keys: dict[str, set] = defaultdict(set)
        self.missing: list[str] = []  # targets not found by install()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, key: Callable | None = None) -> Callable:
        keys = self.keys[name] if key is not None else None

        def traced(*args, **kwargs):
            if keys is not None:
                keys.add(key(args, kwargs))
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                row = {"id": index, "parent": parent, "name": name,
                       "start": start, "end": end}
                handle.write(json.dumps(row) + "\n")


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Self time of every span: duration minus the union of its
    children's intervals, clipped to the span's own interval."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def install(tracer: Tracer, package: str = "gecmetric"):
    """Wrap every target found; returns (undo list, missing span names)."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    undo: list[tuple[object, str, object]] = []
    missing: list[str] = []
    for module_name, path, span_name, key in TARGETS:
        module = sys.modules.get(f"{package}.{module_name}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = owner.__dict__.get(attr) if owner is not None else None
        if original is None:
            missing.append(span_name)
            continue
        if isinstance(original, classmethod):
            func = original.__func__
            wrapped = classmethod(tracer.wrap(span_name, func, key))
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            continue
        wrapped = tracer.wrap(span_name, original, key)
        if owner_name:  # a method: patch the class
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, name, original))
                    setattr(mod, name, wrapped)
    return undo, missing


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)

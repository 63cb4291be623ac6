"""Seeded, paper-shaped evaluation inputs for the benchmark.

Both corpora have the shape of the paper's evaluation setting: 1312
source sentences (lognormal lengths, mean about 23 tokens, long right
tail, the same length multiset for every seed), two references, gold edits for two annotators derived from the
references by a token diff, twelve systems of graded quality and a
system-level human ranking that follows that quality with noise.

Every sentence is a list of *slots*. A slot holds the source tokens and
the clean tokens for one position: equal for an error-free token, and
different where an error was injected. The first reference is the clean
text; the second fixes most errors the same way, some another way, and
leaves a few. A system fixes error slot ``j`` when a per-slot draw
``u[j]`` shared by every system falls below the system's fix rate, so
better systems' outputs contain worse systems' fixes and many outputs
are shared across systems (the ``shared`` corpus). The ``distinct``
corpus adds one system-specific edit to every hypothesis so that no
hypothesis equals its source or another system's hypothesis.

Nothing here imports gecmetric: the inputs are plain files, and the
program under test only ever sees those.
"""

from __future__ import annotations

import difflib
import math
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

N_SENTENCES = 1312
N_SYSTEMS = 12
N_REFS = 2
LM_LINES = 20000
# Share of gold edits that are identity edits (replacement equals the
# source span), as real annotation files contain a few.
IDENTITY_EDIT_SHARE = 0.02
SYSTEM_IDS = tuple(f"sys{k:02d}" for k in range(1, N_SYSTEMS + 1))
CORPORA = ("shared", "distinct")

_FUNCTION_WORDS = (
    "the", "of", "to", "and", "in", "is", "that", "for", "it", "was",
    "with", "on", "as", "be", "at", "by", "this", "from", "or", "have",
)
_ONSETS = ("b", "c", "d", "f", "g", "h", "l", "m", "n", "p", "r", "s",
           "t", "v", "w", "br", "cr", "st", "tr", "pl", "sh", "ch")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ea", "ou")
_CODAS = ("", "", "n", "r", "s", "t", "l", "nd", "st", "ck")
_VOWELS = "aeiou"
# Lognormal sentence lengths: median 20.5 tokens, mean about 23.
_LOG_MEDIAN_LENGTH = math.log(20.5)
_LENGTH_SIGMA = 0.5


@dataclass
class Corpus:
    source: list[list[str]]
    refs: list[list[list[str]]]          # refs[r][i]
    gold: list[list[list[tuple]]]        # gold[i][annotator] = [(start, end, repl, type)]
    systems: dict[str, list[list[str]]]
    human: dict[str, float]
    words: list[str]

    @property
    def m2(self) -> str:
        return _m2_text(self.source, self.gold)

    def identity_share(self) -> float:
        """Share of gold edits whose replacement equals the source span."""
        edits = identity = 0
        for src, annotators in zip(self.source, self.gold):
            for s, e, repl, _ in (edit for ann in annotators for edit in ann):
                edits += 1
                identity += tuple(src[s:e]) == repl
        return identity / edits


def _make_vocabulary(rng: random.Random, size: int) -> list[str]:
    words: list[str] = list(_FUNCTION_WORDS)
    seen = set(words) | {"a", "an"}
    while len(words) < size:
        n_syl = rng.choice((1, 1, 2, 2, 2, 3))
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
            for _ in range(n_syl)
        )
        if rng.random() < 0.15:
            word = rng.choice(_NUCLEI) + word  # some vowel-initial words
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class _Sampler:
    """Zipf-distributed words, with articles fixed up to agree."""

    def __init__(self, vocab: list[str], rng: random.Random):
        self.vocab = vocab
        self.rng = rng
        weights = [1.0 / (rank + 2.7) for rank in range(len(vocab))]
        total = 0.0
        self.cum = []
        for w in weights:
            total += w
            self.cum.append(total)

    def sentence(self, n: int | None = None) -> list[str]:
        rng = self.rng
        if n is None:
            n = _clip_length(math.exp(rng.gauss(_LOG_MEDIAN_LENGTH, _LENGTH_SIGMA)))
        body = rng.choices(self.vocab, cum_weights=self.cum, k=n - 1)
        for i in range(len(body) - 1):
            if rng.random() < 0.06:
                body[i] = "a"
            elif rng.random() < 0.04 and i > 0:
                body[i] = ","
        _fix_articles(body)
        for i in range(1, len(body)):  # no doubled tokens in clean text
            if body[i] == body[i - 1]:
                body[i] = "the" if body[i] != "the" else "of"
        _fix_articles(body)
        body[0] = body[0][0].upper() + body[0][1:]
        return body + ["."]


def _clip_length(value: float) -> int:
    return max(3, min(110, round(value)))


def _stratified_lengths(rng: random.Random, n: int) -> list[int]:
    """The lognormal's n quantiles in seeded order. Every seed gets the same
    length multiset, so the work per corpus, which grows with the square of
    sentence length in the alignment-based metrics, does not vary by seed."""
    normal = statistics.NormalDist(_LOG_MEDIAN_LENGTH, _LENGTH_SIGMA)
    lengths = [_clip_length(math.exp(normal.inv_cdf((k + 0.5) / n))) for k in range(n)]
    rng.shuffle(lengths)
    return lengths


def _fix_articles(tokens: list[str]) -> None:
    for i in range(len(tokens) - 1):
        if tokens[i] in ("a", "an"):
            head = tokens[i + 1]
            tokens[i] = "an" if head[:1] in _VOWELS else "a"


def _misspell(word: str, rng: random.Random, known: set[str]) -> str:
    for _ in range(20):
        kind = rng.randrange(3)
        i = rng.randrange(len(word))
        if kind == 0 and len(word) > 2:
            candidate = word[:i] + word[i + 1:]
        elif kind == 1:
            candidate = word[:i] + word[i] + word[i:]
        else:
            j = min(i + 1, len(word) - 1)
            chars = list(word)
            chars[i], chars[j] = chars[j], chars[i]
            candidate = "".join(chars)
        if candidate and candidate.lower() not in known:
            return candidate
    return word + "q"


@dataclass
class _Slot:
    src: tuple[str, ...]
    clean: tuple[str, ...]
    alt: tuple[str, ...]          # the second annotator's other fix
    noise: tuple[str, ...]        # what a system that breaks this slot writes

    @property
    def is_error(self) -> bool:
        return self.src != self.clean


def _slots(clean: list[str], sampler: _Sampler, known: set[str],
           rng: random.Random) -> list[_Slot]:
    """Inject errors into a clean sentence, one slot per clean token."""
    slots: list[_Slot] = []
    last = len(clean) - 1
    for pos, tok in enumerate(clean):
        other = (rng.choices(sampler.vocab, cum_weights=sampler.cum)[0],)
        word = tok.lower() == tok and tok.isalpha()
        src: tuple[str, ...] = (tok,)
        if pos == last:
            if rng.random() < 0.05:
                src = ()  # missing final stop
        elif pos == 0:
            if rng.random() < 0.04:
                src = (tok.lower(),)
        elif rng.random() < 0.065:
            kind = rng.randrange(6)
            if kind == 0 and word and len(tok) > 2:
                src = (_misspell(tok, rng, known),)
            elif kind == 1 and tok in ("a", "an"):
                src = ("an" if tok == "a" else "a",)
            elif kind == 1 or kind == 2:
                src = other if other[0] != tok else (tok, tok)
            elif kind == 3:
                src = (tok, tok)
            elif kind == 4:
                src = ()
            else:
                src = (tok, ",") if tok != "," else ()
        if src == (tok,) and pos not in (0, last) and word:
            noise = (_misspell(tok, rng, known),) if rng.random() < 0.5 else ()
        else:
            noise = src
        alt = (tok,)
        if src != alt:
            for _ in range(10):  # a second fix that differs from both sides
                candidate = (rng.choices(sampler.vocab, cum_weights=sampler.cum)[0],)
                if candidate not in (src, (tok,)):
                    alt = candidate
                    break
        slots.append(_Slot(src, (tok,), alt, noise))
    return slots


def _gold_edits(src: list[str], ref: list[str], rng: random.Random) -> list[tuple]:
    """One annotator's gold edits: the token diff from source to
    reference, plus identity edits at the stated share."""
    matcher = difflib.SequenceMatcher(None, src, ref, autojunk=False)
    edits = []
    covered: set[int] = set()
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            continue
        category = {"replace": "R:OTHER", "delete": "U:OTHER", "insert": "M:OTHER"}[tag]
        edits.append((i1, i2, tuple(ref[j1:j2]), category))
        covered.update(range(i1, i2))
    free = [k for k in range(len(src)) if k not in covered]
    if edits and free and rng.random() < IDENTITY_EDIT_SHARE * len(edits):
        k = rng.choice(free)
        edits.append((k, k + 1, (src[k],), "R:OTHER"))
    edits.sort(key=lambda e: (e[0], e[1]))
    return edits


def _m2_text(source: list[list[str]], gold: list[list[list[tuple]]]) -> str:
    blocks = []
    for src, annotators in zip(source, gold):
        lines = ["S " + " ".join(src)]
        for annotator, edits in enumerate(annotators):
            if not edits:
                lines.append(f"A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||{annotator}")
            lines.extend(
                f"A {s} {e}|||{cat}|||{' '.join(repl)}|||REQUIRED|||-NONE-|||{annotator}"
                for s, e, repl, cat in edits
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _join(parts) -> list[str]:
    return [tok for part in parts for tok in part]


def build(seed: int, corpus: str = "shared") -> Corpus:
    """Generate one corpus; the same seed and name give the same corpus."""
    if corpus not in CORPORA:
        raise ValueError(f"unknown corpus {corpus!r}; choose from {CORPORA}")
    rng = random.Random(f"{seed}:bench:{corpus}")
    vocab = _make_vocabulary(rng, 5000)
    known = set(vocab) | {"a", "an"}
    sampler = _Sampler(vocab, rng)
    sentences = [
        _slots(sampler.sentence(n), sampler, known, rng)
        for n in _stratified_lengths(rng, N_SENTENCES)
    ]

    source = [_join(s.src for s in slots) for slots in sentences]
    ref0 = [_join(s.clean for s in slots) for slots in sentences]
    ref1 = []
    for slots in sentences:
        parts = []
        for s in slots:
            roll = rng.random()
            if s.is_error and roll < 0.10:
                parts.append(s.src)
            elif s.is_error and roll < 0.25:
                parts.append(s.alt)
            else:
                parts.append(s.clean)
        ref1.append(_join(parts))

    # Per-slot draws shared by every system make outputs nested and shared.
    fix_draw = [[rng.random() for _ in slots] for slots in sentences]
    break_draw = [[rng.random() for _ in slots] for slots in sentences]
    systems: dict[str, list[list[str]]] = {}
    for k, sid in enumerate(SYSTEM_IDS):
        fix_rate = 0.62 - 0.045 * k
        break_rate = 0.0015 + 0.0015 * k
        outputs = []
        for i, slots in enumerate(sentences):
            parts = []
            for j, s in enumerate(slots):
                if s.is_error and fix_draw[i][j] < fix_rate:
                    parts.append(s.clean)
                elif not s.is_error and break_draw[i][j] < break_rate:
                    parts.append(s.noise)
                else:
                    parts.append(s.src)
            outputs.append(_join(parts))
        systems[sid] = outputs
    if corpus == "distinct":
        _make_distinct(systems, source, vocab, rng)

    quality = {sid: float(N_SYSTEMS - k) for k, sid in enumerate(SYSTEM_IDS)}
    human = {sid: round(q + rng.gauss(0.0, 1.2), 4) for sid, q in quality.items()}

    gold = [
        [_gold_edits(src, ref[i], rng) for ref in (ref0, ref1)]
        for i, src in enumerate(source)
    ]
    return Corpus(
        source=source,
        refs=[ref0, ref1],
        gold=gold,
        systems=systems,
        human=human,
        words=sorted(known),
    )


def _make_distinct(systems: dict[str, list[list[str]]], source: list[list[str]],
                   vocab: list[str], rng: random.Random) -> None:
    """Give every hypothesis one system-specific substitution so that no
    two systems agree on a sentence and none leaves its source unchanged."""
    for i, src in enumerate(source):
        taken = {tuple(src)}
        for sid in SYSTEM_IDS:
            hyp = systems[sid][i]
            while tuple(hyp) in taken:
                hyp = list(systems[sid][i])
                pos = rng.randrange(max(1, len(hyp) - 1))
                hyp[pos] = rng.choice(vocab)
                if pos == 0:
                    hyp[0] = hyp[0][0].upper() + hyp[0][1:]
            taken.add(tuple(hyp))
            systems[sid][i] = hyp


def duplication_share(corpus: Corpus, system_ids=SYSTEM_IDS) -> float:
    """Share of (system, sentence) pairs whose hypothesis repeats an
    earlier listed system's hypothesis for that sentence: the work that
    scoring each distinct (sentence, hypothesis) pair once would save."""
    repeats = 0
    for i in range(len(corpus.source)):
        seen = set()
        for sid in system_ids:
            hyp = tuple(corpus.systems[sid][i])
            repeats += hyp in seen
            seen.add(hyp)
    return repeats / (len(corpus.source) * len(system_ids))


def unchanged_share(corpus: Corpus, system_ids=SYSTEM_IDS) -> float:
    """Share of (system, sentence) pairs whose hypothesis is the source."""
    same = sum(
        corpus.systems[sid][i] == src
        for sid in system_ids
        for i, src in enumerate(corpus.source)
    )
    return same / (len(corpus.source) * len(system_ids))


def lm_corpus(seed: int, lines: int = LM_LINES) -> list[list[str]]:
    """Background text for the n-gram LM, from the same word distribution
    as the ``shared`` corpus of this seed."""
    rng = random.Random(f"{seed}:bench:shared")
    vocab = _make_vocabulary(rng, 5000)
    sampler = _Sampler(vocab, random.Random(f"{seed}:bench:lm"))
    return [sampler.sentence() for _ in range(lines)]


def write_lines(path: Path, rows) -> Path:
    path.write_text("".join(" ".join(row) + "\n" for row in rows), encoding="utf-8")
    return path


def materialize(base: Path, corpus: Corpus, system_ids=SYSTEM_IDS) -> dict[str, Path]:
    """Write CLI-ready files under ``base``; returns a name -> path map."""
    base.mkdir(parents=True, exist_ok=True)
    paths = {
        "source": write_lines(base / "source.txt", corpus.source),
        "ref0": write_lines(base / "ref0.txt", corpus.refs[0]),
        "ref1": write_lines(base / "ref1.txt", corpus.refs[1]),
        "m2": base / "gold.m2",
        "wordlist": base / "words.txt",
        "human": base / "human.tsv",
    }
    paths["m2"].write_text(corpus.m2, encoding="utf-8")
    paths["wordlist"].write_text("".join(w + "\n" for w in corpus.words), encoding="utf-8")
    paths["human"].write_text(
        "".join(f"{sid}\t{corpus.human[sid]}\n" for sid in system_ids), encoding="utf-8"
    )
    for sid in system_ids:
        paths[sid] = write_lines(base / f"{sid}.txt", corpus.systems[sid])
    return paths

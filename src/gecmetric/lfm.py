"""Learned fluency scoring: n-gram LM features plus ridge regression.

The language model interpolates maximum-likelihood estimates of orders
1..N with equal weights. Sentences are padded with ``<s>`` on the left
for conditioning only; the boundary symbol is never predicted and does
not count toward the unigram distribution, which is add-one smoothed
over the vocabulary plus an unknown-word type. When a higher-order
context was never observed, that order falls back to the next lower one,
so every order's conditional sums to one over the vocabulary.

The LM keys everything by token numbers: ``NgramLm.numbers`` numbers each
corpus token as it first appears (``<s>`` is 0, ``<unk>`` 1), and the
vocabulary is the numbers with a unigram count. An n-gram's key is its
integer code, its prefix's code times ``len(numbers)`` plus its last
number, from counting in ``train_lm`` to each query. ``train_lm`` reads
its sentences once, from any iterable of token sequences, and a corpus
without tokens is an error. ``train_lm(..., scope=...)`` stores only the
orders-2-and-up counts that the scoped token sequences query; any other
query reads as unseen, so a scoped LM is for those sequences only. The
unigrams, the numbering and ``total_tokens`` always cover the whole
corpus.

Eight surface and LM features feed a ridge regression trained against
human fluency judgments; scores are clipped to [0, 1]. ``featurize_many``
reads the LM for a whole batch at once, as ``train_lm`` reads a scope:
each distinct token string is numbered once, and each order's counts are
read in one column over every token of the batch. ``featurize`` is its
one-sentence case. Models serialize to JSON at full float precision so a
save/load round trip is bit-stable.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain, compress, count, islice, repeat
from operator import add, mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from ._config import check_alpha
from .corpus import Sentence
from .errors import ModelError, ParseError, ValidationError
from .formats import _read_text, split_lines
from .grammaticality import Wordlist

__all__ = [
    "BOS",
    "UNK",
    "NgramLm",
    "train_lm",
    "FEATURE_NAMES",
    "FeatureVector",
    "featurize",
    "featurize_many",
    "LfmModel",
    "train_ridge",
    "predict_raw",
    "lfm_score",
    "save_lfm_model",
    "load_lfm_model",
    "parse_training_tsv",
]

BOS = "<s>"
UNK = "<unk>"

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class NgramLm:
    order: int
    numbers: dict[str, int]
    total_tokens: int
    ngram_counts: dict[int, Counter]
    context_counts: dict[int, Counter]
    # train_lm's scope and its _read, for featurize_many of the same sequences
    _scope: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def _probs(self, known: array, last: array, in_scope: bytes) -> list[float]:
        """The interpolated probability of each token that ``in_scope``
        marks, as :func:`_read` gives them, each order weighing 1 / order:
        one column per order, each order's counts read for all the tokens at
        once. ``train_lm`` with a scope keeps exactly the keys read here."""
        unigrams = self.ngram_counts[1]
        denominator = self.total_tokens + len(unigrams) + 1
        p = [(unigrams.get(t, 0) + 1) / denominator for t in compress(last, in_scope)]
        columns = [p]
        codes = _ngram_codes(known, last, in_scope, len(self.numbers), self.order)
        for k, (contexts, grams) in enumerate(codes, 2):
            ctx_counts = map(self.context_counts[k].get, contexts, repeat(0))
            gram_counts = map(self.ngram_counts[k].get, grams, repeat(0))
            # an unseen context keeps the order below's estimate
            p = [g / c if c else below for g, c, below in zip(gram_counts, ctx_counts, p)]
            columns.append(p)
        weight = 1.0 / self.order
        return [math.fsum(map(mul, repeat(weight), ps)) for ps in zip(*columns)]


def _read(
    sequences: Iterable[Sequence[str]], numbers: Mapping[str, int],
    unigrams: Mapping[int, int], pad: bytes,
) -> tuple[array, array, bytearray, array]:
    """The token sequences as the LM reads them, each after ``pad``: every
    token's number in a context (``known``) and as the predicted token
    (``last``), ``in_scope`` marking the tokens, and each token's unigram
    count (``seen``, 0 out of the vocabulary; no padding). Out of the
    vocabulary both numbers are <unk>'s, except that <s> stays <s> in a
    context. Each distinct token string is looked up once."""
    sequences = list(sequences)
    seen = {t: unigrams.get(numbers.get(t), 0) for t in set(chain.from_iterable(sequences))}
    last_of = {t: numbers[t] if n else 1 for t, n in seen.items()}
    known_of = {t: 0 if t == BOS else number for t, number in last_of.items()}
    known, last, in_scope, counts = array("q"), array("q"), bytearray(), array("q")
    for tokens in sequences:
        known.extend(pad)
        known.extend(map(known_of.__getitem__, tokens))
        last.extend(pad)
        last.extend(map(last_of.__getitem__, tokens))
        in_scope += pad + b"\1" * len(tokens)
        counts.extend(map(seen.__getitem__, tokens))
    return known, last, in_scope, counts


def train_lm(
    sentences: Iterable[Iterable[str]],
    order: int = 3,
    scope: Iterable[Sequence[str]] | None = None,
) -> NgramLm:
    """Count an order-``order`` LM over ``sentences``, for the token
    sequences in ``scope`` only if it is given (see the module docstring).

    ``sentences`` is any iterable of token sequences and is read once.
    Each token is numbered as it first appears, and the padded corpus is
    held as one array of those numbers. Each order's n-grams are counted
    by their integer codes, which are the LM's keys.
    """
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    # <s> (padding or literal) is number 0; <unk> is 1 even if never seen
    numbers = defaultdict(count(2).__next__, {BOS: 0, UNK: 1})
    pad = bytes(order - 1)
    ids, is_token = array("q"), bytearray()
    for tokens in sentences:
        ids.extend(pad)
        is_token += pad
        ids.extend(map(numbers.__getitem__, tokens))
        is_token += b"\1" * (len(ids) - len(is_token))
    numbers = dict(numbers)
    size = len(numbers)
    unigrams = Counter(compress(ids, is_token))
    if not unigrams:  # every probability would be 1
        raise ValidationError("LM corpus has no tokens")
    scoped = repeat((None, None))
    if scope is not None:
        scope = list(scope)
        read = _read(scope, numbers, unigrams, pad)
        scoped = _ngram_codes(*read[:3], size, order)
    ngram_counts, context_counts = {1: unigrams}, {}
    corpus = _ngram_codes(ids, ids, is_token, size, order)
    for k, (contexts, grams), (kept_contexts, kept_grams) in zip(
        range(2, order + 1), corpus, scoped
    ):
        if kept_contexts is not None:  # count only the codes the scope reads
            contexts = filter(set(kept_contexts).__contains__, contexts)
            grams = filter(set(kept_grams).__contains__, grams)
        context_counts[k], ngram_counts[k] = Counter(contexts), Counter(grams)
    lm = NgramLm(order=order, numbers=numbers, total_tokens=sum(unigrams.values()),
                 ngram_counts=ngram_counts, context_counts=context_counts)
    object.__setattr__(lm, "_scope", None if scope is None else (scope, read))
    return lm


def _ngram_codes(known: array, last: array, is_token: bytes, size: int, order: int):
    """For each order k in 2..``order``, two iterators over the tokens that
    ``is_token`` marks in the padded number sequence ``known``: the code of
    each token's context of k - 1 numbers, and the code of that context
    followed by the token's number in ``last``. A code is its prefix's
    code times ``size`` plus the last number. Read both iterators before
    asking for the next order's."""

    def wider(codes, ends):
        # each position's code of the n-gram ending there, one number longer
        longer = map(add, map(mul, codes, repeat(size)), islice(ends, 1, None))
        return chain((0,), longer)

    codes = known
    for k in range(2, order + 1):
        contexts = compress(codes, islice(is_token, 1, None))
        longer = wider(codes, known)
        if k < order:
            # codes of k numbers are below size**k; past 2**63 they stay
            # Python ints
            longer = array("q", longer) if size**k <= 2**63 else list(longer)
        # where ``last`` is ``known`` (the corpus), the n-grams are the next
        # order's codes, built once
        grams = longer if last is known else wider(codes, last)
        yield contexts, compress(grams, is_token)
        codes = longer


class FeatureVector(NamedTuple):
    token_count: float
    misspelling_rate: float
    oov_rate: float
    lm_mean_logprob: float
    lm_min_logprob: float
    mean_token_logfreq: float
    max_char_repeat_len: float
    punct_ratio: float

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(self)


FEATURE_NAMES = FeatureVector._fields


def _max_char_run(token: str) -> int:
    best = run = 1
    for prev, cur in zip(token, token[1:]):
        run = run + 1 if cur == prev else 1
        if run > best:
            best = run
    return best


def featurize_many(
    sentences: Sequence[Sentence], lm: NgramLm, wordlist: Wordlist
) -> list[FeatureVector]:
    """Each sentence's features, from one read of the LM for the whole
    batch: every order's counts come in one column over all its tokens,
    and each distinct token string's surface features are found once. A
    batch whose token sequences are the LM's scope is not read again."""
    seqs = [sentence.tokens for sentence in sentences]
    known, last, in_scope, counts = (
        lm._scope[1] if lm._scope and lm._scope[0] == seqs
        else _read(seqs, lm.numbers, lm.ngram_counts[1], bytes(lm.order - 1)))
    logprobs = list(map(math.log, lm._probs(known, last, in_scope)))
    distinct = set(chain.from_iterable(seqs))
    misspelt = {t: not wordlist.knows(t) for t in distinct}
    runs = {t: _max_char_run(t) for t in distinct}
    punct = {t: not any(ch.isalnum() for ch in t) for t in distinct}
    features, start = [], 0
    for tokens in seqs:
        n, end = len(tokens), start + len(tokens)
        if not n:
            features.append(FeatureVector(*([0.0] * len(FEATURE_NAMES))))
            continue
        seen, lps = counts[start:end], logprobs[start:end]
        features.append(FeatureVector(
            token_count=float(n),
            misspelling_rate=sum(map(misspelt.__getitem__, tokens)) / n,
            oov_rate=seen.count(0) / n,
            lm_mean_logprob=math.fsum(lps) / n,
            lm_min_logprob=min(lps),
            mean_token_logfreq=math.fsum(math.log(1 + c) for c in seen) / n,
            max_char_repeat_len=float(max(map(runs.__getitem__, tokens))),
            punct_ratio=sum(map(punct.__getitem__, tokens)) / n,
        ))
        start = end
    return features


def featurize(sentence: Sentence, lm: NgramLm, wordlist: Wordlist) -> FeatureVector:
    return featurize_many([sentence], lm, wordlist)[0]


@dataclass(frozen=True)
class LfmModel:
    feature_names: tuple[str, ...]
    means: tuple[float, ...]
    stdevs: tuple[float, ...]
    weights: tuple[float, ...]
    bias: float
    alpha: float

    def __post_init__(self):
        k = len(self.feature_names)
        if not (len(self.means) == len(self.stdevs) == len(self.weights) == k):
            raise ModelError("feature_names, means, stdevs, weights must align")
        numbers = (*self.means, *self.stdevs, *self.weights, self.bias)
        if not all(math.isfinite(v) for v in numbers):
            raise ModelError("means, stdevs, weights and bias must be finite")
        if 0.0 in self.stdevs:
            raise ModelError("stdevs must be non-zero")
        if len(set(self.feature_names)) != k:
            raise ModelError(f"feature_names repeat a name: {list(self.feature_names)}")


def train_ridge(
    features: Sequence[Sequence[float]],
    targets: Sequence[float],
    alpha: float,
    feature_names: Sequence[str] | None = None,
    standardize: bool = True,
) -> LfmModel:
    """Fit ridge regression on centered (optionally standardized) features.

    Constant features carry no signal and break standardization, so they
    are dropped in both modes; the surviving names are recorded on the
    model. The bias is the target mean, making an all-constant fit
    predict that mean everywhere.
    """
    check_alpha(alpha)
    if len(features) != len(targets):
        raise ValidationError(
            f"size mismatch: {len(features)} feature rows, {len(targets)} targets"
        )
    if not features:
        raise ValidationError("no training rows")
    rows = [tuple(map(float, row)) for row in features]
    width, n = len(rows[0]), len(rows)
    if any(len(row) != width for row in rows):
        raise ValidationError("feature rows must all have the same width")
    if feature_names is None:
        feature_names = (
            FEATURE_NAMES
            if width == len(FEATURE_NAMES)
            else tuple(f"f{i}" for i in range(width))
        )
    feature_names = tuple(feature_names)
    if len(feature_names) != width:
        raise ValidationError(
            f"{width} feature columns but {len(feature_names)} names"
        )
    # a column of equal values carries no signal, even where its float mean
    # is not that value
    kept = [(name, column) for name, column in zip(feature_names, zip(*rows))
            if min(column) != max(column)]
    mu, sigma = [], []
    for name, column in kept:
        try:
            m = math.fsum(column) / n
            s = math.sqrt(math.fsum((v - m) ** 2 for v in column) / n) if standardize else 1.0
        except OverflowError:
            s = math.inf
        if not 0.0 < s < math.inf:  # its spread overflowed, or underflowed to 0
            raise ValidationError(f"feature {name!r} is too extreme to center and scale")
        mu.append(m)
        sigma.append(s)
    try:
        bias = math.fsum(targets) / n
        centered = [[(v - m) / s for v in column] for (_, column), m, s in zip(kept, mu, sigma)]
        y_centered = [float(y) - bias for y in targets]
        # gram = L L^T (Cholesky). The right-hand side rides as one more row:
        # its row of L is z with L z = rhs, and then L^T w = z
        k, vectors = len(kept), [*centered, y_centered]
        lower = [[0.0] * k for _ in vectors]
        for i, row in enumerate(vectors):
            for j in range(min(i + 1, k)):
                dot = math.fsum(map(mul, row, vectors[j])) + (alpha if i == j else 0.0)
                v = dot - math.fsum(map(mul, lower[i][:j], lower[j][:j]))
                if i > j:
                    lower[i][j] = v / lower[j][j]
                elif v > 0.0:
                    lower[i][i] = math.sqrt(v)
                else:
                    raise ValidationError(
                        f"ridge system is singular (alpha={alpha}); increase alpha")
        weights = [0.0] * k
        for i in reversed(range(k)):
            tail = math.fsum(lower[p][i] * weights[p] for p in range(i + 1, k))
            weights[i] = (lower[k][i] - tail) / lower[i][i]
    except (OverflowError, ValueError):  # an fsum overflowed, or met inf - inf
        raise ValidationError("the ridge fit overflows; rescale the features or targets") from None
    return LfmModel(
        feature_names=tuple(name for name, _ in kept),
        means=tuple(mu),
        stdevs=tuple(sigma),
        weights=tuple(weights),
        bias=bias,
        alpha=float(alpha),
    )


def _feature_mapping(features) -> Mapping[str, float]:
    if isinstance(features, FeatureVector):
        return features._asdict()
    if isinstance(features, Mapping):
        return features
    raise ModelError(f"cannot score features of type {type(features).__name__}")


def predict_raw(model: LfmModel, features) -> float:
    """Unclipped model prediction for a feature vector or mapping; one
    that is not finite raises :class:`ModelError`."""
    mapping = _feature_mapping(features)
    total = model.bias
    for name, mean, stdev, weight in zip(
        model.feature_names, model.means, model.stdevs, model.weights
    ):
        if name not in mapping:
            raise ModelError(f"model needs feature {name!r} but it was not provided")
        total += weight * (mapping[name] - mean) / stdev
    if not math.isfinite(total):  # clipped, it would read as a score
        raise ModelError(f"model prediction overflows: {total}")
    return total


def lfm_score(model: LfmModel, features) -> float:
    """Model prediction clipped to [0, 1]."""
    return min(1.0, max(0.0, predict_raw(model, features)))


def save_lfm_model(path, model: LfmModel) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "feature_names": list(model.feature_names),
        "means": list(model.means),
        "stdevs": list(model.stdevs),
        "weights": list(model.weights),
        "bias": model.bias,
        "alpha": model.alpha,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(json.dumps(doc, indent=2, ensure_ascii=False) + "\n")


def load_lfm_model(path) -> LfmModel:
    try:
        doc = json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:
        raise ModelError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelError("model file must hold a JSON object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelError(f"unsupported model format_version {version!r}")
    try:
        names = doc["feature_names"]
        means = doc["means"]
        stdevs = doc["stdevs"]
        weights = doc["weights"]
        bias = doc["bias"]
        alpha = doc["alpha"]
    except KeyError as exc:
        raise ModelError(f"model file missing key {exc.args[0]!r}") from exc
    if not (
        isinstance(names, list)
        and all(isinstance(n, str) for n in names)
        and all(
            isinstance(xs, list) and all(isinstance(v, (int, float)) for v in xs)
            for xs in (means, stdevs, weights)
        )
        and isinstance(bias, (int, float))
        and isinstance(alpha, (int, float))
    ):
        raise ModelError("model file has wrongly typed fields")
    try:
        return LfmModel(
            feature_names=tuple(names),
            means=tuple(float(v) for v in means),
            stdevs=tuple(float(v) for v in stdevs),
            weights=tuple(float(v) for v in weights),
            bias=float(bias),
            alpha=float(alpha),
        )
    except OverflowError as exc:  # an integer too large for a float
        raise ModelError(f"model file is inconsistent: {exc}") from exc


def parse_training_tsv(text: str) -> tuple[tuple[str, ...], list[list[float]], list[float]]:
    """Parse a training table: header row, feature columns, target last.

    Returns (feature_names, feature_rows, targets).
    """
    rows = [(i + 1, ln) for i, ln in enumerate(split_lines(text)) if ln.strip()]
    if len(rows) < 2:
        raise ParseError("need a header row and at least one data row")
    header = rows[0][1].split("\t")
    if len(header) < 2:
        raise ParseError("need at least one feature column and a target column",
                         line=rows[0][0])
    names = tuple(h.strip() for h in header[:-1])
    if "" in names or len(set(names)) != len(names):
        raise ParseError(f"feature names must be distinct and non-empty: {list(names)}",
                         line=rows[0][0])
    features: list[list[float]] = []
    targets: list[float] = []
    for lineno, line in rows[1:]:
        cells = line.split("\t")
        if len(cells) != len(header):
            raise ParseError(
                f"expected {len(header)} columns, got {len(cells)}", line=lineno
            )
        try:
            values = [float(c) for c in cells]
        except ValueError as exc:
            raise ParseError(f"non-numeric cell: {exc}", line=lineno) from exc
        if not all(math.isfinite(v) for v in values):
            raise ParseError("non-finite cell (nan or inf)", line=lineno)
        features.append(values[:-1])
        targets.append(values[-1])
    return names, features, targets

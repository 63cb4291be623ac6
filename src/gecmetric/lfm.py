"""Learned fluency scoring: n-gram LM features plus ridge regression.

The language model interpolates maximum-likelihood estimates of orders
1..N with fixed weights. Sentences are padded with ``<s>`` on the left
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
its sentences once, from any iterable of token sequences.
``train_lm(..., scope=...)`` stores only the orders-2-and-up counts that
the scoped token sequences query; any other query reads as unseen, so a
scoped LM is for those sequences only. The unigrams, the numbering and
``total_tokens`` always cover the whole corpus.

Eight surface and LM features feed a ridge regression trained against
human fluency judgments; scores are clipped to [0, 1]. Models serialize
to JSON at full float precision so a save/load round trip is bit-stable.
"""

from __future__ import annotations

import json
import math
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, compress, count, islice, repeat
from operator import add, mul
from typing import Iterable, Iterator, Mapping, Sequence

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
    weights: tuple[float, ...]
    numbers: dict[str, int]
    total_tokens: int
    ngram_counts: dict[int, Counter]
    context_counts: dict[int, Counter]

    @cached_property
    def _moduli(self) -> tuple[int, ...]:
        # a context code modulo size**(k - 1) is its last k - 1 numbers
        return tuple(len(self.numbers) ** (k - 1) for k in range(2, self.order + 1))

    def _scored(self, tokens: Iterable[str]) -> list[tuple[int, float]]:
        """Each token's unigram count (0 out of the vocabulary) and its
        :meth:`logprob` after the tokens before it, in one left-to-right
        pass: the context's code slides along instead of being built again
        for every token."""
        size, context, scored = len(self.numbers), 0, []
        width = size ** (self.order - 1)
        for seen, token, in_context in _numbered(tokens, self.numbers, self.ngram_counts[1]):
            scored.append((seen, math.log(self._prob(token, context))))
            context = (context * size + in_context) % width
        return scored

    def _prob(self, token: int, context: int) -> float:
        """:meth:`prob` of the token numbered ``token`` after the context
        coded ``context``; :meth:`train_lm` with a scope keeps exactly the
        context and n-gram keys read here."""
        unigrams, size = self.ngram_counts[1], len(self.numbers)
        p = (unigrams.get(token, 0) + 1) / (self.total_tokens + len(unigrams) + 1)
        terms = [self.weights[0] * p]
        for k, modulus in enumerate(self._moduli, 2):
            kctx = context % modulus
            ctx_count = self.context_counts[k].get(kctx, 0)
            if ctx_count:  # an unseen context keeps the order below's estimate
                p = self.ngram_counts[k].get(kctx * size + token, 0) / ctx_count
            terms.append(self.weights[k - 1] * p)
        return math.fsum(terms)

    def prob(self, token: str, context: Sequence[str] = ()) -> float:
        """Interpolated probability of ``token`` after ``context``."""
        numbers, unigrams = self.numbers, self.ngram_counts[1]

        def known(t: str) -> int:  # <unk> (1) out of the vocabulary
            return numbers[t] if numbers.get(t) in unigrams else 1

        code = 0
        for t in context[max(0, len(context) - self.order + 1) :]:
            code = code * len(numbers) + (0 if t == BOS else known(t))
        return self._prob(known(token), code)

    def logprob(self, token: str, context: Sequence[str] = ()) -> float:
        return math.log(self.prob(token, context))


def _numbered(
    tokens: Iterable[str], numbers: Mapping[str, int], unigrams: Mapping[int, int]
) -> Iterator[tuple[int, int, int]]:
    """Each token as the LM reads it: its unigram count (0 out of the
    vocabulary), its number as the predicted token and its number in a
    context. Out of the vocabulary both numbers are <unk>'s, except that
    <s> stays <s> in a context."""
    for token in tokens:
        number = numbers.get(token)
        seen = unigrams.get(number, 0)
        predicted = number if seen else 1
        yield seen, predicted, 0 if token == BOS else predicted


def train_lm(
    sentences: Iterable[Iterable[str]],
    order: int = 3,
    weights: Sequence[float] | None = None,
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
    if weights is None:
        weights = [1.0 / order] * order
    weights = tuple(float(w) for w in weights)
    if len(weights) != order:
        raise ValidationError(f"need {order} interpolation weights, got {len(weights)}")
    if any(w <= 0 for w in weights):
        raise ValidationError(f"interpolation weights must be positive: {weights}")
    if abs(math.fsum(weights) - 1.0) > 1e-9:
        raise ValidationError(f"interpolation weights must sum to 1: {weights}")
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
    scoped = repeat((None, None))
    if scope is not None:
        # the scope numbered as the LM reads it, in a context and as the
        # predicted token
        known, last, in_scope = array("q"), array("q"), bytearray()
        for tokens in scope:
            numbered = list(_numbered(tokens, numbers, unigrams))
            known.extend(pad)
            known.extend(in_context for _, _, in_context in numbered)
            last.extend(pad)
            last.extend(predicted for _, predicted, _ in numbered)
            in_scope += pad + b"\1" * len(numbered)
        scoped = _ngram_codes(known, last, in_scope, size, order)
    ngram_counts, context_counts = {1: unigrams}, {}
    corpus = _ngram_codes(ids, ids, is_token, size, order)
    for k, (contexts, grams), (kept_contexts, kept_grams) in zip(
        range(2, order + 1), corpus, scoped
    ):
        if kept_contexts is not None:  # count only the codes the scope reads
            contexts = filter(set(kept_contexts).__contains__, contexts)
            grams = filter(set(kept_grams).__contains__, grams)
        context_counts[k], ngram_counts[k] = Counter(contexts), Counter(grams)
    return NgramLm(order=order, weights=weights, numbers=numbers,
                   total_tokens=sum(unigrams.values()),
                   ngram_counts=ngram_counts, context_counts=context_counts)


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
        yield contexts, compress(wider(codes, last), is_token)
        if k < order:
            # codes of k numbers are below size**k; past 2**63 they stay
            # Python ints
            codes = wider(codes, known)
            codes = array("q", codes) if size**k <= 2**63 else list(codes)


@dataclass(frozen=True)
class FeatureVector:
    token_count: float
    misspelling_rate: float
    oov_rate: float
    lm_mean_logprob: float
    lm_min_logprob: float
    mean_token_logfreq: float
    max_char_repeat_len: float
    punct_ratio: float

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(getattr(self, name) for name in FEATURE_NAMES)

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in FEATURE_NAMES}


FEATURE_NAMES = tuple(f.name for f in fields(FeatureVector))


def _max_char_run(token: str) -> int:
    best = run = 1
    for prev, cur in zip(token, token[1:]):
        run = run + 1 if cur == prev else 1
        if run > best:
            best = run
    return best


def featurize(sentence: Sentence, lm: NgramLm, wordlist: Wordlist) -> FeatureVector:
    tokens = sentence.tokens
    if not tokens:
        return FeatureVector(*([0.0] * len(FEATURE_NAMES)))
    n = len(tokens)
    scored = lm._scored(tokens)
    logprobs = [logprob for _, logprob in scored]
    return FeatureVector(
        token_count=float(n),
        misspelling_rate=sum(not wordlist.knows(t) for t in tokens) / n,
        oov_rate=sum(not seen for seen, _ in scored) / n,
        lm_mean_logprob=math.fsum(logprobs) / n,
        lm_min_logprob=min(logprobs),
        mean_token_logfreq=math.fsum(math.log(1 + seen) for seen, _ in scored)
        / n,
        max_char_repeat_len=float(max(_max_char_run(t) for t in tokens)),
        punct_ratio=sum(not any(ch.isalnum() for ch in t) for t in tokens) / n,
    )


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
    rows = [
        row.as_tuple() if isinstance(row, FeatureVector) else tuple(map(float, row))
        for row in features
    ]
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
    mu = [math.fsum(column) / n for _, column in kept]
    sigma = [math.sqrt(math.fsum((v - m) ** 2 for v in column) / n) if standardize else 1.0
             for (_, column), m in zip(kept, mu)]
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
                raise ValidationError(f"ridge system is singular (alpha={alpha}); increase alpha")
    weights = [0.0] * k
    for i in reversed(range(k)):
        tail = math.fsum(lower[p][i] * weights[p] for p in range(i + 1, k))
        weights[i] = (lower[k][i] - tail) / lower[i][i]
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
        return features.as_dict()
    if isinstance(features, Mapping):
        return features
    raise ModelError(f"cannot score features of type {type(features).__name__}")


def predict_raw(model: LfmModel, features) -> float:
    """Unclipped model prediction for a feature vector or mapping."""
    mapping = _feature_mapping(features)
    total = model.bias
    for name, mean, stdev, weight in zip(
        model.feature_names, model.means, model.stdevs, model.weights
    ):
        if name not in mapping:
            raise ModelError(f"model needs feature {name!r} but it was not provided")
        total += weight * (mapping[name] - mean) / stdev
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

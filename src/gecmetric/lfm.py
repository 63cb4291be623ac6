"""Learned fluency scoring: n-gram LM features plus ridge regression.

The language model interpolates maximum-likelihood estimates of orders
1..N with fixed weights. Sentences are padded with ``<s>`` on the left
for conditioning only; the boundary symbol is never predicted and does
not count toward the unigram distribution, which is add-one smoothed
over the vocabulary plus an unknown-word type. When a higher-order
context was never observed, that order falls back to the next lower one,
so every order's conditional sums to one over the vocabulary.
``train_lm(..., scope=...)`` stores only the orders-2-and-up counts that
the scoped token sequences query; any other query reads as unseen, so a
scoped LM is for those sequences only. The unigrams, the vocabulary and
``total_tokens`` always cover the whole corpus.

Eight surface and LM features feed a ridge regression trained against
human fluency judgments; scores are clipped to [0, 1]. Models serialize
to JSON at full float precision so a save/load round trip is bit-stable.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, fields
from itertools import chain
from typing import Iterable, Mapping, Sequence

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
    vocab: frozenset[str]
    total_tokens: int
    ngram_counts: dict[int, Counter]
    context_counts: dict[int, Counter]

    def _normalize(self, token: str) -> str:
        return token if token in self.vocab else UNK

    def _normalize_context(self, context: Sequence[str]) -> tuple[str, ...]:
        padded = (BOS,) * (self.order - 1) + tuple(context)
        tail = padded[len(padded) - (self.order - 1) :] if self.order > 1 else ()
        return tuple(t if t == BOS or t in self.vocab else UNK for t in tail)

    def unigram_prob(self, token: str) -> float:
        """Add-one unigram probability over the vocabulary plus unknown."""
        count = self.ngram_counts[1].get((self._normalize(token),), 0)
        return (count + 1) / (self.total_tokens + len(self.vocab) + 1)

    def _keys(self, token: str, context: Sequence[str]):
        """The normalized ``token`` and, for each order 2..N, the context
        key and n-gram key that :meth:`prob` reads for it after
        ``context``; ``train_lm(scope=...)`` keeps exactly these."""
        t = self._normalize(token)
        ctx = self._normalize_context(context)
        return t, [
            (ctx[self.order - k :], ctx[self.order - k :] + (t,))
            for k in range(2, self.order + 1)
        ]

    def prob(self, token: str, context: Sequence[str] = ()) -> float:
        """Interpolated probability of ``token`` after ``context``."""
        t, keys = self._keys(token, context)
        p = self.unigram_prob(t)
        terms = [self.weights[0] * p]
        for k, (kctx, gram) in enumerate(keys, 2):
            ctx_count = self.context_counts[k].get(kctx, 0)
            if ctx_count:  # an unseen context keeps the order below's estimate
                p = self.ngram_counts[k].get(gram, 0) / ctx_count
            terms.append(self.weights[k - 1] * p)
        return math.fsum(terms)

    def logprob(self, token: str, context: Sequence[str] = ()) -> float:
        return math.log(self.prob(token, context))

    def sentence_logprobs(self, sentence: Sentence) -> list[float]:
        tokens = sentence.tokens
        return [self.logprob(tok, tokens[:i]) for i, tok in enumerate(tokens)]

    def unigram_count(self, token: str) -> int:
        return self.ngram_counts[1].get((token,), 0)


def train_lm(
    sentences: Sequence[Sentence],
    order: int = 3,
    weights: Sequence[float] | None = None,
    scope: Iterable[Sequence[str]] | None = None,
) -> NgramLm:
    """Count an order-``order`` LM over ``sentences``, for the token
    sequences in ``scope`` only if it is given (see the module docstring)."""
    if order < 1:
        raise ValidationError(f"order must be >= 1, got {order}")
    if weights is None:
        weights = [1.0 / order] * order
    weights = tuple(float(w) for w in weights)
    if len(weights) != order:
        raise ValidationError(
            f"need {order} interpolation weights, got {len(weights)}"
        )
    if any(w <= 0 for w in weights):
        raise ValidationError(f"interpolation weights must be positive: {weights}")
    if abs(math.fsum(weights) - 1.0) > 1e-9:
        raise ValidationError(f"interpolation weights must sum to 1: {weights}")
    pad = (BOS,) * (order - 1)

    def grams(n: int, shift: int, keep: set | None = None) -> Counter:
        # for each sentence token, the n-gram ending ``shift`` tokens
        # before it, counted over the padded sentences in corpus order
        first = order - shift - n
        found = chain.from_iterable(
            zip(*(padded[first + j : len(padded) - shift] for j in range(n)))
            for padded in (pad + s.tokens for s in sentences)
        )
        return Counter(found if keep is None else filter(keep.__contains__, found))

    lm = NgramLm(
        order=order,
        weights=weights,
        vocab=frozenset(chain.from_iterable(s.tokens for s in sentences)),
        total_tokens=sum(len(s.tokens) for s in sentences),
        ngram_counts={1: grams(1, 0)},
        context_counts={},
    )
    # orders 2..N are counted once ``lm`` can normalize the scope's keys
    keep = {k: (None, None) for k in range(2, order + 1)}
    if scope is not None:
        keep = {k: (set(), set()) for k in keep}
        for tokens in scope:
            for i, token in enumerate(tokens):
                for k, (kctx, gram) in enumerate(lm._keys(token, tokens[:i])[1], 2):
                    keep[k][0].add(kctx)
                    keep[k][1].add(gram)
    for k, (contexts, ngrams) in keep.items():
        lm.context_counts[k] = grams(k - 1, 1, contexts)
        lm.ngram_counts[k] = grams(k, 0, ngrams)
    return lm


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
    logprobs = lm.sentence_logprobs(sentence)
    return FeatureVector(
        token_count=float(n),
        misspelling_rate=sum(not wordlist.knows(t) for t in tokens) / n,
        oov_rate=sum(t not in lm.vocab for t in tokens) / n,
        lm_mean_logprob=math.fsum(logprobs) / n,
        lm_min_logprob=min(logprobs),
        mean_token_logfreq=math.fsum(
            math.log(1 + lm.unigram_count(t)) for t in tokens
        )
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
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValidationError(f"alpha must be finite and >= 0, got {alpha}")
    if len(features) != len(targets):
        raise ValidationError(
            f"size mismatch: {len(features)} feature rows, {len(targets)} targets"
        )
    if not features:
        raise ValidationError("no training rows")
    import numpy as np  # imported here: only training needs it

    x = np.asarray(
        [
            row.as_tuple() if isinstance(row, FeatureVector) else tuple(row)
            for row in features
        ],
        dtype=float,
    )
    if x.ndim != 2:
        raise ValidationError("feature rows must all have the same width")
    y = np.asarray(targets, dtype=float)
    width = x.shape[1]
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
    means = x.mean(axis=0)
    stdevs = x.std(axis=0)
    keep = stdevs != 0.0
    x_kept = x[:, keep]
    mu = means[keep]
    sigma = stdevs[keep] if standardize else np.ones(keep.sum())
    bias = float(y.mean())
    centered = (x_kept - mu) / sigma
    y_centered = y - bias
    gram = centered.T @ centered + alpha * np.eye(centered.shape[1])
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(
            f"ridge system is singular (alpha={alpha}); increase alpha"
        ) from exc
    # gram = L L^T: solve L z = rhs, then L^T w = z
    weights = np.linalg.solve(lower.T, np.linalg.solve(lower, centered.T @ y_centered))
    return LfmModel(
        feature_names=tuple(n for n, kept in zip(feature_names, keep) if kept),
        means=tuple(float(v) for v in mu),
        stdevs=tuple(float(v) for v in sigma),
        weights=tuple(float(v) for v in weights),
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

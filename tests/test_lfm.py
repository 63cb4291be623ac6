import json
import math
import random
from collections import Counter
from itertools import groupby

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gecmetric.corpus import Sentence, tokenize
from gecmetric.errors import ModelError, ParseError, ValidationError
from gecmetric.grammaticality import Wordlist
from oracles import decode_lm, lm_prob_oracle
from gecmetric.lfm import (
    BOS,
    FEATURE_NAMES,
    UNK,
    FeatureVector,
    LfmModel,
    _read,
    featurize,
    featurize_many,
    lfm_score,
    load_lfm_model,
    parse_training_tsv,
    predict_raw,
    save_lfm_model,
    train_lm,
    train_ridge,
)

# ---------------------------------------------------------------------------
# language model


def lm_from(*lines, **kw):
    return train_lm([tokenize(line) for line in lines], **kw)


def batch_logprobs(lm, token_seqs):
    """Every token's logprob after the tokens before it, as one batch
    reads them: one flat list over ``token_seqs``."""
    known, last, in_scope, _ = _read(token_seqs, lm.numbers, lm.ngram_counts[1],
                                     bytes(lm.order - 1))
    return [math.log(p) for p in lm._probs(known, last, in_scope)]


def oracle(lm):
    """The per-token oracle of ``lm``, from one decoding of its counts."""
    return lm_prob_oracle(decode_lm(lm))


def prefix_logprobs(lm, token_seqs):
    """The same list from the per-token oracle, one token at a time."""
    prob = oracle(lm)
    return [math.log(prob(t, tokens[:i])) for tokens in token_seqs
            for i, t in enumerate(tokens)]


def test_pinned_unigram_distribution():
    # "a b": V=2, N=2, add-one over vocab+UNK: P(a) = (1+1)/(2+3) = 0.4
    lm = lm_from("a b", order=1)
    prob = oracle(lm)
    assert prob("a") == pytest.approx(0.4, abs=1e-15)
    assert prob("b") == pytest.approx(0.4, abs=1e-15)
    assert prob("zzz") == pytest.approx(0.2, abs=1e-15)
    assert batch_logprobs(lm, [("a", "b", "zzz")]) == [
        math.log(prob(t)) for t in ("a", "b", "zzz")]


def test_unigram_distribution_sums_to_one():
    decoded = decode_lm(lm_from("a b a c", "b b", order=1))
    prob = lm_prob_oracle(decoded)
    total = sum(prob(t) for t in decoded[0]) + prob(UNK)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_interpolated_prob_sums_to_one_per_context():
    lm = lm_from("a b a c", "c b a")
    contexts = [
        (),
        ("a",),
        ("zzz",),
        (BOS,),
        (BOS, BOS),
        ("a", "b"),
        ("b", "a"),
        ("zzz", "zzz"),
    ]
    decoded = decode_lm(lm)
    prob = lm_prob_oracle(decoded)
    for ctx in contexts:
        total = sum(prob(t, ctx) for t in decoded[0]) + prob(UNK, ctx)
        assert total == pytest.approx(1.0, abs=1e-9), ctx


def test_unseen_context_backs_off_to_unigram():
    prob = oracle(lm_from("a b", "a c"))
    # every order falls through on a never-seen context, so the
    # interpolated probability collapses to the unigram estimate
    assert prob("a", ("zzz",)) == pytest.approx(
        oracle(lm_from("a b", "a c", order=1))("a"), abs=1e-15
    )
    assert prob("a", ("zzz",)) == prob("a", ("qqq",))


def test_unseen_context_keeps_the_estimate_of_the_order_below():
    lm = lm_from("a b c", "x b d")
    # the trigram context (<unk>, b) was never seen, the bigram context
    # (b,) was, so order 3 repeats the bigram estimate 1/2, not 2/12
    third = 1.0 / 3
    want = math.fsum([third * (2 / 12), third * 0.5, third * 0.5])
    assert oracle(lm)("c", ("q", "b")) == want
    assert batch_logprobs(lm, [("q", "b", "c")])[2] == math.log(want)


def test_bos_is_context_only():
    assert BOS not in decode_lm(lm_from("a b"))[0]
    prob = oracle(lm_from("a b", order=1))
    assert prob(BOS) == prob(UNK)  # treated as unknown


def test_sentence_logprobs_length_and_finiteness():
    lm = lm_from("a b c")
    lps = batch_logprobs(lm, [tokenize("a zzz c").tokens])
    assert len(lps) == 3
    assert all(math.isfinite(lp) and lp < 0 for lp in lps)


def test_seen_bigram_beats_unseen():
    prob = oracle(lm_from("a b", "a b", "a c"))
    assert prob("b", ("a",)) > prob("c", ("a",))


def test_train_lm_order_one():
    # "a a b": V=2, N=3: P(a) = (2+1)/(3+3) = 0.5 whatever the context
    prob = oracle(lm_from("a a b", order=1))
    assert prob("a", ()) == pytest.approx(0.5, abs=1e-15)
    assert prob("a", ("b", "a")) == prob("a", ())


def _naive_counts(sentences, order):
    ngrams = {k: Counter() for k in range(1, order + 1)}
    contexts = {k: Counter() for k in range(2, order + 1)}
    padded_all = [(BOS,) * (order - 1) + s.tokens for s in sentences]
    for padded in padded_all:
        for pos in range(order - 1, len(padded)):
            for k in range(1, order + 1):
                gram = padded[pos - k + 1 : pos + 1]
                ngrams[k][gram] += 1
                if k >= 2:
                    contexts[k][gram[:-1]] += 1
    return ngrams, contexts


@pytest.mark.parametrize("order", [1, 3, 4])
def test_train_lm_counts_equal_a_per_position_loop(order):
    rng = random.Random(order)
    words = ["a", "b", "c", "d", "<unk>"]
    sentences = [
        Sentence(tuple(rng.choice(words) for _ in range(rng.randrange(0, 9))))
        for _ in range(300)
    ]
    lm = train_lm(sentences, order=order)
    vocab, got_ngrams, got_contexts = decode_lm(lm)
    ngrams, contexts = _naive_counts(sentences, order)
    for got, want in ((got_ngrams, ngrams), (got_contexts, contexts)):
        assert list(got) == list(want)
        for k in want:
            assert list(got[k].items()) == list(want[k].items())  # same key order
    assert vocab == {t for s in sentences for t in s.tokens}
    assert lm.total_tokens == sum(len(s) for s in sentences)


def _items(counters):
    """Each order's Counter as its items, in key order."""
    return [(k, list(c.items())) for k, c in counters.items()]


def _layout(lm):
    """Every field of ``lm``, with its Counters as :func:`_items`."""
    return (
        lm.order,
        lm.numbers,
        lm.total_tokens,
        _items(lm.ngram_counts),
        _items(lm.context_counts),
    )


def test_train_lm_counts_past_int64_codes_equal_a_per_position_loop():
    # 10 words plus <s> and <unk> make 12 token numbers: 12**20 > 2**63
    rng = random.Random(20)
    words = [f"w{i}" for i in range(10)]
    sentences = [
        Sentence(tuple(rng.choice(words) for _ in range(rng.randrange(0, 30))))
        for _ in range(60)
    ]
    _, got_ngrams, got_contexts = decode_lm(train_lm(sentences, order=20))
    ngrams, contexts = _naive_counts(sentences, 20)
    assert _items(got_ngrams) == _items(ngrams)
    assert _items(got_contexts) == _items(contexts)


def test_queries_past_int64_codes_agree_with_the_full_lm_and_prob():
    # 12 token numbers again: an order-20 context code passes 2**63, and
    # hypotheses that repeat corpus sentences query seen long contexts
    rng = random.Random(21)
    words = [f"w{i}" for i in range(10)]
    corpus = [
        Sentence(tuple(rng.choice(words) for _ in range(rng.randrange(0, 30))))
        for _ in range(60)
    ]
    hyps = corpus[:8] + [
        Sentence(tuple(rng.choice(words + ["zzz", BOS]) if rng.random() < 0.2 else t
                       for t in s.tokens))
        for s in corpus[8:16]
    ]
    full = train_lm(corpus, order=20)
    scoped = train_lm(corpus, order=20, scope=[h.tokens for h in hyps])
    assert len(full.numbers) ** 19 > 2**63
    assert featurize_many(hyps, scoped, SCOPE_WORDLIST) == featurize_many(
        hyps, full, SCOPE_WORDLIST)
    seqs = [h.tokens for h in hyps]
    for lm in (full, scoped):
        assert batch_logprobs(lm, seqs) == prefix_logprobs(lm, seqs)


@pytest.mark.parametrize("scoped", [False, True])
def test_train_lm_reads_a_one_shot_iterable_of_token_sequences(scoped):
    lines = ["a b <s> c", "", "<unk> a a", "<s>", "b c d a b"]
    scope = [("a", "b"), ("<s>", "zzz", "a")] if scoped else None
    from_sentences = train_lm([tokenize(line) for line in lines], scope=scope)
    from_generator = train_lm((line.split() for line in lines), scope=scope)
    assert _layout(from_generator) == _layout(from_sentences)


def _sentences(words, max_size):
    sentence = st.lists(st.sampled_from(words), max_size=6).map(
        lambda tokens: Sentence(tuple(tokens))
    )
    return st.lists(sentence, max_size=max_size)


SCOPE_WORDLIST = Wordlist(["a", "b", "c"])
# an LM needs a corpus with at least one token
_CORPORA = _sentences(["a", "b", "c", BOS, UNK], 8).filter(
    lambda corpus: any(s.tokens for s in corpus))


@given(
    corpus=_CORPORA,
    hyps=_sentences(["a", "b", "c", "zzz", BOS, UNK], 5),
    order=st.integers(1, 4),
)
# the context "a" is seen, but never before "c"
@example(corpus=[tokenize("a b"), tokenize("c")], hyps=[tokenize("a c")], order=2)
# an out-of-vocabulary <s> stays <s> in a context but is <unk> as a token
@example(corpus=[tokenize("a b"), Sentence(())], hyps=[tokenize("<s> a <s> zzz")], order=3)
@settings(max_examples=300, deadline=None)
def test_scoped_lm_featurizes_its_scope_like_the_full_lm(corpus, hyps, order):
    full = train_lm(corpus, order=order)
    scoped = train_lm(corpus, order=order, scope=[h.tokens for h in hyps])
    for hyp in hyps:
        assert (
            featurize(hyp, scoped, SCOPE_WORDLIST).as_tuple()
            == featurize(hyp, full, SCOPE_WORDLIST).as_tuple()
        )


@given(
    corpus=_CORPORA,
    hyps=_sentences(["a", "b", "c", "zzz", BOS, UNK], 5),
    order=st.integers(1, 4),
)
@settings(max_examples=200, deadline=None)
def test_scoped_lm_counters_keep_the_full_lm_key_order(corpus, hyps, order):
    full = train_lm(corpus, order=order)
    scoped = train_lm(corpus, order=order, scope=[h.tokens for h in hyps])
    for got, want in (
        (scoped.ngram_counts, full.ngram_counts),
        (scoped.context_counts, full.context_counts),
    ):
        assert list(got) == list(want)
        for k in want:
            assert list(got[k].items()) == [
                (key, n) for key, n in want[k].items() if key in got[k]
            ]


@given(
    corpus=_CORPORA,
    hyps=_sentences(["a", "b", "c", "zzz", BOS, UNK], 3),
    order=st.integers(1, 4),
    scoped=st.booleans(),
)
# <s> and <unk> are out of the vocabulary: a context keeps <s>, a token does not
@example(corpus=[tokenize("a b")], hyps=[tokenize("<s> <unk> a <s> zzz b")],
         order=4, scoped=True)
@settings(max_examples=300, deadline=None)
def test_sentence_logprobs_equal_logprob_after_each_prefix(corpus, hyps, order, scoped):
    scope = [h.tokens for h in hyps] if scoped else None
    lm = train_lm(corpus, order=order, scope=scope)
    seqs = [h.tokens for h in hyps]
    assert batch_logprobs(lm, seqs) == prefix_logprobs(lm, seqs)


@pytest.mark.parametrize("scope", [None, [("a",)]])
@pytest.mark.parametrize("corpus", [[], [Sentence(())] * 3])
def test_train_lm_rejects_a_corpus_without_tokens(corpus, scope):
    # with no tokens every probability would be 1
    with pytest.raises(ValidationError, match="LM corpus has no tokens"):
        train_lm(corpus, scope=scope)


# ---------------------------------------------------------------------------
# featurization


@pytest.fixture
def wordlist():
    return Wordlist(["a", "b", "c", "cat", "dog"])


def test_featurize_empty_sentence_is_zero_vector(wordlist):
    lm = lm_from("a b")
    vec = featurize(Sentence(()), lm, wordlist)
    assert vec.as_tuple() == (0.0,) * len(FEATURE_NAMES)


def test_featurize_hand_values(wordlist):
    lm = lm_from("a b")
    vec = featurize(tokenize("a zzz !!"), lm, wordlist)
    assert vec.token_count == 3.0
    assert vec.misspelling_rate == pytest.approx(1 / 3)  # zzz only; !! has no core
    assert vec.oov_rate == pytest.approx(2 / 3)  # zzz and !! not in lm vocab
    assert vec.max_char_repeat_len == 3.0  # zzz
    assert vec.punct_ratio == pytest.approx(1 / 3)  # !!
    assert vec.lm_min_logprob <= vec.lm_mean_logprob < 0


def test_featurize_mean_token_logfreq(wordlist):
    lm = lm_from("a a b")
    vec = featurize(tokenize("a b"), lm, wordlist)
    want = (math.log(1 + 2) + math.log(1 + 1)) / 2
    assert vec.mean_token_logfreq == pytest.approx(want, abs=1e-15)


_WORDS = [f"w{i}" for i in range(10)]
# every word, so that with <s> and <unk> there are 12 token numbers and
# order-20 codes pass 2**63; long enough to query such codes
_LONG = Sentence(tuple(_WORDS * 3))


@st.composite
def _batches(draw):
    """Sentences to featurize: drawn ones with literal <s>, <unk> and
    unknown words, an empty one and the long corpus sentence, each maybe
    repeated, in any order."""
    drawn = draw(_sentences(_WORDS[:3] + ["zzz", "!!", BOS, UNK], 4))
    pool = drawn + [Sentence(()), _LONG, Sentence(_LONG.tokens[:-1] + ("zzz",))]
    return draw(st.lists(st.sampled_from(pool), max_size=8))


def _oracle_features(sentence, decoded, wordlist):
    """The features of one sentence, token by token from the LM's
    :func:`decode_lm` counts and their per-token oracle."""
    tokens = sentence.tokens
    n = len(tokens)
    if not n:
        return FeatureVector(*[0.0] * len(FEATURE_NAMES))
    prob = lm_prob_oracle(decoded)
    logprobs = [math.log(prob(t, tokens[:i])) for i, t in enumerate(tokens)]
    seen = [decoded[1][1].get((t,), 0) for t in tokens]
    return FeatureVector(
        token_count=float(n),
        misspelling_rate=sum(not wordlist.knows(t) for t in tokens) / n,
        oov_rate=sum(c == 0 for c in seen) / n,
        lm_mean_logprob=math.fsum(logprobs) / n,
        lm_min_logprob=min(logprobs),
        mean_token_logfreq=math.fsum(math.log(1 + c) for c in seen) / n,
        max_char_repeat_len=float(max(len(list(run)) for t in tokens for _, run in groupby(t))),
        punct_ratio=sum(not any(ch.isalnum() for ch in t) for t in tokens) / n,
    )


@given(
    corpus=_sentences(_WORDS[:3] + [BOS, UNK], 8),
    batch=_batches(),
    order=st.sampled_from([1, 2, 3, 20]),
    scoped=st.booleans(),
)
# <unk> is in the corpus: an unknown token is predicted as <unk>, whose
# unigram count is not its own (0)
@example(corpus=[tokenize("w0 <unk> <unk>")], batch=[tokenize("zzz w0"), Sentence(())],
         order=2, scoped=False)
@settings(max_examples=200, deadline=None)
def test_featurize_many_equals_a_per_token_oracle(corpus, batch, order, scoped):
    corpus = corpus + [_LONG]
    scope = [s.tokens for s in batch] if scoped else None
    lm = train_lm(corpus, order=order, scope=scope)
    if order == 20:
        assert len(lm.numbers) ** 19 > 2**63
    wordlist = Wordlist(_WORDS[:2])
    decoded = decode_lm(lm)
    assert featurize_many(batch, lm, wordlist) == [
        _oracle_features(s, decoded, wordlist) for s in batch]


def test_feature_vector_dict_round_trip():
    vec = FeatureVector(*(float(i) for i in range(8)))
    assert tuple(vec._asdict()[n] for n in FEATURE_NAMES) == vec.as_tuple()


# ---------------------------------------------------------------------------
# ridge regression


def test_ridge_alpha_zero_recovers_line():
    feats = [[1.0], [2.0], [3.0]]
    targets = [2.0, 4.0, 6.0]
    model = train_ridge(feats, targets, alpha=0.0, feature_names=("x",),
                        standardize=False)
    assert predict_raw(model, {"x": 10.0}) == pytest.approx(20.0, abs=1e-10)
    assert predict_raw(model, {"x": 0.0}) == pytest.approx(0.0, abs=1e-10)


def test_ridge_alpha_one_hand_value():
    # centered x = (-1, 0, 1), y = (-2, 0, 2): slope = 4/(2+1) = 4/3
    feats = [[1.0], [2.0], [3.0]]
    targets = [2.0, 4.0, 6.0]
    model = train_ridge(feats, targets, alpha=1.0, feature_names=("x",),
                        standardize=False)
    assert model.weights[0] == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert model.bias == pytest.approx(4.0, abs=1e-12)


def test_ridge_shrinkage_is_monotone():
    rng = random.Random(5)
    feats = [[rng.uniform(-2, 2) for _ in range(3)] for _ in range(30)]
    targets = [f[0] - 2 * f[1] + 0.5 * f[2] + rng.gauss(0, 0.1) for f in feats]
    norms = []
    for alpha in (0.0, 0.1, 1.0, 10.0, 100.0):
        model = train_ridge(feats, targets, alpha=alpha)
        norms.append(math.hypot(*model.weights))
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_ridge_matches_direct_inverse_oracle():
    rng = np.random.default_rng(12)
    for _ in range(25):
        x = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        alpha = float(rng.uniform(0.01, 5.0))
        model = train_ridge(x.tolist(), y.tolist(), alpha=alpha,
                            standardize=False)
        xc = x - x.mean(axis=0)
        yc = y - y.mean()
        want = np.linalg.inv(xc.T @ xc + alpha * np.eye(3)) @ (xc.T @ yc)
        assert np.allclose(model.weights, want, atol=1e-10)
        assert model.bias == pytest.approx(float(y.mean()), abs=1e-12)


def test_ridge_standardized_prediction_consistency():
    rng = random.Random(9)
    feats = [[rng.uniform(0, 10) for _ in range(4)] for _ in range(40)]
    targets = [sum(f) + rng.gauss(0, 0.5) for f in feats]
    model = train_ridge(feats, targets, alpha=0.5)
    # training rows should be predicted near their targets
    errs = [
        abs(predict_raw(model, dict(zip(model.feature_names, f))) - t)
        for f, t in zip(feats, targets)
    ]
    assert sum(errs) / len(errs) < 1.0


def test_ridge_drops_constant_features():
    feats = [[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]
    model = train_ridge(feats, [1.0, 2.0, 3.0], alpha=0.1,
                        feature_names=("x", "const"))
    assert model.feature_names == ("x",)
    assert len(model.weights) == 1


def test_ridge_drops_a_constant_column_whose_mean_is_not_its_value():
    """0.1 three times averages to 0.10000000000000002, so the column's
    float stdev is not 0; it is still constant and carries no signal."""
    feats = [[0.1, 1.0], [0.1, 2.0], [0.1, 3.0]]
    model = train_ridge(feats, [0.2, 0.4, 1.0], alpha=1.0, feature_names=("a", "b"))
    assert model.feature_names == ("b",)
    assert predict_raw(model, {"a": 0.2, "b": 2.0}) == predict_raw(model, {"a": 0.1, "b": 2.0})


@pytest.mark.parametrize("column", [(1e300, -1e300, 1e308), (1e-300, 2e-300, 3e-300)])
def test_ridge_names_a_feature_too_extreme_to_standardize(column):
    """The first column's squared deviations overflow, or underflow to a
    standard deviation of 0."""
    feats = [[v, k] for k, v in enumerate(column)]
    with pytest.raises(ValidationError, match="feature 'x'"):
        train_ridge(feats, [0.1, 0.2, 0.4], alpha=1.0, feature_names=("x", "y"))


def test_ridge_all_constant_features_predicts_mean():
    feats = [[5.0], [5.0], [5.0]]
    model = train_ridge(feats, [1.0, 2.0, 3.0], alpha=0.1, feature_names=("c",))
    assert model.feature_names == ()
    assert predict_raw(model, {}) == pytest.approx(2.0)


def test_ridge_validates_shapes():
    with pytest.raises(ValidationError):
        train_ridge([[1.0]], [1.0, 2.0], alpha=0.1)
    with pytest.raises(ValidationError):
        train_ridge([], [], alpha=0.1)
    with pytest.raises(ValidationError):
        train_ridge([[1.0]], [1.0], alpha=-0.5)


def test_ridge_default_feature_names():
    feats = [list(range(8)), list(range(1, 9)), [0.5] * 8]
    model = train_ridge(feats, [1.0, 2.0, 3.0], alpha=1.0)
    assert set(model.feature_names) <= set(FEATURE_NAMES)


# ---------------------------------------------------------------------------
# scoring and persistence


def _toy_model():
    return train_ridge(
        [[1.0, 0.0], [2.0, 1.0], [3.0, 0.5], [4.0, 0.2]],
        [0.1, 0.4, 0.6, 0.9],
        alpha=0.25,
        feature_names=("f1", "f2"),
    )


def test_lfm_score_clips_to_unit_interval():
    model = _toy_model()
    assert lfm_score(model, {"f1": 100.0, "f2": 0.0}) == 1.0
    assert lfm_score(model, {"f1": -100.0, "f2": 0.0}) == 0.0
    mid = lfm_score(model, {"f1": 2.5, "f2": 0.5})
    assert 0.0 < mid < 1.0


def test_predict_accepts_feature_vector():
    lm = lm_from("a b c")
    wl = Wordlist(["a", "b", "c"])
    vec = featurize(tokenize("a b c"), lm, wl)
    model = train_ridge(
        [list(vec.as_tuple())] * 2 + [[0.0] * 8], [1.0, 1.0, 0.0], alpha=1.0
    )
    assert math.isfinite(predict_raw(model, vec))


@pytest.mark.parametrize("punct_ratio", [0.0, 1 / 3])
def test_predict_rejects_a_prediction_that_overflows(punct_ratio):
    # 1e308 / 1e-300 overflows to inf, and inf - inf is nan: clipped, either
    # would read as a valid score of 1.0 or 0.0
    model = LfmModel(("token_count", "punct_ratio"), (0.0, 0.0), (1e-300, 1e-300),
                     (1e308, -1e308), 0.5, 1.0)
    features = {"token_count": 3.0, "punct_ratio": punct_ratio}
    with pytest.raises(ModelError, match="overflows"):
        predict_raw(model, features)
    with pytest.raises(ModelError, match="overflows"):
        lfm_score(model, features)


def test_predict_rejects_missing_feature():
    model = _toy_model()
    with pytest.raises(ModelError, match="f2"):
        predict_raw(model, {"f1": 1.0})


def test_model_io_round_trip(tmp_path):
    model = _toy_model()
    path = tmp_path / "model.json"
    save_lfm_model(path, model)
    again = load_lfm_model(path)
    assert again == model  # full-precision round trip, bit for bit


def test_model_file_is_versioned_json(tmp_path):
    model = _toy_model()
    path = tmp_path / "model.json"
    save_lfm_model(path, model)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["format_version"] == 1
    assert doc["feature_names"] == ["f1", "f2"]


def test_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "model.json"
    save_lfm_model(path, _toy_model())
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["format_version"] = 99
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelError, match="format_version"):
        load_lfm_model(path)


def test_load_rejects_malformed_fields(tmp_path):
    path = tmp_path / "model.json"
    save_lfm_model(path, _toy_model())
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["weights"] = "oops"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelError):
        load_lfm_model(path)


def test_model_alignment_validation():
    with pytest.raises(ModelError):
        LfmModel(("a",), (0.0, 0.0), (1.0,), (1.0,), 0.0, 1.0)


def test_model_rejects_duplicate_feature_names():
    # two weights on one feature value is a model no fit made
    with pytest.raises(ModelError, match="repeat"):
        LfmModel(("a", "a"), (0.0, 0.0), (1.0, 1.0), (1.0, 1.0), 0.0, 1.0)


# ---------------------------------------------------------------------------
# training table parser


def test_parse_training_tsv():
    text = "f1\tf2\ttarget\n1.0\t2.0\t0.5\n3\t4\t0.9\n"
    names, rows, targets = parse_training_tsv(text)
    assert names == ("f1", "f2")
    assert rows == [[1.0, 2.0], [3.0, 4.0]]
    assert targets == [0.5, 0.9]


def test_parse_training_tsv_reports_line_numbers():
    with pytest.raises(ParseError, match="line 3"):
        parse_training_tsv("f1\ty\n1\t2\nbad\t2\n")


def test_parse_training_tsv_rejects_ragged_rows():
    with pytest.raises(ParseError):
        parse_training_tsv("f1\tf2\ty\n1\t2\t3\n1\t2\n")


@pytest.mark.parametrize("header", ["f1\tf1\ty", "f1\t\ty", " \tf2\ty"])
def test_parse_training_tsv_rejects_duplicate_or_empty_names(header):
    with pytest.raises(ParseError, match="line 1: feature names"):
        parse_training_tsv(f"{header}\n1\t2\t0.5\n")


def test_parse_training_tsv_requires_data():
    with pytest.raises(ParseError):
        parse_training_tsv("f1\ty\n")


def test_parse_training_tsv_splits_on_newline_only():
    names, rows, targets = parse_training_tsv("f\x851\tf2\ty\r\n1\t2\t0.5\n")
    assert names == ("f\x851", "f2")
    assert rows == [[1.0, 2.0]]
    assert targets == [0.5]


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_parse_training_tsv_rejects_non_finite(cell):
    with pytest.raises(ParseError, match="line 3: non-finite"):
        parse_training_tsv(f"f1\ty\n1\t2\n{cell}\t2\n")
    with pytest.raises(ParseError, match="line 2: non-finite"):
        parse_training_tsv(f"f1\ty\n1\t{cell}\n")


@pytest.mark.parametrize("stdev", [0.0, -0.0, float("nan"), float("inf")])
def test_load_rejects_zero_or_non_finite_stdevs(tmp_path, stdev):
    path = tmp_path / "model.json"
    save_lfm_model(path, _toy_model())
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["stdevs"][1] = stdev
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelError, match="stdevs"):
        load_lfm_model(path)

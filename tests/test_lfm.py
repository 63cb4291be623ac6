import json
import math
import random
from collections import Counter

import numpy as np
import pytest

from gecmetric.corpus import Sentence, tokenize
from gecmetric.errors import ModelError, ParseError, ValidationError
from gecmetric.grammaticality import Wordlist
from gecmetric.lfm import (
    BOS,
    FEATURE_NAMES,
    UNK,
    FeatureVector,
    LfmModel,
    featurize,
    lfm_score,
    load_lfm_model,
    parse_training_tsv,
    predict_raw,
    rescale_unit,
    save_lfm_model,
    train_lm,
    train_ridge,
)

# ---------------------------------------------------------------------------
# language model


def lm_from(*lines, **kw):
    return train_lm([tokenize(line) for line in lines], **kw)


def test_pinned_unigram_distribution():
    # "a b": V=2, N=2, add-one over vocab+UNK: P(a) = (1+1)/(2+3) = 0.4
    lm = lm_from("a b")
    assert lm.unigram_prob("a") == pytest.approx(0.4, abs=1e-15)
    assert lm.unigram_prob("b") == pytest.approx(0.4, abs=1e-15)
    assert lm.unigram_prob("zzz") == pytest.approx(0.2, abs=1e-15)


def test_unigram_distribution_sums_to_one():
    lm = lm_from("a b a c", "b b")
    total = sum(lm.unigram_prob(t) for t in lm.vocab) + lm.unigram_prob(UNK)
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
    for ctx in contexts:
        total = sum(lm.prob(t, ctx) for t in lm.vocab) + lm.prob(UNK, ctx)
        assert total == pytest.approx(1.0, abs=1e-9), ctx


def test_unseen_context_backs_off_to_unigram():
    lm = lm_from("a b", "a c")
    # every order falls through on a never-seen context, so the
    # interpolated probability collapses to the unigram estimate
    assert lm.prob("a", ("zzz",)) == pytest.approx(
        lm.unigram_prob("a"), abs=1e-15
    )
    assert lm.prob("a", ("zzz",)) == lm.prob("a", ("qqq",))


def test_bos_is_context_only():
    lm = lm_from("a b")
    assert BOS not in lm.vocab
    assert lm.unigram_prob(BOS) == lm.unigram_prob(UNK)  # treated as unknown


def test_sentence_logprobs_length_and_finiteness():
    lm = lm_from("a b c")
    lps = lm.sentence_logprobs(tokenize("a zzz c"))
    assert len(lps) == 3
    assert all(math.isfinite(lp) and lp < 0 for lp in lps)


def test_seen_bigram_beats_unseen():
    lm = lm_from("a b", "a b", "a c")
    assert lm.prob("b", ("a",)) > lm.prob("c", ("a",))


def test_train_lm_validates_weights():
    with pytest.raises(ValidationError):
        lm_from("a b", weights=[0.5, 0.5, 0.5])
    with pytest.raises(ValidationError):
        lm_from("a b", order=2, weights=[0.9, 0.3])
    with pytest.raises(ValidationError):
        lm_from("a b", order=2, weights=[1.0, 0.0])


def test_train_lm_order_one():
    lm = lm_from("a a b", order=1)
    assert lm.prob("a", ()) == pytest.approx(lm.unigram_prob("a"), abs=1e-15)


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
    ngrams, contexts = _naive_counts(sentences, order)
    for got, want in ((lm.ngram_counts, ngrams), (lm.context_counts, contexts)):
        assert list(got) == list(want)
        for k in want:
            assert list(got[k].items()) == list(want[k].items())  # same key order
    assert lm.vocab == {t for s in sentences for t in s.tokens}
    assert lm.total_tokens == sum(len(s) for s in sentences)


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


def test_feature_vector_dict_round_trip():
    vec = FeatureVector(*(float(i) for i in range(8)))
    assert tuple(vec.as_dict()[n] for n in FEATURE_NAMES) == vec.as_tuple()


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


def test_rescale_unit():
    assert rescale_unit([1.0, 3.0, 2.0]) == [0.0, 1.0, 0.5]
    assert rescale_unit([4.0, 4.0]) == [0.5, 0.5]
    assert rescale_unit([]) == []


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

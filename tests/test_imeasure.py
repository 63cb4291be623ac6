import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gecmetric.corpus import Sentence, tokenize
from gecmetric.errors import ValidationError
from gecmetric.imeasure import (
    IMeasureConfig,
    TokenCounts,
    _align,
    _classify,
    i_measure_corpus,
    i_measure_sentence,
    i_measure_stats,
    i_measure_stats_many,
    i_measure_subset,
    weighted_accuracy,
)
from oracles import imeasure_reference

tokens_st = st.lists(st.sampled_from(["a", "b", "c"]), max_size=5)


def score(src, hyp, *refs, **kw):
    cfg = IMeasureConfig(**kw) if kw else IMeasureConfig()
    return i_measure_sentence(
        tokenize(src), tokenize(hyp), tuple(tokenize(r) for r in refs), cfg
    )


def classify(source, reference, hypothesis):
    """Counts of the joined source/reference/hypothesis token triples."""
    tokens = source.tokens
    return _classify(tokens, _align(tokens, reference.tokens), _align(tokens, hypothesis.tokens))


def test_perfect_correction_scores_one():
    assert score("he go home", "he goes home", "he goes home") == 1.0


def test_unchanged_hypothesis_scores_zero():
    assert score("he go home", "he go home", "he goes home") == 0.0


def test_miscorrection_scores_negative_fraction():
    got = score("he go home", "he gone home", "he goes home")
    assert got == pytest.approx(-1.0 / 7.0, abs=1e-12)


def test_identity_task_scores_zero():
    """When the source already equals the reference, nothing can improve."""
    assert score("a b", "a b", "a b") == 0.0


def test_breaking_a_correct_source_goes_negative():
    assert score("a b c", "a x c", "a b c") < 0.0


def test_classification_counts_on_hand_example():
    counts = classify(
        tokenize("he go home"), tokenize("he goes home"), tokenize("he gone home")
    )
    # "go" was changed but to the wrong thing: one fp and one fn, noted as fpn
    assert counts.fpn == 1
    assert counts.fp == 1
    assert counts.fn == 1
    assert counts.tn == 2


def test_classification_true_positive():
    counts = classify(tokenize("he go"), tokenize("he goes"), tokenize("he goes"))
    assert counts.tp == 1
    assert counts.tn == 1
    assert counts.fp == counts.fn == counts.fpn == 0


def test_classification_handles_insertions_via_gap_slots():
    counts = classify(tokenize("a c"), tokenize("a b c"), tokenize("a b c"))
    assert counts.tp == 1  # the inserted token is a needed correction
    assert counts.tn == 2


def test_weighted_accuracy_perfect_is_one():
    assert weighted_accuracy(TokenCounts(tp=2, tn=3)) == 1.0


def test_weighted_accuracy_empty_counts_is_one():
    assert weighted_accuracy(TokenCounts()) == 1.0


def test_weighted_accuracy_hand_value():
    # tp=0 tn=2 fp=1 fn=1 fpn=1, w=2: (0+2)/(2*1+2+1-3*0.5) = 2/3.5 = 4/7
    counts = TokenCounts(tp=0, tn=2, fp=1, fn=1, fpn=1)
    assert weighted_accuracy(counts) == pytest.approx(4.0 / 7.0, abs=1e-15)


def test_multi_reference_takes_best():
    low = score("he go home", "he goes home", "he went home")
    high = score("he go home", "he goes home", "he went home", "he goes home")
    assert high == 1.0
    assert low < high


@given(tokens_st, tokens_st, tokens_st)
@settings(max_examples=400, deadline=None)
def test_score_stays_in_unit_interval(src, hyp, ref):
    got = i_measure_sentence(
        tokenize(" ".join(src)),
        tokenize(" ".join(hyp)),
        (tokenize(" ".join(ref)),),
        IMeasureConfig(),
    )
    assert -1.0 <= got <= 1.0


@given(tokens_st, tokens_st)
@settings(max_examples=200, deadline=None)
def test_unchanged_hypothesis_always_scores_zero(src, ref):
    got = i_measure_sentence(
        tokenize(" ".join(src)),
        tokenize(" ".join(src)),
        (tokenize(" ".join(ref)),),
        IMeasureConfig(),
    )
    assert got == 0.0


@given(tokens_st, tokens_st)
@settings(max_examples=200, deadline=None)
def test_reference_copy_never_scores_negative(src, ref):
    got = i_measure_sentence(
        tokenize(" ".join(src)),
        tokenize(" ".join(ref)),
        (tokenize(" ".join(ref)),),
        IMeasureConfig(),
    )
    assert got >= 0.0


def test_sentence_requires_references():
    with pytest.raises(ValidationError):
        i_measure_sentence(tokenize("a"), tokenize("a"), (), IMeasureConfig())


def test_corpus_sentence_mode_is_mean():
    sources = [tokenize("he go home"), tokenize("a b")]
    hyps = [tokenize("he goes home"), tokenize("a b")]
    refs = [(tokenize("he goes home"),), (tokenize("a b"),)]
    got = i_measure_corpus(sources, hyps, refs, mode="sentence")
    assert got == pytest.approx(0.5, abs=1e-15)  # scores 1 and 0


def test_corpus_mode_pools_counts():
    sources = [tokenize("he go home"), tokenize("she do it")]
    hyps = [tokenize("he goes home"), tokenize("she does it")]
    refs = [(tokenize("he goes home"),), (tokenize("she does it"),)]
    got = i_measure_corpus(sources, hyps, refs, mode="corpus")
    assert got == 1.0


def test_corpus_single_sentence_same_in_both_modes():
    sources = [tokenize("he go home")]
    hyps = [tokenize("he gone home")]
    refs = [(tokenize("he goes home"),)]
    sentence = i_measure_corpus(sources, hyps, refs, mode="sentence")
    corpus = i_measure_corpus(sources, hyps, refs, mode="corpus")
    assert sentence == corpus == pytest.approx(-1.0 / 7.0, abs=1e-12)


def test_corpus_partial_credit_between_modes():
    rng = random.Random(3)
    vocab = ["a", "b", "c", "d"]
    sources, hyps, refs = [], [], []
    for _ in range(20):
        src = [rng.choice(vocab) for _ in range(rng.randint(1, 5))]
        ref = list(src)
        if ref:
            ref[rng.randrange(len(ref))] = rng.choice(vocab)
        hyp = list(src) if rng.random() < 0.5 else list(ref)
        sources.append(tokenize(" ".join(src)))
        hyps.append(tokenize(" ".join(hyp)))
        refs.append((tokenize(" ".join(ref)),))
    for mode in ("sentence", "corpus"):
        got = i_measure_corpus(sources, hyps, refs, mode=mode)
        assert -1.0 <= got <= 1.0


def test_corpus_validates_sizes():
    with pytest.raises(ValidationError):
        i_measure_corpus([tokenize("a")], [], [], mode="corpus")
    with pytest.raises(ValidationError):
        i_measure_corpus([], [], [], mode="corpus")


def test_config_validation():
    with pytest.raises(ValidationError):
        IMeasureConfig(weight=0.0)


def _random_sentence(rng, low=0):
    return Sentence(tuple(rng.choice(["a", "b", "c", "d"]) for _ in range(rng.randint(low, 7))))


@given(tokens_st)
@settings(max_examples=200, deadline=None)
def test_equal_sides_align_as_the_backtrace_does(tokens):
    """Equal sides skip the table; the backtrace of a tuple against an
    equal list (which does not compare equal) still runs it."""
    a = tuple(tokens)
    assert _align(a, a) == _align(a, list(a))


@pytest.mark.parametrize(
    "a, b, partner, gaps, window",
    [
        # the deletion that could slide along the run goes first
        ("a a b", "a b", [None, "a", "b"], [(), (), (), ()], (0, 1)),
        # the insert that could follow either b goes between them
        ("a b", "a b b", ["a", "b"], [(), ("b",), ()], (1, 2)),
        # two substitutions beat a deletion plus an insert of equal cost
        ("c x a c", "c a y c", ["c", "a", "y", "c"], [()] * 5, (1, 3)),
    ],
)
def test_backtrace_tie_convention(a, b, partner, gaps, window):
    assert _align(tuple(a.split()), tuple(b.split())) == (partner, gaps, window)


@st.composite
def _short_triples(draw):
    """A source, hypothesis and reference of 0-6 tokens over one 2- or
    3-token alphabet."""
    token = st.sampled_from(draw(st.sampled_from(("ab", "abc"))))
    return tuple(tuple(draw(st.lists(token, max_size=6))) for _ in range(3))


@given(_short_triples())
@settings(max_examples=300, deadline=None)
def test_counts_are_reachable_by_some_minimal_alignments(triple):
    """The system counts and score lie in the set that enumerating every
    pair of minimal alignments reaches."""
    src, hyp, ref = triple
    stats = i_measure_stats(Sentence(src), Sentence(hyp), (Sentence(ref),))
    assert (stats.system, stats.score) in imeasure_reference(src, hyp, ref)


def test_unchanged_and_restored_hypotheses_match_per_reference_classification():
    """Statistics against several references equal the best single-reference
    classification; an unchanged hypothesis (built again after a one-token
    change) gets the baseline counts and scores 0."""
    rng = random.Random(23)
    for _ in range(200):
        src = _random_sentence(rng, low=1)
        refs = tuple(_random_sentence(rng) for _ in range(rng.randint(1, 3)))
        tokens = list(src.tokens)
        k = rng.randrange(len(tokens))
        changed = tokens[:k] + ["z"] + tokens[k + 1 :]
        restored = changed[:k] + [tokens[k]] + changed[k + 1 :]
        for hyp in (Sentence(tuple(changed)), Sentence(tuple(restored))):
            stats = i_measure_stats(src, hyp, refs)
            singles = [i_measure_stats(src, hyp, (ref,)) for ref in refs]
            assert stats == max(singles, key=lambda s: s.score)
            for ref, single in zip(refs, singles):
                assert single.system == classify(src, ref, hyp)
                assert single.baseline == classify(src, ref, src)
        identity = i_measure_stats(src, src, refs)
        assert identity == i_measure_stats(src, Sentence(tuple(restored)), refs)
        assert identity.score == 0.0
        assert identity.system == identity.baseline


def test_subset_equals_stats_against_the_picked_references():
    """A subset's statistics, taken from the full row's, are those of
    scoring against the picked references alone, ties included."""
    rng = random.Random(29)
    for _ in range(300):
        src = _random_sentence(rng, low=1)
        refs = tuple(_random_sentence(rng) for _ in range(rng.randint(1, 4)))
        refs += refs[: rng.randint(0, 1)]  # a repeated reference ties
        hyp = rng.choice([_random_sentence(rng), src])
        full = i_measure_stats(src, hyp, refs)
        pick = sorted(rng.sample(range(len(refs)), rng.randint(1, len(refs))))
        assert i_measure_subset(full, pick) == i_measure_stats(src, hyp, [refs[j] for j in pick])


@st.composite
def _mixed_batches(draw):
    """Items of 1-3 sentences, each hypothesis scored against its own row
    or another sentence's, so a sentence's items mix two rows; hypotheses
    are drawn from the row and the source too, and the items are shuffled."""
    sentence = tokens_st.map(lambda t: Sentence(tuple(t)))
    n = draw(st.integers(1, 3))
    sources = draw(st.lists(sentence, min_size=n, max_size=n))
    rows = [tuple(draw(st.lists(sentence, min_size=1, max_size=3))) for _ in range(n)]
    items = [
        (i, draw(sentence | st.sampled_from([sources[i], *rows[i], *row])), row)
        for i in range(n)
        for row in (rows[i], rows[draw(st.integers(0, n - 1))])
        for _ in range(draw(st.integers(1, 3)))
    ]
    return sources, draw(st.permutations(items))


@given(_mixed_batches())
@settings(max_examples=200, deadline=None)
def test_a_batch_equals_its_items_one_by_one(batch):
    sources, items = batch
    got = i_measure_stats_many(sources, items)
    want = [i_measure_stats(sources[i], hyp, row) for i, hyp, row in items]
    assert got == want
    assert [s.references for s in got] == [s.references for s in want]

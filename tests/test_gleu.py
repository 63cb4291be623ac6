import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gecmetric.analysis import mean_score
from gecmetric.corpus import Sentence, tokenize
from gecmetric.errors import ValidationError
from gecmetric.gleu import (
    MAX_ITERATIONS,
    MEAN_OVER_ALL,
    SAMPLED,
    GleuConfig,
    GleuStats,
    _assemble,
    gleu_corpus,
    gleu_multi_ref,
    gleu_pool,
    _mean_over_draws,
    gleu_stats,
    gleu_stats_many,
    gleu_subset,
    reference_draws,
    sample_draws,
)
from oracles import gleu_reference, gleu_reference_counts

tokens_st = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=6)


def score(src, hyp, ref, **kw):
    cfg = GleuConfig(**kw) if kw else GleuConfig()
    return gleu_stats(tokenize(src), tokenize(hyp), (tokenize(ref),), cfg).score


def test_perfect_match_scores_one():
    assert score("the cat sat", "the cat sat", "the cat sat") == 1.0


def test_empty_hypothesis_scores_zero():
    assert score("a b", "", "a b") == 0.0


def test_matches_oracle_on_hand_case():
    got = score("he go home", "he goes home", "he goes home")
    want = gleu_reference(
        ["he", "go", "home"], ["he", "goes", "home"], ["he", "goes", "home"]
    )
    assert got == pytest.approx(want, abs=1e-12)


def test_source_only_ngrams_are_penalized():
    """Keeping a source error scores below fixing it."""
    kept = score("he go home", "he go home", "he goes home")
    fixed = score("he go home", "he goes home", "he goes home")
    assert fixed > kept


def test_brevity_penalty_applies_to_short_hypotheses():
    long_enough = score("a b c", "a b c", "a b c")
    truncated = score("a b c", "a b", "a b c")
    assert truncated < long_enough
    # BP matches the closed form on a clean case
    want = gleu_reference(["a", "b", "c"], ["a", "b"], ["a", "b", "c"])
    assert truncated == pytest.approx(want, abs=1e-12)


@given(tokens_st, tokens_st, tokens_st)
@settings(max_examples=300, deadline=None)
def test_matches_oracle_on_random_triples(src, hyp, ref):
    got = gleu_stats(
        Sentence(tuple(src)), Sentence(tuple(hyp)), (Sentence(tuple(ref)),), GleuConfig()
    ).score
    want = gleu_reference(src, hyp, ref)
    assert got == pytest.approx(want, abs=1e-12)
    assert 0.0 <= got <= 1.0


@st.composite
def _count_batches(draw):
    """Sentences over a 2-3 token vocabulary, so that n-grams repeat, each
    with 1-3 references (possibly empty sentences) and 1-3 hypotheses.
    Every hypothesis is scored against its own row and, as in the gaming
    check, against the row of the sentence ``shift`` places on."""
    vocab = draw(st.sampled_from(["ab", "abc"]))
    sentence = st.lists(st.sampled_from(vocab), max_size=9).map(lambda t: Sentence(tuple(t)))
    n = draw(st.integers(1, 3))
    sources = draw(st.lists(sentence, min_size=n, max_size=n))
    rows = [tuple(draw(st.lists(sentence, min_size=1, max_size=3))) for _ in range(n)]
    shift = draw(st.integers(1, 3))
    items = [
        (i, hyp, row)
        for i in range(n)
        for hyp in draw(st.lists(sentence, min_size=1, max_size=3))
        for row in (rows[i], rows[(i + shift) % n])
    ]
    return sources, items, draw(st.integers(1, 6))


@given(_count_batches())
@settings(max_examples=300, deadline=None)
def test_counts_equal_the_brute_force_oracle(batch):
    sources, items, max_n = batch
    cfg = GleuConfig(max_n=max_n, multi_ref_mode=MEAN_OVER_ALL)
    for (i, hyp, row), stats in zip(items, gleu_stats_many(sources, items, cfg)):
        assert stats.counts == tuple(
            gleu_reference_counts(sources[i].tokens, hyp.tokens, ref.tokens, max_n)
            for ref in row
        )


@given(tokens_st, tokens_st, tokens_st)
@settings(max_examples=200, deadline=None)
def test_score_bounded_and_finite(src, hyp, ref):
    got = gleu_stats(
        Sentence(tuple(src)), Sentence(tuple(hyp)), (Sentence(tuple(ref)),), GleuConfig()
    ).score
    assert math.isfinite(got)
    assert 0.0 <= got <= 1.0


@given(tokens_st, tokens_st)
@settings(max_examples=200, deadline=None)
def test_clean_reference_copy_scores_one(src, ref):
    """H == R scores 1 whenever the source never out-counts the reference.

    When the source over-represents a token relative to R, the overlap
    penalty can push a perfect hypothesis below 1, so the property holds
    only on the clean side of that boundary.
    """
    if not ref:
        return
    src_t, ref_t = tuple(src), tuple(ref)
    for n in range(1, 5):
        for i in range(len(src_t) - n + 1):
            gram = src_t[i : i + n]
            s_count = sum(
                src_t[j : j + n] == gram for j in range(len(src_t) - n + 1)
            )
            r_count = sum(
                ref_t[j : j + n] == gram for j in range(len(ref_t) - n + 1)
            )
            if s_count > r_count:
                return
    got = gleu_stats(
        Sentence(src_t), Sentence(ref_t), (Sentence(ref_t),), GleuConfig()
    ).score
    assert got == pytest.approx(1.0, abs=1e-12)


def test_perfect_copy_can_score_below_one_when_source_overcounts():
    """The penalty clips against the source even for H == R."""
    got = score("a a", "a", "a")
    assert got < 1.0


@given(tokens_st, tokens_st)
@settings(max_examples=150, deadline=None)
def test_adding_source_error_never_helps_long_hypotheses(src, ref):
    """Appending a source-only token cannot raise the score once BP is 1.

    The brevity penalty can reward added length on short hypotheses, and
    the empty-hypothesis zero floor means any non-empty extension beats an
    empty one, so the monotonicity claim is restricted to non-empty
    hypotheses with |H| >= |R|.
    """
    hyp = list(ref)
    if not hyp:
        hyp = ["pad"]
    marker = "err"
    source = tuple(src) + (marker,)
    base = gleu_stats(
        Sentence(source), Sentence(tuple(hyp)), (Sentence(tuple(ref)),), GleuConfig()
    ).score
    worse = gleu_stats(
        Sentence(source),
        Sentence(tuple(hyp) + (marker,)),
        (Sentence(tuple(ref)),),
        GleuConfig(),
    ).score
    assert worse <= base + 1e-12


def test_multi_ref_mean_over_all_is_mean_of_single_ref_scores():
    src = tokenize("he go home")
    hyp = tokenize("he goes home")
    refs = (tokenize("he goes home"), tokenize("he went home"))
    cfg = GleuConfig(multi_ref_mode=MEAN_OVER_ALL)
    got = gleu_multi_ref(src, hyp, refs, cfg)
    parts = [gleu_stats(src, hyp, (r,), GleuConfig()).score for r in refs]
    assert got == pytest.approx(sum(parts) / 2, abs=1e-15)


def test_sampled_mode_equals_deterministic_with_identical_refs():
    src = tokenize("a b c d")
    hyp = tokenize("a b x d")
    ref = tokenize("a b y d")
    cfg = GleuConfig(multi_ref_mode=SAMPLED)
    got = gleu_multi_ref(src, hyp, (ref, ref, ref), cfg)
    want = gleu_stats(src, hyp, (ref,), GleuConfig()).score
    assert got == want  # bit-exact: all draws see the same reference


def test_sampled_mode_is_seed_deterministic():
    src = tokenize("a b c d e")
    hyp = tokenize("a b x d e")
    refs = (tokenize("a b y d e"), tokenize("a q c d e"))
    cfg = GleuConfig(multi_ref_mode=SAMPLED, rng_seed=7)
    first = gleu_multi_ref(src, hyp, refs, cfg, sentence_index=3)
    second = gleu_multi_ref(src, hyp, refs, cfg, sentence_index=3)
    assert first == second


def test_sampled_mode_depends_on_sentence_index():
    src = tokenize("a b c d e f")
    hyp = tokenize("a b x d e f")
    refs = (tokenize("a b y d e f"), tokenize("q b c d z f"))
    cfg = GleuConfig(multi_ref_mode=SAMPLED, rng_seed=0, iterations=9)
    values = {
        gleu_multi_ref(src, hyp, refs, cfg, sentence_index=i) for i in range(40)
    }
    assert len(values) > 1


def test_sampled_draw_stream_matches_documented_form():
    """Reference draws come from a per-sentence stream keyed seed:index."""
    refs = (tokenize("a"), tokenize("b"))
    src = tokenize("a")
    hyp = tokenize("a")
    cfg = GleuConfig(multi_ref_mode=SAMPLED, rng_seed=5, iterations=4)
    rng = random.Random("5:2")
    picks = [rng.randrange(2) for _ in range(4)]
    per_iter = [
        gleu_stats(src, hyp, (refs[p],), GleuConfig()).score for p in picks
    ]
    want = sum(per_iter) / len(per_iter)
    got = gleu_multi_ref(src, hyp, refs, cfg, sentence_index=2)
    assert got == pytest.approx(want, abs=1e-15)


def test_multi_ref_requires_at_least_one_reference():
    with pytest.raises(ValidationError):
        gleu_multi_ref(tokenize("a"), tokenize("a"), (), GleuConfig())


def test_corpus_names_the_sentence_without_references():
    sentences = [tokenize("a b"), tokenize("c d")]
    with pytest.raises(ValidationError, match="sentence 1 has no references"):
        gleu_corpus(sentences, sentences, [(sentences[0],), ()], GleuConfig())


def test_corpus_pools_counts_rather_than_averaging():
    sources = [tokenize("a b"), tokenize("c d")]
    hyps = [tokenize("a b"), tokenize("x y")]
    refs = [(tokenize("a b"),), (tokenize("c d"),)]
    pooled = gleu_corpus(sources, hyps, refs, GleuConfig())
    per_sentence = [
        gleu_stats(s, h, (r[0],), GleuConfig()).score
        for s, h, r in zip(sources, hyps, refs)
    ]
    mean = sum(per_sentence) / 2
    assert pooled != pytest.approx(mean, abs=1e-6)


def test_corpus_single_sentence_equals_sentence_score():
    src, hyp, ref = tokenize("a b c"), tokenize("a x c"), tokenize("a y c")
    for mode in (SAMPLED, MEAN_OVER_ALL):
        cfg = GleuConfig(multi_ref_mode=mode)
        corpus = gleu_corpus([src], [hyp], [(ref,)], cfg)
        single = gleu_multi_ref(src, hyp, (ref,), cfg, sentence_index=0)
        assert corpus == single


def test_corpus_empty_returns_zero():
    assert gleu_corpus([], [], [], GleuConfig()) == 0.0


def test_corpus_size_mismatch_raises():
    with pytest.raises(ValidationError, match="size mismatch"):
        gleu_corpus([tokenize("a")], [], [], GleuConfig())


def test_config_validation():
    with pytest.raises(ValidationError):
        GleuConfig(max_n=0)
    with pytest.raises(ValidationError):
        GleuConfig(iterations=0)
    # above sys.maxsize // 8 no tuple of that length can be made
    with pytest.raises(ValidationError):
        GleuConfig(max_n=sys.maxsize + 1)
    for name, top in (("max_n", sys.maxsize // 8), ("iterations", MAX_ITERATIONS)):
        with pytest.raises(ValidationError, match=name):
            GleuConfig(**{name: top + 1})
        assert getattr(GleuConfig(**{name: top}), name) == top
    assert MAX_ITERATIONS == 10_000
    with pytest.raises(ValidationError):
        GleuConfig(iterations=10**20)
    with pytest.raises(ValidationError):
        GleuConfig(multi_ref_mode="bogus")


# ---------------------------------------------------------------------------
# the pooled reduction and the shared draws


def _random_stats(rng, n_sentences, ref_counts, cfg):
    vocab = ["a", "b", "c", "d", "e"]

    def sentence():
        return Sentence(tuple(rng.choice(vocab) for _ in range(rng.randint(0, 8))))

    stats = []
    for i in range(n_sentences):
        refs = tuple(sentence() for _ in range(rng.choice(ref_counts)))
        stats.append(gleu_stats(sentence(), sentence(), refs, cfg, sentence_index=i))
    return stats


def test_sampled_score_is_the_mean_over_draws():
    rng = random.Random(5)
    vocab = ["a", "b", "c", "d"]

    def sentence():
        return Sentence(tuple(rng.choice(vocab) for _ in range(rng.randint(1, 7))))

    cfg = GleuConfig(iterations=60, rng_seed=9)
    for i in range(60):
        src, hyp = sentence(), sentence()
        refs = tuple(sentence() for _ in range(rng.randint(1, 3)))
        stats = gleu_stats(src, hyp, refs, cfg, sentence_index=i)
        per_ref = [gleu_stats(src, hyp, (ref,), GleuConfig()).score for ref in refs]
        assert stats.score == mean_score([per_ref[j] for j in stats.draws])


def _plain_pool(stats, cfg):
    """The sampled corpus score as a plain-Python sum per iteration."""
    scores = []
    for k in range(cfg.iterations):
        picked = [s.counts[s.draws[k]] for s in stats]
        totals = [sum(c[col] for c in picked) for col in range(len(picked[0]))]
        scores.append(_assemble(totals, cfg.max_n, cfg.max_n))
    return mean_score(scores)


@pytest.mark.parametrize("max_n", [4, 12])
@pytest.mark.parametrize("ref_counts", [(1,), (2,), (3,), (1, 2, 3)])
def test_pool_equals_plain_pooled_sum(ref_counts, max_n):
    """With max_n 12 every order above the longest (8-token) hypothesis
    is left out of the pool's gather and put back as zeros."""
    rng = random.Random(f"pool:{ref_counts}")
    cfg = GleuConfig(max_n=max_n, iterations=40, rng_seed=3)
    for n_sentences in (1, 2, 17):
        stats = _random_stats(rng, n_sentences, ref_counts, cfg)
        assert gleu_pool(stats, cfg) == _plain_pool(stats, cfg)


def _hand_stats(rng, n_sentences, ref_counts, max_n, longest, draws):
    """GleuStats built by hand, with lengths up to ``longest`` and each
    count at most the hypothesis length; ``draws(n_refs)`` gives a
    sentence's draws. The scores are not used by the pool."""
    stats = []
    for _ in range(n_sentences):
        n_refs, hyp_len = rng.choice(ref_counts), rng.randint(0, longest)
        totals = [max(0, hyp_len - n) for n in range(max_n)]
        counts = tuple(
            (*(rng.randint(0, t) for t in totals), *(rng.randint(0, t) for t in totals),
             *totals, hyp_len, rng.randint(1, longest))
            for _ in range(n_refs)
        )
        stats.append(GleuStats(0.0, counts, draws(n_refs), (0.0,) * n_refs))
    return stats


# the pool's lanes hold the sum of the longest lengths: 17 sentences of
# these need lanes of 1, 2, 4, 8 and 11 bytes
LONGEST = [10, 1000, 2**20, 2**40, 2**80]


@pytest.mark.parametrize("longest", LONGEST)
@pytest.mark.parametrize("ref_counts", [(1,), (2,), (1, 2, 3)])
def test_pool_equals_plain_pooled_sum_on_any_lane_width(longest, ref_counts):
    rng = random.Random(f"lanes:{longest}:{ref_counts}")
    cfg = GleuConfig(max_n=3, iterations=30)
    for n_sentences in (1, 17):
        stats = _hand_stats(rng, n_sentences, ref_counts, 3, longest,
                            lambda n: bytes(rng.randrange(n) for _ in range(30)))
        assert gleu_pool(stats, cfg) == _plain_pool(stats, cfg)


@pytest.mark.parametrize("longest", LONGEST)
@pytest.mark.parametrize("n_refs", [1, 2, 3])
def test_mean_over_all_pool_is_the_mean_over_reference_columns(longest, n_refs):
    """Each sentence draws every reference once, so iteration j pools
    reference column j."""
    rng = random.Random(f"columns:{longest}:{n_refs}")
    cfg = GleuConfig(max_n=3, multi_ref_mode=MEAN_OVER_ALL)
    stats = _hand_stats(rng, 17, (n_refs,), 3, longest, range)
    assert gleu_pool(stats, cfg) == _plain_pool(stats, GleuConfig(max_n=3, iterations=n_refs))


def test_mean_over_all_pool_rejects_unequal_reference_counts():
    rng = random.Random(13)
    cfg = GleuConfig(max_n=3, multi_ref_mode=MEAN_OVER_ALL)
    stats = _hand_stats(rng, 3, (2,), 3, 10, range)
    stats[1] = _hand_stats(rng, 1, (3,), 3, 10, range)[0]
    with pytest.raises(ValidationError, match="sentence 1 has 3 draws, expected 2"):
        gleu_pool(stats, cfg)


def test_pool_accepts_draws_as_any_int_sequence():
    rng = random.Random(11)
    cfg = GleuConfig(iterations=25)
    stats = _random_stats(rng, 9, (2, 3), cfg)
    as_lists = [s._replace(draws=list(s.draws)) for s in stats]
    as_bytes = [s._replace(draws=bytes(s.draws)) for s in stats]
    assert gleu_pool(as_lists, cfg) == gleu_pool(as_bytes, cfg) == _plain_pool(stats, cfg)


def test_pool_rejects_sentences_with_unequal_draw_counts():
    """A one-draw sentence would otherwise be added to every iteration."""
    rng = random.Random(12)
    cfg = GleuConfig(iterations=25)
    stats = _random_stats(rng, 3, (2,), cfg)
    stats[1] = stats[1]._replace(draws=stats[1].draws[:1])
    with pytest.raises(ValidationError, match="sentence 1 has 1 draws, expected 25"):
        gleu_pool(stats, cfg)


def test_single_reference_draws_are_the_documented_stream():
    """With one reference every draw is 0, as the keyed stream gives."""
    src, hyp, ref = tokenize("a b c d"), tokenize("a x c d"), tokenize("a y c d")
    cfg = GleuConfig(rng_seed=4, iterations=30)
    for index in (0, 5):
        stats = gleu_stats(src, hyp, (ref,), cfg, sentence_index=index)
        rng = random.Random(f"4:{index}")
        assert list(stats.draws) == [rng.randrange(1) for _ in range(30)]
        assert stats.score == gleu_stats(src, hyp, (ref,), GleuConfig()).score
        assert gleu_multi_ref(src, hyp, (ref,), cfg, sentence_index=index) == stats.score


def _randrange_draws(n_refs, iterations, seed, sentence_index):
    """The draw loop that sample_draws reads in bulk."""
    if n_refs == 1:
        return bytes(iterations)
    rng = random.Random(f"{seed}:{sentence_index}")
    draws = [rng.randrange(n_refs) for _ in range(iterations)]
    return bytes(draws) if n_refs <= 256 else draws


@pytest.mark.parametrize("n_refs", [1, 2, 3, 7, 255, 256, 257, 1000])
def test_bulk_draws_equal_the_randrange_loop(n_refs):
    for iterations in (1, 7, 500, 2000):
        for seed in (0, 5, 123456789):
            for index in (0, 1, 1311):
                got = sample_draws(n_refs, iterations, seed, index)
                want = _randrange_draws(n_refs, iterations, seed, index)
                assert type(got) is type(want)
                assert got == want


def test_draws_read_in_capped_chunks_are_unchanged(monkeypatch):
    """getrandbits takes its bit count as a C int, so one call may not
    ask for all of a large draw; consecutive calls continue the same
    word stream, so the draws do not depend on the cap."""
    cases = [(n, it) for n in (2, 3, 5, 300) for it in (1, 2, 7, 100, 500)]
    want = {case: sample_draws(*case, 9, 4) for case in cases}
    asked = []

    class Recording(random.Random):
        def getrandbits(self, k):
            asked.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(random, "Random", Recording)
    monkeypatch.setattr("gecmetric.gleu._DRAW_WORDS", 3)
    for case in cases:
        assert sample_draws(*case, 9, 4) == want[case]
    assert asked and max(asked) <= 32 * 3


@pytest.mark.parametrize("n_refs", [0, -1, -300])
def test_draws_need_a_reference(n_refs):
    with pytest.raises(ValidationError):
        sample_draws(n_refs, 10, 0, 0)


def test_mean_over_draws_equals_the_mean_of_the_drawn_scores():
    rng = random.Random(8)
    for trial in range(3000):
        n_refs = rng.choice([1, 2, 3, 5, 300])
        pool = [0.0, 1.0, 5e-324, rng.random() * 1e-300, rng.random()]
        scores = [rng.choice(pool) if rng.random() < 0.5 else rng.random() for _ in range(n_refs)]
        draws = sample_draws(n_refs, rng.choice([1, 2, 7, 500, 1000]), trial, 0)
        assert _mean_over_draws(scores, draws) == mean_score([scores[j] for j in draws])


@pytest.mark.parametrize("mode", [SAMPLED, MEAN_OVER_ALL])
def test_subset_equals_stats_against_the_picked_references(mode):
    """A subset's statistics, taken from the full row's, are those of
    scoring against the picked references alone."""
    rng = random.Random(f"subset:{mode}")
    vocab = ["a", "b", "c", "d", "e"]

    def sentence():
        return Sentence(tuple(rng.choice(vocab) for _ in range(rng.randint(0, 8))))

    cfg = GleuConfig(iterations=50, rng_seed=4, multi_ref_mode=mode)
    for i in range(150):
        src, hyp = sentence(), sentence()
        refs = tuple(sentence() for _ in range(rng.randint(1, 4)))
        full = gleu_stats(src, hyp, refs, cfg, sentence_index=i)
        pick = sorted(rng.sample(range(len(refs)), rng.randint(1, len(refs))))
        draws = reference_draws(cfg, i, len(pick))
        want = gleu_stats(src, hyp, [refs[j] for j in pick], cfg, sentence_index=i)
        assert gleu_subset(full, pick, draws) == want
        if len(pick) == 1:
            assert want.score == _assemble(full.counts[pick[0]], cfg.max_n, cfg.max_n)


def test_assemble_of_the_orders_that_count_equals_the_full_walk():
    """Orders past ``orders`` have zero denominators in every row the
    pool and the sentence statistics assemble; skipping them keeps every
    bit of the score."""
    rng = random.Random(23)
    for _ in range(2000):
        max_n = rng.randint(1, 12)
        orders = rng.randint(0, max_n)
        totals = [rng.randint(1, 40) for _ in range(orders)]
        matched = [rng.randint(0, t) for t in totals]
        penalty = [rng.randint(0, t) for t in totals]
        zeros = [0] * (max_n - orders)
        lengths = [rng.randint(0, 40), rng.randint(0, 40)]
        counts = matched + zeros + penalty + zeros + totals + zeros + lengths
        assert _assemble(counts, max_n, orders) == _assemble(counts, max_n, max_n)


def test_stats_many_equals_stats_per_item_in_item_order():
    rng = random.Random(3)
    vocab = ["a", "b", "c", "d"]

    def sentence():
        return Sentence(tuple(rng.choice(vocab) for _ in range(rng.randint(0, 6))))

    cfg = GleuConfig(iterations=30, rng_seed=1)
    sources = [sentence() for _ in range(6)]
    rows = [tuple(sentence() for _ in range(rng.randint(1, 3))) for _ in range(6)]
    items = [
        (i, rng.choice([sentence(), sources[i]]), rng.choice(rows))
        for i in (rng.randrange(6) for _ in range(40))
    ]
    want = [gleu_stats(sources[i], hyp, row, cfg, sentence_index=i) for i, hyp, row in items]
    assert gleu_stats_many(sources, items, cfg) == want


@st.composite
def _mixed_batches(draw):
    """Items of 1-3 sentences, each hypothesis scored against its own row
    or another sentence's, so a sentence's items mix two rows; hypotheses
    are drawn from the row and the source too, and the items are shuffled."""
    sentence = st.lists(st.sampled_from("abc"), max_size=7).map(lambda t: Sentence(tuple(t)))
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


@given(_mixed_batches(), st.sampled_from([SAMPLED, MEAN_OVER_ALL]), st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_a_batch_equals_its_items_one_by_one(batch, mode, max_n):
    sources, items = batch
    cfg = GleuConfig(max_n=max_n, iterations=20, multi_ref_mode=mode)
    want = [gleu_stats(sources[i], hyp, row, cfg, sentence_index=i) for i, hyp, row in items]
    assert gleu_stats_many(sources, items, cfg) == want


@pytest.mark.parametrize("n_refs", [1, 2, 3, 300])
def test_mean_over_all_draws_every_reference_once(n_refs):
    """mean-over-all is the sampled path with every reference drawn once."""
    rng = random.Random(n_refs)
    vocab = ["a", "b", "c", "d"]

    def sentence():
        return Sentence(tuple(rng.choice(vocab) for _ in range(rng.randint(1, 7))))

    cfg = GleuConfig(multi_ref_mode=MEAN_OVER_ALL)
    assert list(reference_draws(cfg, 5, n_refs)) == list(range(n_refs))
    refs = tuple(sentence() for _ in range(n_refs))
    stats = gleu_stats(sentence(), sentence(), refs, cfg, sentence_index=5)
    assert list(stats.draws) == list(range(n_refs))
    assert stats.score == mean_score(stats.per_reference)  # bit-identical


def test_ngrams_are_never_built_longer_than_the_tokens(monkeypatch):
    """Orders longer than a sentence are counted as zeros without building
    their (empty) n-grams, so a large --max-n costs no more than the
    sentences' own lengths."""
    from gecmetric import gleu

    calls = []
    original = gleu._ngrams

    def checked(tokens, n, *rest):
        calls.append(n)
        assert n <= len(tokens), (tokens, n)
        return original(tokens, n, *rest)

    monkeypatch.setattr(gleu, "_ngrams", checked)
    src, hyp = tokenize("a b c d e"), tokenize("a b x d e f g")
    refs = (tokenize("a b c"), tokenize("a b y d e f g h"))
    for max_n in (1, 4, 100):
        cfg = GleuConfig(max_n=max_n, multi_ref_mode=MEAN_OVER_ALL)
        stats = gleu_stats(src, hyp, refs, cfg)
        assert all(len(c) == 3 * max_n + 2 for c in stats.counts)
        assert stats.score == pytest.approx(
            mean_score([gleu_reference(src.tokens, hyp.tokens, r.tokens, max_n) for r in refs]),
            abs=1e-12,
        )
    assert calls and max(calls) == 8

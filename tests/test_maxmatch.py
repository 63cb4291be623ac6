import logging
import random

import pytest

from gecmetric import maxmatch
from gecmetric.corpus import AnnotatedSource, Sentence, tokenize
from gecmetric.errors import ValidationError
from gecmetric.formats import parse_m2
from gecmetric.maxmatch import (
    M2Config,
    _best_edits,
    _build_graph,
    f_beta,
    m2_corpus,
    m2_sentence,
    m2_stats,
)
from oracles import f_beta_reference, m2_reference_count_set

VOCAB = ["a", "b", "c"]


def gold_keys(source, edits):
    """The keys of the (start, end, replacement) ``edits`` without the
    identity ones, as the annotation parser builds them."""
    return frozenset(e for e in edits if source.tokens[e[0] : e[1]] != e[2])


def system_edits(source, hypothesis, gold_edits, cfg):
    """The (start, end, replacement) edits the lattice credits the system
    with, biased toward the non-identity ``gold_edits``."""
    lattice = _build_graph(source.tokens, hypothesis.tokens, cfg.max_unchanged_words)
    [edits] = _best_edits(lattice, [gold_keys(source, gold_edits)])
    return edits


def edits_of(src, hyp, gold, **kw):
    cfg = M2Config(**kw) if kw else M2Config()
    return system_edits(tokenize(src), tokenize(hyp), gold, cfg)


def counts_of(src, hyp, gold, **kw):
    cfg = M2Config(**kw) if kw else M2Config()
    source = tokenize(src)
    counts, _ = m2_sentence(source, tokenize(hyp), ((0, gold_keys(source, gold)),), cfg)
    return counts.tp, counts.fp, counts.fn


def test_single_substitution_matches_gold():
    edits = edits_of("a b c", "a x c", [(1, 2, ("x",))])
    assert edits == [(1, 2, ("x",))]


def test_unchanged_hypothesis_yields_no_edits():
    assert edits_of("a b c", "a b c", [(1, 2, ("x",))]) == []


def test_gold_reward_merges_phrase_edit():
    edits = edits_of("a b c d", "a x y d", [(1, 3, ("x", "y"))])
    assert edits == [(1, 3, ("x", "y"))]


def test_adjacent_changes_merge_even_without_gold():
    """One merged edit costs less than two unit substitutions."""
    edits = edits_of("a b c d", "a x y d", [])
    assert edits == [(1, 3, ("x", "y"))]


def test_widely_separated_changes_stay_split():
    # three matched tokens between the changes exceed max_unchanged_words,
    # so no compound edge can bridge them
    edits = edits_of("a b c d e f", "a x c d e y", [])
    assert edits == [(1, 2, ("x",)), (5, 6, ("y",))]


def test_compound_edge_respects_max_unchanged_words():
    # gold wants one phrase edit spanning an unchanged token
    gold = [(1, 4, ("x", "b", "y"))]
    spanning = edits_of("a q b r d", "a x b y d", gold, max_unchanged_words=2)
    assert spanning == [(1, 4, ("x", "b", "y"))]
    split = edits_of("a q b r d", "a x b y d", gold, max_unchanged_words=0)
    assert split == [(1, 2, ("x",)), (3, 4, ("y",))]


def test_hand_counts():
    assert counts_of("a b c", "a x c", [(1, 2, ("x",))]) == (1, 0, 0)
    assert counts_of("a b c", "a b c", [(1, 2, ("x",))]) == (0, 0, 1)
    assert counts_of("a b c", "a y c", [(1, 2, ("x",))]) == (0, 1, 1)


def test_hand_f_scores():
    _, f_hit = m2_sentence(
        tokenize("a b c"),
        tokenize("a x c"),
        ((0, frozenset({(1, 2, ("x",))})),),
    )
    assert f_hit == 1.0
    _, f_unchanged = m2_sentence(
        tokenize("a b c"),
        tokenize("a b c"),
        ((0, frozenset({(1, 2, ("x",))})),),
    )
    assert f_unchanged == 0.0  # P=1, R=0


def test_f_beta_zero_denominator_conventions():
    assert f_beta(0, 0, 0) == 1.0
    assert f_beta(0, 0, 2) == 0.0
    assert f_beta(0, 2, 0) == 0.0
    assert f_beta(3, 0, 0) == 1.0


def test_f_beta_matches_reference_formula():
    rng = random.Random(1)
    for _ in range(200):
        tp, fp, fn = rng.randrange(5), rng.randrange(5), rng.randrange(5)
        beta = rng.choice([0.5, 1.0, 2.0])
        assert f_beta(tp, fp, fn, beta) == pytest.approx(
            f_beta_reference(tp, fp, fn, beta), abs=1e-15
        )


def test_identity_gold_edit_is_ignored_with_warning(caplog):
    units = parse_m2(
        "S a b c\n"
        "A 0 1|||X|||a|||REQUIRED|||-NONE-|||0\n"
        "A 1 2|||X|||x|||REQUIRED|||-NONE-|||0\n"
    )
    hyps = [tokenize("a x c")]
    counts, _ = m2_sentence(units[0].source, hyps[0], units[0].gold)
    assert (counts.tp, counts.fp, counts.fn) == (1, 0, 0)
    with caplog.at_level(logging.WARNING, logger="gecmetric.maxmatch"):
        assert m2_corpus(units, hyps) == 1.0
    assert any("identity gold edit" in rec.message for rec in caplog.records)


def test_annotator_tie_goes_to_lowest_id():
    [unit] = parse_m2(
        "S a b c\n"
        "A 1 2|||X|||x|||REQUIRED|||-NONE-|||1\n"
        "A 1 2|||X|||x|||REQUIRED|||-NONE-|||0\n"
    )
    counts, f = m2_sentence(unit.source, tokenize("a x c"), unit.gold)
    assert f == 1.0
    assert counts.annotator == 0


def test_best_annotator_wins():
    anns = (
        (0, frozenset({(0, 1, ("q",))})),
        (1, frozenset({(1, 2, ("x",))})),
    )
    counts, f = m2_sentence(tokenize("a b c"), tokenize("a x c"), anns)
    assert counts.annotator == 1
    assert f == 1.0


def test_m2_sentence_requires_annotations():
    with pytest.raises(ValidationError):
        m2_sentence(tokenize("a"), tokenize("a"), ())


def test_tp_plus_fn_is_gold_size():
    rng = random.Random(2)
    for _ in range(100):
        src = [rng.choice(VOCAB) for _ in range(rng.randint(1, 5))]
        hyp = [rng.choice(VOCAB) for _ in range(rng.randint(0, 5))]
        gold = _random_gold(rng, src)
        live = [e for e in gold if tuple(src[e[0] : e[1]]) != e[2]]
        tp, fp, fn = counts_of(" ".join(src), " ".join(hyp), gold)
        assert tp + fn == len(live)


def _random_gold(rng, src):
    edits = []
    pos = 0
    for _ in range(rng.randint(0, 3)):
        if pos > len(src):
            break
        start = rng.randint(pos, len(src))
        end = rng.randint(start, min(len(src), start + 2))
        repl = tuple(rng.choice(VOCAB) for _ in range(rng.randint(0, 2)))
        if tuple(src[start:end]) == repl:
            continue
        if edits and edits[-1][0] == edits[-1][1] == start == end:
            continue
        edits.append((start, end, repl))
        pos = end if end > start else (start if rng.random() < 0.5 else start + 1)
    return edits


def _apply_subset_with_noise(rng, src, gold):
    chosen = [e for e in gold if rng.random() < 0.6]
    out = []
    pos = 0
    for start, end, replacement in chosen:
        out.extend(src[pos:start])
        out.extend(replacement)
        pos = end
    out.extend(src[pos:])
    for _ in range(rng.randint(0, 2)):
        if out and rng.random() < 0.5:
            del out[rng.randrange(len(out))]
        else:
            out.insert(rng.randint(0, len(out)), rng.choice(VOCAB))
    return out[:6]


def test_counts_match_exhaustive_oracle():
    """500 random cases against the independent sequence-enumeration oracle.

    Degenerate duplicate-insertion inputs can leave several count triples
    cost-optimal; those are checked by membership, everything else exactly.
    """
    rng = random.Random(99)
    exact = 0
    for _ in range(500):
        src = [rng.choice(VOCAB) for _ in range(rng.randint(0, 6))]
        gold = _random_gold(rng, src)
        if rng.random() < 0.5:
            hyp = _apply_subset_with_noise(rng, src, gold)
        else:
            hyp = [rng.choice(VOCAB) for _ in range(rng.randint(0, 6))]
        max_unch = rng.choice([0, 1, 2, 2, 3])
        got = counts_of(
            " ".join(src), " ".join(hyp), gold, max_unchanged_words=max_unch
        )
        want = m2_reference_count_set(
            src, hyp, gold, max_unch
        )
        assert got in want
        if len(want) == 1:
            exact += 1
    assert exact >= 450  # ambiguity is a rare corner, not the norm


def test_raising_reward_never_changes_chosen_edits(monkeypatch):
    rng = random.Random(7)
    for _ in range(150):
        src = [rng.choice(VOCAB) for _ in range(rng.randint(0, 5))]
        gold = _random_gold(rng, src)
        hyp = _apply_subset_with_noise(rng, src, gold)
        base = edits_of(" ".join(src), " ".join(hyp), gold)
        with monkeypatch.context() as patch:
            patch.setattr(maxmatch, "_GOLD_REWARD", 50000.0)
            boosted = edits_of(" ".join(src), " ".join(hyp), gold)
        assert base == boosted


def _replay(src, edits):
    """Apply a system edit sequence; unlike the annotation parser this tolerates
    the same-point insertion runs a lattice path can legitimately produce."""
    out = []
    cursor = 0
    for start, end, replacement in edits:
        out.extend(src[cursor:start])
        out.extend(replacement)
        cursor = end
    out.extend(src[cursor:])
    return tuple(out)


def test_system_edits_reconstruct_hypothesis():
    rng = random.Random(11)
    for _ in range(200):
        src = [rng.choice(VOCAB) for _ in range(rng.randint(0, 5))]
        gold = _random_gold(rng, src)
        hyp = _apply_subset_with_noise(rng, src, gold)
        edits = edits_of(" ".join(src), " ".join(hyp), gold)
        assert _replay(src, edits) == tuple(hyp)


def _unit(src, gold_by_annotator):
    gold = tuple((i, frozenset(edits)) for i, edits in enumerate(gold_by_annotator))
    return AnnotatedSource(tokenize(src), gold)


def test_corpus_sentence_mode_is_mean_of_f():
    units = [
        _unit("a b c", [((1, 2, ("x",)),)]),
        _unit("a b c", [((1, 2, ("x",)),)]),
    ]
    hyps = [tokenize("a x c"), tokenize("a q c")]
    got = m2_corpus(units, hyps, mode="sentence")
    assert got == pytest.approx(0.5, abs=1e-15)  # F=1 and F=0


def test_corpus_mode_pools_counts():
    units = [
        _unit("a b c", [((1, 2, ("x",)),)]),
        _unit("a b c", [((1, 2, ("x",)),)]),
    ]
    hyps = [tokenize("a x c"), tokenize("a q c")]
    got = m2_corpus(units, hyps, mode="corpus")
    # pooled tp=1 fp=1 fn=1: P=0.5, R=0.5
    assert got == pytest.approx(f_beta(1, 1, 1), abs=1e-15)


def test_corpus_greedy_annotator_choice_uses_running_f():
    """The annotator picked for sentence 2 depends on sentence 1's pool."""
    anns_a = ((0, 1, ("x",)),)
    anns_b = ((1, 2, ("y",)),)
    units = [_unit("a b", [anns_a]), _unit("a b", [anns_a, anns_b])]
    hyps = [tokenize("x b"), tokenize("x y")]
    pooled = m2_corpus(units, hyps, mode="corpus")
    assert 0.0 < pooled <= 1.0


def test_corpus_single_sentence_matches_sentence_mode():
    units = [_unit("a b c", [((1, 2, ("x",)),)])]
    hyps = [tokenize("a x c")]
    assert m2_corpus(units, hyps, mode="corpus") == m2_corpus(
        units, hyps, mode="sentence"
    )


def test_corpus_perfect_hypotheses_score_one_in_both_modes():
    gold = ((1, 2, ("x",)),)
    units = [_unit("a b c", [gold])] * 3
    hyps = [tokenize("a x c")] * 3
    assert m2_corpus(units, hyps, mode="sentence") == 1.0
    assert m2_corpus(units, hyps, mode="corpus") == 1.0


def test_corpus_validates_inputs():
    units = [_unit("a b", [()])]
    with pytest.raises(ValidationError):
        m2_corpus(units, [], mode="corpus")
    with pytest.raises(ValidationError):
        m2_corpus([], [], mode="corpus")
    with pytest.raises(ValidationError):
        m2_corpus(units, [tokenize("a b")], mode="bogus")


def test_config_validation():
    with pytest.raises(ValidationError):
        M2Config(beta=-1)
    with pytest.raises(ValidationError):
        M2Config(max_unchanged_words=-1)


def _random_unit(rng):
    source = tokenize(" ".join(rng.choice(VOCAB) for _ in range(rng.randint(1, 7))))
    gold = []
    for annotator in (0, 1):
        edits, start = [], 0
        while start < len(source) and len(edits) < 2:
            start = rng.randint(start, len(source) - 1)
            end = start + rng.randint(0, 1)
            repl = tuple(rng.choice(VOCAB + ["x"]) for _ in range(rng.randint(0, 2)))
            edits.append((start, end, repl))
            start = end + 1
        gold.append((annotator, gold_keys(source, edits)))
    return AnnotatedSource(source, tuple(gold))


def _counts_from_extracted_edits(unit, hypothesis, cfg):
    """Per-annotator counts, each from its own lattice."""
    out = []
    for annotator, keys in unit.gold:
        found = set(system_edits(unit.source, hypothesis, keys, cfg))
        tp = len(keys & found)
        out.append((tp, len(found) - tp, len(keys) - tp, annotator))
    return out


def test_unchanged_and_restored_hypotheses_match_the_lattice_path():
    """An unchanged hypothesis (built again after a one-token change) gets
    the counts the lattice gives; so does the changed one."""
    rng = random.Random(19)
    cfg = M2Config()
    for _ in range(150):
        unit = _random_unit(rng)
        gold = unit.gold
        tokens = list(unit.source.tokens)
        k = rng.randrange(len(tokens))
        changed = tokens[:k] + ["z"] + tokens[k + 1 :]
        restored = changed[:k] + [tokens[k]] + changed[k + 1 :]
        for hyp in (Sentence(tuple(changed)), Sentence(tuple(restored))):
            stats = m2_stats(unit.source, hyp, gold, cfg)
            got = [(c.tp, c.fp, c.fn, c.annotator) for c in stats.counts]
            assert got == _counts_from_extracted_edits(unit, hyp, cfg)
        identity = m2_stats(unit.source, unit.source, gold, cfg)
        assert identity == m2_stats(unit.source, Sentence(tuple(restored)), gold, cfg)
        assert all(c.tp == c.fp == 0 for c in identity.counts)

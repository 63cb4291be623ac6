import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gecmetric.corpus import Sentence, tokenize
from gecmetric.errors import DetectorError, ValidationError
from gecmetric.grammaticality import (
    ArticleAgreementDetector,
    CapitalizationDetector,
    DetectorSuite,
    DuplicateTokenDetector,
    ErrorSpan,
    SpacedPunctuationDetector,
    SpellingDetector,
    TerminalPunctuationDetector,
    Wordlist,
    build_default_suite,
    error_count_corpus,
    error_count_score,
)

WORDS = ["the", "cat", "sat", "on", "mat", "a", "an", "apple", "dog", "go", "home"]


@pytest.fixture
def wordlist():
    return Wordlist(WORDS)


@pytest.fixture
def suite(wordlist):
    return build_default_suite(wordlist)


def spans_of(detector, text):
    return [(s.start, s.end, s.category) for s in detector(tuple(text.split()))]


def test_wordlist_core_strips_punctuation():
    assert Wordlist.core("cat.") == "cat"
    assert Wordlist.core("'cat,'") == "cat"
    assert Wordlist.core("...") == ""


def test_wordlist_knows_case_variants(wordlist):
    assert wordlist.knows("cat")
    assert wordlist.knows("Cat")  # sentence-initial capitalization
    assert wordlist.knows("CAT")  # full lowercase fallback
    assert not wordlist.knows("zqcat")


def test_wordlist_ignores_non_alpha_cores(wordlist):
    assert wordlist.knows(",")
    assert wordlist.knows("42")
    assert wordlist.knows("...")


def test_wordlist_from_file(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("alpha\n\nbeta\n", encoding="utf-8")
    wl = Wordlist.from_file(path)
    assert wl.knows("alpha")
    assert len(wl) == 2


def test_wordlist_from_file_drops_a_byte_order_mark(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("\ufeffthe\ncat\n", encoding="utf-8")
    wl = Wordlist.from_file(path)
    assert wl.knows("the")
    assert wl.knows("cat")
    assert len(wl) == 2


def test_wordlist_rejects_empty():
    with pytest.raises(ValidationError):
        Wordlist([])


def test_spelling_detector(wordlist):
    det = SpellingDetector(wordlist)
    assert spans_of(det, "teh cat sat .") == [(0, 1, "SPELL")]
    assert spans_of(det, "the cat sat .") == []


def test_spelling_detector_checks_cores(wordlist):
    det = SpellingDetector(wordlist)
    assert spans_of(det, "the cat.") == []
    assert spans_of(det, "the zqcat.") == [(1, 2, "SPELL")]


def test_duplicate_detector():
    det = DuplicateTokenDetector()
    assert spans_of(det, "the the cat") == [(0, 2, "DUP")]
    assert spans_of(det, "the The cat") == []  # case-sensitive
    assert spans_of(det, "a a a") == [(0, 2, "DUP"), (1, 3, "DUP")]


def test_article_detector():
    det = ArticleAgreementDetector()
    assert spans_of(det, "a apple") == [(0, 2, "ART")]
    assert spans_of(det, "an dog") == [(0, 2, "ART")]
    assert spans_of(det, "an apple") == []
    assert spans_of(det, "a dog") == []
    assert spans_of(det, "A apple") == [(0, 2, "ART")]


def test_article_detector_skips_non_alpha_after_an():
    det = ArticleAgreementDetector()
    assert spans_of(det, "an 8-ball") == []


def test_capitalization_detector():
    det = CapitalizationDetector()
    assert spans_of(det, "the cat") == [(0, 1, "CAP")]
    assert spans_of(det, "The cat") == []
    assert spans_of(det, ", x") == []  # punctuation has no case


def test_terminal_detector_uses_point_span():
    det = TerminalPunctuationDetector()
    assert spans_of(det, "the cat") == [(2, 2, "TERM")]
    assert spans_of(det, "the cat.") == []
    assert spans_of(det, "really ?") == []
    assert spans_of(det, "wow !") == []


def test_spaced_punctuation_detector():
    det = SpacedPunctuationDetector()
    assert spans_of(det, "the cat , sat") == [(2, 3, "SPACE")]
    assert spans_of(det, ", leading is ignored") == []
    assert spans_of(det, "end .") == [(1, 2, "SPACE")]


def test_error_span_validation():
    with pytest.raises(ValidationError):
        ErrorSpan(-1, 0, "X")
    with pytest.raises(ValidationError):
        ErrorSpan(2, 1, "X")
    with pytest.raises(ValidationError):
        ErrorSpan(0, 1, "")


def test_suite_merges_and_sorts(suite):
    spans = suite.run(tuple("teh teh cat".split()))
    kinds = [(s.start, s.end, s.category) for s in spans]
    assert kinds == [
        (0, 1, "CAP"),
        (0, 1, "SPELL"),
        (0, 2, "DUP"),
        (1, 2, "SPELL"),
        (3, 3, "TERM"),
    ]


def test_suite_deduplicates_identical_spans(wordlist):
    class Echo:
        detector_id = "echo"

        def __call__(self, tokens):
            return [ErrorSpan(0, 1, "SPELL")]

    suite = DetectorSuite([SpellingDetector(wordlist), Echo()])
    spans = suite.run(("zq",))
    assert [(s.start, s.end, s.category) for s in spans] == [(0, 1, "SPELL")]


def test_suite_rejects_duplicate_ids(wordlist):
    with pytest.raises(ValidationError):
        DetectorSuite([SpellingDetector(wordlist), SpellingDetector(wordlist)])


def test_suite_requires_detectors():
    with pytest.raises(ValidationError):
        DetectorSuite([])


def test_suite_flags_out_of_bounds_span():
    class Bad:
        detector_id = "bad"

        def __call__(self, tokens):
            return [ErrorSpan(0, 99, "X")]

    suite = DetectorSuite([Bad()])
    with pytest.raises(DetectorError, match="'bad'"):
        suite.run(("a",))


def test_suite_flags_non_span_values():
    class Worse:
        detector_id = "worse"

        def __call__(self, tokens):
            return [(0, 1, "X")]

    suite = DetectorSuite([Worse()])
    with pytest.raises(DetectorError, match="'worse'"):
        suite.run(("a",))


def test_error_count_formula(suite):
    # "teh cat" -> SPELL at 0 plus CAP at 0 plus TERM: 3 errors, 2 tokens
    assert error_count_score(tokenize("teh cat"), suite) == 0.0
    # one error over four tokens
    assert error_count_score(tokenize("The teh cat sat."), suite) == pytest.approx(
        0.75
    )


def test_error_count_empty_sentence_is_one(suite):
    assert error_count_score(Sentence(()), suite) == 1.0


def test_error_count_clips_at_zero(suite):
    assert error_count_score(tokenize("zq zq"), suite) == 0.0


def test_error_count_corpus_divergence(wordlist):
    """Pooled and averaged aggregation answer different questions."""
    suite = DetectorSuite([SpellingDetector(wordlist)])
    clean = tokenize("The cat sat on the mat a dog go home.")
    dirty = tokenize("Zq zq.")
    assert len(clean) == 10 and len(dirty) == 2
    pooled = error_count_corpus([clean, dirty], suite, mode="corpus")
    averaged = error_count_corpus([clean, dirty], suite, mode="sentence")
    assert pooled == pytest.approx(1.0 - 2.0 / 12.0, abs=1e-15)
    assert averaged == pytest.approx(0.5, abs=1e-15)


def test_error_count_corpus_single_sentence_modes_agree(suite):
    rows = [tokenize("teh cat sat")]
    assert error_count_corpus(rows, suite, "corpus") == error_count_corpus(
        rows, suite, "sentence"
    )


def test_error_count_corpus_empty_raises(suite):
    with pytest.raises(ValidationError):
        error_count_corpus([], suite)


def test_error_count_corpus_all_empty_sentences(suite):
    assert error_count_corpus([Sentence(()), Sentence(())], suite) == 1.0


@given(st.lists(st.sampled_from(WORDS + ["zq", ",", "a"]), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_removing_a_detector_never_lowers_the_score(words):
    wl = Wordlist(WORDS)
    full = build_default_suite(wl)
    sentence = Sentence(tuple(words))
    base = error_count_score(sentence, full)
    for skip in range(len(full.detectors)):
        reduced = DetectorSuite(
            [d for i, d in enumerate(full.detectors) if i != skip]
        )
        assert error_count_score(sentence, reduced) >= base


@given(st.lists(st.sampled_from(WORDS + ["zq", "."]), max_size=8))
@settings(max_examples=200, deadline=None)
def test_error_count_in_unit_interval(words):
    wl = Wordlist(WORDS)
    got = error_count_score(Sentence(tuple(words)), build_default_suite(wl))
    assert 0.0 <= got <= 1.0

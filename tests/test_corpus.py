import pytest

from gecmetric.corpus import (
    AnnotatedSource,
    AnnotationSet,
    Corpus,
    Edit,
    ReferenceSet,
    Sentence,
    SystemOutput,
    apply_edits,
    detokenize,
    tokenize,
    validate_alignment,
)
from gecmetric.errors import ValidationError


def test_sentence_basics():
    s = Sentence(("the", "cat"))
    assert len(s) == 2
    assert list(s) == ["the", "cat"]
    assert s.text == "the cat"


def test_sentence_accepts_empty():
    assert len(Sentence(())) == 0
    assert Sentence(()).text == ""


def test_sentence_rejects_non_string_tokens():
    with pytest.raises(ValidationError):
        Sentence(("ok", 3))


def test_sentence_rejects_tokens_with_any_whitespace():
    spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
    assert len(spaces) > 20
    for ch in spaces:
        for token in (ch, "a" + ch, ch + "b", "a" + ch + "b"):
            with pytest.raises(ValidationError, match="whitespace"):
                Sentence(("ok", token))


def test_tokenize_splits_on_any_whitespace():
    assert tokenize("the  cat\tsat ").tokens == ("the", "cat", "sat")
    assert tokenize("").tokens == ()


def test_detokenize_round_trip():
    s = tokenize("a b c")
    assert detokenize(s) == "a b c"
    assert tokenize(detokenize(s)) == s


def test_edit_key_and_str():
    e = Edit(1, 2, ("goes",))
    assert e.key == (1, 2, ("goes",))
    assert str(e) == "(1,2)->'goes'"
    assert str(Edit(0, 0, ("x", "y"))) == "(0,0)->'x y'"


def test_edit_replacement_coerced_to_tuple():
    assert Edit(0, 1, ["a", "b"]).replacement == ("a", "b")


@pytest.mark.parametrize(
    "start,end", [(-1, 0), (2, 1)],
)
def test_edit_rejects_bad_spans(start, end):
    with pytest.raises(ValidationError):
        Edit(start, end)


def test_edit_rejects_non_integer_indices():
    with pytest.raises(ValidationError):
        Edit(0.0, 1)


def test_apply_edits_substitution():
    out = apply_edits(tokenize("he go home"), [Edit(1, 2, ("goes",))])
    assert out.text == "he goes home"


def test_apply_edits_insert_delete_combo():
    src = tokenize("a b c d")
    out = apply_edits(src, [Edit(0, 0, ("X",)), Edit(2, 3)])
    assert out.text == "X a b d"


def test_apply_edits_empty_sequence_is_identity():
    src = tokenize("a b")
    assert apply_edits(src, []) == src


def test_apply_edits_order_independent_result():
    """A valid sorted sequence applies left to right in one pass."""
    src = tokenize("a b c")
    out = apply_edits(src, [Edit(0, 1, ("A",)), Edit(2, 3, ("C", "C2"))])
    assert out.tokens == ("A", "b", "C", "C2")


def test_apply_edits_rejects_overlap():
    src = tokenize("a b c")
    with pytest.raises(ValidationError, match="overlaps"):
        apply_edits(src, [Edit(0, 2, ("x",)), Edit(1, 3, ("y",))])


def test_apply_edits_rejects_unsorted():
    src = tokenize("a b c")
    with pytest.raises(ValidationError, match="out of order"):
        apply_edits(src, [Edit(2, 3, ("x",)), Edit(0, 1, ("y",))])


def test_apply_edits_rejects_double_insertion_at_point():
    src = tokenize("a b")
    with pytest.raises(ValidationError, match="same point"):
        apply_edits(src, [Edit(1, 1, ("x",)), Edit(1, 1, ("y",))])


def test_apply_edits_allows_insertion_then_edit_at_same_start():
    src = tokenize("a b")
    out = apply_edits(src, [Edit(1, 1, ("x",)), Edit(1, 2, ("B",))])
    assert out.tokens == ("a", "x", "B")


def test_apply_edits_rejects_out_of_bounds():
    with pytest.raises(ValidationError, match="exceeds source length"):
        apply_edits(tokenize("a"), [Edit(0, 2, ("x",))])


def test_annotation_set_checks_annotator_consistency():
    with pytest.raises(ValidationError, match="carries annotator"):
        AnnotationSet(1, (Edit(0, 1, ("x",), annotator=0),))


def test_annotation_set_accepts_empty_edits():
    assert AnnotationSet(0).edits == ()


def test_reference_set_uniform_width():
    refs = ReferenceSet(((tokenize("a"), tokenize("b")),))
    assert refs.n_refs == 2
    assert len(refs) == 1
    assert refs.for_sentence(0)[1].text == "b"


def test_reference_set_rejects_ragged_rows():
    with pytest.raises(ValidationError):
        ReferenceSet(((tokenize("a"),), (tokenize("b"), tokenize("c"))))


def test_system_output_requires_id():
    with pytest.raises(ValidationError):
        SystemOutput("", (tokenize("a"),))


def _tiny_corpus():
    unit = AnnotatedSource(
        tokenize("he go home"),
        (AnnotationSet(0, (Edit(1, 2, ("goes",)),)),),
    )
    return Corpus((unit,))


def test_validate_alignment_clean():
    corpus = _tiny_corpus()
    out = SystemOutput("sysA", (tokenize("he goes home"),))
    refs = ReferenceSet(((tokenize("he goes home"),),))
    report = validate_alignment(corpus, out, refs)
    assert report.ok
    assert report.issues == ()


def test_validate_alignment_reports_size_mismatches():
    corpus = _tiny_corpus()
    out = SystemOutput("sysA", ())
    refs = ReferenceSet(((tokenize("x"),), (tokenize("y"),)))
    report = validate_alignment(corpus, out, refs)
    assert not report.ok
    assert len(report.issues) == 2


def test_annotated_source_rejects_out_of_bounds_edits():
    with pytest.raises(ValidationError, match="exceeds source length"):
        AnnotatedSource(
            tokenize("a"),
            (AnnotationSet(0, (Edit(0, 5, ("x",)),)),),
        )


def test_annotated_source_rejects_duplicate_annotators():
    with pytest.raises(ValidationError, match="duplicate annotator"):
        AnnotatedSource(
            tokenize("a b"),
            (AnnotationSet(0), AnnotationSet(0)),
        )


def test_corpus_sources_view():
    corpus = _tiny_corpus()
    assert corpus.sources[0].text == "he go home"
    assert len(corpus) == 1

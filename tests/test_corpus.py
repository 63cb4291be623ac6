import pytest

from gecmetric.corpus import (
    AnnotatedSource,
    AnnotationSet,
    Edit,
    Sentence,
    tokenize,
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


def test_tokenize_equals_the_checked_sentence():
    """tokenize skips the token check, as str.split() makes no empty token
    and none holding whitespace; its Sentence equals and hashes as the
    checked one. Direct construction still checks."""
    spaces = "".join(chr(c) for c in range(0x110000) if chr(c).isspace())
    for raw in ("", spaces, "the  cat\tsat ", f"a{spaces}b\u00e9{spaces}", "\u3000x\x85y\u2028z"):
        got = tokenize(raw)
        checked = Sentence(tuple(raw.split()))
        assert type(got) is Sentence and got.tokens == tuple(raw.split())
        assert got == checked and hash(got) == hash(checked)
    with pytest.raises(ValidationError, match="whitespace"):
        Sentence(("a b",))


def test_detokenize_round_trip():
    """Detokenizing is ``Sentence.text``."""
    s = tokenize("a b c")
    assert s.text == "a b c"
    assert tokenize(s.text) == s


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


@pytest.mark.parametrize(
    "edits,error",
    [
        ([Edit(0, 2, ("x",)), Edit(1, 3, ("y",))], "overlaps"),
        ([Edit(2, 3, ("x",)), Edit(0, 1, ("y",))], "out of order"),
        ([Edit(1, 1, ("x",)), Edit(1, 1, ("y",))], "same point"),
        ([Edit(1, 1, ("x",)), Edit(1, 2, ("B",))], None),
    ],
    ids=["overlap", "out-of-order", "two-insertions-at-one-point", "insertion-then-edit"],
)
def test_annotation_set_checks_edit_sequence(edits, error):
    """Edits are sorted and disjoint, with at most one insertion at a
    point; an insertion may precede an edit starting at the same index."""
    if error is None:
        assert AnnotationSet(0, edits).edits == tuple(edits)
    else:
        with pytest.raises(ValidationError, match=error):
            AnnotationSet(0, edits)


def test_annotation_set_accepts_empty_edits():
    assert AnnotationSet(0).edits == ()


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

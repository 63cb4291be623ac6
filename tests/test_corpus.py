import pytest

from gecmetric.corpus import Sentence, tokenize
from gecmetric.errors import ParseError, ValidationError
from gecmetric.formats import parse_m2
from gecmetric.maxmatch import m2_corpus


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


# An AnnotatedSource comes from the annotation parser alone, so what it
# may hold is pinned on annotation text, with the parser's exact messages.


def _a(span, correction, annotator=0):
    return f"A {span}|||X|||{correction}|||REQUIRED|||-NONE-|||{annotator}\n"


def _rejects(text, message):
    with pytest.raises(ParseError) as info:
        parse_m2(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "start,end", [(-1, 0), (2, 1)],
)
def test_edit_rejects_bad_spans(start, end):
    message = (
        f"edit start {start} is negative" if start < 0
        else f"edit span ({start}, {end}) has end before start"
    )
    _rejects("S a b c\n" + _a(f"{start} {end}", "y"), f"line 2: {message}")


def test_edit_rejects_non_integer_indices():
    """Span indices are read with int(), so no other kind reaches a key."""
    _rejects("S a b c\n" + _a("0.0 1", "y"), "line 2: non-integer span '0.0 1'")


@pytest.mark.parametrize(
    "lines,error,hypothesis",
    [
        ([_a("0 2", "y"), _a("1 3", "z")], "edit (1,3)->'z' overlaps (0,2)->'y'", None),
        ([_a("2 3", "x"), _a("0 1", "y")], None, "y b x"),
        (
            [_a("1 1", "y"), _a("1 1", "z")],
            "two insertions at the same point: (1,1)->'y' and (1,1)->'z'",
            None,
        ),
        ([_a("1 1", "x"), _a("1 2", "B")], None, "a x B c"),
    ],
    ids=["overlap", "out-of-order", "two-insertions-at-one-point", "insertion-then-edit"],
)
def test_annotation_set_checks_edit_sequence(lines, error, hypothesis):
    """An annotator's edits are disjoint, with at most one insertion at a
    point; they are sorted by span, and an insertion may precede an edit
    starting at the same index. The hypothesis applying an accepted
    sequence scores 1."""
    text = "S a b c\n" + "".join(lines)
    if error is None:
        assert m2_corpus(parse_m2(text), [tokenize(hypothesis)]) == 1.0
    else:
        _rejects(text, f"line 1: in unit starting here: {error}")


def test_annotation_set_accepts_empty_edits():
    units = parse_m2("S a b\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n")
    assert m2_corpus(units, [tokenize("a b")]) == 1.0


def test_annotated_source_rejects_out_of_bounds_edits():
    _rejects(
        "S a\n" + _a("0 5", "y"),
        "line 1: in unit starting here: edit (0,5)->'y' exceeds source length 1",
    )

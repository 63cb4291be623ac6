import json

import pytest

from gecmetric.errors import ParseError, ValidationError
from gecmetric.formats import (
    build_report,
    parse_human_ranking,
    parse_m2,
    read_m2_file,
    read_parallel_text,
    read_reference_files,
    render_report,
    write_report,
)
from test_corpus import _a, _rejects

SAMPLE = """\
S he go home
A 1 2|||Verb|||goes|||REQUIRED|||-NONE-|||0
A 1 2|||Verb|||went|||REQUIRED|||-NONE-|||1

S a b
A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0
"""


def test_parse_basic_unit():
    units = parse_m2(SAMPLE)
    assert len(units) == 2
    first = units[0]
    assert first.source.text == "he go home"
    assert first.gold == (
        (0, frozenset({(1, 2, ("goes",))})),
        (1, frozenset({(1, 2, ("went",))})),
    )
    assert first.identity == 0


def test_parse_noop_line_becomes_empty_annotation_set():
    units = parse_m2(SAMPLE)
    assert units[1].gold == ((0, frozenset()),)


def test_parse_unit_without_annotations_gets_annotator_zero():
    units = parse_m2("S a b c\n")
    assert units[0].gold == ((0, frozenset()),)


def test_parse_deletion_edit_has_empty_replacement():
    units = parse_m2("S a b\nA 0 1|||Del||||||REQUIRED|||-NONE-|||0\n")
    assert units[0].gold == ((0, frozenset({(0, 1, ())})),)


def test_parse_empty_source_line():
    units = parse_m2("S\n\nS b\n")
    assert units[0].source.tokens == ()
    assert units[1].source.tokens == ("b",)


def test_parse_keeps_span_replacement_and_annotator_only():
    """Type, required flag and comment must be present but are not kept."""
    units = parse_m2(
        "S a b c\n"
        "A 0 1|||Orth|||x|||OPTIONAL|||note|||2\n"
        "A 2 2|||M:DET|||the y|||REQUIRED|||-NONE-|||2\n"
        "A -1 -1|||noop|||-NONE-|||OPTIONAL|||why not|||0\n"
    )
    [unit] = units
    assert unit.gold == (
        (0, frozenset()),
        (2, frozenset({(0, 1, ("x",)), (2, 2, ("the", "y"))})),
    )


def test_parse_counts_and_leaves_out_identity_edits():
    """An edit whose replacement equals its source span is counted and
    left out of the gold keys."""
    [unit] = parse_m2(
        "S a b c\n"
        "A 0 1|||X|||a|||REQUIRED|||-NONE-|||0\n"
        "A 1 2|||X|||x|||REQUIRED|||-NONE-|||0\n"
        "A 2 2|||Ins||||||REQUIRED|||-NONE-|||1\n"
    )
    assert unit.gold == ((0, frozenset({(1, 2, ("x",))})), (1, frozenset()))
    assert unit.identity == 2


def test_parse_error_reports_line_number():
    bad = "S a b\nA 0 1|||X|||y|||REQUIRED|||0\n"
    with pytest.raises(ParseError, match="line 2"):
        parse_m2(bad)


def test_parse_rejects_annotation_before_source():
    with pytest.raises(ParseError, match="before any source"):
        parse_m2("A 0 1|||X|||y|||REQUIRED|||-NONE-|||0\n")


def test_parse_rejects_mixed_noop_and_edits():
    bad = (
        "S a b\n"
        "A 0 1|||X|||y|||REQUIRED|||-NONE-|||0\n"
        "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n"
    )
    with pytest.raises(ParseError, match="noop and edits"):
        parse_m2(bad)


@pytest.mark.parametrize(
    "a_line",
    [
        "A 0 1|||X|||y|||REQUIRED|||-NONE-|||-1",
        "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||-1",
    ],
    ids=["edit", "noop"],
)
def test_parse_rejects_negative_annotator_on_its_line(a_line):
    with pytest.raises(ParseError, match="^line 3: annotator id -1 is negative$"):
        parse_m2(f"S a b\nA 0 1|||X|||y|||REQUIRED|||-NONE-|||0\n{a_line}\n")


def test_parse_rejects_garbage_line():
    with pytest.raises(ParseError, match="unrecognized"):
        parse_m2("S a\nwhat is this\n")


def test_parse_rejects_non_integer_span():
    with pytest.raises(ParseError, match="span"):
        parse_m2("S a\nA x y|||T|||z|||REQUIRED|||-NONE-|||0\n")


@pytest.mark.parametrize(
    "text,message",
    [
        # edits are sorted by span before they are checked
        (
            "S a b c\n" + _a("1 3", "z") + _a("0 2", "y"),
            "line 1: in unit starting here: edit (1,3)->'z' overlaps (0,2)->'y'",
        ),
        # an identity edit (its replacement equals the source span) is
        # checked like any other
        (
            "S a b c\n" + _a("0 2", "a b") + _a("1 3", "z"),
            "line 1: in unit starting here: edit (1,3)->'z' overlaps (0,2)->'a b'",
        ),
        # every annotator's order is checked before any span's bounds
        (
            "S a\n" + _a("0 5", "y", 0) + _a("0 1", "p", 1) + _a("0 1", "q", 1),
            "line 1: in unit starting here: edit (0,1)->'q' overlaps (0,1)->'p'",
        ),
    ],
    ids=["overlap-out-of-order", "identity-overlap", "order-before-bounds"],
)
def test_parse_rejects_bad_edits_with_exact_message(text, message):
    _rejects(text, message)


def test_read_m2_file_handles_bom(tmp_path):
    path = tmp_path / "gold.m2"
    path.write_bytes(b"\xef\xbb\xbf" + SAMPLE.encode("utf-8"))
    assert read_m2_file(path) == parse_m2(SAMPLE)


def test_read_parallel_text(tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text("a b\n\nc\n", encoding="utf-8")
    rows = read_parallel_text(path)
    assert [r.tokens for r in rows] == [("a", "b"), (), ("c",)]


def test_read_reference_files_zips_columns(tmp_path):
    one = tmp_path / "r1.txt"
    two = tmp_path / "r2.txt"
    one.write_text("a\nb\n", encoding="utf-8")
    two.write_text("c\nd\n", encoding="utf-8")
    rows = read_reference_files([one, two])
    assert [[ref.text for ref in row] for row in rows] == [["a", "c"], ["b", "d"]]
    assert isinstance(rows, tuple) and all(isinstance(row, tuple) for row in rows)


def test_read_reference_files_rejects_ragged(tmp_path):
    one = tmp_path / "r1.txt"
    two = tmp_path / "r2.txt"
    one.write_text("a\n", encoding="utf-8")
    two.write_text("c\nd\n", encoding="utf-8")
    with pytest.raises(ValidationError):
        read_reference_files([one, two])


def test_parse_human_ranking():
    ranking = parse_human_ranking("sysA\t0.5\nsysB\t-1\n\n")
    assert ranking == {"sysA": 0.5, "sysB": -1.0}
    assert list(ranking) == ["sysA", "sysB"]  # file order


@pytest.mark.parametrize("id_field", ["", "  "])
def test_parse_human_ranking_rejects_empty_id(id_field):
    with pytest.raises(ParseError, match="line 2: empty system id"):
        parse_human_ranking(f"a\t1\n{id_field}\t0.5\n")


def test_parse_human_ranking_rejects_duplicates():
    with pytest.raises(ParseError, match="duplicate"):
        parse_human_ranking("a\t1\na\t2\n")


def test_parse_human_ranking_rejects_non_numeric():
    with pytest.raises(ParseError, match="non-numeric"):
        parse_human_ranking("a\tfast\n")


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity"])
def test_parse_human_ranking_rejects_non_finite(value):
    with pytest.raises(ParseError, match="line 2: non-finite"):
        parse_human_ranking(f"a\t1\nb\t{value}\nc\t2\n")


def test_build_report_key_order_and_rounding():
    doc = build_report(
        systems=[{"id": "a", "score": 0.123456789}],
        correlations=[{"label": "x", "spearman": 1 / 3}],
    )
    assert list(doc) == ["format_version", "systems", "correlations", "sweep"]
    assert doc["format_version"] == 1
    assert doc["systems"][0]["score"] == 0.123457
    assert doc["correlations"][0]["spearman"] == 0.333333


def test_build_report_rounding_is_significant_digits():
    doc = build_report(systems=[{"id": "a", "v": 1234567.89}])
    assert doc["systems"][0]["v"] == 1234570.0
    doc = build_report(systems=[{"id": "a", "v": 0.000012345678}])
    assert doc["systems"][0]["v"] == 1.23457e-05


@pytest.mark.parametrize("bom, offset", [(b"", 5), (b"\xef\xbb\xbf", 8)])
def test_invalid_utf8_names_the_file_and_byte(tmp_path, bom, offset):
    path = tmp_path / "sys.txt"
    path.write_bytes(bom + b"a b\nc\xff\n")
    with pytest.raises(ParseError, match=f"sys.txt: invalid UTF-8 at byte {offset}$"):
        read_parallel_text(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_report_is_not_rendered(tmp_path, value):
    doc = build_report(systems=[{"id": "a", "v": value}])
    with pytest.raises(ValidationError, match="non-finite"):
        render_report(doc)
    path = tmp_path / "report.json"
    with pytest.raises(ValidationError):
        write_report(path, doc)
    assert not path.exists()


def test_build_report_leaves_ints_alone():
    doc = build_report(systems=[{"id": "a", "n": 123456789}])
    assert doc["systems"][0]["n"] == 123456789


def test_build_report_optional_sections():
    doc = build_report(rankings=[{"system": "a", "rank": 1.0}])
    assert "rankings" in doc
    assert "ablation" not in doc
    assert "detections" not in doc


def test_render_report_is_json_with_trailing_newline():
    text = render_report(build_report())
    assert text.endswith("\n")
    assert json.loads(text)["format_version"] == 1


def test_write_report_round_trip(tmp_path):
    path = tmp_path / "report.json"
    doc = build_report(systems=[{"id": "a", "v": 0.5}])
    write_report(path, doc)
    assert json.loads(path.read_text(encoding="utf-8")) == doc


# Characters that str.splitlines() breaks on but that can occur inside a line.
INNER_BREAKS = ["\x85", "\u2028", "\u2029", "\x0b", "\x0c", "\x1c"]


@pytest.mark.parametrize("mark", INNER_BREAKS)
def test_read_parallel_text_splits_on_newline_only(tmp_path, mark):
    path = tmp_path / "hyp.txt"
    path.write_bytes(f"he{mark}goes home\r\nok\n".encode("utf-8"))
    sentences = read_parallel_text(path)
    assert [s.tokens for s in sentences] == [("he", "goes", "home"), ("ok",)]


@pytest.mark.parametrize("mark", INNER_BREAKS)
def test_parse_m2_splits_on_newline_only(tmp_path, mark):
    text = f"S he{mark}go home\r\nA 1 2|||Verb|||goes|||REQUIRED|||-NONE-|||0\n"
    (unit,) = parse_m2(text)
    assert unit.source.tokens == ("he", "go", "home")
    path = tmp_path / "gold.m2"
    path.write_bytes(text.encode("utf-8"))
    assert read_m2_file(path) == [unit]


@pytest.mark.parametrize("mark", INNER_BREAKS)
def test_parse_human_ranking_splits_on_newline_only(mark):
    ranking = parse_human_ranking(f"sys{mark}a\t1.5\r\nb\t2\n")
    assert ranking == {f"sys{mark}a": 1.5, "b": 2.0}

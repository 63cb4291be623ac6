"""The package declares ``requires-python = ">=3.10"``: every source file
must parse under the 3.10 grammar. This checks syntax only, not library
calls added after 3.10."""

import ast
from pathlib import Path

import pytest

import gecmetric

_SOURCES = sorted(Path(gecmetric.__file__).parent.rglob("*.py"))


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_source_parses_under_the_python_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("newer", ["try:\n    pass\nexcept* ValueError:\n    pass\n",
                                   "type X = int\n"])
def test_the_3_10_grammar_rejects_newer_syntax(newer):
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=(3, 10))

"""The README's Library section and the package agree.

Each of the README's python blocks must run as a whole, and so must each
``from gecmetric... import ...`` line in them; each ``gecmetric`` command
line of its sh blocks must parse; each function, class,
module attribute or dataclass field that the Library section names in
backticks must resolve, so that deleting documented API or breaking an
example fails here. Each name a public module lists in ``__all__`` must
resolve too, so that a deleted name cannot stay listed. The reverse holds
as well: each such name, and each public method of a class listed there,
is used in ``src/``, named in the Library section or used under
``bench/``, so that API nothing calls and nobody can find gets deleted.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import gecmetric
from gecmetric import grammaticality
from gecmetric.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
LIBRARY = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]

BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)

IMPORTS = list(
    dict.fromkeys(
        line.strip()
        for block in BLOCKS
        for line in block.splitlines()
        if re.match(r"\s*from gecmetric[\w.]* import \w", line)
    )
)

# The sh blocks' command lines, backslash continuations joined
COMMANDS = [
    line
    for block in re.findall(r"```sh\n(.*?)```", README, re.S)
    for line in block.replace("\\\n", " ").splitlines()
    if line.startswith("gecmetric ")
]

# The built-in detector table's rows: | `id` | `CATEGORY` | what it flags |
DETECTOR_ROWS = re.findall(r"^\| `(\w+)` \| `(\w+)` \|", README, re.M)

# Backticked words in the prose that are argument or field names, not API.
PROSE_WORDS = {"i", "refs", "score"}

# `name`, `module.name`, `Class.method` or a call such as `name(args)`,
# outside the code blocks
PROSE = re.sub(r"```.*?```", "", LIBRARY, flags=re.S)
NAMES = sorted(set(re.findall(r"`([A-Za-z_][\w.]*)(?:\(.*?\))?`", PROSE)) - PROSE_WORDS)

MODULES = [gecmetric] + [
    importlib.import_module(f"gecmetric.{info.name}")
    for info in pkgutil.iter_modules(gecmetric.__path__)
    if not info.name.startswith("_")
]


def _resolve(dotted: str):
    head, *rest = dotted.split(".")
    owners = [module for module in MODULES if hasattr(module, head)]
    assert owners, f"no gecmetric module defines {head!r}"
    obj = getattr(owners[0], head)
    for part in rest:
        is_dataclass = dataclasses.is_dataclass(obj)
        fields = {f.name: f for f in dataclasses.fields(obj)} if is_dataclass else {}
        obj = fields[part] if part in fields else getattr(obj, part)
    return obj


def test_dataclass_fields_resolve_and_misspelt_ones_do_not():
    assert _resolve("NgramLm.numbers").name == "numbers"
    assert _resolve("GleuStats.draws")  # a NamedTuple field is a class attribute
    with pytest.raises(AttributeError):
        _resolve("NgramLm.numberz")


def test_readme_shows_the_documented_api():
    assert any("gleu_stats" in line for line in IMPORTS)
    assert any("gleu_pool" in line for line in IMPORTS)
    assert {
        "gleu_multi_ref",
        "m2_sentence",
        "error_count_stats_many",
        "DetectorSuite.run_many",
        "read_reference_files",
        "parse_m2",
        "AnnotatedSource.gold",
        "AnnotatedSource.identity",
    } <= set(NAMES)


def test_detector_table_is_the_built_in_table():
    assert DETECTOR_ROWS == [
        (detector_id, category) for detector_id, category, _ in grammaticality.BUILT_IN
    ]


def test_readme_shows_every_command():
    assert {line.split()[1] for line in COMMANDS} == {
        "score", "rank", "correlate", "sweep", "ablate", "train-lfm", "check"}


@pytest.mark.parametrize("line", COMMANDS, ids=lambda line: line.split()[1])
def test_readme_command_line_parses(line):
    assert build_parser().parse_args(shlex.split(line)[1:]).func is not None


@pytest.mark.parametrize("line", IMPORTS)
def test_readme_import_runs(line):
    exec(line, {})


@pytest.mark.parametrize("block", BLOCKS, ids=lambda block: block.splitlines()[-1])
def test_readme_block_runs(block, capsys):
    exec(block, {})


@pytest.mark.parametrize("name", NAMES)
def test_library_name_resolves(name):
    _resolve(name)


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_all_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ lists undefined {missing}"



def _uses(directory, strings):
    """Every name read and every attribute taken in the code of the ``.py``
    files in ``directory``; with ``strings``, also the dotted parts of each
    string constant (``bench/spans.py`` names its targets in strings). A
    definition, a docstring or an ``__all__`` entry is not a use."""
    used = set()
    for path in sorted(directory.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(node.value.split("."))
    return used


ROOT = Path(__file__).resolve().parents[1]
SRC_USES = _uses(ROOT / "src" / "gecmetric", strings=False)
BENCH_USES = _uses(ROOT / "bench", strings=True)


def _public_api():
    """(qualified name, name, name as the README would write it) for each
    name in a public module's ``__all__``, and for each public method that
    a class listed there defines (``Class.method``)."""
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            yield f"{module.__name__}.{name}", name, name
            obj = getattr(module, name)
            for attr, value in vars(obj).items() if inspect.isclass(obj) else ():
                method = inspect.isfunction(value) or isinstance(
                    value, (staticmethod, classmethod))
                if method and not attr.startswith("_"):
                    yield f"{module.__name__}.{name}.{attr}", attr, f"{name}.{attr}"


@pytest.mark.parametrize(
    "name, written", [pytest.param(name, written, id=qualified)
                      for qualified, name, written in _public_api()])
def test_public_api_is_used_or_documented(name, written):
    """Public API that nothing uses and the README does not name cannot be
    found: each name is used in ``src/`` beyond its own definition, named
    in the Library section, or used under ``bench/``."""
    named = re.search(rf"(?<!\w){re.escape(written)}(?!\w)", LIBRARY) is not None
    found = name in SRC_USES or named or name in BENCH_USES
    assert found, (
        f"{written} is neither used in src/, named in the README's Library "
        "section, nor used under bench/")

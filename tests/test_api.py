"""The public API holds only names that the program, its benchmark or its
documentation use."""

import ast
import re
from pathlib import Path

import tasep2

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_is_used_outside_the_tests():
    """Each name in `tasep2.__all__` is referenced in src/ (other than by
    `__init__.py`), perfbench/ or README.md, other than by its own def or
    class line."""
    files = [p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "perfbench").rglob("*.py"), ROOT / "README.md"]
    lines = [line for p in files for line in p.read_text().splitlines()]
    unused = []
    for name in tasep2.__all__:
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"\s*(def|class)\s+{name}\b")
        if not any(word.search(line) and not own.match(line) for line in lines):
            unused.append(name)
    assert unused == []


def test_option_count_does_not_grow():
    """Parameters with a default value in any function of src/tasep2, and
    argparse `add_argument` calls in cli.py, stay at or below their counts
    (11 and 22); a change that raises a ceiling says why."""
    src = ROOT / "src" / "tasep2"
    defaulted = 0
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                defaulted += len(node.args.defaults)
                defaulted += sum(d is not None for d in node.args.kw_defaults)
    flags = sum(isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
                for node in ast.walk(ast.parse((src / "cli.py").read_text())))
    assert defaulted <= 11
    assert flags <= 22

"""The public API holds only names that the program, its benchmark or its
documentation use."""

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

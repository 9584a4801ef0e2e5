"""Every import is used: a stdlib-ast check over the library, tests,
scripts and demos (the package __init__ re-exports, so it is skipped)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p
    for pattern in ("src/infmax/*.py", "tests/*.py", "scripts/*.py", "demos/*.py")
    for p in ROOT.glob(pattern)
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_the_check_finds_an_unused_import():
    src = "import os\nimport os.path as osp\nfrom a import b, c\nprint(b, osp)\n"
    assert unused_imports(src) == ["os (line 1)", "c (line 3)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []

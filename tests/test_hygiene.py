"""Source hygiene: every imported name is used in the file that imports it.

Covers ``src/cstnet``, ``tests`` and ``scripts``.  A package ``__init__``
imports names to re-export them, so names listed in a module's ``__all__``
count as used.  An import line marked ``# noqa`` with no codes, or with
F401 among them, is skipped.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "cstnet").glob("*.py"), *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "scripts").glob("*.py")])
NOQA = re.compile(r"#\s*noqa(?::\s*([\w, ]+))?")


def waives_unused(line: str) -> bool:
    """True if ``line`` carries a bare ``# noqa`` or one that lists F401."""
    match = NOQA.search(line)
    return bool(match) and (match.group(1) is None or "F401" in match.group(1))


def unused_imports(path: Path) -> list[str]:
    """``line: name`` for each name that ``path`` imports but never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if waives_unused(lines[node.lineno - 1]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path) == []

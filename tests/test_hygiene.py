"""Source hygiene: every name a library module imports is used there, and
every name a library module defines is used or re-exported."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mvsynth"
# ``__init__`` imports names to re-export them, not to use them.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scanner_finds_unused_imports():
    source = "from a import b, c\nimport d.e\nimport f as g\nprint(c, d)\n"
    assert unused_imports(source) == ["b (line 1)", "g (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _defined(stmt) -> list[str]:
    """Names a module-level statement binds (imports aside: they have
    their own scan)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    )
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def dead_names(modules: dict[str, str], init_source: str) -> list[str]:
    """Module-level names of ``modules`` (module name -> source) that no
    module loads, as a name or an attribute, and ``__init__`` does not
    re-export."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    init = ast.parse(init_source)
    exported = {
        alias.asname or alias.name
        for node in ast.walk(init) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    loaded = set()
    for tree in (*trees.values(), init):
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                loaded.add(n.id)
            elif isinstance(n, ast.Attribute):
                loaded.add(n.attr)
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for stmt in tree.body
        for name in _defined(stmt)
        if name not in loaded and name not in exported
    )


def test_scanner_finds_dead_names():
    modules = {
        "a": "X = 1\nY: int = 2\nP, Q = 3, 4\ndef f():\n    return X + P\nclass C:\n    pass\n",
        "b": "import a\nprint(a.f)\n",
    }
    assert dead_names(modules, "from .a import C\n") == ["a.Q", "a.Y"]


def test_no_dead_names():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    init = (SRC / "__init__.py").read_text(encoding="utf-8")
    assert dead_names(modules, init) == []

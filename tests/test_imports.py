import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(tree):
    """(line, name) of each name a module imports but never reads; names in
    __all__ count as read and `from __future__` imports are not counted."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_no_unused_imports():
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        names = unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert found == {}

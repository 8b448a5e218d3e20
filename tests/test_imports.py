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


def unread_private_names(trees):
    """(file, line, name) of each module-level private name that a module of
    `trees` ({file: tree}) defines and none of them reads.  A read is a
    loaded name or an attribute; an import is not one (an import that no
    module reads is found by test_no_unused_imports)."""
    read = set()
    defined = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(path, node.lineno, name) for name in names
                        if name.startswith("_") and not name.endswith("__")]
    return sorted(entry for entry in defined if entry[2] not in read)


def test_every_private_name_in_src_is_read_in_src():
    trees = {str(path.relative_to(ROOT)): ast.parse(path.read_text(), filename=str(path))
             for path in sorted((ROOT / "src").rglob("*.py"))}
    assert unread_private_names(trees) == []


def test_packets_takes_only_the_amplitude_pair_from_barrier():
    # every packet channel is built from the pair (R_B, T_B): packets reads
    # no other amplitude kernel of barrier
    tree = ast.parse((ROOT / "src" / "tunneltimes" / "packets.py").read_text())
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "barrier"
             for alias in node.names}
    assert names == {"BarrierConfig", "_collision_amplitudes", "interior_field"}

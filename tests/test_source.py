import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pocketcube"

# top-level names that src/ defines and never reads, each with its reason
UNREAD = {
    # perfbench draws its solve workload's states with it (ROADMAP item 4)
    ("cube", "random_canonical"),
}


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function, a class or the
    plain names it assigns."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _read(stmt: ast.stmt) -> set[str]:
    """Every name a statement reads: as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_top_level_name_is_read_or_exported():
    # no dead or test-only helpers in src/: each top-level function, class
    # and assigned name of a module is read by some other top-level
    # statement of src/, or exported by __all__
    modules = {path.stem: ast.parse(path.read_text()).body for path in SRC.glob("*.py")}
    reads = {(mod, i): _read(stmt) for mod, body in modules.items()
             for i, stmt in enumerate(body)}
    exported = {elt.value for stmt in modules["__init__"] if "__all__" in _defined(stmt)
                for elt in stmt.value.elts}
    unread = set()
    for mod, body in modules.items():
        for i, stmt in enumerate(body):
            for name in _defined(stmt):
                if name.startswith("__") or name in exported:
                    continue
                if not any(name in names for key, names in reads.items() if key != (mod, i)):
                    unread.add((mod, name))
    assert unread == UNREAD


def _imported(tree: ast.Module) -> set[str]:
    """The names a module's imports bind, but those of `from __future__`."""
    return {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__" for alias in node.names}


def test_every_import_is_read():
    # no dead imports in src/: each name a module imports is read in that
    # module as a name, alone or as an attribute's base, annotations
    # included; `from __future__` and the names __init__ re-exports by
    # __all__ are exempt
    unread = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = {elt.value for stmt in tree.body if "__all__" in _defined(stmt)
                    for elt in stmt.value.elts}
        unread |= {(path.stem, name) for name in _imported(tree) - read - exported}
    assert unread == set()

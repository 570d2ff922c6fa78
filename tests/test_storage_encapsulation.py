"""A shard's MVCC state is reached only through the store's methods.

The heaps, chains, indexes, commit-log records and catalog entries live in
:mod:`repro.storage`, and code outside it reads or changes them through
``StorageEngine`` (``table``, ``copy_into``, ``promote``...). This test
walks every module of ``src/`` with :mod:`ast` and fails on an attribute
access named after one of those private fields outside ``repro/storage``.

Inside the store there is one write path: a primary's DML and replay both
write a row through replay's handlers. So ``storage/engine.py`` builds a
``RowVersion`` only in ``_apply_insert``, ``_apply_update`` and
``bulk_load``, and nothing in ``src/`` but ``_note_undo`` adds an entry
to an undo list.
"""

import ast
import pathlib

import repro

PRIVATE_STATE = {"_tables", "_rows", "_indexes", "_records", "_ddl_ts"}
SRC = pathlib.Path(repro.__file__).resolve().parent.parent
STORAGE = SRC / "repro" / "storage"
ENGINE = STORAGE / "engine.py"
VERSION_WRITERS = {"_apply_insert", "_apply_update", "bulk_load"}
UNDO_WRITER = "_note_undo"


def private_state_accesses(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.relative_to(SRC)}:{lineno} .{attr}"
            for lineno, attr in sorted(
                (node.lineno, node.attr) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr in PRIVATE_STATE)]


def test_walk_sees_the_storage_package():
    hits = [hit for path in sorted(STORAGE.rglob("*.py"))
            for hit in private_state_accesses(path)]
    assert any("_tables" in hit for hit in hits)
    assert any("_records" in hit for hit in hits)


def test_no_private_storage_state_outside_storage():
    offenders = [hit for path in sorted(SRC.rglob("*.py"))
                 if STORAGE not in path.parents
                 for hit in private_state_accesses(path)]
    assert not offenders, "\n".join(offenders)


def nodes_by_function(path: pathlib.Path) -> list[tuple[str | None, ast.AST]]:
    """Every node of ``path`` with the name of the innermost ``def``
    around it (None at module level)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = (child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)
            found.append((name, child))
            visit(child, name)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def mentions_undo(node: ast.AST) -> bool:
    return any(isinstance(inner, ast.Attribute) and inner.attr == "_undo"
               for inner in ast.walk(node))


def version_builds(path: pathlib.Path) -> list[tuple[str | None, int]]:
    return [(owner, node.lineno) for owner, node in nodes_by_function(path)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "RowVersion"]


def undo_additions(path: pathlib.Path) -> list[tuple[str | None, int]]:
    """Calls that grow a list reached through ``_undo``
    (``self._undo[t].append(e)``) and stores into one of its slots
    (``self._undo[t] = [e]``)."""
    hits = []
    for owner, node in nodes_by_function(path):
        if isinstance(node, ast.Call):
            grows = (isinstance(node.func, ast.Attribute)
                     and node.func.attr in ("append", "extend", "insert")
                     and mentions_undo(node.func.value))
        elif isinstance(node, ast.Assign):
            grows = any(isinstance(target, ast.Subscript)
                        and mentions_undo(target.value)
                        for target in node.targets)
        else:
            grows = False
        if grows:
            hits.append((owner, node.lineno))
    return hits


def test_walk_sees_the_write_path():
    assert {owner for owner, _line in version_builds(ENGINE)} \
        == VERSION_WRITERS
    assert {owner for owner, _line in undo_additions(ENGINE)} \
        == {UNDO_WRITER}


def test_versions_are_built_only_by_the_write_handlers():
    offenders = [f"storage/engine.py:{line} in {owner}"
                 for owner, line in version_builds(ENGINE)
                 if owner not in VERSION_WRITERS]
    assert not offenders, "\n".join(offenders)


def test_undo_is_recorded_only_by_note_undo():
    offenders = [f"{path.relative_to(SRC)}:{line} in {owner}"
                 for path in sorted(SRC.rglob("*.py"))
                 for owner, line in undo_additions(path)
                 if owner != UNDO_WRITER]
    assert not offenders, "\n".join(offenders)

"""A shard's MVCC state is reached only through the store's methods.

The heaps, chains, indexes, commit-log records and catalog entries live in
:mod:`repro.storage`, and code outside it reads or changes them through
``StorageEngine`` (``table``, ``copy_into``, ``promote``...). This test
walks every module of ``src/`` with :mod:`ast` and fails on an attribute
access named after one of those private fields outside ``repro/storage``.
"""

import ast
import pathlib

import repro

PRIVATE_STATE = {"_tables", "_rows", "_indexes", "_records", "_ddl_ts"}
SRC = pathlib.Path(repro.__file__).resolve().parent.parent
STORAGE = SRC / "repro" / "storage"


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

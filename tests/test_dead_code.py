"""Dead-code guard over the package source, read with the standard
library's `ast`: every module-level private function is referenced
somewhere in the package, every name a module other than `__init__`
imports is used in that module, and every public module-level function
and every public method of every class is read somewhere in the package,
the benchmark or the tests.  A method counts as read when any attribute
of that name is, so a name two classes share is read for both."""

import ast
import functools
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "planarprop"
TREES = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}
EVERYWHERE = [*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py"), *(ROOT / "tests").glob("*.py")]


def _read_names(tree) -> set[str]:
    """The bare names and attribute names a tree reads."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_private_function_is_referenced():
    read = set().union(*map(_read_names, TREES.values()))
    unreferenced = [
        f"{module}.{node.name}"
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in read
    ]
    assert not unreferenced, f"private functions nothing in src references: {unreferenced}"


@functools.cache
def _read_everywhere() -> set[str]:
    """The names read in the package, the benchmark and the tests."""
    return set().union(*(_read_names(ast.parse(p.read_text(), str(p))) for p in EVERYWHERE))


def test_every_public_function_is_read():
    read = _read_everywhere()
    unread = [
        f"{module}.{node.name}"
        for module, tree in TREES.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and node.name not in read
    ]
    assert not unread, f"public functions nothing in src, bench or tests reads: {unread}"


CLASSES = {
    f"{module}.{node.name}": node
    for module, tree in TREES.items()
    for node in tree.body
    if isinstance(node, ast.ClassDef)
}


@pytest.mark.parametrize("cls", sorted(CLASSES))
def test_every_public_method_is_read(cls):
    read = _read_everywhere()
    unread = [
        node.name for node in CLASSES[cls].body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and node.name not in read
    ]
    assert not unread, f"public methods of {cls} nothing in src, bench or tests reads: {unread}"


@pytest.mark.parametrize("module", sorted(m for m in TREES if m != "__init__"))
def test_every_import_is_used(module):
    tree = TREES[module]
    read = _read_names(tree)
    unused = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in read
    ]
    assert not unused, f"names imported into {module} and never used: {unused}"


def _references(attr: bool, name: str) -> list[str]:
    """The functions of the package, as module.[Class.]function, that read
    `name` as a bare name (or, with attr, as an attribute), once per read;
    a read at module level is listed under its module."""
    out = []

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Attribute if attr else ast.Name) and (child.attr if attr else child.id) == name:
                out.append(where)
            walk(child, where)

    for module, tree in TREES.items():
        walk(tree, module)
    return out


def test_whole_system_echelon_is_read_only_by_kernel():
    """The package eliminates a whole Leibniz system only to read a
    single slot's space, in `_kernel`; every other count or basis goes
    through `_kernel` or the fiber product."""
    assert set(_references(False, "_leibniz_echelon")) == {"operators._kernel"}


def test_dense_rows_are_read_only_inside_linalg():
    """Outside `linalg`, the package reads and writes matrices through
    their integer form or their constructors; nothing else reads the
    dense `.rows` view."""
    assert [r for r in _references(True, "rows") if not r.startswith("linalg.")] == []

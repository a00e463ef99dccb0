"""Code raises the three bases of `errors.py` directly.  An exception class
defined anywhere else must earn its place: some `except` clause in
src/seisreg catches it by name, or it defines `__init__` to carry data."""

import ast
import builtins
import os

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src", "seisreg")


def _trees():
    """(relative path, parsed module) of every module of src/seisreg."""
    for folder, _, files in os.walk(SRC_DIR):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as fh:
                    yield os.path.relpath(path, SRC_DIR), ast.parse(fh.read(), path)


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _is_builtin_exception(name):
    value = getattr(builtins, name, None)
    return isinstance(value, type) and issubclass(value, BaseException)


def _exception_classes(trees):
    """{class name: (relative path, ClassDef)} of every class that derives,
    through classes of src/seisreg, from a builtin exception."""
    classes = {node.name: (rel, node) for rel, tree in trees
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    found = {}
    while True:
        more = {name: entry for name, entry in classes.items()
                if name not in found and any(
                    _name(b) in found or _is_builtin_exception(_name(b))
                    for b in entry[1].bases)}
        if not more:
            return found
        found.update(more)


def _caught_names(trees):
    caught = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = (node.type.elts if isinstance(node.type, ast.Tuple)
                         else [node.type])
                caught.update(_name(t) for t in types)
    return caught


def _defines_init(node):
    return any(isinstance(item, ast.FunctionDef) and item.name == "__init__"
               for item in node.body)


def test_every_exception_subclass_is_caught_or_carries_data():
    trees = list(_trees())
    classes = _exception_classes(trees)
    caught = _caught_names(trees)
    # the one that earns its place today, and no other
    assert {name for name, (rel, _) in classes.items()
            if rel != "errors.py"} == {"DivergedNonFinite"}
    found = [f"{rel}:{node.lineno} {name}"
             for name, (rel, node) in sorted(classes.items())
             if rel != "errors.py" and name not in caught
             and not _defines_init(node)]
    assert not found

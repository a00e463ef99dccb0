"""Two sets are named in one module each, and every other module reads them
from there: the attribute keys, their order and their long names in
`formats.volume.ATTRIBUTE_LONG_NAMES`, and the four evaluators and their
column order in `metrics.EVALUATORS`.  The volumes that feed the attribute
inputs are checked in one function, `pipeline.open_attributes`."""

import ast
import os

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src", "seisreg")


def _nodes_outside(home=None):
    """(relative path, AST node) of every node of every module of
    src/seisreg but `home` (of every module, without one)."""
    for folder, _, files in os.walk(SRC_DIR):
        for name in files:
            path = os.path.join(folder, name)
            rel = os.path.relpath(path, SRC_DIR)
            if not name.endswith(".py") or rel == home:
                continue
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                yield rel, node


def _values(nodes) -> list:
    return [getattr(n, "value", None) for n in nodes]


def test_no_module_spells_out_the_attribute_set():
    found = []
    for rel, node in _nodes_outside(os.path.join("formats", "volume.py")):
        if isinstance(node, (ast.Tuple, ast.List)) and _values(node.elts) == [
                "imp", "amp", "freq"]:
            found.append(f"{rel}:{node.lineno}")
    assert not found


def test_no_module_spells_out_the_evaluator_set():
    # in a row among a tuple's or list's elements, a call's positional
    # arguments or a dict's keys
    evaluators = ["cc", "rmse", "aem", "si"]
    found = []
    for rel, node in _nodes_outside("metrics.py"):
        if isinstance(node, (ast.Tuple, ast.List)):
            values = _values(node.elts)
        elif isinstance(node, ast.Call):
            values = _values(node.args)
        elif isinstance(node, ast.Dict):
            values = _values(node.keys)
        else:
            continue
        if any(values[i:i + len(evaluators)] == evaluators
               for i in range(len(values))):
            found.append(f"{rel}:{node.lineno}")
    assert not found


def test_only_the_opener_checks_volume_geometry():
    def geometry_checks(nodes):
        return [node.lineno for node in nodes if isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "same_geometry"]

    found, opener = [], []
    for rel, node in _nodes_outside():
        found += [f"{rel}:{line}" for line in geometry_checks([node])]
        if (rel, getattr(node, "name", None)) == ("pipeline.py", "open_attributes"):
            opener += [f"{rel}:{line}" for line in geometry_checks(ast.walk(node))]
    assert opener
    assert sorted(found) == sorted(opener)

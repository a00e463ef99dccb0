"""The attribute keys, their order and their long names live in
`formats.volume.ATTRIBUTE_LONG_NAMES` alone; every other module reads them
from there."""

import ast
import os

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src", "seisreg")
HOME = os.path.join("formats", "volume.py")


def test_no_module_spells_out_the_attribute_set():
    found = []
    for folder, _, files in os.walk(SRC_DIR):
        for name in files:
            path = os.path.join(folder, name)
            if not name.endswith(".py") or os.path.relpath(path, SRC_DIR) == HOME:
                continue
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, (ast.Tuple, ast.List)) and [
                        getattr(e, "value", None) for e in node.elts] == [
                        "imp", "amp", "freq"]:
                    found.append(f"{os.path.relpath(path, SRC_DIR)}:{node.lineno}")
    assert not found

"""Every name a module of src/seisreg imports is used there: read by its
code, listed in its `__all__`, or imported on a line marked `# noqa: F401`
(a binding kept for a caller that reaches it through the module)."""

import ast
import os

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src", "seisreg")


def _unused_imports(path) -> list:
    with open(path) as fh:
        text = fh.read()
    tree = ast.parse(text, path)
    lines = text.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            # `import a.b` binds `a`
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {lineno})" for name, lineno in imported.items()
            if name not in used]


def test_no_module_keeps_an_unused_import():
    found = {}
    for folder, _, files in os.walk(SRC_DIR):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                if unused := _unused_imports(path):
                    found[os.path.relpath(path, SRC_DIR)] = unused
    assert not found

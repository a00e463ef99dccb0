"""The benchmark tracer (perfbench/spans.py) wraps seisreg functions at
module attributes and reads some of their arguments by name.  A binding or
parameter it relies on that disappears breaks `--trace 1` only, so pin them
here."""

import importlib
import importlib.util
import inspect
import os
import re

SPANS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                          "spans.py")
SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src", "seisreg")
TRACER_ONLY = re.compile(
    r"^from \S+ import (.+?)\s+# noqa: F401  only for perfbench/spans\.py$",
    re.MULTILINE)


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_instrument_resolves_to_a_callable():
    for mod_name, attr, _, _ in load_spans().INSTRUMENTS:
        module = importlib.import_module(f"seisreg.{mod_name}")
        assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"


def test_hook_arguments_are_parameters():
    read = set()
    for mod_name, attr, _, hook in load_spans().INSTRUMENTS:
        if hook is None:
            continue
        names = set(re.findall(r'arg\["(\w+)"\]', inspect.getsource(hook)))
        fn = getattr(importlib.import_module(f"seisreg.{mod_name}"), attr)
        params = set(inspect.signature(fn).parameters)
        assert names <= params, (f"{mod_name}.{attr}", names - params)
        read |= names
    assert {"path", "trace", "n_out", "vol", "window"} <= read


def test_tracer_only_imports_are_instruments():
    # an import kept only so the tracer can wrap it outlives its instrument
    # unless something names it
    instruments = {(mod, attr) for mod, attr, _, _ in load_spans().INSTRUMENTS}
    found = []
    for folder, _, files in os.walk(SRC_DIR):
        package = os.path.relpath(folder, SRC_DIR).replace(os.sep, ".")
        for name in sorted(f for f in files if f.endswith(".py")):
            module = name[:-3] if package == "." else f"{package}.{name[:-3]}"
            with open(os.path.join(folder, name)) as fh:
                source = fh.read()
            for names in TRACER_ONLY.findall(source):
                found += [(module, attr.strip()) for attr in names.split(",")]
    assert found
    for pair in found:
        assert pair in instruments, f"{pair[0]}.{pair[1]} is no instrument"

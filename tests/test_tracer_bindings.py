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

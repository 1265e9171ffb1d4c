"""The benchmark's tracer finds every function and method it wraps.

`perfbench/tracer.py` names its targets as (module, "function" or
"Class.method") pairs and looks each one up in `okbody` when it installs,
so renaming or deleting a target breaks every traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402


def test_every_traced_target_resolves():
    # install() rebinds names in every module of MODULES, and reads a
    # method from its class's own namespace
    for module in tracer.MODULES:
        importlib.import_module(f"okbody.{module}")
    targets = [
        (module, name) for layer in tracer.LAYERS.values() for module, name, _ in layer
    ]
    assert targets
    missing = []
    for module, name in targets:
        obj = importlib.import_module(f"okbody.{module}")
        if "." in name:
            cls_name, meth = name.split(".")
            cls = getattr(obj, cls_name, None)
            found = cls is not None and meth in vars(cls)
        else:
            found = callable(getattr(obj, name, None))
        if not found:
            missing.append(f"{module}.{name}")
    assert missing == []

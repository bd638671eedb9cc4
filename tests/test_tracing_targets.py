"""The benchmark's tracer wraps graphpres functions by module and name.

A refactor that moves or renames one of them would break the traced
benchmark run without failing any other test; this reads the wrapped
targets from `perfbench/tracing.py` (without changing anything there) and
resolves each one on a fresh import of graphpres.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_every_traced_target_resolves():
    wrapped = load_wrapped()
    saved = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "graphpres"}
    for name in saved:
        del sys.modules[name]
    try:
        importlib.import_module("graphpres.cli")  # what the benchmark imports
        missing = []
        for span, module_name, attr in wrapped:
            owner = sys.modules.get(module_name)
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{span}: {module_name}.{attr}")
        assert not missing, missing
    finally:
        for name in [k for k in sys.modules if k.split(".")[0] == "graphpres"]:
            del sys.modules[name]
        sys.modules.update(saved)

"""The two independent checks stand apart from the derivation.

`verify` checks a derived presentation and `coxeter` checks Coxeter's
theorem; neither may reach the modules the derivation builds with.  The
import graph is read from the sources with `ast`: only relative
`from .x import ...` edges connect the modules.  The package `__init__`
imports nothing, so a fresh interpreter that imports one module loads
exactly that module's closure and the package.  README quotes each
check's closure in lines, and must quote the count computed here.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "graphpres"
README = SRC.parent.parent / "README.md"
DERIVATION = {"derive", "scaffold", "words", "builtins"}


def import_graph() -> dict[str, set[str]]:
    graph = {}
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        graph[path.stem] = {node.module for node in ast.walk(tree)
                            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module}
    return graph


def closure(graph: dict[str, set[str]], module: str) -> set[str]:
    seen, stack = set(), [module]
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            stack.extend(graph[name])
    return seen


def lines(modules: set[str]) -> int:
    return sum(len((SRC / f"{name}.py").read_text(encoding="utf-8").splitlines())
               for name in modules)


def readme_lines(module: str) -> int | None:
    """The closure size README quotes for `module`, "(N lines with `module` itself"."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    quoted = re.search(rf"\((\d+) lines with `{module}` itself", text)
    return int(quoted.group(1)) if quoted else None


def test_verify_coset_and_presentation_import_nothing_the_derivation_builds_with():
    graph = import_graph()
    reach = {name: closure(graph, name) for name in ("presentation", "coset", "verify")}
    for name, modules in reach.items():
        print(f"{name}: {sorted(modules)}, {lines(modules)} lines")
    assert reach["presentation"] == {"presentation"}
    assert reach["coset"] == {"coset", "perms", "presentation"}
    assert not reach["verify"] & DERIVATION
    assert readme_lines("verify") == lines(reach["verify"])


def test_coxeter_imports_nothing_the_derivation_or_the_verifier_builds_with():
    modules = closure(import_graph(), "coxeter")
    print(f"coxeter: {sorted(modules)}, {lines(modules)} lines")
    assert not modules & (DERIVATION | {"verify"})
    assert readme_lines("coxeter") == lines(modules)


@pytest.mark.parametrize("module", ["verify", "coxeter", "coset"])
def test_a_fresh_import_loads_only_the_static_closure(module):
    script = (f"import json, sys, graphpres.{module}; "
              "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'graphpres')))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)}).stdout
    loaded = set(json.loads(out))
    assert loaded == {"graphpres"} | {f"graphpres.{name}"
                                      for name in closure(import_graph(), module)}

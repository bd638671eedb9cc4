"""The verifier stands apart from the derivation it checks.

The import graph is read from the sources with `ast`, not by importing:
`import graphpres.verify` runs the package `__init__`, which loads every
module.  Only relative `from .x import ...` edges connect the modules.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "graphpres"


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


def test_verify_coset_and_presentation_import_nothing_the_derivation_builds_with():
    graph = import_graph()
    reach = {name: closure(graph, name) for name in ("presentation", "coset", "verify")}
    for name, modules in reach.items():
        print(f"{name}: {sorted(modules)}, {lines(modules)} lines")
    assert reach["presentation"] == {"presentation"}
    assert reach["coset"] == {"coset", "perms", "presentation"}
    assert not reach["verify"] & {"derive", "scaffold", "words", "builtins"}

"""Built-in actions: simplex skeletons, dodecahedron rotations, the binary
icosahedral double cover, and dihedral cycles.

Each constructor returns a ready DerivationInput (validated action, regular
scaffolding, loop set, stabilizer presentations) plus whatever exact data the
example carries.  The exact models, and the graph-only truncated dodecahedron,
are in `polyhedra`.
"""

from __future__ import annotations

from typing import NamedTuple

from .derive import DerivationInput, StabilizerData
from .golden import GoldenQuat, QUAT_C
from .graphs import ActionedGraph, Graph
from .perms import (FiniteGroupTable, identity, perm, perm_compose, perm_inverse,
                    require_listable, transposition, tree_fold)
from .polyhedra import dodecahedron_model, icosian_group
from .presentation import Presentation
from .scaffold import build_regular_scaffolding


def _standard_sym_relators(names: list[str]) -> list[list[tuple[str, int]]]:
    """Relators of the symmetric-group presentation on adjacent swaps:
    squares, braid words as (x y)^3, and commutators for distant pairs."""
    rels = []
    for i, x in enumerate(names):
        rels.append([(x, 1), (x, 1)])
        for j in range(i + 1, len(names)):
            y = names[j]
            if j == i + 1:
                rels.append([(x, 1), (y, 1)] * 3)
            else:
                rels.append([(x, 1), (y, 1), (x, -1), (y, -1)])
    return rels


def simplex_action(n: int) -> DerivationInput:
    """The symmetric group on n points acting on the complete graph."""
    if n < 3:
        raise ValueError("need n >= 3")
    require_listable(range(2, n + 1), n)  # n! elements, refused before any allocation
    graph = Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    gens = {f"x{i}": transposition(n, i - 1, i) for i in range(1, n)}
    ag = ActionedGraph.from_generators(graph, gens)
    sc = build_regular_scaffolding(ag)

    # stabilizer of vertex 0: the symmetric group on {1..n-1} on adjacent swaps
    stab_names = [f"s{i}" for i in range(2, n)]
    pres = Presentation.from_strings(stab_names, _standard_sym_relators(stab_names))
    gen_elements = {f"s{i}": ag.generator_labels[f"x{i}"] for i in range(2, n)}
    stabilizers = {0: StabilizerData(pres, gen_elements)}
    return DerivationInput(ag, sc, ((0, 1, 2, 0),), stabilizers, {"g[0]": "s1"}, f"simplex:{n}")


def dihedral_cycle_action(n: int) -> DerivationInput:
    """The dihedral group of order 2n on the n-cycle."""
    if n < 3:
        raise ValueError("need n >= 3")
    require_listable((2, n), n)
    graph = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    rot = perm([(i + 1) % n for i in range(n)])
    mirror = perm([(n - i) % n for i in range(n)])
    ag = ActionedGraph.from_generators(graph, {"r": rot, "m": mirror})
    sc = build_regular_scaffolding(ag)
    m_idx = ag.generator_labels["m"]
    stabilizers = {0: StabilizerData(
        Presentation.from_strings(["m"], [[("m", 1), ("m", 1)]]), {"m": m_idx})}
    loop = tuple(range(n)) + (0,)
    return DerivationInput(ag, sc, (loop,), stabilizers, {"g[0]": "g"}, f"dihedral:{n}")


def dodecahedron_action() -> DerivationInput:
    """The order-60 rotation group on the dodecahedron's vertex graph."""
    model = dodecahedron_model()
    ag = ActionedGraph.from_generators(model.graph, {"h": model.h_perm,
                                                     "s1": model.s1_perm})
    sc = build_regular_scaffolding(ag)
    h_idx = ag.generator_labels["h"]
    stabilizers = {0: StabilizerData(
        Presentation.from_strings(["h"], [[("h", 1)] * 3]), {"h": h_idx})}
    return DerivationInput(ag, sc, (model.base_loop,), stabilizers, {"g[0]": "g"}, "dodecahedron")


class BinaryIcosahedral(NamedTuple):
    input: DerivationInput
    quats: tuple[GoldenQuat, ...]         # element index -> quaternion
    named: dict[str, int]                 # h, s1, c, f


def binary_icosahedral_action() -> BinaryIcosahedral:
    """The order-120 double cover acting on the dodecahedron through its
    quotient; carried by permutations of its 120 exact quaternions (the
    inverses of the right-regular ones)."""
    model = dodecahedron_model()
    tree, right = icosian_group(model)
    quats = list(tree)
    index = {q: i for i, q in enumerate(quats)}
    # the carrier of a generator g is the inverse of its right-regular
    # permutation i -> index(q_i g), a faithful homomorphism; their closure
    # lists the carriers in the order of the quaternion tree, down which the
    # vertex action is carried
    carrier_gens = [perm_inverse(perm(index[right[q][k]] for q in quats)) for k in range(2)]
    table = FiniteGroupTable(carrier_gens)
    vertex_action = [model.h_perm, model.s1_perm]
    carried = tree_fold(tree, identity(model.graph.vertex_count),
                        lambda p, k: perm_compose(p, vertex_action[k]))
    action = [carried[q] for q in quats]
    named = {"h": index[model.h_quat], "s1": index[model.s1_quat],
             "c": index[QUAT_C], "f": index[model.f_quat]}
    ag = ActionedGraph(model.graph, table, action,
                       {"h": named["h"], "s1": named["s1"]})
    sc = build_regular_scaffolding(ag)
    stabilizers = {0: StabilizerData(
        Presentation.from_strings(["h"], [[("h", 1)] * 6]), {"h": named["h"]})}
    inp = DerivationInput(ag, sc, (model.base_loop,), stabilizers,
                          {"g[0]": "g", "h": "r"}, "binary-icosahedral")
    return BinaryIcosahedral(inp, tuple(quats), named)


BUILTIN_NAMES = ("simplex:<n>", "dodecahedron", "binary-icosahedral",
                 "dihedral:<n>", "truncated-dodecahedron")


def load_builtin(name: str) -> DerivationInput:
    """Derivation input for a builtin name such as `simplex:4`; a name that
    is not a builtin raises KeyError."""
    family, colon, size = name.partition(":")
    if colon and family in ("simplex", "dihedral"):
        if not (size.isascii() and size.isdecimal() and len(size) <= 9 and int(size) >= 3):
            raise KeyError(f"builtin {name!r}: n must be an integer from 3 to 999999999")
        return (simplex_action if family == "simplex" else dihedral_cycle_action)(int(size))
    if name == "dodecahedron":
        return dodecahedron_action()
    if name == "binary-icosahedral":
        return binary_icosahedral_action().input
    if name == "truncated-dodecahedron":
        raise KeyError("truncated-dodecahedron is a graph-only builtin; "
                       "use export-graph")
    raise KeyError(f"unknown builtin {name!r}")

"""Built-in actions: simplex skeletons, dodecahedron rotations, the binary
icosahedral double cover, the truncated dodecahedron, and dihedral cycles.

Each constructor returns a ready DerivationInput (validated action, regular
scaffolding, loop set, stabilizer presentations) plus whatever exact data the
example carries.
"""

from __future__ import annotations

from typing import NamedTuple

from .derive import DerivationInput, StabilizerData
from .golden import GoldenQuat, QUAT_C, Vec3, from_numerators, numerators
from .graphs import ActionedGraph, Graph, OrientedEdge, first_carriers
from .perms import (FiniteGroupTable, Perm, identity, perm, perm_compose, perm_inverse,
                    require_listable, transposition, tree_fold)
from .polyhedra import (DodecahedronModel, dodecahedron_model, icosian_group,
                        orient_clockwise)
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


class TruncatedDodecahedron(NamedTuple):
    """The corner-truncated dodecahedron graph with its free rotation action.

    Vertices of Y are corner flags (vertex, neighbor) of the dodecahedron,
    numbered by sorted flag; `t_map` sends each oriented edge of Y to the
    unique rotation carrying its origin flag to its target flag.
    """

    graph: Graph
    flags: tuple[tuple[int, int], ...]
    coords: tuple[Vec3, ...]
    pentagon_edges: frozenset[tuple[int, int]]  # the other edges are triangle sides
    faces: tuple[tuple[int, ...], ...]          # 32 clockwise boundary cycles
    group: FiniteGroupTable                      # the 60 rotations (vertex perms)
    flag_action: tuple[Perm, ...]                # the same elements on flags
    t_map: dict[OrientedEdge, int]
    model: DodecahedronModel


def truncated_dodecahedron() -> TruncatedDodecahedron:
    model = dodecahedron_model()
    X = model.graph
    flags = sorted((v, w) for v in range(X.vertex_count) for w in X.neighbors(v))
    flag_index = {fl: i for i, fl in enumerate(flags)}

    # the flag (v, w) sits at p + (q - p)/4 = (3p + q)/4: rows 3 r_v + r_w over 4d
    rows, d = numerators(model.coords)
    flag_rows = [tuple(3 * a + b for a, b in zip(rows[v], rows[w])) for v, w in flags]
    coords = from_numerators(flag_rows, 4 * d)

    pentagon = set()
    edges = []
    for v, w in flags:
        i = flag_index[(v, w)]
        j = flag_index[(w, v)]
        if i < j:
            edges.append((i, j))
            pentagon.add((i, j))
        for w2 in X.neighbors(v):
            if w2 == w:
                continue
            k = flag_index[(v, w2)]
            if i < k:
                edges.append((i, k))
    graph = Graph(60, edges)

    group = ActionedGraph.from_generators(model.graph,
                                          {"h": model.h_perm, "s1": model.s1_perm}).group
    flag_action = tuple(perm(flag_index[(p[v], p[w])] for v, w in flags)
                        for p in group.elements)

    faces: list[tuple[int, ...]] = []
    for v in range(X.vertex_count):
        cyc = tuple(flag_index[(v, w)] for w in X.neighbors(v))
        faces.append(orient_clockwise(cyc, flag_rows))
    for face in model.faces:  # already clockwise vertex cycles of X
        cyc = []
        for a, b in zip(face, face[1:] + face[:1]):
            cyc.append(flag_index[(a, b)])
            cyc.append(flag_index[(b, a)])
        faces.append(orient_clockwise(tuple(cyc), flag_rows))
    if len(faces) != 32:
        raise RuntimeError(f"the truncation has {len(faces)} faces, not 32")

    # free transitive action: the one element reaching each flag from the base flag
    base = flag_index[(model.labels["v"], model.labels["w1"])]
    reach = first_carriers(range(group.order), lambda g, fl: flag_action[g][fl], base)
    if len(reach) != 60:
        raise RuntimeError("the rotations do not reach all 60 flags from the base flag")

    t_map: dict[OrientedEdge, int] = {}
    for i, j in edges:
        gi, gj = reach[i], reach[j]
        t_map[OrientedEdge(i, j)] = group.product(gj, group.inverse(gi))
        t_map[OrientedEdge(j, i)] = group.product(gi, group.inverse(gj))

    return TruncatedDodecahedron(graph, tuple(flags), tuple(coords), frozenset(pentagon),
                                 tuple(faces), group, flag_action, t_map, model)


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

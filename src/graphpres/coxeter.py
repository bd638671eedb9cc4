"""The double-cover implication: z^2 = 1 follows from g^2 = r^-3 = (rg)^5.

Two independent verifications are provided.  `coxeter_implication_check`
enumerates the universal group on those relations and checks z's order, its
centrality, the quotient, and the classical identity chain.  The truncated
dodecahedron machinery re-derives z^2 = 1 geometrically: every face boundary
multiplies to z, assembling the 32 faces along a disc ordering cancels
everything except one z per pentagon edge, and 32 - 30 = 2 is the Euler
characteristic of the sphere.

`coxeter_substitution` rewrites the double cover as s^3 = t^5 = (st)^2 = z,
z^2 = 1, reading s, t and z off the one spelling `_S`, `_T`, `_Z`.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .coset import CosetTable, EnumerationLimitError, todd_coxeter
from .graphs import OrientedEdge, first_carriers
from .perms import FiniteGroupTable, bfs_tree
from .polyhedra import TruncatedDodecahedron, truncated_dodecahedron
from .presentation import Presentation, inverse_word

# the universal example: z := g^2 = r^-3 = (rg)^5, with no order imposed on z
UNIVERSAL_GRZ = Presentation.from_strings(
    ("g", "r"),
    [
        [("g", 1), ("g", 1), ("r", 1), ("r", 1), ("r", 1)],            # g^2 = r^-3
        [("g", 1), ("g", 1)] + [("g", -1), ("r", -1)] * 5,             # g^2 = (rg)^5
    ],
)

_G = (("g", 1),)
_R = (("r", 1),)
_S = (("r", -1),)                # s = r^-1
_T = (("r", 1), ("g", 1))        # t = r g
_Z = (("g", 1), ("g", 1))        # z = g^2

# the double cover over s, t, z: s^3 = t^5 = (st)^2 = z, z^2 = 1
COXETER_STZ = Presentation.from_strings(
    ("s", "t", "z"),
    [
        [("s", 1)] * 3 + [("z", -1)],
        [("t", 1)] * 5 + [("z", -1)],
        [("s", 1), ("t", 1)] * 2 + [("z", -1)],
        [("z", 1)] * 2,
    ],
)


class PatternMismatchError(ValueError):
    pass


def coxeter_substitution(p: Presentation) -> Presentation:
    """Tietze substitution z = g^2 = r^-3, s = r^-1, t = rg on a two-generator
    presentation of the order-120 double cover; returns the s,t,z form.

    The input must present the same group: this is verified by enumerating
    both presentations and checking each one's relators map to the identity
    in the other.  Raises PatternMismatchError otherwise.
    """
    if len(p.generators) != 2:
        raise PatternMismatchError("expected a presentation on two generators")
    try:
        src = todd_coxeter(p, limit=100_000)
    except EnumerationLimitError as exc:
        raise PatternMismatchError("input presentation does not close") from exc
    if src.n != 120:
        raise PatternMismatchError(f"input presents a group of order {src.n}, not 120")
    tgt = todd_coxeter(COXETER_STZ)
    if tgt.n != 120:
        raise RuntimeError("internal: s,t,z presentation should have order 120")

    for a, b in ((0, 1), (1, 0)):
        # candidate roles: generator a plays g, generator b plays r
        # forward: g -> s t, r -> s^-1; back: s, t, z -> _S, _T, _Z
        role = {"g": a, "r": b}
        fwd = {a: ((0, 1), (1, 1)), b: ((0, -1),)}
        back = {k: tuple((role[n], e) for n, e in w) for k, w in enumerate((_S, _T, _Z))}
        if _maps_to_identity(p, src=tgt, translation=fwd) and \
           _maps_to_identity(COXETER_STZ, src=src, translation=back):
            return COXETER_STZ
    raise PatternMismatchError("presentation is not the double-cover pattern")


def _maps_to_identity(pres: Presentation, src: CosetTable,
                      translation: Mapping[int, tuple[tuple[int, int], ...]]) -> bool:
    """Do all relators of `pres`, translated, evaluate to 1 in the table `src`?"""
    return all(src.trace(0, [letter for g, e in rel
                             for letter in (translation[g] if e > 0
                                            else inverse_word(translation[g]))]) == 0
               for rel in pres.relators)


class ImplicationReport(NamedTuple):
    ok: bool
    group_order: int
    z_order: int
    z_central: bool
    quotient_order: int
    identities: tuple[tuple[str, bool], ...]


def coxeter_implication_check() -> ImplicationReport:
    """Enumerate the universal two-relator group and verify the implication.

    The group closes at order 120 with z = g^2 central of order exactly 2 and
    quotient of order 60 modulo z; every intermediate identity of the
    classical derivation is re-checked as an element equality.
    """
    group = todd_coxeter(UNIVERSAL_GRZ).regular_group()
    g, r = group.gen_indices
    gens = {"g": g, "r": r}

    def elem(word: Sequence[tuple[str, int]]) -> int:
        return group.evaluate(gens, word)

    z = elem(_Z)
    z_central = group.conjugate(g, z) == z and group.conjugate(r, z) == z
    z_order = group.element_order(z)
    quotient = todd_coxeter(UNIVERSAL_GRZ, subgroup_words=[[(0, 1), (0, 1)]])

    checks = [
        ("z = g^2 = r^-3", elem(_Z) == elem(inverse_word(_R) * 3)),
        ("z = (rg)^5", elem(_Z) == elem((_R + _G) * 5)),
        ("s^3 = z", elem(_S * 3) == z),
        ("t^5 = z", elem(_T * 5) == z),
        ("(st)^2 = z", elem((_S + _T) * 2) == z),
        ("s^2 = t s t", elem(_S * 2) == elem(_T + _S + _T)),
        ("t^4 = s t s", elem(_T * 4) == elem(_S + _T + _S)),
        ("t = s^2 t^-1 s^-1", elem(_T) == elem(_S * 2 + inverse_word(_T) + inverse_word(_S))),
        ("s = t^-1 s^-1 t^4", elem(_S) == elem(inverse_word(_T) + inverse_word(_S) + _T * 4)),
        ("s^3 = (s t^-1)^5", elem(_S * 3) == elem((_S + inverse_word(_T)) * 5)),
        ("t^5 = (s^-1 t^2)^5", elem(_T * 5) == elem((inverse_word(_S) + _T * 2) * 5)),
        ("t^5 = (t^-2 s)^5", elem(_T * 5) == elem((inverse_word(_T) * 2 + _S) * 5)),
        ("z^2 = 1", group.product(z, z) == 0),
    ]
    ok = (group.order == 120 and z_order == 2 and z_central and quotient.n == 60
          and all(flag for _, flag in checks))
    return ImplicationReport(ok, group.order, z_order, z_central, quotient.n, tuple(checks))


class CoxeterContext(NamedTuple):
    """The universal group enumerated, with its lift of the edge labeling of
    the truncated dodecahedron."""

    Y: TruncatedDodecahedron
    group: FiniteGroupTable                # the universal group, 120 elements
    z: int
    tau: dict[OrientedEdge, int]

    def product_along(self, path: Sequence[int]) -> int:
        acc = 0
        for a, b in zip(path, path[1:]):
            acc = self.group.product(self.tau[OrientedEdge(a, b)], acc)
        return acc


def build_coxeter_context() -> CoxeterContext:
    Y = truncated_dodecahedron()
    table = todd_coxeter(UNIVERSAL_GRZ)
    if table.n != 120:
        raise RuntimeError("universal group did not close at order 120")
    cover = table.regular_group()
    g, r = cover.gen_indices
    z = cover.product(g, g)

    model = Y.model
    group = Y.group
    # words for the rotation group's elements over its two generators,
    # read inside the enumerated group as r and g
    h_idx, s1_idx = group.gen_indices
    # the corner turn reads as r (letter 1), the flip as g (letter 0)
    dwords = group.words({1: h_idx, 0: s1_idx})

    def lift(d_elem: int) -> int:
        return cover.evaluate({0: g, 1: r}, dwords[d_elem])

    # pentagon edges inherit the conjugated flip, corners the conjugated turn
    v0 = model.labels["v"]
    w1 = model.labels["w1"]
    base_edge = (v0, w1)
    elements = group.elements
    edge_carriers = first_carriers(range(group.order),
                                   lambda i, e: tuple(sorted(elements[i][x] for x in e)), base_edge)
    vertex_carriers = first_carriers(range(group.order), lambda i, w: elements[i][w], v0)
    g_of_x_edge = {d: cover.conjugate(lift(c), g) for d, c in edge_carriers.items()}
    r_of_x_vertex = {w: cover.conjugate(lift(c), r) for w, c in vertex_carriers.items()}

    clockwise_triangle_steps = {(a, b) for face in Y.faces if len(face) == 3
                                for a, b in zip(face, face[1:] + face[:1])}

    tau: dict[OrientedEdge, int] = {}
    for e in Y.t_map:
        i, j = e
        if (min(e), max(e)) in Y.pentagon_edges:
            x, y = Y.flags[i][0], Y.flags[j][0]
            tau[e] = g_of_x_edge[(min(x, y), max(x, y))]
        else:
            w = Y.flags[i][0]
            r_w = r_of_x_vertex[w]
            tau[e] = cover.inverse(r_w) if (i, j) in clockwise_triangle_steps else r_w
    return CoxeterContext(Y, cover, z, tau)


class FaceBoundaryReport(NamedTuple):
    ok: bool
    face_products_are_z: bool
    vertex_count: int
    edge_count: int
    pentagon_edges: int
    triangle_edges: int
    face_count: int
    euler: int
    z_squared_is_identity: bool


def face_boundary_check(ctx: CoxeterContext | None = None) -> FaceBoundaryReport:
    """Every clockwise face boundary multiplies to z; the counts reproduce
    z^32 = z^30 and hence z^2 = 1."""
    ctx = ctx or build_coxeter_context()
    Y = ctx.Y
    all_z = all(ctx.product_along(face + (face[0],)) == ctx.z for face in Y.faces)
    v = Y.graph.vertex_count
    e = len(Y.graph.edges)
    f = len(Y.faces)
    euler = v - e + f
    z2 = ctx.group.product(ctx.z, ctx.z) == 0
    pentagon = len(Y.pentagon_edges)
    ok = all_z and v == 60 and e == 90 and pentagon == 30 and f == 32 and euler == 2 and z2
    return FaceBoundaryReport(ok, all_z, v, e, pentagon, e - pentagon, f, euler, z2)


class DiscOrdering(NamedTuple):
    ok: bool
    order: tuple[int, ...]
    detail: str = ""


def _face_edges(face: Sequence[int]) -> frozenset[tuple[int, int]]:
    return frozenset((min(a, b), max(a, b))
                     for a, b in zip(face, tuple(face[1:]) + (face[0],)))


def _is_simple_path(edges: set[tuple[int, int]], shared_vertices: set[int]) -> bool:
    if not edges:
        return False
    degree: dict[int, int] = {}
    for a, b in edges:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    if set(degree) != shared_vertices:
        return False  # an isolated shared vertex breaks the segment
    ends = [v for v, d in degree.items() if d == 1]
    if len(ends) != 2 or any(d > 2 for d in degree.values()):
        return False
    # connected?
    adj: dict[int, list[int]] = {v: [] for v in degree}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return len(bfs_tree(ends[0], lambda u: [(w, w) for w in adj[u]])) == len(degree)


def greedy_disc_ordering(faces: Sequence[Sequence[int]]) -> DiscOrdering:
    """Order the faces so each prefix is a disc glued along a boundary
    segment, the last face closing along its whole boundary.

    One greedy pass from face 0: each step adds the least-index unused face
    that attaches along one boundary segment.  Every step is checked
    combinatorially, so a returned ordering is a certificate.
    """
    if not faces:
        return DiscOrdering(False, (), "no faces")
    face_edge = [_face_edges(f) for f in faces]
    order, rest = [0], list(range(1, len(faces)))
    used_edges, used_verts = set(face_edge[0]), set(faces[0])
    while len(rest) > 1:
        k = next((k for k in rest
                  if _is_simple_path(face_edge[k] & used_edges, used_verts & set(faces[k]))),
                 None)
        if k is None:
            return DiscOrdering(False, (), f"no face attaches to the first {len(order)}")
        rest.remove(k)
        order.append(k)
        used_edges |= face_edge[k]
        used_verts |= set(faces[k])
    if rest and not face_edge[rest[0]] <= used_edges:
        return DiscOrdering(False, (), f"the last face {rest[0]} does not close the disc")
    return DiscOrdering(True, tuple(order + rest))


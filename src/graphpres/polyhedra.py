"""Exact models: the regular dodecahedron, its rotation groups, and its
corner truncation.

Vertices carry Q(sqrt 5) coordinates; the labeled vertices v, w1..w3, a..f
around the base corner follow the standard corner picture, so traced loops
and golden identities can be checked literally.  The double cover is realized
by its 120 unit quaternions over the same field.  The combinatorics (edges,
rotation permutations, face orientations) are found on the integer numerators
of the points over one common denominator (`golden.numerators`).  The
truncated dodecahedron, on which `coxeter` multiplies face boundaries, is
built from the dodecahedron's corner flags.
"""

from __future__ import annotations

from typing import NamedTuple

from .golden import (GoldenNum, ONE, PHI, QUAT_ONE, Quat, Vec3, dot, from_numerators,
                     golden_sign, golden_sqrt, hamilton, numerators, quat_conj,
                     quat_from_rotation, quat_mul, quat_rotate, sq_dist, triple, vec3)
from .graphs import ActionedGraph, Graph, OrientedEdge, first_carriers
from .perms import FiniteGroupTable, Perm, bfs_tree, perm, perm_inverse
from .presentation import least_rotation

HALF = ONE / 2
INV_PHI = PHI - ONE  # 1/phi


def _coordinates() -> list[Vec3]:
    pts: list[Vec3] = []
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                pts.append(vec3(sx, sy, sz))
    for shift in range(3):
        for s1 in (1, -1):
            for s2 in (1, -1):
                p = [GoldenNum(0), s1 * INV_PHI, s2 * PHI]
                p = p[-shift:] + p[:-shift]
                pts.append(tuple(p))  # type: ignore[arg-type]
    return pts


EDGE_SQ_DIST = GoldenNum(6, -2)  # squared edge length: 6 - 2*sqrt(5)


def _rotation_perm(rows: list[tuple[int, ...]], d: int, q: Quat) -> Perm:
    """The permutation the rotation q makes of the points with these rows
    over d: q p q^-1 has numerators over d e^2, e the denominator of q, so
    each image is looked up among the rows times e^2."""
    e2 = q[8] * q[8]
    index = {tuple(e2 * c for c in r): i for i, r in enumerate(rows)}
    qc = quat_conj(q)
    return perm(index[hamilton(hamilton(q, (0, 0) + r + (d,)), qc)[2:8]] for r in rows)


class DodecahedronModel(NamedTuple):
    graph: Graph
    coords: tuple[Vec3, ...]
    labels: dict[str, int]          # v, w1..w3, a..f
    faces: tuple[tuple[int, ...], ...]   # 12 clockwise 5-cycles (seen from outside)
    h_perm: Perm
    s1_perm: Perm
    h_quat: Quat
    s1_quat: Quat
    f_quat: Quat

    @property
    def base_loop(self) -> tuple[int, ...]:
        L = self.labels
        return (L["v"], L["w1"], L["a"], L["b"], L["w2"], L["v"])


def orient_clockwise(cycle: tuple[int, ...], rows: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Reorder a face cycle to run clockwise as seen from outside, given the
    numerator rows of the points over one denominator d > 0: clockwise when
    (p0 - c) x (p1 - c) . c < 0 for the centre c, whose sign is that of
    det(r0, r1, sum of the rows).  A degenerate face raises ValueError."""
    center = tuple(map(sum, zip(*(rows[i] for i in cycle))))
    sign = golden_sign(*triple(rows[cycle[0]], rows[cycle[1]], center))
    if sign == 0:
        raise ValueError(f"face {cycle} is degenerate: it has no outside")
    if sign > 0:  # counterclockwise from outside; reverse
        cycle = (cycle[0],) + tuple(reversed(cycle[1:]))
    return cycle


def _half_turn_quat(axis: Vec3) -> Quat:
    """Lift of the half turn about the axis, oriented along -axis."""
    n2 = dot(axis, axis)
    lam = golden_sqrt(n2.inverse())
    if lam is None:
        raise ValueError("axis length is not a square in the field")
    return quat_from_rotation(axis, GoldenNum(0), -lam)


def build_dodecahedron() -> DodecahedronModel:
    raw = _coordinates()
    raw_rows, d = numerators(raw)
    v = vec3(1, 1, 1)
    w1 = (GoldenNum(0), INV_PHI, PHI)
    h_quat = quat_from_rotation(vec3(1, 1, 1), HALF, HALF)
    s1_quat = _half_turn_quat(tuple(a + b for a, b in zip(v, w1)))

    # provisional indexing to discover the combinatorics; EDGE_SQ_DIST over d^2
    edge = (EDGE_SQ_DIST.p * d * d, EDGE_SQ_DIST.q * d * d)
    edges = [(i, j) for i in range(20) for j in range(i + 1, 20)
             if sq_dist(raw_rows[i], raw_rows[j]) == edge]
    tmp_graph = Graph(20, edges)
    h, s1 = (_rotation_perm(raw_rows, d, q) for q in (h_quat, s1_quat))

    iv, iw1 = raw.index(v), raw.index(w1)
    iw3, iw2 = h[iw1], h[h[iw1]]
    if {iw1, iw2, iw3} != set(tmp_graph.neighbors(iv)):
        raise RuntimeError("the corner turn does not cycle the neighbors of v")

    # the face through the corner edges v-w1 and v-w2: v, w1, a, b, w2, the
    # only such a ~ b, as each 2-path of a cubic planar graph lies on one face
    ((ia, ib),) = [(a, b) for a in tmp_graph.neighbors(iw1) if a != iv
                   for b in tmp_graph.neighbors(iw2) if b != iv and tmp_graph.has_edge(a, b)]

    s3 = [h[s1[j]] for j in perm_inverse(h)]  # s3 = h s1 h^-1
    names = ["v", "w1", "w2", "w3", "a", "b", "c", "d", "e", "f"]
    named = [iv, iw1, iw2, iw3, ia, ib, s1[iw2], s1[ib], s3[s1[iw2]], s3[iw1]]
    if len(set(named)) != 10:
        raise RuntimeError("the labeled corner points are not distinct")
    # the rest in the order of their coordinates, which is that of their rows
    order = named + sorted(set(range(20)) - set(named), key=raw_rows.__getitem__)
    pos = perm_inverse(order)
    coords = [raw[i] for i in order]
    rows = [raw_rows[i] for i in order]
    labels = {name: i for i, name in enumerate(names)}

    graph = Graph(20, [(pos[i], pos[j]) for i, j in edges])
    h_perm = perm(pos[h[i]] for i in order)
    s1_perm = perm(pos[s1[i]] for i in order)

    # face axis: clockwise fifth turn about the center of the base face
    base_face = (labels["v"], labels["w1"], labels["a"], labels["b"], labels["w2"])
    face_sum = tuple(map(sum, zip(*(rows[i] for i in base_face))))
    (center,) = from_numerators([face_sum], 5 * d)
    sin_sq = GoldenNum(10, -2) / 16  # sin^2(pi/5)
    lam = golden_sqrt(sin_sq / dot(center, center))
    if lam is None:
        raise RuntimeError("sin(pi/5) / |face center| is not in the field")
    f_quat = quat_from_rotation(center, PHI * HALF, -lam)
    # pin the turn direction: it must take v to w1 (like g*h on the base face)
    if quat_rotate(f_quat, v) != w1:
        f_quat = quat_from_rotation(center, PHI * HALF, lam)
    if quat_rotate(f_quat, v) != w1:
        raise RuntimeError("the face turn does not take v to w1")

    # the rotations act transitively on the faces, so the faces are the
    # orbit of the base face, each as the least rotation of either direction
    def key(f: tuple[int, ...]) -> tuple[int, ...]:
        return least_rotation(f, f[::-1])
    faces = bfs_tree(key(base_face), lambda f: (
        (k, key(tuple(p[i] for i in f))) for k, p in enumerate((h_perm, s1_perm))))
    if len(faces) != 12:
        raise RuntimeError(f"the base face has {len(faces)} images, not 12")
    oriented_faces = tuple(orient_clockwise(f, rows) for f in sorted(faces))

    return DodecahedronModel(graph, tuple(coords), labels, oriented_faces,
                             h_perm, s1_perm, h_quat, s1_quat, f_quat)


_MODEL: DodecahedronModel | None = None


def dodecahedron_model() -> DodecahedronModel:
    global _MODEL
    if _MODEL is None:
        _MODEL = build_dodecahedron()
    return _MODEL


def icosian_group(model: DodecahedronModel | None = None) -> tuple[dict, dict]:
    """The 120 unit quaternions generated by the corner turn and edge flip.

    Returns the breadth-first tree {q: (parent, generator index)} from 1
    over (h, s1), whose keys run in breadth-first order, and the right
    products {q: (q*h, q*s1)} the search formed.
    """
    model = model or dodecahedron_model()
    gens = (model.h_quat, model.s1_quat)
    right: dict = {}

    def steps(q):
        right[q] = tuple(quat_mul(q, g) for g in gens)
        return enumerate(right[q])

    return bfs_tree(QUAT_ONE, steps), right


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

"""Exact model of the regular dodecahedron and its rotation groups.

Vertices carry Q(sqrt 5) coordinates; the labeled vertices v, w1..w3, a..f
around the base corner follow the standard corner picture, so traced loops
and golden identities can be checked literally.  The double cover is realized
by unit quaternions over the same field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .golden import (GoldenNum, GoldenQuat, ONE, PHI, QUAT_ONE, Vec3, dot,
                     golden_sqrt, quat_from_rotation, quat_mul, vec3)
from .graphs import Graph
from .perms import Perm, bfs_tree
from .words import least_rotation

HALF = GoldenNum(Fraction(1, 2))
INV_PHI = PHI - ONE  # 1/phi


def _coordinates() -> list[Vec3]:
    pts: list[Vec3] = []
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                pts.append(vec3(sx, sy, sz))
    base = (GoldenNum(0), INV_PHI, PHI)
    for shift in range(3):
        for s1 in (1, -1):
            for s2 in (1, -1):
                p = [GoldenNum(0), s1 * INV_PHI, s2 * PHI]
                p = p[-shift:] + p[:-shift]
                pts.append(tuple(p))  # type: ignore[arg-type]
    assert len(pts) == 20
    return pts


EDGE_SQ_DIST = GoldenNum(6, -2)  # squared edge length: 6 - 2*sqrt(5)


def _sq_dist(p: Vec3, q: Vec3) -> GoldenNum:
    d = tuple(a - b for a, b in zip(p, q))
    return dot(d, d)


def _rotation_perm(coords: list[Vec3], index: dict[Vec3, int], q: GoldenQuat) -> Perm:
    return Perm(index[q.rotate(p)] for p in coords)


@dataclass(frozen=True)
class DodecahedronModel:
    graph: Graph
    coords: tuple[Vec3, ...]
    labels: dict[str, int]          # v, w1..w3, a..f
    faces: tuple[tuple[int, ...], ...]   # 12 clockwise 5-cycles (seen from outside)
    h_perm: Perm
    s1_perm: Perm
    h_quat: GoldenQuat
    s1_quat: GoldenQuat
    f_quat: GoldenQuat

    @property
    def base_loop(self) -> tuple[int, ...]:
        L = self.labels
        return (L["v"], L["w1"], L["a"], L["b"], L["w2"], L["v"])


def _find_faces(graph: Graph) -> list[tuple[int, ...]]:
    """All 5-cycles; this graph has girth 5, so these are the 12 faces."""
    faces = set()
    for v0 in range(graph.vertex_count):
        for v1 in graph.neighbors(v0):
            for v2 in graph.neighbors(v1):
                if v2 in (v0, v1):
                    continue
                for v3 in graph.neighbors(v2):
                    if v3 in (v0, v1, v2):
                        continue
                    for v4 in graph.neighbors(v3):
                        if v4 not in (v0, v1, v2, v3) and graph.has_edge(v4, v0):
                            cyc = (v0, v1, v2, v3, v4)
                            faces.add(least_rotation(cyc, cyc[::-1]))
    return sorted(faces)


def orient_clockwise(cycle: tuple[int, ...], coords: list[Vec3]) -> tuple[int, ...]:
    """Reorder a face cycle to run clockwise as seen from outside."""
    pts = [coords[i] for i in cycle]
    center = tuple(sum((p[k] for p in pts), GoldenNum(0)) * GoldenNum(Fraction(1, len(pts)))
                   for k in range(3))
    from .golden import cross
    u = tuple(a - b for a, b in zip(pts[0], center))
    w = tuple(a - b for a, b in zip(pts[1], center))
    sign = dot(cross(u, w), center).sign()  # type: ignore[arg-type]
    assert sign != 0
    if sign > 0:  # counterclockwise from outside; reverse
        cycle = (cycle[0],) + tuple(reversed(cycle[1:]))
    return cycle


def _half_turn_quat(axis: Vec3) -> GoldenQuat:
    """Lift of the half turn about the axis, oriented along -axis."""
    n2 = dot(axis, axis)
    lam = golden_sqrt(n2.inverse())
    if lam is None:
        raise ValueError("axis length is not a square in the field")
    return quat_from_rotation(axis, GoldenNum(0), -lam)


def build_dodecahedron() -> DodecahedronModel:
    raw = _coordinates()
    v = vec3(1, 1, 1)
    w1 = (GoldenNum(0), INV_PHI, PHI)

    h_quat = quat_from_rotation(vec3(1, 1, 1), HALF, HALF)

    # provisional indexing to discover the combinatorics
    tmp_index = {p: i for i, p in enumerate(raw)}
    edges = [(i, j) for i in range(20) for j in range(i + 1, 20)
             if _sq_dist(raw[i], raw[j]) == EDGE_SQ_DIST]
    tmp_graph = Graph(20, edges)

    w3 = h_quat.rotate(w1)
    w2 = h_quat.rotate(w3)
    assert {tmp_index[w1], tmp_index[w2], tmp_index[w3]} == set(
        tmp_graph.neighbors(tmp_index[v]))

    s1_quat = _half_turn_quat(tuple(a + b for a, b in zip(v, w1)))

    # the face through the corner edges v-w1 and v-w2: v, w1, a, b, w2
    faces = _find_faces(tmp_graph)
    iv, iw1, iw2 = tmp_index[v], tmp_index[w1], tmp_index[w2]
    face = next(f for f in faces if {iv, iw1, iw2} <= set(f))
    k = face.index(iv)
    cyc = face[k:] + face[:k]
    if cyc[1] != iw1:
        cyc = (cyc[0],) + tuple(reversed(cyc[1:]))
    assert cyc[1] == iw1 and cyc[4] == iw2
    a_pt, b_pt = raw[cyc[2]], raw[cyc[3]]

    def s1(p: Vec3) -> Vec3:
        return s1_quat.rotate(p)

    def s3(p: Vec3) -> Vec3:
        # s3 = h s1 h^-1
        return h_quat.rotate(s1(h_quat.conj().rotate(p)))

    c_pt = s1(w2)
    d_pt = s1(b_pt)
    e_pt = s3(c_pt)
    f_pt = s3(w1)

    named = [v, w1, w2, w3, a_pt, b_pt, c_pt, d_pt, e_pt, f_pt]
    names = ["v", "w1", "w2", "w3", "a", "b", "c", "d", "e", "f"]
    assert len(set(named)) == 10
    rest = sorted((p for p in raw if p not in set(named)),
                  key=lambda p: tuple((x.a, x.b) for x in p))
    coords = named + rest
    index = {p: i for i, p in enumerate(coords)}
    labels = {name: i for i, name in enumerate(names)}

    graph = Graph(20, [(index[raw[i]], index[raw[j]]) for i, j in edges])
    h_perm = _rotation_perm(coords, index, h_quat)
    s1_perm = _rotation_perm(coords, index, s1_quat)

    # face axis: clockwise fifth turn about the center of the base face
    face_pts = [v, w1, a_pt, b_pt, w2]
    center = tuple(sum((p[k] for p in face_pts), GoldenNum(0)) * GoldenNum(Fraction(1, 5))
                   for k in range(3))
    sin_sq = (GoldenNum(10, -2) * GoldenNum(Fraction(1, 16)))  # sin^2(pi/5)
    lam = golden_sqrt(sin_sq / dot(center, center))
    assert lam is not None
    f_quat = quat_from_rotation(center, PHI * HALF, -lam)
    # pin the turn direction: it must take v to w1 (like g*h on the base face)
    if f_quat.rotate(v) != w1:
        f_quat = quat_from_rotation(center, PHI * HALF, lam)
    assert f_quat.rotate(v) == w1

    oriented_faces = tuple(orient_clockwise(f, coords)
                           for f in _find_faces(graph))

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

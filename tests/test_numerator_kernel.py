"""The integer-numerator paths of the exact models, each checked against the
`GoldenNum` computation it replaced.

The dodecahedron and its truncation find their combinatorics on rows of
integer numerators of their points over one common denominator d > 0
(`golden.numerators`); why each fast path gives what the slow one gave:

- Squared distances.  For the rows r, s of points p, q over d,
  |p - q|^2 = (P + Q sqrt5) / d^2 with (P, Q) = `sq_dist(r, s)`, so comparing
  (P, Q) with the numerators of EDGE_SQ_DIST * d^2 compares |p - q|^2 with
  EDGE_SQ_DIST.
- Orientation.  A face p_0 .. p_{n-1} with centre c runs clockwise seen from
  outside when (p0 - c) x (p1 - c) . c < 0.  That triple product is
  det(p0 - c, p1 - c, c), which equals det(p0, p1, c), as taking multiples of
  one column from the others does not change a determinant.  The rows are
  r_i = d p_i and their sum is C = n d c, so det(r0, r1, C) = n d^3
  det(p0, p1, c).  Scaling by the face's positive vertex count n and by
  d > 0 does not change the sign, so no division by n is needed.
- Rotations.  q p q^-1, taken by `_hamilton` on a row over d, has numerators
  over d e^2, e being q's stored denominator.  The numerators of a number
  over a given denominator are unique (sqrt 5 is irrational), so the image is
  the point whose row times e^2 they equal.
- Faces.  Rotations are automorphisms of the vertex graph and act
  transitively on the 12 faces, so the orbit of the base face is all faces:
  the 5-cycles of the girth-5 graph.
"""

from fractions import Fraction

import pytest

from graphpres.golden import (GoldenNum, dot, from_numerators, golden_sign, numerators,
                              sq_dist, triple, vec3)
from graphpres.polyhedra import (EDGE_SQ_DIST, _rotation_perm, build_dodecahedron,
                                 icosian_group, orient_clockwise, truncated_dodecahedron)
from graphpres.presentation import least_rotation


def ref_cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def ref_face_sign(cycle, coords):
    """Sign of (p0 - c) x (p1 - c) . c for the centre c of the face."""
    pts = [coords[i] for i in cycle]
    center = tuple(sum((p[k] for p in pts), GoldenNum(0)) / len(pts) for k in range(3))
    u = tuple(a - b for a, b in zip(pts[0], center))
    w = tuple(a - b for a, b in zip(pts[1], center))
    return dot(ref_cross(u, w), center).sign()


def ref_orient_clockwise(cycle, coords):
    sign = ref_face_sign(cycle, coords)
    assert sign != 0
    return (cycle[0],) + tuple(reversed(cycle[1:])) if sign > 0 else cycle


def ref_find_faces(graph):
    """All 5-cycles; the dodecahedron's graph has girth 5, so these are the
    12 faces."""
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


def over(P, Q, den):
    return GoldenNum(Fraction(P, den), Fraction(Q, den))


def models():
    m = build_dodecahedron()
    Y = truncated_dodecahedron()
    return [(m.coords, m.faces), (Y.coords, Y.faces)]


def test_numerators_round_trip(rng):
    for _ in range(50):
        pts = [tuple(GoldenNum(Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                               Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
                     for _ in range(3)) for _ in range(4)]
        rows, d = numerators(pts)
        assert d > 0 and from_numerators(rows, d) == pts
        for row, p in zip(rows, pts):
            assert [over(row[k], row[k + 1], d) for k in (0, 2, 4)] == list(p)


def test_integer_squared_distance_matches_golden_dot_on_all_vertex_pairs():
    coords = build_dodecahedron().coords
    rows, d = numerators(coords)
    pairs = edges = 0
    for i in range(20):
        for j in range(i + 1, 20):
            diff = tuple(a - b for a, b in zip(coords[i], coords[j]))
            assert over(*sq_dist(rows[i], rows[j]), d * d) == dot(diff, diff)
            pairs += 1
            edges += dot(diff, diff) == EDGE_SQ_DIST
    assert (pairs, edges) == (190, 30)


def test_integer_orientation_matches_golden_triple_product_on_both_models():
    for coords, faces in models():
        rows, _ = numerators(coords)
        for face in faces:
            for cyc in (face, (face[0],) + tuple(reversed(face[1:]))):
                center = tuple(map(sum, zip(*(rows[i] for i in cyc))))
                kernel = golden_sign(*triple(rows[cyc[0]], rows[cyc[1]], center))
                assert kernel == ref_face_sign(cyc, coords) != 0
                assert orient_clockwise(cyc, rows) == ref_orient_clockwise(cyc, coords) == face


def test_triple_matches_golden_arithmetic(rng):
    """`golden_sign` is `GoldenNum.sign`, checked in test_golden."""
    for _ in range(200):
        r, s, t = (tuple(rng.randint(-20, 20) for _ in range(6)) for _ in range(3))
        u, v, w = from_numerators([r, s, t], 1)
        assert over(*triple(r, s, t), 1) == dot(u, ref_cross(v, w))


def test_face_orbit_matches_five_cycle_search():
    m = build_dodecahedron()
    assert sorted(least_rotation(f, f[::-1]) for f in m.faces) == ref_find_faces(m.graph)
    assert len(m.faces) == 12


def test_rotation_perms_match_quaternion_rotate():
    m = build_dodecahedron()
    coords = list(m.coords)
    index = {p: i for i, p in enumerate(coords)}
    rows, d = numerators(coords)

    def rotated(q):
        return tuple(index[q.rotate(p)] for p in coords)

    assert (m.h_perm, m.s1_perm) == (rotated(m.h_quat), rotated(m.s1_quat))
    tree, _ = icosian_group(m)
    assert len(tree) == 120
    for q in tree:
        assert _rotation_perm(rows, d, q) == rotated(q)


def test_face_centred_at_the_origin_has_no_orientation():
    square = [vec3(1, 0, 0), vec3(0, 1, 0), vec3(-1, 0, 0), vec3(0, -1, 0)]
    rows, _ = numerators(square)
    with pytest.raises(ValueError, match="degenerate"):
        orient_clockwise((0, 1, 2, 3), rows)

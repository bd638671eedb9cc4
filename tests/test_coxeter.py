import pytest

from graphpres.coxeter import (CoxeterContext, UNIVERSAL_GRZ,
                               build_coxeter_context, coxeter_implication_check,
                               face_boundary_check, greedy_disc_ordering)
from graphpres.golden import GoldenQuat, QUAT_C, quat_mul
from graphpres.graphs import OrientedEdge


@pytest.fixture(scope="module")
def ctx() -> CoxeterContext:
    return build_coxeter_context()


def test_implication_report(ctx):
    rep = coxeter_implication_check()
    assert rep.ok
    assert rep.group_order == 120
    assert rep.z_order == 2
    assert rep.z_central
    assert rep.quotient_order == 60
    assert all(flag for _, flag in rep.identities)
    labels = [label for label, _ in rep.identities]
    assert "s^3 = (s t^-1)^5" in labels
    assert "t^5 = (s^-1 t^2)^5" in labels
    assert "t^5 = (t^-2 s)^5" in labels


def test_lift_projects_onto_edge_labels(ctx):
    # the enumerated element over each oriented edge acts like the label
    Y = ctx.Y
    # compare via the 60-element quotient: map the lift through g->s1, r->h
    group = Y.group
    h_idx, s1_idx = group.gen_indices
    g, r = ctx.group.gen_indices
    words = ctx.group.words({0: g, 1: r})
    for e in sorted(Y.t_map)[::7]:
        word = words[ctx.tau[e]]
        acc = 0
        for gen, sign in word:
            elem = s1_idx if gen == 0 else h_idx
            if sign < 0:
                elem = group.inverse(elem)
            acc = group.product(acc, elem)
        assert acc == Y.t_map[e]


def path_labels(Y, path):
    """The rotation-group edge labels along a path, last step first, so that
    their product carries the path's origin to its end."""
    return [Y.t_map[OrientedEdge(a, b)] for a, b in zip(path, path[1:])][::-1]


def test_path_product_identity_for_loops_in_base_group(ctx):
    Y = ctx.Y
    for face in Y.faces[:6]:
        assert Y.group.word_product(path_labels(Y, face + (face[0],))) == 0


def test_path_product_takes_origin_to_end(ctx):
    Y = ctx.Y
    path = [0]
    for _ in range(7):
        path.append(min(Y.graph.neighbors(path[-1])))
    g = Y.group.word_product(path_labels(Y, path))
    assert Y.flag_action[g][path[0]] == path[-1]


def test_pentagon_and_triangle_out_and_back(ctx):
    Y = ctx.Y
    pe = min(Y.pentagon_edges)
    te = min(Y.graph.edges - Y.pentagon_edges)
    assert ctx.product_along([pe[0], pe[1], pe[0]]) == ctx.z
    assert ctx.product_along([te[0], te[1], te[0]]) == 0


def test_out_and_back_counts_pentagon_edges(ctx, rng):
    Y = ctx.Y
    for _ in range(25):
        path = [rng.randrange(60)]
        for _ in range(rng.randint(1, 12)):
            path.append(rng.choice(Y.graph.neighbors(path[-1])))
        k = sum(1 for a, b in zip(path, path[1:])
                if (min(a, b), max(a, b)) in Y.pentagon_edges)
        out_back = path[:-1] + path[::-1]
        result = ctx.product_along(out_back)
        expected = 0
        for _ in range(k):
            expected = ctx.group.product(expected, ctx.z)
        assert result == expected


def test_cyclic_reordering_invariance(ctx, rng):
    Y = ctx.Y
    for face in (Y.faces[0], Y.faces[25]):
        loop = face + (face[0],)
        base = ctx.product_along(loop)
        for _ in range(3):
            k = rng.randrange(1, len(face))
            rotated = face[k:] + face[:k]
            assert ctx.product_along(rotated + (rotated[0],)) == base


def test_face_boundaries(ctx):
    rep = face_boundary_check(ctx)
    assert rep.ok
    assert rep.face_products_are_z
    assert (rep.vertex_count, rep.edge_count, rep.face_count) == (60, 90, 32)
    assert rep.pentagon_edges == 30 and rep.triangle_edges == 60
    assert rep.euler == 2
    assert rep.z_squared_is_identity


def test_disc_ordering_valid(ctx):
    Y = ctx.Y
    result = greedy_disc_ordering(Y.faces)
    assert result.ok
    assert len(result.order) == 32
    assert sorted(result.order) == list(range(32))
    # one greedy pass, least index first
    assert result.order == (0, 20, 1, 2, 4, 5, 21, 3, 6, 7, 22, 8, 9, 23, 11, 13, 24, 12,
                            16, 25, 15, 19, 26, 14, 27, 18, 28, 17, 29, 10, 30, 31)


def test_disc_ordering_single_face():
    result = greedy_disc_ordering([(0, 1, 2)])
    assert result.ok and result.order == (0,)


def test_disc_ordering_disconnected_fails():
    faces = [(0, 1, 2), (3, 4, 5)]
    result = greedy_disc_ordering(faces)
    assert not result.ok and "does not close" in result.detail


def test_disc_ordering_stops_when_no_face_attaches():
    result = greedy_disc_ordering([(0, 1, 2), (3, 4, 5), (6, 7, 8)])
    assert not result.ok and result.order == ()
    assert "no face attaches to the first 1" in result.detail


def test_disc_ordering_rechecks_segments(ctx):
    # independent re-verification of the returned ordering
    from graphpres.coxeter import _face_edges, _is_simple_path
    Y = ctx.Y
    result = greedy_disc_ordering(Y.faces)
    used_edges: set = set(_face_edges(Y.faces[result.order[0]]))
    used_verts = set(Y.faces[result.order[0]])
    for pos, k in enumerate(result.order[1:], start=1):
        face = Y.faces[k]
        shared_e = set(_face_edges(face)) & used_edges
        shared_v = set(face) & used_verts
        if pos < 31:
            assert _is_simple_path(shared_e, shared_v)
        else:
            assert shared_e == set(_face_edges(face))
        used_edges |= set(_face_edges(face))
        used_verts |= set(face)


def test_milnor_orthogonal_half_turns():
    i = GoldenQuat(0, 1, 0, 0)
    j = GoldenQuat(0, 0, 1, 0)
    k = GoldenQuat(0, 0, 0, 1)
    assert quat_mul(quat_mul(i, j), k) == QUAT_C


def test_universal_presentation_shape():
    assert UNIVERSAL_GRZ.generators == ("g", "r")
    assert len(UNIVERSAL_GRZ.relators) == 2

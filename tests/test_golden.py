import math
from fractions import Fraction

import pytest

from graphpres.golden import (GoldenNum, GoldenQuat, ONE, PHI, QUAT_C, QUAT_ONE,
                              golden_sqrt, quat_from_rotation, quat_mul, vec3)


def rand_golden(rng):
    return GoldenNum(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 7)))


def test_phi_satisfies_its_equation():
    assert PHI * PHI == PHI + ONE


def test_ring_laws_sampled(rng):
    for _ in range(200):
        x, y, z = (rand_golden(rng) for _ in range(3))
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) * z == x * z + y * z
        assert x - y == -(y - x)
        assert (x * y) * z == x * (y * z)


def test_multiplication_rule():
    x = GoldenNum(2, 3)
    y = GoldenNum(5, 7)
    assert x * y == GoldenNum(2 * 5 + 5 * 3 * 7, 2 * 7 + 3 * 5)


def test_equality_is_coefficientwise():
    assert GoldenNum(1, 2) != GoldenNum(1, 3)
    assert GoldenNum(Fraction(1, 2), 0) == GoldenNum(Fraction(2, 4))


def test_division(rng):
    for _ in range(50):
        x, y = rand_golden(rng), rand_golden(rng)
        if y.is_zero():
            continue
        assert (x / y) * y == x


def test_golden_sqrt_roundtrip(rng):
    for _ in range(100):
        x = rand_golden(rng)
        sq = x * x
        r = golden_sqrt(sq)
        assert r is not None and r * r == sq
    assert golden_sqrt(GoldenNum(2)) is None
    assert golden_sqrt(GoldenNum(-1)) is None
    assert golden_sqrt(GoldenNum(20)) == GoldenNum(0, 2)


I = GoldenQuat(0, 1, 0, 0)
J = GoldenQuat(0, 0, 1, 0)
K = GoldenQuat(0, 0, 0, 1)


def test_quat_i_squared():
    assert quat_mul(I, I) == QUAT_C


def test_quat_identity():
    q = GoldenQuat(PHI, ONE, GoldenNum(0, 1), GoldenNum(Fraction(1, 2)))
    assert quat_mul(QUAT_ONE, q) == q
    assert quat_mul(q, QUAT_ONE) == q


def test_quat_ijk():
    assert quat_mul(quat_mul(I, J), K) == QUAT_C


def test_quat_norm_multiplicative(rng):
    for _ in range(50):
        p = GoldenQuat(*(rand_golden(rng) for _ in range(4)))
        q = GoldenQuat(*(rand_golden(rng) for _ in range(4)))
        assert quat_mul(p, q).norm() == p.norm() * q.norm()


def test_quat_c_is_central_involution(rng):
    assert quat_mul(QUAT_C, QUAT_C) == QUAT_ONE
    for _ in range(20):
        q = GoldenQuat(*(rand_golden(rng) for _ in range(4)))
        assert quat_mul(QUAT_C, q) == quat_mul(q, QUAT_C)


def test_half_turn_squares_to_c():
    s = quat_from_rotation(vec3(1, 0, 0), GoldenNum(0), ONE)
    assert quat_mul(s, s) == QUAT_C


def test_full_turn_is_c():
    assert quat_from_rotation(vec3(1, 0, 0), GoldenNum(-1), GoldenNum(0)) == QUAT_C


def test_zero_angle_is_identity():
    assert quat_from_rotation(vec3(0, 0, 1), ONE, GoldenNum(0)) == QUAT_ONE


def test_third_turn_about_vertex_axis():
    half = GoldenNum(Fraction(1, 2))
    h = quat_from_rotation(vec3(1, 1, 1), half, half)
    h2 = quat_mul(h, h)
    h3 = quat_mul(h2, h)
    assert h3 == QUAT_C
    assert quat_mul(h3, h3) == QUAT_ONE
    assert h2 != QUAT_ONE and h3 != QUAT_ONE


def test_from_rotation_rejects_non_unit():
    with pytest.raises(ValueError):
        quat_from_rotation(vec3(1, 1, 0), ONE, ONE)


def test_rotation_action_matches_axis():
    s = quat_from_rotation(vec3(1, 0, 0), GoldenNum(0), ONE)
    assert s.rotate(vec3(1, 0, 0)) == vec3(1, 0, 0)
    assert s.rotate(vec3(0, 1, 0)) == vec3(0, -1, 0)


# -- reference: a + b*sqrt(5) as a plain pair of Fractions ------------------

def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_mul(x, y):
    return (x[0] * y[0] + 5 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_norm(x):
    return x[0] * x[0] - 5 * x[1] * x[1]


def ref_inverse(x):
    n = ref_norm(x)
    return (x[0] / n, -x[1] / n)


def ref_sign(x):
    a, b = x
    if b == 0 or a == 0 or (a > 0) == (b > 0):
        return (a + b > 0) - (a + b < 0)
    return 1 if (a * a > 5 * b * b) == (a > 0) else -1


def ref_rational_sqrt(x):
    if x < 0:
        return None
    rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    return Fraction(rn, rd) if rn * rn == x.numerator and rd * rd == x.denominator else None


def ref_sqrt(x):
    """The non-negative root of x in Q(sqrt 5), by solving a^2 + 5 b^2 = x.a
    and 2 a b = x.b over the rationals."""
    a, b = x
    if a == 0 and b == 0:
        return (Fraction(0), Fraction(0))
    if ref_sign(x) < 0:
        return None
    if b == 0:
        r = ref_rational_sqrt(a)
        if r is not None:
            return (r, Fraction(0))
        r = ref_rational_sqrt(a / 5)
        return None if r is None else (Fraction(0), r)
    disc = ref_rational_sqrt(ref_norm(x))
    if disc is None:
        return None
    for s in (disc, -disc):
        r = ref_rational_sqrt((a + s) / 2)
        if r:
            cand = (r, b / (2 * r))
            if ref_mul(cand, cand) == x:
                return cand if ref_sign(cand) > 0 else (-cand[0], -cand[1])
    return None


def pair(x: GoldenNum):
    return (x.a, x.b)


def assert_lowest_terms(x: GoldenNum):
    assert x.d > 0 and math.gcd(x.p, x.q, x.d) == 1
    assert (x.p, x.q, x.d) == (x.a.numerator * x.d // x.a.denominator,
                               x.b.numerator * x.d // x.b.denominator, x.d)


def rand_pair(rng):
    kind = rng.randrange(4)
    num = lambda: Fraction(rng.randint(-40, 40), rng.randint(1, 30))  # noqa: E731
    if kind == 0:  # rational
        return (num(), Fraction(0))
    if kind == 1:  # rational multiple of sqrt5
        return (Fraction(0), num())
    if kind == 2:  # a square, so that square roots exist
        x = (num(), num())
        return ref_mul(x, x)
    return (num(), num())


def test_arithmetic_matches_fraction_pair_reference(rng):
    for _ in range(300):
        x, y = rand_pair(rng), rand_pair(rng)
        gx, gy = GoldenNum(*x), GoldenNum(*y)
        assert pair(gx) == x and pair(gy) == y
        results = [(gx + gy, ref_add(x, y)), (gx - gy, ref_sub(x, y)),
                   (gx * gy, ref_mul(x, y)), (-gx, (-x[0], -x[1]))]
        if y != (0, 0):
            results += [(gx / gy, ref_mul(x, ref_inverse(y))), (gy.inverse(), ref_inverse(y))]
        else:
            with pytest.raises(ZeroDivisionError):
                gx / gy
        for got, want in results:
            assert pair(got) == want
            assert got == GoldenNum(*want) and hash(got) == hash(GoldenNum(*want))
            assert_lowest_terms(got)
        assert gx.sign() == ref_sign(x)
        for z in (x, ref_mul(x, x), (x[0] * x[0], Fraction(0)), (5 * x[0] * x[0], Fraction(0))):
            root, want = golden_sqrt(GoldenNum(*z)), ref_sqrt(z)
            assert (root is None and want is None) or pair(root) == want


def test_equal_values_have_equal_lowest_terms():
    assert GoldenNum(Fraction(2, 4)) == GoldenNum(Fraction(1, 2))
    x, y = GoldenNum(Fraction(2, 4)), GoldenNum(Fraction(1, 2))
    assert (x.p, x.q, x.d) == (y.p, y.q, y.d) == (1, 0, 2)
    z = GoldenNum(Fraction(3, 6), Fraction(-4, 6)) * 3
    assert (z.p, z.q, z.d) == (3, -4, 2) and z == GoldenNum(Fraction(3, 2), -2)
    assert (PHI * PHI - PHI).d == 1 and PHI * PHI - PHI == ONE
    assert all(hash(GoldenNum(Fraction(k, 6))) == hash(Fraction(k, 6)) for k in range(-12, 13))


def test_sets_and_dicts_collapse_equal_values():
    values = [1, Fraction(1), GoldenNum(1), GoldenNum(Fraction(3, 3)), PHI * PHI - PHI,
              Fraction(1, 2), GoldenNum(Fraction(1, 2)), GoldenNum(Fraction(2, 4)),
              0, GoldenNum(0), Fraction(0), False,
              -3, GoldenNum(-3), Fraction(-6, 2),
              PHI, GoldenNum(Fraction(2, 4), Fraction(1, 2))]
    assert len(set(values)) == 4 + 1
    counts: dict = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    assert sorted(counts.values()) == [2, 3, 3, 4, 5]
    assert counts[GoldenNum(1)] == counts[1] == 5 and counts[Fraction(1, 2)] == 3
    assert {GoldenNum(0): "zero"}[0] == "zero"
    assert {Fraction(1, 2): "half"}[PHI - GoldenNum(0, Fraction(1, 2))] == "half"


def ref_quat_mul(p, q):
    (a, b, c, d), (e, f, g, h) = p, q
    terms = [[(a, e, 1), (b, f, -1), (c, g, -1), (d, h, -1)],
             [(a, f, 1), (b, e, 1), (c, h, 1), (d, g, -1)],
             [(a, g, 1), (b, h, -1), (c, e, 1), (d, f, 1)],
             [(a, h, 1), (b, g, 1), (c, f, -1), (d, e, 1)]]
    out = []
    for row in terms:
        acc = (Fraction(0), Fraction(0))
        for u, v, sign in row:
            uv = ref_mul(u, v)
            acc = ref_add(acc, uv) if sign > 0 else ref_sub(acc, uv)
        out.append(acc)
    return out


def test_quat_mul_matches_fraction_pair_reference(rng):
    for _ in range(100):
        p = [rand_pair(rng) for _ in range(4)]
        q = [rand_pair(rng) for _ in range(4)]
        got = quat_mul(GoldenQuat(*(GoldenNum(*c) for c in p)),
                       GoldenQuat(*(GoldenNum(*c) for c in q)))
        assert [pair(c) for c in (got.w, got.x, got.y, got.z)] == ref_quat_mul(p, q)
        assert got == GoldenQuat(*(GoldenNum(*c) for c in ref_quat_mul(p, q)))

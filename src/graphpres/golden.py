"""Exact arithmetic in the field Q(sqrt 5) and in its quaternion algebra.

No floating point: a number is stored as integers (p + q*sqrt(5)) / d in
lowest terms, and a quaternion is the tuple of the integer numerators of its
coordinates over one common denominator (`Quat`), as a list of points is
(`numerators`), so the polyhedral identities hold bit-exactly, and sums,
products and inverses cost a few integer operations and one `math.gcd`.
The rational parts of a number read as `Fraction`s (`.a`, `.b`); a rational
number hashes like its `Fraction`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

_Rat = Fraction | int


class GoldenNum:
    """a + b*sqrt(5) with rational a, b, stored as (p + q*sqrt(5)) / d with
    integers d > 0 and gcd(p, q, d) = 1, so equal numbers have equal
    (p, q, d)."""

    __slots__ = ("p", "q", "d")

    def __init__(self, a: _Rat = 0, b: _Rat = 0):
        # in lowest terms, since a and b are and d is their least common
        # denominator
        an, ad = _ratio(a)
        bn, bd = _ratio(b)
        d = math.lcm(ad, bd)
        _set_p(self, an * (d // ad))
        _set_q(self, bn * (d // bd))
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GoldenNum is immutable")

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.d)

    def __add__(self, other: GoldenNum | _Rat) -> GoldenNum:
        other = _coerce(other)
        d, e = self.d, other.d
        if d == e:
            return _golden(self.p + other.p, self.q + other.q, d)
        return _golden(self.p * e + other.p * d, self.q * e + other.q * d, d * e)

    __radd__ = __add__

    def __sub__(self, other: GoldenNum | _Rat) -> GoldenNum:
        other = _coerce(other)
        d, e = self.d, other.d
        if d == e:
            return _golden(self.p - other.p, self.q - other.q, d)
        return _golden(self.p * e - other.p * d, self.q * e - other.q * d, d * e)

    def __rsub__(self, other: _Rat) -> GoldenNum:
        return _coerce(other) - self

    def __mul__(self, other: GoldenNum | _Rat) -> GoldenNum:
        other = _coerce(other)
        p, q, r, s = self.p, self.q, other.p, other.q
        return _golden(p * r + 5 * q * s, p * s + q * r, self.d * other.d)

    __rmul__ = __mul__

    def __neg__(self) -> GoldenNum:
        return _new(-self.p, -self.q, self.d)

    def inverse(self) -> GoldenNum:
        # d / (p + q sqrt5) = d (p - q sqrt5) / (p^2 - 5 q^2); the norm is 0
        # only at 0, since sqrt5 is irrational
        p, q, d = self.p, self.q, self.d
        n = p * p - 5 * q * q
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 5)")
        if n < 0:
            n, d = -n, -d
        return _golden(d * p, -d * q, n)

    def __truediv__(self, other: GoldenNum | _Rat) -> GoldenNum:
        return self * _coerce(other).inverse()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.q == 0 and self.p == other.numerator and self.d == other.denominator
        return (isinstance(other, GoldenNum) and self.p == other.p and self.q == other.q
                and self.d == other.d)

    def __hash__(self) -> int:
        if self.q:
            return hash((self.p, self.q, self.d))
        # a rational number hashes like the int or Fraction it equals
        return hash(self.p) if self.d == 1 else hash(Fraction(self.p, self.d))

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def sign(self) -> int:
        """Exact sign of the real value (p + q*sqrt(5)) / d; d > 0."""
        return golden_sign(self.p, self.q)

    def __repr__(self) -> str:
        if self.q == 0:
            return f"GoldenNum({self.a})"
        return f"GoldenNum({self.a}, {self.b})"


_set_p = GoldenNum.p.__set__
_set_q = GoldenNum.q.__set__
_set_d = GoldenNum.d.__set__


def golden_sign(p: int, q: int) -> int:
    """Exact sign of p + q*sqrt(5) for integers p, q."""
    if p * q >= 0:  # same signs, or one of them 0
        return (p + q > 0) - (p + q < 0)
    # opposite signs: the larger of p^2 and 5 q^2 (never equal) decides
    return (p > 0) - (p < 0) if p * p > 5 * q * q else (q > 0) - (q < 0)


def _new(p: int, q: int, d: int) -> GoldenNum:
    """The GoldenNum (p + q*sqrt(5)) / d of a triple already in lowest terms."""
    x = object.__new__(GoldenNum)
    _set_p(x, p)
    _set_q(x, q)
    _set_d(x, d)
    return x


def _golden(p: int, q: int, d: int) -> GoldenNum:
    """The GoldenNum (p + q*sqrt(5)) / d for d > 0, put in lowest terms."""
    g = math.gcd(p, q, d)
    if g != 1:
        p, q, d = p // g, q // g, d // g
    return _new(p, q, d)


def _ratio(x: _Rat) -> tuple[int, int]:
    """Numerator and (positive) denominator of a rational in lowest terms."""
    if isinstance(x, int):
        return int(x), 1
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator, x.denominator


def _coerce(x: GoldenNum | _Rat) -> GoldenNum:
    if isinstance(x, GoldenNum):
        return x
    if isinstance(x, int):
        return _new(int(x), 0, 1)
    return GoldenNum(x)


ZERO = GoldenNum(0)
ONE = GoldenNum(1)
PHI = GoldenNum(Fraction(1, 2), Fraction(1, 2))  # (1 + sqrt 5) / 2


def _square_root(n: int) -> int | None:
    """The root of a perfect square n >= 0, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def golden_sqrt(x: GoldenNum) -> GoldenNum | None:
    """An exact square root of x in Q(sqrt 5), or None if there is none.

    Returns the non-negative root when one exists.
    """
    if x.is_zero():
        return ZERO
    if x.sign() < 0:
        return None
    # sqrt((p + q sqrt5) / d) = sqrt(P + Q sqrt5) / d with P = p d, Q = q d
    P, Q, d = x.p * x.d, x.q * x.d, x.d
    if Q == 0:
        r = _square_root(P)
        if r is not None:
            return _golden(r, 0, d)
        r = _square_root(P // 5) if P % 5 == 0 else None
        if r is not None:
            return _golden(0, r, d)
        return None
    # (a + b sqrt5)^2 = P + Q sqrt5: a^2 + 5 b^2 = P and 2 a b = Q, so
    # a^2 = (P +- m) / 2 with m^2 = P^2 - 5 Q^2; with u = (2a)^2 = 2 (P +- m)
    # the root is (u + 2 Q sqrt5) / (2 sqrt(u)), before dividing by d
    m = _square_root(P * P - 5 * Q * Q)
    if m is None:
        return None
    for s in (m, -m):
        k = _square_root(2 * (P + s))
        if k:
            cand = _golden(k * k, 2 * Q, 2 * k * d)
            if cand * cand == x:
                return cand if cand.sign() > 0 else -cand
    return None


Vec3 = tuple[GoldenNum, GoldenNum, GoldenNum]


def vec3(x: _Rat | GoldenNum, y: _Rat | GoldenNum, z: _Rat | GoldenNum) -> Vec3:
    return (_coerce(x), _coerce(y), _coerce(z))


def dot(u: Sequence[GoldenNum], v: Sequence[GoldenNum]) -> GoldenNum:
    return sum((a * b for a, b in zip(u, v)), ZERO)


def numerators(points: Sequence[Sequence[GoldenNum]]) -> tuple[list[tuple[int, ...]], int]:
    """The points as integer rows (x0, x1, y0, y1, ...) over one common
    denominator d > 0, coordinate (x0 + x1*sqrt(5)) / d and so on, as a
    `Quat` stores a quaternion; d is the least such denominator."""
    d = math.lcm(*(c.d for p in points for c in p))
    return [tuple(n * (d // c.d) for c in p for n in (c.p, c.q)) for p in points], d


def from_numerators(rows: Sequence[Sequence[int]], d: int) -> list[tuple[GoldenNum, ...]]:
    """The points of integer rows over the denominator d > 0, in lowest terms."""
    return [tuple(_golden(r[k], r[k + 1], d) for k in range(0, len(r), 2)) for r in rows]


def sq_dist(r: Sequence[int], s: Sequence[int]) -> tuple[int, int]:
    """(P, Q) with |r - s|^2 = (P + Q*sqrt(5)) / d^2, for two points' rows
    over d: a difference a0 + a1*sqrt(5) squares to a0^2 + 5 a1^2 + 2 a0 a1 sqrt(5)."""
    x0, x1, y0, y1, z0, z1 = (a - b for a, b in zip(r, s))
    return (x0 * x0 + y0 * y0 + z0 * z0 + 5 * (x1 * x1 + y1 * y1 + z1 * z1),
            2 * (x0 * x1 + y0 * y1 + z0 * z1))


def triple(r: Sequence[int], s: Sequence[int], t: Sequence[int]) -> tuple[int, int]:
    """(P, Q) with det(r, s, t) = r . (s x t) = (P + Q*sqrt(5)) / d^3, for
    three rows over d; the sum runs over the cyclic shifts (x, y, z) of the
    coordinates of r_x (s_y t_z - s_z t_y)."""
    P = Q = 0
    for i, j, k in ((0, 2, 4), (2, 4, 0), (4, 0, 2)):
        c0 = s[j] * t[k] - s[k] * t[j] + 5 * (s[j + 1] * t[k + 1] - s[k + 1] * t[j + 1])
        c1 = s[j] * t[k + 1] + s[j + 1] * t[k] - s[k] * t[j + 1] - s[k + 1] * t[j]
        P += r[i] * c0 + 5 * r[i + 1] * c1
        Q += r[i] * c1 + r[i + 1] * c0
    return P, Q


Quat = tuple[int, ...]  # (w0, w1, x0, x1, y0, y1, z0, z1, d), as `quat` describes


def quat(w: GoldenNum | _Rat, x: GoldenNum | _Rat = 0,
         y: GoldenNum | _Rat = 0, z: GoldenNum | _Rat = 0) -> Quat:
    """The quaternion w + x i + y j + z k as the integers (w0, w1, x0, x1,
    y0, y1, z0, z1, d) of its coordinates (w0 + w1*sqrt(5)) / d, ..., over
    one common denominator d > 0 in lowest terms, so equal quaternions are
    equal tuples."""
    # in lowest terms, since each coordinate is and d is their least
    # common denominator
    (n,), d = numerators([[_coerce(c) for c in (w, x, y, z)]])
    return n + (d,)


def quat_conj(q: Quat) -> Quat:
    return (q[0], q[1], -q[2], -q[3], -q[4], -q[5], -q[6], -q[7], q[8])


def quat_norm(q: Quat) -> GoldenNum:
    return _golden(sum(q[k] * q[k] + 5 * q[k + 1] * q[k + 1] for k in range(0, 8, 2)),
                   sum(2 * q[k] * q[k + 1] for k in range(0, 8, 2)), q[8] * q[8])


def quat_rotate(q: Quat, p: Vec3) -> Vec3:
    """Image of the point p under the rotation the unit quaternion q encodes."""
    n = hamilton(hamilton(q, quat(ZERO, *p)), quat_conj(q))
    return from_numerators([n[2:8]], n[8])[0]  # type: ignore[return-value]


def hamilton(m: Quat, n: Quat) -> tuple[int, ...]:
    """Hamilton product of two quaternions' tuples, laid out as a `Quat`
    but not in lowest terms (`quat_mul` reduces it).

    Coordinates multiply in Z[sqrt 5] as (u0 + u1 sqrt5)(v0 + v1 sqrt5) =
    (u0 v0 + 5 u1 v1) + (u0 v1 + u1 v0) sqrt5, and the denominators multiply.
    """
    a0, a1, b0, b1, c0, c1, e0, e1, d = m
    A0, A1, B0, B1, C0, C1, E0, E1, D = n
    return (  # w = aA - bB - cC - eE
        a0 * A0 - b0 * B0 - c0 * C0 - e0 * E0 + 5 * (a1 * A1 - b1 * B1 - c1 * C1 - e1 * E1),
        a0 * A1 + a1 * A0 - b0 * B1 - b1 * B0 - c0 * C1 - c1 * C0 - e0 * E1 - e1 * E0,
        # x = aB + bA + cE - eC
        a0 * B0 + b0 * A0 + c0 * E0 - e0 * C0 + 5 * (a1 * B1 + b1 * A1 + c1 * E1 - e1 * C1),
        a0 * B1 + a1 * B0 + b0 * A1 + b1 * A0 + c0 * E1 + c1 * E0 - e0 * C1 - e1 * C0,
        # y = aC - bE + cA + eB
        a0 * C0 - b0 * E0 + c0 * A0 + e0 * B0 + 5 * (a1 * C1 - b1 * E1 + c1 * A1 + e1 * B1),
        a0 * C1 + a1 * C0 - b0 * E1 - b1 * E0 + c0 * A1 + c1 * A0 + e0 * B1 + e1 * B0,
        # z = aE + bC - cB + eA
        a0 * E0 + b0 * C0 - c0 * B0 + e0 * A0 + 5 * (a1 * E1 + b1 * C1 - c1 * B1 + e1 * A1),
        a0 * E1 + a1 * E0 + b0 * C1 + b1 * C0 - c0 * B1 - c1 * B0 + e0 * A1 + e1 * A0,
        d * D)


QUAT_ONE = quat(1)
QUAT_C = quat(-1)  # the central rotation by 2*pi


def quat_mul(p: Quat, q: Quat) -> Quat:
    """Hamilton product, exact, in lowest terms."""
    n = hamilton(p, q)
    g = math.gcd(*n)
    return n if g == 1 else tuple(k // g for k in n)


def quat_from_rotation(axis: Vec3, half_cos: GoldenNum, half_sin: GoldenNum) -> Quat:
    """Unit quaternion (half_cos, half_sin * axis).

    The caller supplies exact cos(theta/2) and a scalar half_sin such that
    half_sin * axis equals sin(theta/2) times the unit rotation axis; square
    roots are not closed in Q(sqrt 5), so the split input keeps everything
    exact.  Rejects non-unit data.
    """
    q = quat(half_cos, half_sin * axis[0], half_sin * axis[1], half_sin * axis[2])
    if quat_norm(q) != ONE:
        raise ValueError("half_cos^2 + half_sin^2*|axis|^2 must equal 1 exactly")
    return q

"""Exact arithmetic in the field Q(sqrt 5) and in its quaternion algebra.

No floating point: coordinates are `Fraction` pairs a + b*sqrt(5), so the
polyhedral identities checked downstream hold bit-exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

_Rat = Fraction | int


class GoldenNum:
    """a + b*sqrt(5) with rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a: _Rat = 0, b: _Rat = 0):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("GoldenNum is immutable")

    def __add__(self, other: GoldenNum | _Rat) -> GoldenNum:
        other = _coerce(other)
        return GoldenNum(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other: GoldenNum | _Rat) -> GoldenNum:
        other = _coerce(other)
        return GoldenNum(self.a - other.a, self.b - other.b)

    def __rsub__(self, other: _Rat) -> GoldenNum:
        return _coerce(other) - self

    def __mul__(self, other: GoldenNum | _Rat) -> GoldenNum:
        other = _coerce(other)
        return GoldenNum(self.a * other.a + 5 * self.b * other.b,
                         self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def __neg__(self) -> GoldenNum:
        return GoldenNum(-self.a, -self.b)

    def conj(self) -> GoldenNum:
        return GoldenNum(self.a, -self.b)

    def field_norm(self) -> Fraction:
        return self.a * self.a - 5 * self.b * self.b

    def inverse(self) -> GoldenNum:
        n = self.field_norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 5)")
        return GoldenNum(self.a / n, -self.b / n)

    def __truediv__(self, other: GoldenNum | _Rat) -> GoldenNum:
        return self * _coerce(other).inverse()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GoldenNum(other)
        return isinstance(other, GoldenNum) and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Exact sign of the real value a + b*sqrt(5)."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with 5 b^2
        if a > 0:  # b < 0
            return 1 if a * a > 5 * b * b else -1
        return 1 if a * a < 5 * b * b else -1

    def __lt__(self, other: GoldenNum | _Rat) -> bool:
        return (self - _coerce(other)).sign() < 0

    def __le__(self, other: GoldenNum | _Rat) -> bool:
        return (self - _coerce(other)).sign() <= 0

    def __gt__(self, other: GoldenNum | _Rat) -> bool:
        return (self - _coerce(other)).sign() > 0

    def __ge__(self, other: GoldenNum | _Rat) -> bool:
        return (self - _coerce(other)).sign() >= 0

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(5)

    def __repr__(self) -> str:
        if self.b == 0:
            return f"GoldenNum({self.a})"
        return f"GoldenNum({self.a}, {self.b})"


def _coerce(x: GoldenNum | _Rat) -> GoldenNum:
    return x if isinstance(x, GoldenNum) else GoldenNum(x)


ZERO = GoldenNum(0)
ONE = GoldenNum(1)
PHI = GoldenNum(Fraction(1, 2), Fraction(1, 2))  # (1 + sqrt 5) / 2


def _fraction_sqrt(x: Fraction) -> Fraction | None:
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def golden_sqrt(x: GoldenNum) -> GoldenNum | None:
    """An exact square root of x in Q(sqrt 5), or None if there is none.

    Returns the non-negative root when one exists.
    """
    if x.is_zero():
        return ZERO
    if x.sign() < 0:
        return None
    if x.b == 0:
        r = _fraction_sqrt(x.a)
        if r is not None:
            return GoldenNum(r)
        r = _fraction_sqrt(x.a / 5)
        if r is not None:
            return GoldenNum(0, r)
        return None
    # (a + b sqrt5)^2 = x: a^2 + 5 b^2 = x.a and 2 a b = x.b
    disc = _fraction_sqrt(x.a * x.a - 5 * x.b * x.b)
    if disc is None:
        return None
    for s in (disc, -disc):
        a2 = (x.a + s) / 2
        a = _fraction_sqrt(a2)
        if a is not None and a != 0:
            b = x.b / (2 * a)
            cand = GoldenNum(a, b)
            if cand * cand == x:
                return cand if cand.sign() > 0 else -cand
    return None


Vec3 = tuple[GoldenNum, GoldenNum, GoldenNum]


def vec3(x: _Rat | GoldenNum, y: _Rat | GoldenNum, z: _Rat | GoldenNum) -> Vec3:
    return (_coerce(x), _coerce(y), _coerce(z))


def dot(u: Sequence[GoldenNum], v: Sequence[GoldenNum]) -> GoldenNum:
    return sum((a * b for a, b in zip(u, v)), ZERO)


def cross(u: Vec3, v: Vec3) -> Vec3:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


class GoldenQuat:
    """Quaternion with GoldenNum coordinates (w + x i + y j + z k)."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: GoldenNum | _Rat, x: GoldenNum | _Rat = 0,
                 y: GoldenNum | _Rat = 0, z: GoldenNum | _Rat = 0):
        object.__setattr__(self, "w", _coerce(w))
        object.__setattr__(self, "x", _coerce(x))
        object.__setattr__(self, "y", _coerce(y))
        object.__setattr__(self, "z", _coerce(z))

    def __setattr__(self, name, value):
        raise AttributeError("GoldenQuat is immutable")

    def __mul__(self, other: GoldenQuat) -> GoldenQuat:
        return quat_mul(self, other)

    def __neg__(self) -> GoldenQuat:
        return GoldenQuat(-self.w, -self.x, -self.y, -self.z)

    def conj(self) -> GoldenQuat:
        return GoldenQuat(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> GoldenNum:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def inverse(self) -> GoldenQuat:
        n = self.norm()
        if n.is_zero():
            raise ZeroDivisionError("zero quaternion")
        ni = n.inverse()
        c = self.conj()
        return GoldenQuat(c.w * ni, c.x * ni, c.y * ni, c.z * ni)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GoldenQuat) and self.w == other.w
                and self.x == other.x and self.y == other.y and self.z == other.z)

    def __hash__(self) -> int:
        return hash((self.w, self.x, self.y, self.z))

    def rotate(self, p: Vec3) -> Vec3:
        """Image of the point p under the rotation this unit quaternion encodes."""
        q = quat_mul(quat_mul(self, GoldenQuat(ZERO, *p)), self.conj())
        return (q.x, q.y, q.z)

    def power(self, n: int) -> GoldenQuat:
        acc = QUAT_ONE
        base = self if n >= 0 else self.inverse()
        for _ in range(abs(n)):
            acc = quat_mul(acc, base)
        return acc

    def __repr__(self) -> str:
        return f"GoldenQuat({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


QUAT_ONE = GoldenQuat(1)
QUAT_C = GoldenQuat(-1)  # the central rotation by 2*pi


def quat_mul(p: GoldenQuat, q: GoldenQuat) -> GoldenQuat:
    """Hamilton product, exact."""
    return GoldenQuat(
        p.w * q.w - p.x * q.x - p.y * q.y - p.z * q.z,
        p.w * q.x + p.x * q.w + p.y * q.z - p.z * q.y,
        p.w * q.y - p.x * q.z + p.y * q.w + p.z * q.x,
        p.w * q.z + p.x * q.y - p.y * q.x + p.z * q.w,
    )


def quat_from_rotation(axis: Vec3, half_cos: GoldenNum, half_sin: GoldenNum) -> GoldenQuat:
    """Unit quaternion (half_cos, half_sin * axis).

    The caller supplies exact cos(theta/2) and a scalar half_sin such that
    half_sin * axis equals sin(theta/2) times the unit rotation axis; square
    roots are not closed in Q(sqrt 5), so the split input keeps everything
    exact.  Rejects non-unit data.
    """
    q = GoldenQuat(half_cos, half_sin * axis[0], half_sin * axis[1], half_sin * axis[2])
    if q.norm() != ONE:
        raise ValueError("half_cos^2 + half_sin^2*|axis|^2 must equal 1 exactly")
    return q

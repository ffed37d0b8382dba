"""The split-quaternion algebra over Q and its 2x2 matrix realization.

Generators satisfy -i^2 = j^2 = k^2 = 1 and ij = -ji = k.  The algebra
is isomorphic to Mat2(Q); ``phi_to_mat2``/``phi_from_mat2`` realize the
isomorphism, under which the pseudo-norm N(q) becomes the determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Mat, _entry


@dataclass(frozen=True)
class ParaQuaternion:
    """q0 + q1*i + q2*j + q3*k with exact rational coefficients."""

    q0: Fraction
    q1: Fraction
    q2: Fraction
    q3: Fraction

    def __init__(self, q0=0, q1=0, q2=0, q3=0):
        object.__setattr__(self, "q0", _entry(q0))
        object.__setattr__(self, "q1", _entry(q1))
        object.__setattr__(self, "q2", _entry(q2))
        object.__setattr__(self, "q3", _entry(q3))

    @classmethod
    def scalar(cls, c):
        return cls(c, 0, 0, 0)

    def __add__(self, other):
        other = _promote(other)
        return ParaQuaternion(
            self.q0 + other.q0,
            self.q1 + other.q1,
            self.q2 + other.q2,
            self.q3 + other.q3,
        )

    __radd__ = __add__

    def __neg__(self):
        return ParaQuaternion(-self.q0, -self.q1, -self.q2, -self.q3)

    def __sub__(self, other):
        return self + (-_promote(other))

    def __rsub__(self, other):
        return (-self) + _promote(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _entry(other)
            return ParaQuaternion(c * self.q0, c * self.q1, c * self.q2, c * self.q3)
        a0, a1, a2, a3 = self.q0, self.q1, self.q2, self.q3
        b0, b1, b2, b3 = other.q0, other.q1, other.q2, other.q3
        return ParaQuaternion(
            a0 * b0 - a1 * b1 + a2 * b2 + a3 * b3,
            a0 * b1 + a1 * b0 - a2 * b3 + a3 * b2,
            a0 * b2 + a2 * b0 - a1 * b3 + a3 * b1,
            a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def norm(self) -> Fraction:
        """N(q) = q*conj(q) = q0^2 + q1^2 - q2^2 - q3^2 (multiplicative)."""
        return self.q0**2 + self.q1**2 - self.q2**2 - self.q3**2

    def real(self) -> Fraction:
        return self.q0

    def imag(self) -> "ParaQuaternion":
        return ParaQuaternion(0, self.q1, self.q2, self.q3)

    def is_zero(self) -> bool:
        return self.q0 == 0 and self.q1 == 0 and self.q2 == 0 and self.q3 == 0

    def __str__(self):
        return f"{self.q0} + {self.q1}*i + {self.q2}*j + {self.q3}*k"


def _promote(x) -> ParaQuaternion:
    if isinstance(x, ParaQuaternion):
        return x
    return ParaQuaternion.scalar(_entry(x))


PQ_ONE = ParaQuaternion(1, 0, 0, 0)
PQ_I = ParaQuaternion(0, 1, 0, 0)
PQ_J = ParaQuaternion(0, 0, 1, 0)
PQ_K = ParaQuaternion(0, 0, 0, 1)


def phi_to_mat2(a: ParaQuaternion) -> Mat:
    """Algebra isomorphism onto Mat2(Q); det(phi(q)) = N(q)."""
    return Mat(
        (
            (a.q0 - a.q3, a.q2 - a.q1),
            (a.q2 + a.q1, a.q0 + a.q3),
        )
    )


def phi_from_mat2(m: Mat) -> ParaQuaternion:
    if m.shape != (2, 2):
        raise ValueError("phi_from_mat2 expects a 2x2 matrix")
    (a, b), (c, d) = m.rows
    half = Fraction(1, 2)
    return ParaQuaternion(
        (a + d) * half,
        (c - b) * half,
        (b + c) * half,
        (d - a) * half,
    )


# The images of i, j, k: the standard para-hypercomplex structure of Q^2.
MAT_I = phi_to_mat2(PQ_I)  # [[0, -1], [1, 0]]
MAT_J = phi_to_mat2(PQ_J)  # [[0, 1], [1, 0]]
MAT_K = phi_to_mat2(PQ_K)  # [[-1, 0], [0, 1]]

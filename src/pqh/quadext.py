"""Arithmetic in a quadratic extension Q(sqrt(c)).

Minimal field implementation: elements a + b*sqrt(c), both parts exact
rationals, c a fixed non-square positive rational, with int and Fraction
operands lifted into the field.  Its one use is to present the
eigenvectors of a para-complex structure with a non-square scale
(:func:`pqh.classify.para_complex_eigenvectors`), which are computed from
rational data; :class:`pqh.linalg.Mat` holds rationals only and rejects
these elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import _entry
from .polyq import is_rational_square


@dataclass(frozen=True)
class QuadExt:
    a: Fraction
    b: Fraction
    c: Fraction  # the radicand; square root is irrational

    def __post_init__(self):
        for f in ("a", "b", "c"):
            object.__setattr__(self, f, _entry(getattr(self, f)))
        if self.c <= 0 or is_rational_square(self.c) is not None:
            raise ValueError("radicand must be a positive non-square rational")

    def _lift(self, x):
        if isinstance(x, QuadExt):
            if x.c != self.c:
                raise ValueError("mixed radicands")
            return x
        if isinstance(x, (int, Fraction)):
            return QuadExt(Fraction(x), Fraction(0), self.c)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.a + o.a, self.b + o.b, self.c)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.c)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QuadExt(
            self.a * o.a + self.c * self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.c,
        )

    __rmul__ = __mul__

    def inverse(self):
        n = self.a * self.a - self.c * self.b * self.b
        if n == 0:
            raise ZeroDivisionError("zero element of the quadratic field")
        return QuadExt(self.a / n, -self.b / n, self.c)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadExt):
            return self.c == other.c and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.c))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __str__(self):
        return f"{self.a} + {self.b}*sqrt({self.c})"


def sqrt_of(c) -> QuadExt:
    """The element sqrt(c) of Q(sqrt(c))."""
    return QuadExt(Fraction(0), Fraction(1), Fraction(c))

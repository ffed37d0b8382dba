"""The standard model: V = H^2 (x) E^{2n} with structure sl(H) and metric
omega^H (x) omega^E.

Coordinates on V are fixed once and for all in the order
(h1(x)e1, ..., h1(x)e_{2n}, h2(x)e1, ..., h2(x)e_{2n}); a vector is its
coordinate row, the pair (e | e') of its two E-components.  Operators
a*I + b*J + c*K are stored by their coordinates relative to the
standard admissible basis; basis changes are explicit values, never
hidden state.

The arithmetic runs on plain integers, as in :mod:`pqh.linalg`: an
operator and an H-basis change both act as a 2x2 matrix on the pair
(e, e') of E-components, and the metric is one bilinear form.  Each
:class:`Operator` stores that matrix once, cleared of denominators as
``(ints, d)``, and each :class:`HBasisChange` stores its matrix and its
inverse the same way, the inverse computed once by ``Mat.inverse``.  The
integer core of the action, :func:`_h_act_int` (``Operator.act_int``,
``HBasisChange.to_basis_int``), maps a row ``(ints, d)`` to a row
``(ints, d)`` with the stored matrix, so callers such as
``Subspace.reduce_int`` take its output without a ``Fraction`` in
between.  ``Fraction``s are built only at the rational surface:
``Operator.apply_coords`` builds each output coordinate once, and
:meth:`ModelSpace.hermitian_product` builds one per value.  The Hermitian
product clears x and y once and pairs x with y, Iy, Jy and Ky in ints.
Relative to an H-basis s it pairs the s-coordinates of x and y
(``to_basis_int``) with the standard triple.

A :class:`ModelSpace` keeps omega^E once, as its nonzero entries
(i, j, w_ij) over one common denominator, and lays g = omega^H (x) omega^E
out from the same entries.  :func:`_pairing` sums w_ij a_i b_j over those
entries only: 2n products for the standard omega^E, where a loop over the
matrix rows made 4n^2.  :func:`_form_image` gives the row w b, so the
pairings of many rows (``subspace._pairings``) cost one such row per
column and one dot product per entry.

No matrix on V is built: the metric omega^H (x) omega^E and an operator
A (x) Id_E are read through their factors only.

An :class:`HBasisChange` s rewrites standard coordinate rows in s
(``to_basis_int``); graph rows apply s itself to integer rows with
:func:`_h_act_int`, and ``conjugate`` gives the operator s m s^-1 from
the stored entries of s and the three entries (x, y, z) of a traceless
m = (x, y; z, -x), so m is traceless by construction: det s = 1, so s^-1
is the adjugate, and the product is one 2x2 integer product, with no
``Mat`` built.

The split-quaternions enter only as values: :class:`ParaQuaternion` holds
the four parts of a Hermitian product, and reads its norm and imaginary
part.  The standard triple is the literal matrices ``MAT_I``, ``MAT_J``,
``MAT_K`` on Q^2, and an operator alpha*I + beta*J + gamma*K is the
traceless matrix (-gamma, beta - alpha; alpha + beta, gamma).

:func:`standardize` checks only the unit and product relations of an
abstract triple, by ``Mat`` products: they imply every anticommutation.
It reads V+ = ker(J - Id) by :func:`~pqh.linalg.int_kernel` and builds
the columns e -+ Ke on integer rows; that they form a basis intertwining
the triple is a cross-check (``AssertionError``), not an input check.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple, Sequence

from .linalg import F0, Mat, _entry, _int_row, _one_denominator, frac_row, int_kernel


class StructureError(ValueError):
    """An input violates a structural invariant (relations, symplectic...)."""


OMEGA_H = Mat(((0, 1), (-1, 0)))  # omega^H(h1, h2) = 1

# the standard para-hypercomplex structure of Q^2: -I^2 = J^2 = K^2 = Id, IJ = K
MAT_I = Mat(((0, -1), (1, 0)))
MAT_J = Mat(((0, 1), (1, 0)))
MAT_K = Mat(((-1, 0), (0, 1)))


class ParaQuaternion(NamedTuple):
    """q0 + q1*i + q2*j + q3*k with -i^2 = j^2 = k^2 = 1 and ij = -ji = k."""

    q0: Fraction
    q1: Fraction
    q2: Fraction
    q3: Fraction

    def norm(self) -> Fraction:
        """N(q) = q*conj(q) = q0^2 + q1^2 - q2^2 - q3^2."""
        return self.q0**2 + self.q1**2 - self.q2**2 - self.q3**2

    def imag(self) -> "ParaQuaternion":
        return ParaQuaternion(F0, self.q1, self.q2, self.q3)


def _rational_row(coords) -> tuple:
    """``_int_row`` of a coordinate row, ``TypeError`` unless it is rational."""
    try:
        return _int_row(coords)
    except AttributeError:
        raise TypeError("expected rational coordinates") from None


def _h_act_int(m, xs, dx) -> tuple:
    """(m0*e + m1*e', m2*e + m3*e') / (dm * dx) for the integer row
    xs = (e, e') over dx and a 2x2 matrix read row-wise, given cleared as
    ``m = ((m0, m1, m2, m3), dm)``: ``(ints, d)`` of the result."""
    (m0, m1, m2, m3), dm = m
    half = len(xs) // 2
    pairs = list(zip(xs[:half], xs[half:]))
    out = [m0 * e + m1 * ep for e, ep in pairs] + [m2 * e + m3 * ep for e, ep in pairs]
    return out, dm * dx


def _pairing(w, a, b) -> int:
    """a^T w b for integer rows ``a``, ``b`` and an integer form ``w`` given
    by its nonzero entries (i, j, w_ij)."""
    return sum(x * a[i] * b[j] for i, j, x in w)


def _form_image(w, b) -> list:
    """The integer row w b for a square form ``w`` given by its nonzero
    entries (i, j, w_ij): a^T w b is its dot product with a."""
    out = [0] * len(b)
    for i, j, x in w:
        if b[j]:
            out[i] += x * b[j]
    return out


def standard_symplectic(dim: int) -> Mat:
    """Block-diagonal symplectic form with omega(e_{2i+1}, e_{2i+2}) = 1."""
    if dim % 2:
        raise StructureError("symplectic form needs even dimension")
    return Mat.identity(dim // 2).kron(OMEGA_H)


def _structure_matrix(a, b, g) -> tuple:
    """The 2x2 matrix of a*I + b*J + g*K on H, row-wise."""
    return (-g, b - a, a + b, g)


def tensor(h: Sequence, e: Sequence) -> tuple:
    """The coordinate row of the decomposable vector (h[0]*h1 + h[1]*h2) (x) e."""
    a, b = map(_entry, h)
    e = tuple(map(_entry, e))
    return tuple(a * x for x in e) + tuple(b * x for x in e)


class _Frozen:
    """An immutable value on ``__slots__``: the attributes named in
    ``_fields`` define it, and alone make its ``==``, hash and repr; the
    other slots are derived from them when it is built."""

    __slots__ = ()
    _fields = ()

    def _set(self, **values):
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"


class Operator(_Frozen):
    """A = alpha*I + beta*J + gamma*K in the standard admissible basis."""

    __slots__ = ("alpha", "beta", "gamma", "_m", "_act")
    _fields = ("alpha", "beta", "gamma")
    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def __init__(self, alpha, beta, gamma):
        a, b, g = _entry(alpha), _entry(beta), _entry(gamma)
        # the 2x2 matrix of A on H, row-wise; cleared, it acts on (e, e')
        m = _structure_matrix(a, b, g)
        self._set(alpha=a, beta=b, gamma=g, _m=m, _act=_int_row(m))

    def q(self) -> Fraction:
        """Conjugation-invariant form q(A) = alpha^2 - beta^2 - gamma^2.

        Positive means complex type, negative para-complex type, zero
        (with A nonzero) nilpotent; always A^2 = -q(A) Id.
        """
        return self.alpha**2 - self.beta**2 - self.gamma**2

    def mat2(self) -> Mat:
        """The 2x2 matrix acting on H-coordinates."""
        return Mat((self._m[:2], self._m[2:]))

    def is_zero(self) -> bool:
        return self.alpha == 0 and self.beta == 0 and self.gamma == 0

    def apply_coords(self, coords: tuple) -> tuple:
        """A (x) Id_E applied to the coordinate row (e, e')."""
        if len(coords) % 2:
            raise ValueError("coordinate length must be even")
        out, d = _h_act_int(self._act, *_rational_row(coords))
        return tuple(Fraction(x, d) if x else F0 for x in out)

    def act_int(self, xs: list, dx: int) -> tuple:
        """:meth:`apply_coords` on the integer row xs / dx, as ``(ints, d)``."""
        return _h_act_int(self._act, xs, dx)


OP_I = Operator(1, 0, 0)
OP_J = Operator(0, 1, 0)
OP_K = Operator(0, 0, 1)


def _flat(m: Mat) -> tuple:
    """The 2x2 matrix m read row-wise over one denominator, as ``(ints, d)``
    in lowest terms: the concatenation of two rows in lowest terms over
    the lcm of their denominators is."""
    (top, bottom), d = _one_denominator(m.int_rows())
    return top + bottom, d


class HBasisChange(_Frozen):
    """A symplectic basis change of H; columns are the new basis vectors.
    It holds s as ``mat`` and, cleared row-wise, s and s^-1: ``_from`` for
    the graph rows (``uft._graph_row``) and ``_to`` for ``to_basis_int``.
    s^-1 is kept only cleared; ``mat.inverse()`` gives it as a ``Mat``."""

    __slots__ = ("mat", "_from", "_to")
    _fields = ("mat",)
    mat: Mat

    def __init__(self, mat: Mat):
        if mat.shape != (2, 2):
            raise StructureError("H basis change must be 2x2")
        if mat.det() != 1:
            raise StructureError("H basis change must have determinant 1")
        self._set(mat=mat, _from=_flat(mat), _to=_flat(mat.inverse()))

    @classmethod
    def identity(cls) -> "HBasisChange":
        return cls(Mat.identity(2))

    @classmethod
    def from_columns(cls, h1: Sequence, h2: Sequence) -> "HBasisChange":
        return cls(Mat.from_cols((tuple(map(_entry, h1)), tuple(map(_entry, h2)))))

    @property
    def h1(self) -> tuple:
        return self.mat.col(0)

    @property
    def h2(self) -> tuple:
        return self.mat.col(1)

    def compose(self, other: "HBasisChange") -> "HBasisChange":
        return HBasisChange(self.mat @ other.mat)

    def to_basis_int(self, xs: list, dx: int) -> tuple:
        """The standard coordinate row xs / dx rewritten in this basis of H,
        as ``(ints, d)``: its two E-components (comp1, comp2), concatenated."""
        return _h_act_int(self._to, xs, dx)

    def conjugate(self, x, y, z) -> Operator:
        """The operator s m s^-1 for the traceless 2x2 matrix m = (x, y; z, -x)
        given in this basis of H: the endomorphism with matrix m here, in
        standard coordinates.

        With s = S / e stored cleared and det s = 1, s^-1 = adj(S) / e, so
        for (x, y, z) cleared over dm the product is S m adj(S) / (e^2 dm),
        read off entry by entry in integers."""
        (x, y, z), dm = _int_row((x, y, z))
        (a, b, c, d), e = self._from
        r01 = a * a * y - b * b * z - 2 * a * b * x
        r10 = d * d * z - c * c * y + 2 * c * d * x
        r11 = a * c * y - b * d * z - (a * d + b * c) * x
        den = e * e * dm
        return Operator(Fraction(r10 - r01, 2 * den), Fraction(r01 + r10, 2 * den), Fraction(r11, den))


class ModelSpace(_Frozen):
    """Dimension parameter n and a symplectic form on E = Q^{2n}.

    omega^E is stored once as its nonzero entries (i, j, w_ij), cleared
    over one common denominator d: ``_omega_form`` is ``(entries, d)``.
    The metric g = omega^H (x) omega^E is laid out from the same entries,
    (i, 2n + j, w_ij) and (2n + i, j, -w_ij), as ``_metric_form`` over the
    same d.  Every pairing sums over the nonzero entries only (2n of them
    for the standard omega^E).  Both are derived when the space is built,
    outside ``_fields``, so equality and hashing see only n and omega.
    """

    __slots__ = ("n", "omega", "_omega_form", "_metric_form")
    _fields = ("n", "omega")
    n: int
    omega: Mat

    def __init__(self, n: int, omega: Mat):
        if n < 1:
            raise StructureError("n must be a positive integer")
        if omega.shape != (2 * n, 2 * n):
            raise StructureError("omega_E must be 2n x 2n")
        rows, d = _one_denominator(omega.int_rows())
        if rows != [[-x for x in c] for c in zip(*rows)]:
            raise StructureError("omega_E must be skew-symmetric")
        if omega.det() == 0:
            raise StructureError("omega_E must be invertible")
        entries = [(i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row) if x]
        self._set(n=n, omega=omega, _omega_form=(entries, d))
        half = self.dim_e
        g = [(i, half + j, x) for i, j, x in entries] + [(half + i, j, -x) for i, j, x in entries]
        self._set(_metric_form=(g, d))

    @classmethod
    def standard(cls, n: int) -> "ModelSpace":
        return cls(n, standard_symplectic(2 * n))

    @property
    def dim_e(self) -> int:
        return 2 * self.n

    @property
    def dim_v(self) -> int:
        return 4 * self.n

    def _rows_of(self, *coords) -> list:
        """``_rational_row`` of each coordinate row, which must have length dim V."""
        if any(len(x) != self.dim_v for x in coords):
            raise ValueError("vector does not live in this model space")
        return [_rational_row(x) for x in coords]

    def _metric_int(self, xs: list, ys: list) -> int:
        """The numerator of g on integer coordinate rows (omega^E's common
        denominator is left out)."""
        return _pairing(self._metric_form[0], xs, ys)

    def hermitian_product(self, x: Sequence, y: Sequence, basis=None) -> ParaQuaternion:
        """X.Y = g(X,Y) + i g(X,IY) - j g(X,JY) - k g(X,KY) for the admissible
        basis of an H-basis change s (default: the standard one).  Its triple
        is s(I, J, K)s^-1, and g(X, sIs^-1 Y) = g(s^-1 X, I s^-1 Y) since
        det s = 1: X and Y are paired in s-coordinates."""
        rows = self._rows_of(x, y)
        if basis is not None:
            rows = [basis.to_basis_int(*r) for r in rows]
        (xs, dx), (ys, dy) = rows
        d = self._metric_form[1] * dx
        vals = [Fraction(self._metric_int(xs, ys), d * dy)]
        for op in (OP_I, OP_J, OP_K):
            zs, dz = op.act_int(ys, dy)
            vals.append(Fraction(self._metric_int(xs, zs), d * dz))
        return ParaQuaternion(vals[0], vals[1], -vals[2], -vals[3])


# -- standardization of abstract para-hypercomplex structures -------------


class Standardization(NamedTuple):
    """Basis matrix P with P^-1 X P equal to the standard block structure."""

    basis: Mat
    pairs: int  # number of 2-dimensional irreducible summands


def standardize(i_mat: Mat, j_mat: Mat, k_mat: Mat) -> Standardization:
    """Find a basis in which an abstract triple becomes the standard one.

    The triple must satisfy -I^2 = J^2 = K^2 = Id and IJ = K exactly.
    These force pairwise anticommutation (K^2 = IJIJ = Id gives JI = -IJ),
    so K swaps the eigenspaces V+ and V- of J, which are halves of V.
    Each vector e of the reduced echelon basis of V+ gives the columns
    e - Ke and e + Ke, on which the triple is the standard one, so the
    output is deterministic.  The relations imply that these columns are a
    basis and intertwine the triple, so a failure of either cross-check is
    an ``AssertionError``, not a fault of the input.
    """
    d = i_mat.nrows
    if i_mat.shape != (d, d) or j_mat.shape != (d, d) or k_mat.shape != (d, d):
        raise StructureError("structure matrices must be square of equal size")
    one = Mat.identity(d)
    if i_mat @ i_mat != Mat.scalar(d, -1) or j_mat @ j_mat != one or k_mat @ k_mat != one:
        raise StructureError("unit relations violated")
    if (i_mat @ j_mat) != k_mat:
        raise StructureError("product relation I J = K violated")
    # V+ = ker(J - Id) and K e, on the rows of J and K over one denominator
    jn, dj = _one_denominator(j_mat.int_rows())
    shifted = [[x - dj * (i == j) for j, x in enumerate(r)] for i, r in enumerate(jn)]
    plus, _ = int_kernel(shifted, d)
    kn, dk = _one_denominator(k_mat.int_rows())
    cols = []
    for E, de in plus:
        ke = [sum(map(mul, r, E)) for r in kn]  # dk de K e
        cols.append(frac_row([dk * x - y for x, y in zip(E, ke)], dk * de))
        cols.append(frac_row([dk * x + y for x, y in zip(E, ke)], dk * de))
    basis = Mat.from_cols(cols, nrows=d)
    if basis.det() == 0:
        raise AssertionError("eigenbasis pairing is degenerate")
    pairs = Mat.identity(d // 2)
    for x_mat, block in ((i_mat, MAT_I), (j_mat, MAT_J), (k_mat, MAT_K)):
        if x_mat @ basis != basis @ pairs.kron(block):
            raise AssertionError("standardization failed to intertwine the triple")
    return Standardization(basis, d // 2)

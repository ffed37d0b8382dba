"""Exact subspace arithmetic over Q.

A subspace is held by the unique reduced-echelon basis of its row
space, so equality of subspaces is equality of matrices.  Everything
(sums, intersections, complements, Gram matrices, signatures) is
computed with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .linalg import F0, F1, Mat, _int_row, symmetric_signature, vec_is_zero
from .model import HBasisChange, ModelSpace, Operator, Vector, tensor


@dataclass(frozen=True)
class SignatureTriple:
    """Sylvester inertia (positive, null, negative) of an induced metric."""

    p: int
    s: int
    q: int

    @property
    def dim(self) -> int:
        return self.p + self.s + self.q

    @property
    def nondegenerate(self) -> bool:
        return self.s == 0

    def as_tuple(self):
        return (self.p, self.s, self.q)


class Subspace:
    """A linear subspace of Q^d in canonical reduced-echelon form."""

    __slots__ = ("mat", "pivots", "_int_basis")

    def __init__(self, mat: Mat):
        mat, pivots = mat.rref()
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "pivots", tuple(pivots))
        object.__setattr__(self, "_int_basis", None)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(cls, rows: Iterable[Sequence], ambient: int) -> "Subspace":
        rows = tuple(tuple(r) for r in rows)
        if any(len(r) != ambient for r in rows):
            raise ValueError("row length does not match ambient dimension")
        return cls(Mat(rows, ncols=ambient))

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(Mat((), ncols=ambient))

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls(Mat.identity(ambient))

    @property
    def ambient(self) -> int:
        return self.mat.ncols

    @property
    def dim(self) -> int:
        return self.mat.nrows

    @property
    def basis(self) -> tuple:
        return self.mat.rows

    @property
    def basis_vectors(self) -> tuple:
        return tuple(Vector.from_coords(r) for r in self.mat.rows)

    def is_zero(self) -> bool:
        return self.dim == 0

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.mat == other.mat

    def __hash__(self):
        return hash(self.mat)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"

    # -- membership and coset reduction -----------------------------------

    def reduce(self, v: Sequence) -> tuple:
        """Canonical coset representative of v modulo this subspace.

        Runs in ints: with v = V/D and a basis row R/e (so R[p] = e at its
        pivot p), v - v[p] * row = (e*V - V[p]*R) / (D*e).  Entries may be
        ints or Fractions; the result is Fractions.
        """
        if self._int_basis is None:
            object.__setattr__(self, "_int_basis", [_int_row(r) for r in self.mat.rows])
        V, D = _int_row(v)
        for (R, e), p in zip(self._int_basis, self.pivots):
            c = V[p]
            if c:
                V = [e * x - c * y for x, y in zip(V, R)]
                D *= e
                if D > 1:
                    g = gcd(D, *V)
                    if g > 1:
                        V = [x // g for x in V]
                        D //= g
        return tuple(Fraction(x, D) if x else F0 for x in V)

    def contains_vector(self, v: Sequence) -> bool:
        return vec_is_zero(self.reduce(v))

    def contains(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return all(self.contains_vector(r) for r in other.mat.rows)

    def __le__(self, other: "Subspace") -> bool:
        return other.contains(self)

    def coordinates_of(self, v: Sequence) -> tuple:
        """Coefficients of v in the canonical basis; error if v is outside."""
        coeffs = tuple(v[p] for p in self.pivots)
        if not vec_is_zero(self.reduce(v)):
            raise ValueError("vector is not in the subspace")
        return coeffs

    # -- lattice operations ------------------------------------------------

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return Subspace(self.mat.vstack(other.mat))

    __add__ = sum

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient)
        # x = c . basis(self) = c' . basis(other); solve for (c, -c')
        stacked = self.mat.vstack(other.mat).T
        combos = stacked.kernel()
        rows = []
        for combo in combos.rows:
            cself = combo[: self.dim]
            x = [F0] * self.ambient
            for coef, row in zip(cself, self.mat.rows):
                if coef != 0:
                    for j, val in enumerate(row):
                        x[j] += coef * val
            rows.append(tuple(x))
        return Subspace.span(rows, self.ambient)

    def __and__(self, other):
        return self.intersect(other)

    def complement(self) -> "Subspace":
        """Canonical complement spanned by the coordinate vectors at the
        non-pivot positions (echelon completion)."""
        pivset = set(self.pivots)
        rows = []
        for j in range(self.ambient):
            if j not in pivset:
                v = [F0] * self.ambient
                v[j] = F1
                rows.append(tuple(v))
        return Subspace.span(rows, self.ambient)

    def complement_in(self, larger: "Subspace") -> "Subspace":
        """Canonical complement of self inside larger (self must be inside)."""
        if not larger.contains(self):
            raise ValueError("complement_in needs a containing subspace")
        taken = self
        rows = []
        for r in larger.mat.rows:
            cand = taken.sum(Subspace.span((r,), self.ambient))
            if cand.dim > taken.dim:
                rows.append(r)
                taken = cand
        return Subspace.span(rows, self.ambient)

    def preimage_by(self, m: Mat) -> "Subspace":
        """{x : m x in self}."""
        if m.nrows != self.ambient:
            raise ValueError("matrix/ambient mismatch")
        if self.dim == self.ambient:
            return Subspace.full(m.ncols)
        # reduce() is linear and vanishes exactly on self, so the columns
        # reduce(m e_j) give the constraint matrix for x.
        pivset = set(self.pivots)
        free = [j for j in range(self.ambient) if j not in pivset]
        qcols = []
        for x_col in range(m.ncols):
            red = self.reduce(m.col(x_col))
            qcols.append(tuple(red[j] for j in free))
        qmat = Mat.from_cols(qcols, nrows=len(free))
        return Subspace(qmat.kernel())


def direct_sum_is(whole: Subspace, parts: Sequence[Subspace]) -> bool:
    """Exact check that the parts are independent and span the whole."""
    total = Subspace.zero(whole.ambient)
    dims = 0
    for p in parts:
        total = total.sum(p)
        dims += p.dim
    return dims == total.dim and total == whole


# -- operations tied to the model structure --------------------------------


def image(a: Operator, u: Subspace) -> Subspace:
    """Span of A applied to a basis of U."""
    return Subspace.span([a.apply_coords(r) for r in u.mat.rows], u.ambient)


def operator_preimage(a: Operator, u: Subspace) -> Subspace:
    """{x : A x in U}; for invertible A this is A^{-1} U."""
    dim_e = u.ambient // 2
    return u.preimage_by(a.as_matrix(dim_e))


def p1p2(u: Subspace, basis: HBasisChange | None = None):
    """Projections (p1(U), p2(U)) onto E relative to a basis of H."""
    if basis is None:
        basis = HBasisChange.identity()
    half = u.ambient // 2
    comps = [basis.h_components(v) for v in u.basis_vectors]
    e1 = Subspace.span([c[0] for c in comps], half)
    e2 = Subspace.span([c[1] for c in comps], half)
    return e1, e2


def h_fiber(u: Subspace, h: Sequence) -> Subspace:
    """{e in E : h (x) e in U}, the fiber of the direction h."""
    half = u.ambient // 2
    a, b = h
    if a == 0 and b == 0:
        raise ValueError("direction must be nonzero")
    pivset = set(u.pivots)
    free = [j for j in range(u.ambient) if j not in pivset]
    rows = []
    for r in range(half):
        e = [F0] * half
        e[r] = F1
        red = u.reduce(tensor((a, b), e).coords)
        rows.append(tuple(red[j] for j in free))
    qmat = Mat(rows, ncols=len(free))
    return Subspace(qmat.T.kernel())


def gram(ms: ModelSpace, u: Subspace) -> Mat:
    """Gram matrix of the metric on the canonical basis of U."""
    vs = u.basis_vectors
    return Mat(
        tuple(tuple(ms.metric(x, y) for y in vs) for x in vs), ncols=u.dim
    )


def signature(ms: ModelSpace, u: Subspace) -> SignatureTriple:
    return SignatureTriple(*symmetric_signature(gram(ms, u)))


def ortho_complement(ms: ModelSpace, u: Subspace) -> Subspace:
    """{y : g(x, y) = 0 for all x in U}; dimension 4n - dim U."""
    g = ms.metric_matrix()
    rows = [g.mul_vec(r) for r in u.mat.rows]
    if not rows:
        return Subspace.full(u.ambient)
    return Subspace(Mat(rows, ncols=u.ambient).kernel())


def is_orthogonal(ms: ModelSpace, u: Subspace, w: Subspace) -> bool:
    return all(
        ms.metric(x, y) == 0 for x in u.basis_vectors for y in w.basis_vectors
    )


from functools import lru_cache


@lru_cache(maxsize=4096)
def maximal_pq(u: Subspace) -> Subspace:
    """U0 = U  ^ IU ^ JU ^ KU, the maximal para-quaternionic subspace."""
    from .model import OP_I, OP_J, OP_K

    u0 = u
    for op in (OP_I, OP_J, OP_K):
        u0 = u0.intersect(image(op, u))
        if u0.is_zero():
            return u0
    return u0


def is_pure(u: Subspace) -> bool:
    return maximal_pq(u).is_zero()


def product_subspace(e_sub: Subspace) -> Subspace:
    """H (x) E' for a subspace E' of E."""
    half = e_sub.ambient
    rows = []
    for f in e_sub.mat.rows:
        rows.append(tensor((1, 0), f).coords)
        rows.append(tensor((0, 1), f).coords)
    return Subspace.span(rows, 2 * half)


def decomposable_subspace(h: Sequence, e_sub: Subspace) -> Subspace:
    """h (x) E' for a direction h and a subspace E' of E."""
    return Subspace.span(
        [tensor(h, f).coords for f in e_sub.mat.rows], 2 * e_sub.ambient
    )


def omega_kernel_in(ms: ModelSpace, a_sub: Subspace, b_sub: Subspace) -> Subspace:
    """ker omega^E(A x B) taken inside B: the b with omega(a, b) = 0 for all
    a in A.  (The convention is deliberately asymmetric.)"""
    rows = []
    for a in a_sub.mat.rows:
        rows.append(ms.omega.T.mul_vec(a))
    if not rows:
        return b_sub
    constraints = Mat(rows, ncols=ms.dim_e)
    return b_sub.intersect(Subspace(constraints.kernel()))


def restrict_omega(ms: ModelSpace, e_sub: Subspace) -> Mat:
    """Matrix of omega^E restricted to the canonical basis of a subspace of E."""
    b = e_sub.mat.rows
    return Mat(
        tuple(tuple(ms.omega_eval(x, y) for y in b) for x in b), ncols=e_sub.dim
    )

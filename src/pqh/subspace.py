"""Exact subspace arithmetic over Q.

A subspace is held by the unique reduced-echelon basis of its row
space, so equality of subspaces is equality of matrices.  Everything
(sums, intersections, complements, Gram matrices, signatures) is
computed with zero tolerance; combinations of basis rows and Gram
matrices are integer matrix products (``Mat.__matmul__``).  The sum of
several subspaces is one elimination of all their rows (:func:`span_of`),
which also serves the direct-sum test.

Coset reduction is an integer core: :meth:`Subspace.reduce_int` takes a
row as ``(ints, d)`` (the value ``ints[j] / d``, as ``linalg._int_row``
gives it) and returns one, so an integer operator action
(``Operator.act_int``) feeds it directly.  ``Fraction``s are built only
where a rational value leaves the core: the result of :meth:`reduce`,
the constraint columns of a kernel, and the rows of a new basis.
``contains_vector`` tests the core's numerators for zero and builds none.

Every subspace cut out by a linear condition is one call of
:meth:`Subspace.kernel_in`: the vectors sum c_i b_i of a subspace, over
its basis rows b_i, whose images sum c_i y_i lie in a target subspace
(or vanish).  ``intersect`` takes its own rows into the other operand,
``maximal_pq`` A applied to the rows of U0 into U, :func:`h_fiber` the
columns of ``[aI; bI]`` reduced modulo U, and :func:`omega_kernel_in`
the omega pairings.  The relations come from :func:`_relations`, which
holds the module's one certificate: the rank mod p of integer rows
(``linalg.rank_mod``, a lower bound on the rank over Q).  A full rank
mod p of the target's basis stacked on the images proves that no
relation exists, and the zero subspace is returned with no exact
elimination; any other outcome takes the exact kernel, and every answer
is the same canonical subspace.
``image_orthogonal`` tests AU _|_ U by pairing A applied to the integer
basis rows of U (``Operator.act_int``) with those rows by the metric's
integer numerator (``ModelSpace._metric_int``): no canonical AU and no
``Fraction`` is built.

Each ``Subspace`` instance carries a memo (:meth:`Subspace.memo`) so that
the facts every check reads are computed once per instance: the integer
basis used by ``reduce``, ``U0`` (:func:`maximal_pq`), the signature
(keyed by the model space), ``is_real``, and the spectrum of
``uft.subspace_spectrum``: the graph form, its injective presentation and
the factor kernels of its invariant core.  Only the decomposition paths
(``uft.decomposable_spectrum``, ``uft.decompose_form2`` and
``classify.generic_decompose``) fill the spectrum, so that they share one
spectral pass per instance; ``classify`` never does.  Graph forms stay out
of the classify path because callers keep many instances alive: memoizing
``graph_form`` per instance there was measured to raise the classify-sweep
benchmark's peak RSS from 26.0 to 29.8 MiB (+14%; retained ``tracemalloc``
memory 1.26 -> 4.86 MiB).  On the decompose-graph benchmark, whose
requests are all made before the first one runs, the spectrum raises the
memory each request retains after ``gc.collect()`` from 10 to 39 KiB
(peak RSS 22.5 -> 23.4 MiB, medians of 10 runs).  There are no
module-level caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .linalg import F0, F1, Mat, _entry, _int_row, rank_mod, symmetric_signature
from .model import OP_I, OP_J, OP_K, HBasisChange, ModelSpace, Operator, Vector


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

    __slots__ = ("mat", "pivots", "_memo")

    def __init__(self, mat: Mat):
        mat, pivots = mat.rref()
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "pivots", tuple(pivots))
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def memo(self, key, compute):
        """The value of ``compute()`` for this instance, computed once per key."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

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

    def int_basis(self) -> list:
        """The basis rows as ``(ints, d)`` pairs (see ``linalg._int_row``)."""
        return self.memo("int_basis", lambda: [_int_row(r) for r in self.mat.rows])

    def reduce_int(self, V: list, D: int) -> tuple:
        """:meth:`reduce` of the row V/D in ints: ``(ints, d)`` of the result.

        With a basis row R/e (so R[p] = e at its pivot p),
        v - v[p] * row = (e*V - V[p]*R) / (D*e); common factors of the
        numerators and D are divided out as they appear.
        """
        for (R, e), p in zip(self.int_basis(), self.pivots):
            c = V[p]
            if c:
                V = [e * x - c * y for x, y in zip(V, R)]
                D *= e
                if D > 1:
                    g = gcd(D, *V)
                    if g > 1:
                        V = [x // g for x in V]
                        D //= g
        return V, D

    def contains_int(self, V: list, D: int) -> bool:
        """Whether the row V/D lies in this subspace."""
        return not any(self.reduce_int(V, D)[0])

    def reduce(self, v: Sequence) -> tuple:
        """Canonical coset representative of v modulo this subspace.

        Entries may be ints or Fractions; the result is Fractions, built
        once from :meth:`reduce_int`.
        """
        V, D = self.reduce_int(*_int_row(v))
        return tuple(Fraction(x, D) if x else F0 for x in V)

    def contains_vector(self, v: Sequence) -> bool:
        return self.contains_int(*_int_row(v))

    def contains(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return all(self.contains_vector(r) for r in other.mat.rows)

    def coordinates_of(self, v: Sequence) -> tuple:
        """Coefficients of v in the canonical basis; error if v is outside."""
        coeffs = tuple(v[p] for p in self.pivots)
        if not self.contains_vector(v):
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
        if self.dim == self.ambient:
            return other
        return self.kernel_in(self.int_basis(), other)

    def kernel_in(self, images: list, target: "Subspace | None" = None) -> "Subspace":
        """{sum c_i b_i : sum c_i images[i] in target} over the basis rows
        b_i, for one image per row given as ``(ints, d)``; no target is 0.

        The coefficients are :func:`_relations`; when this subspace is the
        whole space they are the answer itself.
        """
        if self.dim == 0 or (target is not None and target.dim == target.ambient):
            return self
        rel = _relations(images, target)
        if rel.nrows == 0:
            return Subspace.zero(self.ambient)
        return Subspace(rel if self.dim == self.ambient else rel @ self.mat)

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
        # the rows of larger, in order, that leave the span of self and the
        # rows before them: the pivot columns of [self; larger]^T past self
        _, pivots = self.mat.vstack(larger.mat).T.rref()
        rows = [larger.mat.rows[p - self.dim] for p in pivots if p >= self.dim]
        return Subspace.span(rows, self.ambient)

    def combine_int(self, coeffs: Sequence) -> tuple:
        """The combination sum c_i b_i of the basis rows, as ``(ints, d)``."""
        cs, dc = _int_row(coeffs)
        basis = self.int_basis()
        e = lcm(*(d for _, d in basis))
        out = [0] * self.ambient
        for c, (R, d) in zip(cs, basis):
            if c:
                f = c * (e // d)
                out = [x + f * y for x, y in zip(out, R)]
        return out, dc * e


def _relations(rows: list, target: Subspace | None) -> Mat:
    """Canonical basis of the coefficient vectors c with sum c_i r_i in
    ``target`` (0 when it is None), for rows r_i given as ``(ints, d)``.

    The certificate: a full rank mod P61 of the target's integer basis
    stacked on the rows means no relation, and no ``Fraction`` is built.
    Otherwise the rows are reduced modulo the target, and one kernel is
    taken over the coordinates where some reduced row is nonzero.
    """
    width = len(rows[0][0])
    stacked = [V for V, _ in (target.int_basis() if target is not None else []) + rows]
    if len(stacked) <= width and rank_mod(stacked, width) == len(stacked):
        return Mat((), ncols=len(rows))
    if target is not None:
        rows = [target.reduce_int(V, D) for V, D in rows]
    live = [j for j in range(width) if any(V[j] for V, _ in rows)]
    cols = [tuple(Fraction(V[j], D) if V[j] else F0 for j in live) for V, D in rows]
    return Mat._of(tuple(zip(*cols)), len(cols)).kernel()


def span_of(parts: Sequence[Subspace], ambient: int) -> Subspace:
    """The sum of several subspaces, by one elimination of all their rows."""
    if any(p.ambient != ambient for p in parts):
        raise ValueError("ambient mismatch")
    return Subspace(Mat._of(tuple(r for p in parts for r in p.mat.rows), ambient))


def direct_sum_is(whole: Subspace, parts: Sequence[Subspace]) -> bool:
    """Exact check that the parts are independent and span the whole."""
    return sum(p.dim for p in parts) == whole.dim and span_of(parts, whole.ambient) == whole


# -- operations tied to the model structure --------------------------------


def image(a: Operator, u: Subspace) -> Subspace:
    """Span of A applied to a basis of U."""
    return Subspace.span([a.apply_coords(r) for r in u.mat.rows], u.ambient)


def p1p2(u: Subspace, basis: HBasisChange | None = None):
    """Projections (p1(U), p2(U)) onto E relative to a basis of H."""
    if basis is None:
        basis = HBasisChange.identity()
    half = u.ambient // 2
    comps = basis.to_basis(u.mat.rows)
    e1 = Subspace.span([c[:half] for c in comps], half)
    e2 = Subspace.span([c[half:] for c in comps], half)
    return e1, e2


def h_fiber(u: Subspace, h: Sequence) -> Subspace:
    """{e in E : h (x) e in U}, the fiber of the direction h."""
    (a, b), d = _int_row(tuple(map(_entry, h)))
    if a == 0 and b == 0:
        raise ValueError("direction must be nonzero")
    # column j of [aI; bI] is a e_j + b e_{half + j}; the fiber is the
    # relations among these columns reduced modulo U
    half = u.ambient // 2
    cols = []
    for j in range(half):
        col = [0] * u.ambient
        col[j], col[half + j] = a, b
        cols.append(u.reduce_int(col, d))
    return Subspace.full(half).kernel_in(cols)


def gram(ms: ModelSpace, u: Subspace) -> Mat:
    """Gram matrix of the metric on the canonical basis of U."""
    return u.mat @ ms.metric_matrix() @ u.mat.T


def signature(ms: ModelSpace, u: Subspace) -> SignatureTriple:
    return u.memo(
        ("signature", ms), lambda: SignatureTriple(*symmetric_signature(gram(ms, u)))
    )


def ortho_complement(ms: ModelSpace, u: Subspace) -> Subspace:
    """{y : g(x, y) = 0 for all x in U}; dimension 4n - dim U."""
    return Subspace((u.mat @ ms.metric_matrix()).kernel())


def is_orthogonal(ms: ModelSpace, u: Subspace, w: Subspace) -> bool:
    return (u.mat @ ms.metric_matrix() @ w.mat.T).is_zero()


def image_orthogonal(ms: ModelSpace, a: Operator, u: Subspace) -> bool:
    """AU _|_ U: the metric numerator of A applied to each integer basis row
    of U against each one vanishes; no canonical basis of AU is built."""
    basis = [ys for ys, _ in u.int_basis()]
    moved = [a.act_int(ys, 1)[0] for ys in basis]
    return not any(ms._metric_int(xs, ys) for xs in moved for ys in basis)


def maximal_pq(u: Subspace) -> Subspace:
    """U0 = U  ^ IU ^ JU ^ KU, the maximal para-quaternionic subspace.

    A^{-1} = +-A for A = I, J, K, so U0 ^ AU = {x in U0 : Ax in U}: each
    step is one :meth:`Subspace.kernel_in` with target U, and no canonical
    AU is built.
    """

    def compute():
        u0 = u
        for op in (OP_I, OP_J, OP_K):
            u0 = u0.kernel_in([op.act_int(V, D) for V, D in u0.int_basis()], u)
            if u0.is_zero():
                break
        return u0

    return u.memo("u0", compute)


def is_pure(u: Subspace) -> bool:
    return maximal_pq(u).is_zero()


def product_subspace(e_sub: Subspace) -> Subspace:
    """H (x) E' for a subspace E' of E."""
    return Subspace(Mat.identity(2).kron(e_sub.mat))


def decomposable_subspace(h: Sequence, e_sub: Subspace) -> Subspace:
    """h (x) E' for a direction h and a subspace E' of E."""
    return Subspace(Mat((tuple(h),), ncols=2).kron(e_sub.mat))


def omega_kernel_in(ms: ModelSpace, a_sub: Subspace, b_sub: Subspace) -> Subspace:
    """ker omega^E(A x B) taken inside B: the b with omega(a, b) = 0 for all
    a in A.  (The convention is deliberately asymmetric.)"""
    pairings = b_sub.mat @ (a_sub.mat @ ms.omega).T
    return b_sub.kernel_in([_int_row(r) for r in pairings.rows])


def restrict_omega(ms: ModelSpace, e_sub: Subspace) -> Mat:
    """Matrix of omega^E restricted to the canonical basis of a subspace of E."""
    return e_sub.mat @ ms.omega @ e_sub.mat.T

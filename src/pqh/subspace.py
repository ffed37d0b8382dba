"""Exact subspace arithmetic over Q.

A subspace is held by the unique reduced-echelon basis of its row space,
kept as integer rows: the pivot tuple and one row ``(ints, d)`` per
pivot, the value ``ints[j] / d`` in lowest terms (d > 0, gcd(ints, d) =
1; what ``linalg._int_row`` gives for the rational row).  Equality of
subspaces is equality of these rows, and the hash is taken of them.  A
new subspace costs one Bareiss pass (``linalg.int_rref``) over integer
rows, or none where its rows are already reduced: ``zero``, ``full``,
the complements (unit rows, or rows of the larger basis),
:func:`product_subspace`, :func:`decomposable_subspace`, p1(U)
(:func:`p1`), the fiber of h2 (:func:`h2_fiber`), the F of a graph
(``uft.to_uft``) and the combined rows of :meth:`Subspace.kernel_in`.
U's rows with a pivot in h2 (x) E are h2 (x) (its h2 fiber), so U0 =
H (x) E0 (:func:`maximal_pq`) is one cut of that fiber, and a zero fiber
gives U0 = 0 with no kernel.  The ``Fraction`` matrix ``mat`` is built
from the rows when it is first read, where a value leaves this layer;
its rows, ``basis``, are coordinate rows of V, which
``ModelSpace.hermitian_product`` takes as they are.

Everything (sums, intersections, complements, pairings, signatures) is
computed with zero tolerance.  The sum of several subspaces is one
elimination of all their rows (:func:`span_of`), which the direct-sum
test takes only when ``rank_mod`` falls short.
:meth:`Subspace.combine_int` is the one routine that combines basis
rows, apart from the one ``Mat`` product of ``uft.UFTForm.t_rows`` (the
home of ``Mat.__matmul__`` on decompose-graph in ``bench/tracing.py``);
``uft.graph_in``, which builds the graphs of ``generate`` and form 2's
E0 part, carries each reduced row to V with two of its calls.

Every value of g or omega^E on rows is an integer numerator,
:func:`_pairings`: the rows' numerators paired through the nonzero
entries of the form (``ModelSpace._metric_form`` or ``_omega_form``),
with w y built once per column row.  Scaling a row by a positive integer
changes none of what the program reads off a form: zero tests, ranks,
equalities over the row denominators, and the inertia of
:func:`signature`, which passes the metric numerators of U's rows to
``linalg.symmetric_signature``.  ``classify`` pairs graph rows,
T-columns and eigen-rows the same way, and the oracle takes its pairwise
Gram from it; no ``Fraction`` matrix of a form is built.

Coset reduction is an integer core: :meth:`Subspace.reduce_int` takes a
row as ``(ints, d)`` and returns one, so an integer operator action
(``Operator.act_int``) feeds it directly.  ``Fraction``s are built only
where a rational value leaves the core, in ``mat``.  ``contains_vector``
tests the core's numerators for zero and builds none.

Every subspace cut out by a linear condition is one call of
:meth:`Subspace.kernel_in`: the vectors sum c_i b_i of a subspace, over
its basis rows b_i, whose images sum c_i y_i lie in a target subspace
(or vanish).  ``intersect`` takes its own rows into the other operand,
``maximal_pq`` the h1 copies (e | 0) of the h2 fiber's rows into U,
:func:`h_fiber` the columns of ``[aI; bI]`` reduced modulo U,
:func:`omega_kernel_in` the omega pairings, ``uft.graph_over`` the h1
components of a graph's rows into a subspace of F,
``classify.check_para_complex`` the columns of C^T -+ rho Id (a rational
eigenspace of T), and the U' of ``uft.pq_split`` is U ^ (H (x) C) for the
complement C of E0.  The relations come from :func:`_relations`, which
holds the module's one certificate: the rank mod p of integer rows
(``linalg.rank_mod``, a lower bound on the rank over Q).  A full rank
mod p of the target's basis stacked on the images proves that no
relation exists, and the zero subspace is returned with no exact
elimination; any other outcome takes one exact ``linalg.int_kernel``,
and every answer is the same canonical subspace.
``image_orthogonal`` tests AU _|_ U by pairing A applied to the integer
basis rows of U (``Operator.act_int``) with those rows: no canonical AU
and no ``Fraction`` is built.

Each ``Subspace`` instance carries a memo (:meth:`Subspace.memo`) so that
the facts every check reads are computed once per instance: ``mat``,
``U0`` (:func:`maximal_pq`), the signature (keyed by the model space),
and the spectrum of ``uft.subspace_spectrum``: the graph form, its
injective presentation and the factor kernels of its invariant core.
Only the decomposition paths (``uft.decomposable_spectrum``,
``uft.decompose_form2`` and ``classify.generic_decompose``) fill the
spectrum, so that they share one spectral pass per instance; ``classify``
never does: it builds ``graph_form(u)`` once for a pure U and passes it
to ``is_real`` and ``check_totally_real``.  Graph forms stay out of the
memo since callers keep many instances alive (the benchmark makes every
request before it runs one): memoizing ``graph_form`` raised the peak RSS
of 35 retained classify-sweep requests from 21.8 to 24.4 MiB (+12%).
On the decompose-graph benchmark, whose requests are all made before the
first one runs, the spectrum raises the memory each request retains
after ``gc.collect()`` from 10 to 39 KiB (peak RSS 22.5 -> 23.4 MiB,
medians of 10 runs).  There are no module-level caches.
"""

from __future__ import annotations

from math import lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .linalg import Mat, _entry, _int_row, _lowest_terms, frac_row
from .linalg import int_kernel, int_rref, rank_mod, symmetric_signature
from .model import ModelSpace, Operator, _form_image


class SignatureTriple(NamedTuple):
    """Sylvester inertia (positive, null, negative) of an induced metric."""

    p: int
    s: int
    q: int

    def as_tuple(self):
        return (self.p, self.s, self.q)


class Subspace:
    """A linear subspace of Q^d held by its canonical reduced-echelon basis.

    The operations below build their results in canonical form directly;
    ``Subspace(mat)``, the span of a ``Fraction`` matrix's rows, is the
    tests' ``Fraction`` reference route, and the package never calls it.
    """

    __slots__ = ("_rows", "pivots", "ambient", "_memo")

    def __init__(self, mat: Mat):
        self._set(*int_rref([_int_row(r)[0] for r in mat.rows], mat.ncols), mat.ncols)

    def _set(self, rows: list, pivots, ambient: int):
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "pivots", tuple(pivots))
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "_memo", {})

    @classmethod
    def _of(cls, rows: list, pivots, ambient: int) -> "Subspace":
        """Trusted constructor, no elimination: ``rows`` is the canonical
        basis as ``(ints, d)`` rows in lowest terms, ``pivots`` their pivots."""
        u = cls.__new__(cls)
        u._set(rows, pivots, ambient)
        return u

    @classmethod
    def _echelon(cls, rows: list, ambient: int) -> "Subspace":
        """The span of plain-int rows, by one :func:`~pqh.linalg.int_rref`."""
        return cls._of(*int_rref(rows, ambient), ambient)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    def memo(self, key, compute):
        """The value of ``compute()`` for this instance, computed once per key."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @classmethod
    def span(cls, rows: Iterable[Sequence], ambient: int) -> "Subspace":
        rows = [[_entry(x) for x in r] for r in rows]
        if any(len(r) != ambient for r in rows):
            raise ValueError("row length does not match ambient dimension")
        return cls._echelon([_int_row(r)[0] for r in rows], ambient)

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls._of([], (), ambient)

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return cls._unit_rows(range(ambient), ambient)

    @classmethod
    def _unit_rows(cls, cols, ambient: int) -> "Subspace":
        """The span of the coordinate vectors e_j, j in ``cols`` ascending."""
        rows = [([int(i == j) for i in range(ambient)], 1) for j in cols]
        return cls._of(rows, cols, ambient)

    @property
    def mat(self) -> Mat:
        """The canonical basis as a ``Fraction`` matrix, built once when read."""
        return self.memo(
            "mat", lambda: Mat._of(tuple(frac_row(*r) for r in self._rows), self.ambient)
        )

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def basis(self) -> tuple:
        return self.mat.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.ambient, tuple((tuple(V), d) for V, d in self._rows)))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"

    # -- membership and coset reduction -----------------------------------

    def int_basis(self) -> list:
        """The canonical basis rows as ``(ints, d)`` pairs in lowest terms,
        each equal to ``linalg._int_row`` of the rational row.  The lists
        are copies: the rows they come from are the subspace's identity."""
        return [(list(V), d) for V, d in self._rows]

    def reduce_int(self, V: list, D: int) -> tuple:
        """The canonical coset representative of the row V/D modulo this
        subspace, as ``(ints, d)``.

        A canonical basis row R/e has R[p] = e at its pivot p and 0 at
        every other pivot, so the multiple of it to subtract is v's own
        entry V[p]/D: over one L = lcm of the e that occur,
        v - sum (V[p]/D)(R/e) = (L*V - sum V[p] (L/e) R) / (D*L), and one
        gcd at the end puts it in lowest terms.
        """
        hits = [(V[p], R, e) for (R, e), p in zip(self._rows, self.pivots) if V[p]]
        if not hits:
            return V, D
        L = lcm(*(e for _, _, e in hits))
        out = [L * x for x in V] if L > 1 else V
        for c, R, e in hits:
            f = c * (L // e)
            out = [x - f * y for x, y in zip(out, R)]
        return _lowest_terms(out, D * L)

    def contains_int(self, V: list, D: int) -> bool:
        """Whether the row V/D lies in this subspace."""
        return not any(self.reduce_int(V, D)[0])

    def contains_vector(self, v: Sequence) -> bool:
        return self.contains_int(*_int_row(v))

    def contains(self, other: "Subspace") -> bool:
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return all(self.contains_int(V, D) for V, D in other._rows)

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
        return span_of((self, other), self.ambient)

    __add__ = sum

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        if self.dim == self.ambient:
            return other
        return self.kernel_in(self._rows, other)

    def kernel_in(self, images: list, target: "Subspace | None" = None) -> "Subspace":
        """{sum c_i b_i : sum c_i images[i] in target} over the basis rows
        b_i, for one image per row given as ``(ints, d)``; no target is 0.

        The coefficients are :func:`_relations`; when this subspace is the
        whole space they are the answer itself.  Otherwise each relation
        row is combined (:meth:`combine_int`): a reduced row c with pivot k
        gives a row with pivot ``pivots[k]``, equal to 0 at the pivots of
        the other rows, so the combinations are in reduced form as built.
        """
        if self.dim == 0 or (target is not None and target.dim == target.ambient):
            return self
        rel = _relations(images, target)
        if self.dim == self.ambient:
            return rel
        rows = [self.combine_int(c, d) for c, d in rel._rows]
        return Subspace._of(rows, [self.pivots[k] for k in rel.pivots], self.ambient)

    def complement(self) -> "Subspace":
        """Canonical complement spanned by the coordinate vectors at the
        non-pivot positions (echelon completion)."""
        pivset = set(self.pivots)
        return Subspace._unit_rows([j for j in range(self.ambient) if j not in pivset], self.ambient)

    def complement_in(self, larger: "Subspace") -> "Subspace":
        """Canonical complement of self inside larger (self must be inside)."""
        if not larger.contains(self):
            raise ValueError("complement_in needs a containing subspace")
        # row i of larger leaves the span of self and the rows before it
        # unless a vector of self has its last coordinate in larger's basis
        # (self's rows at larger's pivots) at i: the pivots of those rows,
        # reversed.  Some rows of a reduced basis are a reduced basis.
        last = larger.dim - 1
        coords = [[V[p] for p in reversed(larger.pivots)] for V, _ in self._rows]
        dropped = {last - q for q in int_rref(coords, larger.dim)[1]}
        keep = [i for i in range(larger.dim) if i not in dropped]
        return Subspace._of(
            [larger._rows[i] for i in keep], [larger.pivots[i] for i in keep], self.ambient
        )

    def combine_int(self, cs: Sequence, dc: int = 1) -> tuple:
        """The combination sum (cs[i] / dc) b_i of the basis rows b_i, for
        integer coefficients, as ``(ints, d)`` in lowest terms."""
        e = lcm(*(d for c, (_, d) in zip(cs, self._rows) if c))
        out = [0] * self.ambient
        for c, (R, d) in zip(cs, self._rows):
            if c:
                f = c * (e // d)
                out = [x + f * y for x, y in zip(out, R)]
        return _lowest_terms(out, dc * e)


def _relations(rows: list, target: Subspace | None) -> Subspace:
    """The coefficient vectors c with sum c_i r_i in ``target`` (0 when it is
    None), for rows r_i = V_i / D_i given as ``(ints, d)``, as a subspace of
    Q^len(rows).

    The certificate: a full rank mod P30 of the target's integer basis
    stacked on the rows means no relation, and no kernel is taken.
    Otherwise the rows are reduced modulo the target, and one kernel of the
    numerators V_i is taken over the coordinates where some reduced row is
    nonzero.  A kernel vector c' of the V_i gives c_i = D_i c'_i, and
    scaling coordinates keeps a reduced basis reduced once each row is
    divided by its leading entry.
    """
    width = len(rows[0][0])
    stacked = [V for V, _ in (target._rows if target is not None else []) + rows]
    if len(stacked) <= width and rank_mod(stacked, width) == len(stacked):
        return Subspace.zero(len(rows))
    if target is not None:
        rows = [target.reduce_int(V, D) for V, D in rows]
    live = [j for j in range(width) if any(V[j] for V, _ in rows)]
    basis, pivots = int_kernel([[V[j] for V, _ in rows] for j in live], len(rows))
    ds = [D for _, D in rows]
    scaled = [
        _lowest_terms([x * D for x, D in zip(c, ds)], c[p] * ds[p])
        for (c, _), p in zip(basis, pivots)
    ]
    return Subspace._of(scaled, pivots, len(rows))


def span_of(parts: Sequence[Subspace], ambient: int) -> Subspace:
    """The sum of several subspaces, by one elimination of all their rows."""
    if any(p.ambient != ambient for p in parts):
        raise ValueError("ambient mismatch")
    return Subspace._echelon([V for p in parts for V, _ in p._rows], ambient)


def direct_sum_is(whole: Subspace, parts: Sequence[Subspace]) -> bool:
    """Exact check that the parts are independent and span the whole."""
    # the dimensions add up and each part lies in the whole; then a full
    # rank mod p of their rows, or else their span, shows them independent
    if sum(p.dim for p in parts) != whole.dim or not all(map(whole.contains, parts)):
        return False
    rows = [V for p in parts for V, _ in p._rows]
    return rank_mod(rows, whole.ambient) == len(rows) or span_of(parts, whole.ambient) == whole


# -- operations tied to the model structure --------------------------------


def image(a: Operator, u: Subspace) -> Subspace:
    """Span of A applied to a basis of U."""
    return Subspace._echelon([a.act_int(V, D)[0] for V, D in u._rows], u.ambient)


def p1(u: Subspace) -> Subspace:
    """p1(U), the projection of U onto E along h2 (x) E.

    The first halves of the rows of U with a pivot there are already the
    reduced basis of p1(U): every other row has a zero first half.
    """
    half = u.ambient // 2
    k = sum(p < half for p in u.pivots)
    return Subspace._of([_lowest_terms(V[:half], D) for V, D in u._rows[:k]], u.pivots[:k], half)


def h2_fiber(u: Subspace) -> Subspace:
    """{e in E : h2 (x) e in U}, ``h_fiber(u, (0, 1))`` read off U's rows.

    The rows of U with a pivot in h2 (x) E have a zero first half, and
    every other vector of U has a nonzero first half at some pivot, so
    their second halves are the reduced basis of the fiber.
    """
    half = u.ambient // 2
    k = sum(p < half for p in u.pivots)
    rows = [(V[half:], D) for V, D in u._rows[k:]]
    return Subspace._of(rows, [p - half for p in u.pivots[k:]], half)


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


def _pairings(form, xs: list, ys: list) -> list:
    """The numerators x^T w y of a form given as ``(entries, den)``
    (:class:`~pqh.model.ModelSpace`) on plain-int rows: one list over
    ``xs`` for each row y of ``ys``.  w y is built once per y, and each
    value is its dot product with x."""
    w = form[0]
    return [[sum(map(mul, x, wy)) for x in xs] for wy in (_form_image(w, y) for y in ys)]


def signature(ms: ModelSpace, u: Subspace) -> SignatureTriple:
    """The inertia of g on U, read off the metric numerators of U's integer
    basis rows (:func:`_pairings`): they are D G D times the form's
    denominator, for the Gram matrix G and D = diag(d_i) > 0, so by
    Sylvester they have G's inertia."""

    def compute():
        basis = [V for V, _ in u._rows]
        return SignatureTriple(*symmetric_signature(_pairings(ms._metric_form, basis, basis)))

    return u.memo(("signature", ms), compute)


def is_orthogonal(ms: ModelSpace, u: Subspace, w: Subspace) -> bool:
    """U _|_ W: the metric numerator of every basis row of U against every
    basis row of W vanishes."""
    basis = [xs for xs, _ in u._rows]
    return not any(map(any, _pairings(ms._metric_form, basis, [ys for ys, _ in w._rows])))


def image_orthogonal(ms: ModelSpace, a: Operator, u: Subspace) -> bool:
    """AU _|_ U: the metric numerator of A applied to each integer basis row
    of U against each one vanishes; no canonical basis of AU is built."""
    basis = [ys for ys, _ in u._rows]
    moved = [a.act_int(ys, 1)[0] for ys in basis]
    return not any(map(any, _pairings(ms._metric_form, moved, basis)))


def maximal_pq(u: Subspace) -> Subspace:
    """U0 = H (x) E0, the maximal para-quaternionic subspace of U.

    E0 = {e : h1 (x) e and h2 (x) e in U} is the common fiber of h1 and h2:
    the e of the :func:`h2_fiber` whose copy h1 (x) e = (e | 0) lies in U,
    one :meth:`Subspace.kernel_in` over the fiber's basis with target U.  A
    zero fiber returns at once.  :func:`_relations`' rank certificate can
    prove E0 = 0 only when dim U + dim fiber <= dim V; otherwise one exact
    kernel in dim-fiber unknowns runs.  No structure operator is applied.
    """

    def compute():
        f2 = h2_fiber(u)
        zero = [0] * f2.ambient
        return product_subspace(f2.kernel_in([(V + zero, D) for V, D in f2._rows], u))

    return u.memo("u0", compute)


def product_subspace(e_sub: Subspace) -> Subspace:
    """H (x) E' for a subspace E' of E: the rows (e, 0), then (0, e), over
    the reduced basis of E', which are already reduced."""
    half = e_sub.ambient
    zero = [0] * half
    rows = [(V + zero, D) for V, D in e_sub._rows] + [(zero + V, D) for V, D in e_sub._rows]
    pivots = e_sub.pivots + tuple(half + p for p in e_sub.pivots)
    return Subspace._of(rows, pivots, 2 * half)


def decomposable_subspace(h: Sequence, e_sub: Subspace) -> Subspace:
    """h (x) E' for a direction h and a subspace E' of E: the rows (a e, b e)
    over the reduced basis of E', each divided by its leading entry."""
    (a, b), _ = _int_row(tuple(map(_entry, h)))
    lead = a or b
    if not lead:
        return Subspace.zero(2 * e_sub.ambient)
    rows = [_lowest_terms([a * x for x in V] + [b * x for x in V], lead * D) for V, D in e_sub._rows]
    shift = 0 if a else e_sub.ambient
    return Subspace._of(rows, [shift + p for p in e_sub.pivots], 2 * e_sub.ambient)


def omega_kernel_in(ms: ModelSpace, a_sub: Subspace, b_sub: Subspace) -> Subspace:
    """ker omega^E(A x B) taken inside B: the b with omega(a, b) = 0 for all
    a in A.  (The convention is deliberately asymmetric.)

    The image of a basis row B / D of B is its row of pairings with the
    basis rows A / d of A; leaving out the factors 1 / d, common to a
    column, keeps the relations among the images.
    """
    pairs = _pairings(ms._omega_form, [A for A, _ in a_sub._rows], [B for B, _ in b_sub._rows])
    return b_sub.kernel_in([(row, D) for row, (_, D) in zip(pairs, b_sub._rows)])

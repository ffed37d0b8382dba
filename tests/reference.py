"""Reference copies of definitions that left ``pqh`` because only tests
read them, or that ``pqh`` replaced.

Each is a verbatim copy of the package code, so the tests that used it as
an independent check of the package keep the same reference.  The line
above each definition names its former home.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Callable, NamedTuple

from pqh.classify import (
    Addend,
    ClassificationReport,
    ComplexReport,
    OracleFinding,
    KindWitnesses,
    ParaComplexReport,
    PQReport,
    TotallyRealReport,
    _Q_FORM,
    _direction_completion,
    _isotropic_point,
    _positive_point,
    adapted_basis,
    adapted_nilpotent_basis,
    operator_in_basis,
    operator_preserves,
)
from pqh.classify import _pure_part as package_pure_part
from pqh.generate import check_dim, random_invertible, random_sl2, random_subspace, rng_sample_pairs
from pqh.linalg import F0, F1, Mat, _bareiss, _entry, _int_matmul, _int_row, _lowest_terms
from pqh.linalg import _one_denominator
from pqh.linalg import _faddeev_charpoly, _krylov_charpoly, frac_row, int_kernel, int_rank, int_rref
from pqh.linalg import rank_mod
from pqh.model import MAT_I, MAT_K, OMEGA_H, OP_I, OP_J, OP_K, HBasisChange, ModelSpace, Operator
from pqh.model import MAT_J, Standardization, StructureError
from pqh.model import _form_image, _h_act_int, _pairing, _rational_row, tensor
from pqh.polyq import is_rational_square, minimal_polynomial, poly_eval_matrix
from pqh.polyq import _factor_sympy, _proved_irreducible, poly_deg, poly_mul, poly_pow, poly_trim
from pqh.rng import Rng
from pqh.subspace import (
    SignatureTriple,
    Subspace,
    _relations,
    decomposable_subspace,
    direct_sum_is,
    h_fiber,
    image,
    image_orthogonal,
    is_orthogonal,
    maximal_pq,
    p1,
    product_subspace,
    signature,
    span_of,
)
from pqh.uft import TransversalityError, UFTForm, _graph_row, _no_rational_eigenvalue_map, graph_over
from pqh.uft import line_direction, minimal_fiber_direction, normalize_direction, poly_fiber
from pqh.uft import pq_split, subspace_spectrum
from pqh.uft import to_uft as package_to_uft


# Formerly pqh.quadext.QuadExt.
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


# Formerly pqh.quadext.sqrt_of.
def sqrt_of(c) -> QuadExt:
    """The element sqrt(c) of Q(sqrt(c))."""
    return QuadExt(Fraction(0), Fraction(1), Fraction(c))


# Formerly pqh.model.recover_omega_e.
def recover_omega_e(
    g: Callable[[tuple, tuple], Fraction],
    dim_e: int,
    basis: HBasisChange | None = None,
) -> Mat:
    """Reconstruct omega^E from a Hermitian metric given as an oracle.

    omega^E(e, e') = g(h (x) e, h' (x) e') / omega^H(h, h') must not
    depend on the pair (h, h'); the pairs (h1,h2), (h1+h2,h2) and
    (h1,h1+h2) are evaluated in that fixed order, and any disagreement
    (or a non-symplectic result) reports a non-Hermitian input.
    """
    if basis is None:
        basis = HBasisChange.identity()
    h1, h2 = basis.h1, basis.h2
    h12 = vec_add(h1, h2)
    pairs = [(h1, h2), (h12, h2), (h1, h12)]
    results = []
    unit = [F0] * dim_e
    for h, hp in pairs:
        den = h[0] * hp[1] - h[1] * hp[0]
        rows = []
        for r in range(dim_e):
            er = list(unit)
            er[r] = F1
            row = []
            for c in range(dim_e):
                ec = list(unit)
                ec[c] = F1
                row.append(g(tensor(h, er), tensor(hp, ec)) / den)
            rows.append(tuple(row))
        results.append(Mat(rows))
    if results[0] != results[1] or results[0] != results[2]:
        raise StructureError("metric is not Hermitian: pair-independence fails")
    omega = results[0]
    if not mat_is_skew(omega) or omega.det() == 0:
        raise StructureError("recovered form is not symplectic")
    return omega


# Formerly pqh.classify.para_complex_eigenvectors.
def para_complex_eigenvectors(report: ParaComplexReport):
    """Eigenvectors of the scaled para-complex structure T on F, T^2 = nu Id.

    For a rational square nu they are kernels over Q.  Otherwise Q[T] =
    Q(sqrt(nu)) is a field, so a cyclic span Q[T]y meets an invariant
    subspace without y only in 0, and y_1, ..., y_m picked greedily from
    the identity rows give Q^k = (+) span(y_i, T y_i).  Over Q(sqrt(nu))
    each pair splits into the eigenvectors T y_i +- sqrt(nu) y_i, as
    T (T y + l y) = l (T y + l y) when l^2 = nu: a basis, m rows each.

    Returns (eigenvalue, plus-basis rows, minus-basis rows) with entries in
    Q(sqrt(nu)) as ``QuadExt`` (or Fraction when rational).
    """
    form = pure_form(report)
    if form is None:
        raise ValueError("no pure part to analyze")
    t_f = form.t_on_subspace(form.f_space).T  # t_on_subspace gives T's transpose
    nu = report.scale
    root = is_rational_square(nu)
    if root is not None:
        lam = root
        plus = poly_eval_matrix((-lam, F1), t_f).kernel()
        minus = poly_eval_matrix((lam, F1), t_f).kernel()
        return lam, plus.rows, minus.rows
    k = t_f.nrows
    cyclic, pairs = Subspace.zero(k), []
    for y, ty in zip(Mat.identity(k).rows, t_f.T.rows):  # T e_j is column j of t_f
        if not cyclic.contains_vector(y):
            pairs.append((y, ty))
            cyclic = cyclic.sum(Subspace.span((y, ty), k))
    plus, minus = [
        tuple(tuple(QuadExt(t, s * x, nu) for x, t in zip(y, ty)) for y, ty in pairs)
        for s in (1, -1)
    ]
    if len(plus) != report.d_plus or len(minus) != report.d_minus:
        raise AssertionError("quadratic-extension eigenspaces disagree with the trace test")
    return sqrt_of(nu), plus, minus


# Formerly pqh.classify.maximal_invariant_subspace.
def maximal_invariant_subspace(a: Operator, u: Subspace) -> Subspace:
    """The largest A-invariant subspace of U.

    One step {x in U : Ax in U} = U ^ A^{-1}U already is the fixpoint
    because A^2 is a scalar (possibly zero) multiple of the identity.
    """
    w = u.kernel_in([a.act_int(xs, dx) for xs, dx in u.int_basis()], u)
    if not operator_preserves(a, w):
        raise AssertionError("one-step invariant subspace is not invariant")
    return w


# Formerly pqh.uft.invariant_core, which started at F ^ TF.
def invariant_core(u):
    """Largest T-invariant subspace W* inside F ^ TF and T restricted to it.

    W* is the fixpoint of W0 = F ^ TF, W_{k+1} = {w in W_k : Tw in W_k};
    for injective T it is the largest T-invariant subspace of F.  When
    W0 = F, TF contains F and has no larger dimension, so TF = F and W* = F
    with no iteration, and T on W* is read off the rows of ``t_map``.
    """
    w = u.f_space.intersect(u.t_image())
    if w.dim == u.dim:
        # TF = F: column j of T on F is T f_j, whose coordinates in the
        # canonical basis of F are its entries at F's pivots
        # (transposed: pqh.uft.invariant_core gives T by its image rows,
        # as t_on_subspace below does)
        return w, Mat(tuple(u.t_map.rows[p] for p in w.pivots), u.dim).T
    while w.dim:
        w_new = w.kernel_in([_int_row(r) for r in u.t_rows(w).rows], w)
        if w_new == w:
            break
        w = w_new
    return w, u.t_on_subspace(w)


# Formerly pqh.classify.is_real, a predicate of a subspace memoized on it;
# it reads pqh.uft.invariant_core, not the copy above.
def is_real(u: Subspace) -> bool:
    """AU ^ U = 0 for every structure operator A: pure, no decomposable
    vectors, and the invariant core W* of any graph presentation is zero."""
    from pqh.uft import graph_form, injectivize, invariant_core

    def compute():
        # U0 != 0 also leaves no transversal direction, but graph_form would
        # find that only after trying dim U + 2 directions; U0 is memoized
        if not maximal_pq(u).is_zero():
            return False
        form = graph_form(u)
        return form is not None and invariant_core(injectivize(form))[0].is_zero()

    return u.memo("is_real", compute)


# Formerly the pure_form property of pqh.classify.ComplexReport and
# ParaComplexReport.
def pure_form(report) -> UFTForm | None:
    """U' as a graph over the h1' of the adapted basis; None when U is
    para-quaternionic."""
    return package_to_uft(report.pure_part, report.basis) if report.pure_part.dim else None


# Formerly pqh.model._h_act, the rational surface of _h_act_int.
def h_act(m, coords) -> tuple:
    """The coordinates of (m0*e + m1*e', m2*e + m3*e') / dm for the vector
    with coordinates ``coords`` = (e, e') and a 2x2 matrix read row-wise,
    given cleared as ``m = ((m0, m1, m2, m3), dm)``."""
    if len(coords) % 2:
        raise ValueError("coordinate length must be even")
    out, d = _h_act_int(m, *_rational_row(coords))
    return tuple(Fraction(x, d) if x else F0 for x in out)


# Formerly pqh.model.HBasisChange.from_basis.
def from_basis(s: HBasisChange, rows) -> list:
    """Rows (comp1, comp2) in the basis s rewritten as the standard
    coordinates of h1' (x) comp1 + h2' (x) comp2."""
    return [h_act(s._from, r) for r in rows]


# Formerly pqh.model.HBasisChange.assemble.
def assemble(s: HBasisChange, comp1, comp2) -> tuple:
    """The coordinate row of h1'(x)comp1 + h2'(x)comp2."""
    if len(comp1) != len(comp2):
        raise ValueError("component length mismatch")
    return from_basis(s, ((*comp1, *comp2),))[0]


# Formerly pqh.model.ModelSpace.omega_eval.
def omega_eval(ms: ModelSpace, e, ep) -> Fraction:
    w, dw = ms._omega_form
    (a, da), (b, db) = _int_row(e), _int_row(ep)
    return Fraction(_pairing(w, a, b), dw * da * db)


# Formerly pqh.model.ModelSpace.metric.
def metric(ms: ModelSpace, x, y) -> Fraction:
    """g = omega^H (x) omega^E on coordinate rows; on decomposables
    g(h(x)e, h'(x)e') = omega^H(h,h') omega^E(e,e')."""
    (xs, dx), (ys, dy) = ms._rows_of(x, y)
    return Fraction(ms._metric_int(xs, ys), ms._metric_form[1] * dx * dy)


# Formerly pqh.model._pairing, on the integer rows of omega^E.
def pairing_rows(w, a, b) -> int:
    """a^T w b for integer rows ``a``, ``b`` and integer matrix rows ``w``."""
    return sum(x * sum(map(mul, row, b)) for x, row in zip(a, w) if x)


# Formerly the block Gram of pqh.classify.is_para_quaternionic.
def block_gram(ms, e_prime):
    split = Mat.identity(2).kron(e_prime.mat)
    return split @ OMEGA_H.kron(ms.omega) @ split.T


# U0 by its definition U ^ IU ^ JU ^ KU, formerly the body of
# pqh.subspace.maximal_pq, which now cuts U0 = H (x) E0 out of the h2 fiber.
def maximal_pq_loop(u: Subspace) -> Subspace:
    """U0 = U  ^ IU ^ JU ^ KU, the maximal para-quaternionic subspace.

    A^{-1} = +-A for A = I, J, K, so U0 ^ AU = {x in U0 : Ax in U}: each
    step is one :meth:`Subspace.kernel_in` with target U, and no canonical
    AU is built.
    """
    u0 = u
    for op in (OP_I, OP_J, OP_K):
        u0 = u0.kernel_in([op.act_int(V, D) for V, D in u0._rows], u)
        if u0.is_zero():
            break
    return u0


# Formerly pqh.classify.stabilizer, which solved its rows as a Fraction Mat.
def stabilizer(u: Subspace) -> Subspace:
    """Solve the linear system AU <= U for the coordinates of A."""
    rows = []
    for xs, dx in u.int_basis():
        # the residues of I x, J x, K x over one denominator; scaling a
        # constraint row, or dropping a zero one, leaves the kernel alone
        parts = [u.reduce_int(*op.act_int(xs, dx)) for op in (OP_I, OP_J, OP_K)]
        d = lcm(*(e for _, e in parts))
        ri, rj, rk = ([x * (d // e) for x in v] for v, e in parts)
        rows.extend(filter(any, zip(ri, rj, rk)))
    return mat_span(Mat(rows, ncols=3).kernel())


# Formerly pqh.classify.Stabilizer, the stabilizer's Fraction basis, which
# kind_witnesses read.
@dataclass(frozen=True)
class Stabilizer:
    """{A in the structure algebra : AU <= U} in (alpha, beta, gamma)
    coordinates, as a subspace of Q^3."""

    basis: Mat  # RREF rows

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def operators(self) -> tuple:
        return tuple(Operator(*row) for row in self.basis.rows)

    def q_matrix(self) -> Mat:
        """The bilinear form of q(A) = alpha^2 - beta^2 - gamma^2 restricted
        to the stabilizer basis."""
        polar = Mat(((F1, F0, F0), (F0, -F1, F0), (F0, F0, -F1)))
        return self.basis @ polar @ self.basis.T


# Formerly pqh.classify.kind_witnesses, which combined the basis rows by
# Mat products.
def kind_witnesses(stab: Stabilizer) -> KindWitnesses:
    if stab.dim == 0:
        return KindWitnesses(None, None, None)
    ops = stab.operators()
    if stab.dim == 1:
        (v,) = ops
        qv = v.q()
        return KindWitnesses(
            v if qv > 0 else None,
            v if qv < 0 else None,
            v if qv == 0 else None,
        )
    if stab.dim == 3:
        return KindWitnesses(Operator(1, 0, 0), Operator(0, 0, 1), Operator(1, 1, 0))
    qm = stab.q_matrix()
    a, b, c = qm.rows[0][0], qm.rows[0][1], qm.rows[1][1]

    def combine(pt):
        return Operator(*(Mat((pt,), ncols=2) @ stab.basis).rows[0])

    pos = _positive_point(a, b, c)
    neg = _positive_point(-a, -b, -c)
    iso = _isotropic_point(a, b, c)
    return KindWitnesses(
        combine(pos) if pos else None,
        combine(neg) if neg else None,
        combine(iso) if iso and not combine(iso).is_zero() else None,
    )


# Formerly pqh.classify._split_along, which combined the first space's rows
# by a Mat product.
def _split_along(x, first: Subspace, second: Subspace):
    """Decompose x along a direct sum first (+) second."""
    cols = [tuple(r) for r in first.mat.rows] + [tuple(r) for r in second.mat.rows]
    coeffs = Mat.from_cols(cols, nrows=len(x)).solve(x)
    if coeffs is None:
        raise ValueError("vector is outside the direct sum")
    (fpart,) = (Mat((coeffs[: first.dim],), ncols=first.dim) @ first.mat).rows
    return fpart, tuple(a - b for a, b in zip(x, fpart))


# Formerly pqh.subspace.Subspace.reduce_int, which subtracted one pivot
# multiple at a time and divided out a gcd after each.
def reduce_int_loop(u: Subspace, V: list, D: int) -> tuple:
    """The canonical coset representative of the row V/D modulo u, as
    ``(ints, d)``."""
    for (R, e), p in zip(u.int_basis(), u.pivots):
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


# Formerly pqh.uft.find_transversal_direction, with an h_fiber for every t.
def find_transversal_direction(u: Subspace):
    """A direction h with (h (x) E) ^ U = 0, or None when every direction
    meets U (then U is not a graph subspace in any basis)."""
    if u.dim > u.ambient // 2:
        return None
    for t in range(u.dim + 1):
        h = (Fraction(t), F1)
        if h_fiber(u, h).is_zero():
            return h
    return None


# Formerly pqh.uft.minimal_fiber_direction, with an h_fiber for every t.
def minimal_fiber_direction(u: Subspace):
    """A direction h whose fiber {e : h (x) e in U} has the smallest
    possible dimension, found by a sweep."""
    dim_e = u.ambient // 2
    best = None
    best_fiber = None
    for t in range(dim_e + u.dim + 2):
        cand = (Fraction(t), F1)
        fib = h_fiber(u, cand)
        if best_fiber is None or fib.dim < best_fiber.dim:
            best, best_fiber = cand, fib
            if fib.dim == 0:
                break
    return best, best_fiber


# Formerly pqh.uft.to_uft, which eliminated the rows for every basis; the
# form now keeps T's columns as the rows of ``t_cols``.
def to_uft(u: Subspace, basis: HBasisChange) -> UFTForm:
    """Present U as a graph over the h1 component of the given basis.

    Requires (h2 (x) E) ^ U = 0; then F = p1(U) and T is read off the
    canonical basis of F.
    """
    graph = _graph_of([basis.to_basis_int(V, D)[0] for V, D in u.int_basis()], u.ambient // 2)
    if graph is None:
        raise TransversalityError(
            "the h2 direction of the basis meets the subspace"
        )
    f_space, t_map = graph
    return UFTForm(basis, f_space, t_map.T)


# Formerly pqh.uft._graph_of, which pqh.uft keeps for the bases other than
# the standard one.
def _graph_of(rows, dim_e: int):
    """(F, T) for the graph spanned by the plain-int rows (f | Tf), or None
    when their F parts are dependent."""
    reduced, pivots = int_rref(rows, dim_e)
    if len(pivots) != len(rows):
        return None
    f_space = Subspace._of([_lowest_terms(V[:dim_e], d) for V, d in reduced], pivots, dim_e)
    return f_space, Mat.from_cols([frac_row(V[dim_e:], d) for V, d in reduced], nrows=dim_e)


# Formerly pqh.uft.UFTForm._graph_rows.
def graph_rows(form: UFTForm, w: Subspace) -> Mat:
    """The graph vectors h1 (x) f + h2 (x) Tf over the basis rows f of
    a subspace W of F, in standard coordinates."""
    rows = [f + tf for f, tf in zip(w.mat.rows, form.t_rows(w).rows)]
    return Mat(tuple(from_basis(form.h_basis, rows)), 2 * form.dim_e)


# Formerly pqh.uft.UFTForm.t_is_injective.
def t_is_injective(form: UFTForm) -> bool:
    return form.f_space.kernel_in([_int_row(c) for c in form.t_map.cols]).is_zero()


# Formerly pqh.uft.UFTForm.graph_basis.
def graph_basis(form: UFTForm) -> Mat:
    """The graph vectors over the canonical basis of F, in its order."""
    return graph_rows(form, form.f_space)


# Formerly pqh.uft.UFTForm.span.
def graph_span(form: UFTForm) -> Subspace:
    return mat_span(graph_basis(form))


# Formerly w_t of pqh.classify._pure_part.
def pure_part_w_t(ms, form):
    return form.t_map.T @ ms.omega @ form.t_map


# Formerly k_amb of pqh.classify.check_complex.
def kaehler_ambient(ms, form, a):
    vs = graph_basis(form)
    return vs @ a.mat2().kron(Mat.identity(ms.dim_e)).T @ OMEGA_H.kron(ms.omega) @ vs.T


# Formerly the cross-eigenspace matrix of pqh.classify.check_para_complex,
# on the graphs over the two eigenspaces.
def cross_eigenspace_gram(ms, graph1, graph2):
    vs1, vs2 = graph1.mat, graph2.mat
    return vs1 @ OMEGA_H.kron(ms.omega) @ vs2.T


# Formerly c of pqh.classify.check_totally_real.
def totally_real_c(ms, form):
    return form.f_space.mat @ ms.omega @ form.t_map


# Formerly gm of pqh.classify.check_totally_real.
def graph_gram(ms, form):
    vs = graph_basis(form)
    return vs @ OMEGA_H.kron(ms.omega) @ vs.T


# Formerly pqh.uft.induced_g_f.
def induced_g_f(ms, u):
    """Pullback metric g_F(f, f') = -[omega(Tf, f') + omega(Tf', f)] on the
    canonical basis of F."""
    b = u.f_space.mat.T  # columns are the basis of F
    c = u.t_map.T @ ms.omega @ b
    return mat_neg(mat_add(c, c.T))


# Formerly pqh.classify._PurePart, the pass that presented U' as a graph
# over the adapted basis by one elimination.
@dataclass(frozen=True)
class _PurePart:
    """The structure-theorem pass that a complex (q > 0) and a para-complex
    (q < 0) witness share; only the sign of q tells them apart.

    With D = det[h1', A h1'] of the adapted basis and ``scale`` = D^2 / q,
    the graph map of the pure part satisfies T^2 = -scale Id, and T is
    omega-conformal (omega(T., T.) = scale omega on F) exactly when U is
    orthogonal to its image under the anticommuting partner
    (0, q/D^2; 1, 0) and under K^ = diag(1, -1) of the adapted basis.
    ``form`` is None when U is para-quaternionic (no pure part).
    """

    scale: Fraction
    basis: HBasisChange
    d_val: Fraction
    comp: Subspace
    form: UFTForm | None = None
    t_f: Mat | None = None  # T on the canonical basis of F
    g_f: Mat | None = None
    sig: SignatureTriple = SignatureTriple(0, 0, 0)
    w_f: Mat | None = None  # omega on F
    w_t: Mat | None = None  # omega(T., T.) on F
    omega_route: bool = False
    gram_partner: bool = False
    totally: bool = False  # Hermitian, pure and omega-conformal


# Formerly pqh.classify._pure_part; it read T on F with UFTForm.t_on_f, which
# is the t_on_subspace of F (tests/test_real_form.py checked the two equal).
def _pure_part(ms: ModelSpace, u: Subspace, a: Operator) -> _PurePart:
    """The pass for an invertible witness A of U, on U' of :func:`pq_split`:
    U = U0 (+) U' as U contains H (x) E0, and A preserves H (x) C."""
    qa = a.q()
    kind = "complex" if qa > 0 else "para-complex"
    if not operator_preserves(a, u):
        raise ValueError("witness does not stabilize the subspace")
    u0, _e0, comp = pq_split(u)
    basis, d_val = adapted_basis(a)
    scale = d_val * d_val / qa
    if comp.dim == 0:
        return _PurePart(scale, basis, d_val, comp)
    form = to_uft(comp, basis)
    if not all(form.f_space.contains_vector(tf) for tf in form.t_map.cols):
        raise AssertionError(f"T does not preserve F for a {kind} witness")
    t_f = form.t_on_subspace(form.f_space).T  # t_on_subspace gives T's transpose
    if t_f @ t_f != Mat.scalar(form.dim, -scale):
        raise AssertionError(f"{kind} structure identity T^2 = -(D^2/q) Id failed")
    g_f = induced_g_f(ms, form)
    sig = SignatureTriple(*symmetric_signature(g_f))
    if sig.as_tuple() != signature(ms, comp).as_tuple():
        raise AssertionError("pullback metric has wrong signature")
    w_f = restrict_omega(ms, form.f_space)
    t_cols = [_int_row(c) for c in form.t_map.cols]
    w_t = _form_matrix(ms._omega_form, t_cols, t_cols)
    omega_route = w_f.det() != 0 and w_t == mat_scale(w_f, scale)
    partner = basis.conjugate(F0, 1 / scale, F1)
    k_hat = basis.conjugate(F1, F0, F0)
    gram_partner = image_orthogonal(ms, partner, u)
    gram_k = image_orthogonal(ms, k_hat, u)
    hermitian_full = signature(ms, u).s == 0
    if u0.is_zero() and hermitian_full:
        if not (omega_route == gram_partner == gram_k):
            raise AssertionError(f"totally-{kind} routes disagree")
    totally = hermitian_full and u0.is_zero() and omega_route
    return _PurePart(
        scale, basis, d_val, comp, form, t_f, g_f, sig, w_f, w_t,
        omega_route, gram_partner, totally,
    )


# Formerly pqh.classify.check_complex, on the pass above.  The report now
# holds U' where it held the graph form, which is returned beside it.
def check_complex(ms: ModelSpace, u: Subspace, a: Operator) -> tuple:
    """Verify the structure theorem for a complex-type witness.

    On top of the shared pure-part pass (:func:`_pure_part`): the signature
    has type (2p, 2s, 2q), and the scaled Kaehler identity agrees along
    three routes.
    """
    qa = a.q()
    if qa <= 0:
        raise ValueError("complex check needs a witness with positive q")
    pp = _pure_part(ms, u, a)
    if pp.form is not None:
        if any(x % 2 for x in pp.sig.as_tuple()):
            raise AssertionError("complex signature is not of type (2p, 2s, 2q)")
        # g(A v_i, v_j) on the graph vectors v_i
        vs = pp.form.graph_rows()
        k_amb = _form_matrix(ms._metric_form, [a.act_int(*v) for v in vs], vs)
        k_gf = mat_scale(pp.g_f @ pp.t_f, qa / pp.d_val)
        k_form = mat_scale(mat_add(mat_scale(pp.w_f, pp.d_val), mat_scale(pp.w_t, qa / pp.d_val)), -F1)
        if not (k_amb == k_gf == k_form):
            raise AssertionError("Kaehler identity routes disagree")
    return ComplexReport(
        pp.scale, pp.basis, pp.comp, pp.sig.s == 0, pp.sig,
        pp.omega_route, pp.gram_partner, pp.totally,
    ), pp.form


# Formerly pqh.classify.check_para_complex, with its eigen section on the
# graph form.  The report holds U', and the graph form is returned beside it.
def check_para_complex(ms: ModelSpace, u: Subspace, a: Operator) -> tuple:
    """Verify the weakly para-complex structure theorem for a witness with
    q(A) < 0.  On top of the shared pure-part pass (:func:`_pure_part`):
    eigenspace dimensions by the exact trace test, the neutral signature
    claim, and the eigenspace presentation and witness family when |q| is
    a square."""
    qa = a.q()
    if qa >= 0:
        raise ValueError("para-complex check needs a witness with negative q")
    pp = _pure_part(ms, u, a)
    nu = -pp.scale
    form, t_f, d_val, sig = pp.form, pp.t_f, pp.d_val, pp.sig
    if form is None:
        return ParaComplexReport(
            nu, pp.basis, pp.comp, 0, 0, True, True, sig, 0, None, None,
            False, False, False,
        ), None
    k = form.dim
    tr = mat_trace(t_f)
    if tr == 0:
        if k % 2:
            raise AssertionError("traceless para-complex part of odd dimension")
        d_plus = d_minus = k // 2
    else:
        ratio = is_rational_square(tr * tr / nu)
        if ratio is None or ratio.denominator != 1:
            raise AssertionError("trace test failed to give an integer split")
        # tr(T) = lam_plus (d+ - d-) with lam_plus = D / sqrt(|q|), so the
        # split is signed by tr relative to the sign of D
        r_signed = int(ratio) if (tr > 0) == (d_val > 0) else -int(ratio)
        if (k + r_signed) % 2:
            raise AssertionError("trace split has wrong parity")
        d_plus = (k + r_signed) // 2
        d_minus = (k - r_signed) // 2
    strict = d_plus == d_minus
    if sig.p != sig.q:
        raise AssertionError("para-complex signature is not of type (m, k-2m, m)")
    hermitian_pure = sig.s == 0
    if not strict and hermitian_pure:
        raise AssertionError("weakly-not-para-complex part must be degenerate")
    if hermitian_pure and sig.as_tuple() != (k // 2, 0, k // 2):
        raise AssertionError("Hermitian para-complex part must be neutral")
    # eigenspace data over Q when sqrt(|q|) is rational
    rho = is_rational_square(-qa)
    eigen_pres = None
    family = None
    if rho is not None:
        lam_plus = d_val / rho
        # poly_fiber reads T by its image rows, T's transpose
        lift1 = poly_fiber(form.f_space, t_f.T, (-lam_plus, F1))
        lift2 = poly_fiber(form.f_space, t_f.T, (lam_plus, F1))
        if lift1.dim != d_plus or lift2.dim != d_minus:
            raise AssertionError("rational eigenspace dimensions disagree with trace test")
        dir1 = line_direction(form.h_basis, lam_plus)
        dir2 = line_direction(form.h_basis, -lam_plus)
        pres_parts = [
            decomposable_subspace(dir1, lift1),
            decomposable_subspace(dir2, lift2),
        ]
        if not direct_sum_is(pp.comp, pres_parts):
            raise AssertionError("eigenspace presentation does not recompose")
        eigen_pres = (dir1, lift1, dir2, lift2)
        # cross-check m as the rank of the Gram pairing between eigenspaces
        # (the rank does not depend on the bases of the two eigen-graphs)
        if lift1.dim and lift2.dim:
            vs1, vs2 = (graph_over(pp.comp, form.h_basis, lift).int_basis() for lift in (lift1, lift2))
            if mat_rank(_form_matrix(ms._metric_form, vs1, vs2)) != sig.p:
                raise AssertionError("cross-eigenspace rank disagrees with signature")
        elif sig.p != 0:
            raise AssertionError("empty eigenspace but nonzero metric rank")
        # the witness family a I + a J +- K when the pure part sits in one eigenspace
        for lam in (lam_plus, -lam_plus):
            if t_f == Mat.scalar(k, lam):
                n_op = pp.basis.conjugate(F1, qa * lam / (d_val * d_val), lam)
                for t in (0, 1, 2):
                    member = op_add(a, op_scale(n_op, t))
                    if not operator_preserves(member, pp.comp):
                        raise AssertionError("witness family member fails invariance")
                family = (a, n_op)
                break
    return ParaComplexReport(
        nu, pp.basis, pp.comp, d_plus, d_minus, strict, hermitian_pure, sig,
        sig.p, eigen_pres, family, pp.omega_route, pp.gram_partner,
        pp.totally and strict,
    ), form


# Formerly pqh.classify.oracle_check, whose sampled checks built an Operator
# and Fraction-cleared rows per sample and an HBasisChange per SL(H) frame.
def oracle_check(
    ms: ModelSpace, report: ClassificationReport, u: Subspace, seed: int = 0
) -> list:
    """Re-verify every reported flag from raw definitions.

    Violations come back as data (ok=False entries), never as exceptions.
    The real-flag search is sound only: a found witness (A, X) with
    0 != AX in U refutes the flag; absence proves nothing.
    """
    rng = Rng(seed)
    samples = 25  # random operators drawn by each sampled check
    out = []

    def check(name, ok, detail=""):
        out.append(OracleFinding(name, bool(ok), detail))

    if u.dim == 0:
        check("empty-subspace", True, "vacuous")
        return out

    # U0 = H (x) E0 with E0 the common fiber of h1 and h2, and the signature
    # from the metric pair by pair: neither shares a memo with classify
    u0 = product_subspace(h_fiber(u, (1, 0)).intersect(h_fiber(u, (0, 1))))
    check("u0-matches", u0 == report.u0)
    check("pure-flag", report.flags.pure == u0.is_zero())
    check(
        "pq-flag",
        report.flags.para_quaternionic == (u == product_subspace(p1(u))),
    )
    vecs = u.basis
    # every pair (x, y) of basis rows, each row cleared once, not mirrored
    cleared = [_int_row(x) for x in vecs]
    pairwise = _form_matrix(ms._metric_form, cleared, cleared)
    sig = SignatureTriple(*symmetric_signature(pairwise))
    check("signature", sig.as_tuple() == report.signature.as_tuple())
    check("hermitian-flag", report.flags.hermitian == (sig.s == 0))
    for kind, wit in (
        ("complex", report.witnesses.complex),
        ("para_complex", report.witnesses.para_complex),
        ("nilpotent", report.witnesses.nilpotent),
    ):
        if wit is None:
            continue
        check(
            f"{kind}-witness-invariance",
            all(u.contains_vector(wit.apply_coords(x)) for x in u.basis),
        )
        # (A (x) Id_E)^2 + q Id_V = (A^2 + q Id_H) (x) Id_E: the identity on
        # V holds exactly when it holds on the 2x2 matrix of A
        amat = wit.mat2()
        check(
            f"{kind}-witness-square-identity",
            amat @ amat == Mat.scalar(2, -wit.q()),
        )
        sign_ok = {
            "complex": wit.q() > 0,
            "para_complex": wit.q() < 0,
            "nilpotent": wit.q() == 0 and not wit.is_zero(),
        }[kind]
        check(f"{kind}-witness-sign", sign_ok)
    if report.flags.real:
        # stabilizer nonzero refutes the real flag outright
        check("real-vs-stabilizer", report.stab.dim == 0)
        # random-sample witness search: sound refutation of the real flag
        violation = None
        for _ in range(samples):
            a = Operator(rng.rational(), rng.rational(), rng.rational())
            if a.is_zero():
                continue
            ax, d = a.act_int(*u.combine_int(*_int_row(rng.rationals(u.dim))))
            if any(ax) and u.contains_int(ax, d):
                violation = a
                break
        check(
            "real-no-sampled-violation",
            violation is None,
            "" if violation is None else f"witness {violation}",
        )
    # orthogonality refinements; these keep ``subspace.image``, which the
    # bench tracer homes on classify-sweep, where only they call it
    if report.flags.totally_real:
        for name, op in (("I", OP_I), ("J", OP_J), ("K", OP_K)):
            check(
                f"totally-real-{name}-orthogonal",
                is_orthogonal(ms, image(op, u), u),
            )
    if report.complex_report and not report.flags.para_quaternionic:
        cr = report.complex_report
        # the anticommuting para-complex partner J^ in the adapted basis, and
        # J^ of U's rows: J^U _|_ U when g(J^x, y) = 0 for all of them
        jhat = cr.basis.conjugate(F0, 1 / cr.scale, F1)
        moved = [jhat.act_int(*r) for r in cleared]
        check(
            "totally-complex-gram",
            report.flags.totally_complex
            == (
                report.flags.hermitian
                and u0.is_zero()
                and mat_is_zero(_form_matrix(ms._metric_form, moved, cleared))
            ),
        )
    # pure complex: any operator not proportional to the witness moves U off itself
    if (
        report.flags.complex
        and report.flags.pure
        and not report.flags.para_quaternionic
    ):
        check("pure-complex-witness-unique", report.stab.dim == 1)
        wit = report.witnesses.complex
        # the residues (r_I, r_J, r_K) of I b, J b, K b per basis row b, over
        # one denominator per row (scaling a row keeps every rank below)
        table = []
        for xs, dx in u.int_basis():
            parts = [u.reduce_int(*op.act_int(xs, dx)) for op in (OP_I, OP_J, OP_K)]
            d = lcm(*(e for _, e in parts))
            table.append([[x * (d // e) for x in v] for v, e in parts])
        for _ in range(samples):
            b = Operator(rng.rational(), rng.rational(), rng.rational())
            if b.is_zero():
                continue
            if (
                b.alpha * wit.beta == b.beta * wit.alpha
                and b.alpha * wit.gamma == b.gamma * wit.alpha
                and b.beta * wit.gamma == b.gamma * wit.beta
            ):
                continue
            # B^2 = -q(B) Id, so for q(B) != 0 B is invertible and maps a
            # basis of U to a basis of B U
            if b.q() != 0:
                dim = u.dim
            else:
                dim = int_rank([b.act_int(xs, dx)[0] for xs, dx in u.int_basis()], u.ambient)
            # B U meets U iff its spanning rows are dependent modulo U; a
            # full rank mod p proves them independent
            # reduction modulo U is linear: B b = a I b + b J b + c K b
            # leaves a r_I + b r_J + c r_K
            (ca, cb, cc), _ = _int_row((b.alpha, b.beta, b.gamma))
            residues = [
                [ca * x + cb * y + cc * z for x, y, z in zip(ri, rj, rk)] for ri, rj, rk in table
            ]
            if (
                rank_mod(residues, u.ambient) != dim
                and int_rank(residues, u.ambient) != dim
            ):
                check("pure-complex-moves-off", False, f"B={b}")
                break
        else:
            check("pure-complex-moves-off", True)
    # Hermitian product norm invariance under admissible basis changes
    for _ in range(2):
        x = vecs[rng.below(len(vecs))]
        y = vecs[rng.below(len(vecs))]
        base = ms.hermitian_product(x, y).imag().norm()
        ok = True
        for _ in range(3):
            s = random_sl2(rng)
            val = ms.hermitian_product(x, y, s).imag().norm()
            if val != base:
                ok = False
                break
        check("hermitian-norm-invariance", ok)
        if not ok:
            break
    if report.uft is not None:
        check("uft-round-trip", report.uft.span() == u)
    check("dim-bound-real", not report.flags.real or u.dim <= 2 * ms.n)
    check("dim-bound-totally-real", not report.flags.totally_real or u.dim <= ms.n)
    return out


# Formerly pqh.generate._graph; generate built its T as F^T t by a Mat
# product (``f_sub.mat.T @ t_local``, ``Mat(eye[k : 2 * k], ncols=dim_e).T @ b``).
def generate_graph(f_sub: Subspace, t_cols: Mat) -> Subspace:
    """The graph of T over h1 = (1, 0); column j of t_cols is T of row j of F."""
    return UFTForm(HBasisChange.identity(), f_sub, t_cols.T).span()


# Formerly pqh.generate.twist_h.
def twist_h(u: Subspace, s: HBasisChange) -> Subspace:
    """Apply an SL(H) coordinate change to every vector (flag-preserving)."""
    return Subspace.span(from_basis(s, u.mat.rows), u.ambient)


# Formerly the E0 graph of pqh.uft.decompose_form2.
def form2_e0_graph(e0: Subspace) -> Subspace:
    t0 = _no_rational_eigenvalue_map(e0.dim)
    return UFTForm(HBasisChange.identity(), e0, t0.T @ e0.mat).span()


# Formerly pqh.uft._eigenfree_inside, which spanned Fraction rows.
def _eigenfree_inside(groups):
    """A subspace of A1 (+) ... (+) As of dimension sum(dim Ai, i >= 2)
    containing no nonzero vector of any single Ai.  Groups must be sorted
    by descending dimension."""
    ambient = groups[0].ambient
    if len(groups) <= 1:
        return Subspace.zero(ambient)
    a1 = groups[0]
    b = span_of(groups[1:], ambient)
    m = b.dim
    inner = _eigenfree_inside(groups[1:])
    kdim = max(0, m - a1.dim)
    kernel_rows = inner.mat.rows[:kdim]
    kernel = Subspace.span(kernel_rows, ambient)
    c = kernel.complement_in(b)
    rows = list(kernel_rows)
    for j, crow in enumerate(c.mat.rows):
        arow = a1.mat.rows[j]
        rows.append(tuple(x + y for x, y in zip(crow, arow)))
    out = Subspace.span(rows, ambient)
    if out.dim != m:
        raise AssertionError("eigenfree construction lost dimension")
    return out


# Formerly the real part of pqh.classify.check_nilpotent: T~ as a Mat of
# Fraction rows, the graph rows by HBasisChange.from_basis (from_basis above)
# and one span.
def nilpotent_real_part(u: Subspace, a: Operator) -> Subspace:
    basis = adapted_nilpotent_basis(a)
    half = u.ambient // 2
    comps = [basis.to_basis_int(V, D)[0] for V, D in u.int_basis()]
    rows, pivots = int_rref([V[half:] + V[:half] for V in comps], u.ambient)
    k = sum(p < half for p in pivots)
    e2_proj = Subspace._of([_lowest_terms(V[:half], d) for V, d in rows[:k]], pivots[:k], half)
    e1p = Subspace._of(
        [_lowest_terms(V[half:], d) for V, d in rows[k:]], [p - half for p in pivots[k:]], half
    )
    e1_proj = Subspace._echelon([V[half:] for V, _ in rows], half)
    ebar1 = e1p.complement_in(e1_proj)
    xs = [frac_row(V[half:], d) for V, d in rows[:k]]
    t_mat = Mat([_split_along(x, e1p, ebar1)[1] for x in xs], ncols=half)
    e0 = e2_proj.kernel_in([_int_row(r) for r in t_mat.rows])
    e2prime = e0.complement_in(e2_proj)
    sel = [e2_proj.pivots.index(p) for p in e2prime.pivots]
    real_rows = from_basis(basis, (t_mat.rows[i] + e2_proj.basis[i] for i in sel))
    return Subspace.span(real_rows, u.ambient)


# Formerly pqh.model.operator_from_mat2; ``HBasisChange.conjugate`` now reads
# the operator off an integer product.
def operator_from_mat2(m: Mat) -> Operator:
    """Inverse of :meth:`Operator.mat2`; m must be traceless."""
    if m.shape != (2, 2) or m.rows[0][0] + m.rows[1][1] != 0:
        raise ValueError("operator matrix must be traceless 2x2")
    (_, b), (c, d) = m.rows
    return Operator((c - b) / 2, (b + c) / 2, d)


# Formerly pqh.model.HBasisChange.conjugate, the product s m s^-1 of Mats.
def conjugate(s: HBasisChange, m: Mat) -> Operator:
    """The operator s m s^-1 for a traceless 2x2 matrix m given in this
    basis of H: the endomorphism with matrix m here, in standard
    coordinates."""
    return operator_from_mat2(s.mat @ m @ s.mat.inverse())


# Formerly pqh.linalg.symmetric_signature, the congruence on Fraction entries.
def symmetric_signature(M: Mat):
    """Sylvester inertia (p, s, q) of a symmetric matrix, by exact congruence.

    One pivot rule: pivot on the first nonzero remaining diagonal entry.
    When every remaining diagonal entry is zero but some a_ij is not, add
    row j to row i and column j to column i, a congruence that makes
    a_ii = 2 a_ij, and pivot at i.  The Schur update touches only the pairs
    (k, l), k <= l, whose pivot-row entries are nonzero, and mirrors each.
    """
    if not mat_is_symmetric(M):
        raise ValueError("signature of non-symmetric matrix")
    a = [list(r) for r in M.rows]
    idx = list(range(M.nrows))
    pos = neg = 0
    while idx:
        i = next((k for k in idx if a[k][k]), None)
        if i is None:
            i, j = next(((k, l) for k in idx for l in idx if a[k][l]), (None, None))
            if i is None:
                break
            for k in idx:
                a[i][k] += a[j][k]
            for k in idx:
                a[k][i] += a[k][j]
        idx.remove(i)
        r, d = a[i], a[i][i]
        pos, neg = pos + (d > 0), neg + (d < 0)
        nz = [k for k in idx if r[k]]
        for x, k in enumerate(nz):
            c, ak = r[k] / d, a[k]
            for l in nz[x:]:
                ak[l] = a[l][k] = ak[l] - c * r[l]
    return (pos, M.nrows - pos - neg, neg)


# Formerly pqh.classify.is_para_quaternionic, with the block Gram identity on
# Fraction Mats.
def is_para_quaternionic_mat(ms: ModelSpace, u: Subspace) -> PQReport:
    """U = H (x) E' test, with the Hermitian sub-flag and the exact block
    Gram identity for the split U = h1 (x) E' + h2 (x) E'."""
    e_prime = p1(u)
    pq = product_subspace(e_prime)
    is_pq = u == pq
    hermitian = False
    gram_ok = True
    if is_pq:
        omega_r = restrict_omega(ms, e_prime)
        hermitian = omega_r.det() != 0
        # the rows (e, 0), then (0, e), over the basis of E': Id_2 (x) E'
        split = pq.int_basis()
        gram_ok = _form_matrix(ms._metric_form, split, split) == OMEGA_H.kron(omega_r)
    return PQReport(is_pq, hermitian, gram_ok)


# Formerly pqh.classify._PurePart and _pure_part, which checked T^2, the
# pullback metric and the omega route on Fraction Mats.
@dataclass(frozen=True)
class PurePartMat:
    """The structure-theorem pass that a complex (q > 0) and a para-complex
    (q < 0) witness share; only the sign of q tells them apart.

    On U''s canonical rows b_i, with pivots p_i, A b_i = sum_j c_ij b_j for
    c_ij = (A b_i)[p_j].  A acts as [[0, -q/D], [D, 0]] in the adapted basis,
    so p2'(b_i) = (-D/q) sum_j c_ij p1'(b_j): U' is the graph of T, with
    matrix (-D/q) C^T on the basis p1'(b_j) of F.  With ``scale`` = D^2 / q,
    T^2 = -scale Id, and T is omega-conformal (omega(T., T.) = scale omega)
    exactly when U is orthogonal to its images under the partner
    (0, q/D^2; 1, 0) and K^ = diag(1, -1) of the adapted basis.
    """

    scale: Fraction
    basis: HBasisChange
    d_val: Fraction
    comp: Subspace
    t_f: Mat | None = None  # T on the basis p1'(b_j) of F
    g_f: Mat | None = None  # g_F there, the Gram matrix of the b_j
    sig: SignatureTriple = SignatureTriple(0, 0, 0)
    w_f: Mat | None = None  # omega on F
    w_t: Mat | None = None  # omega(T., T.) on F
    omega_route: bool = False
    gram_partner: bool = False
    totally: bool = False  # Hermitian, pure and omega-conformal


def pure_part_mat(ms: ModelSpace, u: Subspace, a: Operator) -> PurePartMat:
    """The pass for an invertible witness A of U, on U' of :func:`pq_split`:
    U = U0 (+) U' as U contains H (x) E0, and A preserves H (x) C."""
    qa = a.q()
    kind = "complex" if qa > 0 else "para-complex"
    u0, _e0, comp = pq_split(u)
    basis, d_val = adapted_basis(a)
    scale = d_val * d_val / qa
    if comp.dim == 0:
        return PurePartMat(scale, basis, d_val, comp)
    k, half = comp.dim, comp.ambient // 2
    rows = comp.int_basis()
    moved = [a.act_int(*b) for b in rows]
    c_rows = [([W[p] for p in comp.pivots], e) for W, e in moved]
    # sum_j c_ij b_j is A b_i exactly when A b_i lies in U', and A, which
    # preserves U0, preserves U = U0 (+) U' exactly when it preserves U'
    if any(comp.combine_int(*c) != _lowest_terms(*m) for c, m in zip(c_rows, moved)):
        raise ValueError("witness does not stabilize the subspace")
    # the row identity D p1'(A b_i) + q p2'(b_i) = 0, over the integers
    adapted = [basis.to_basis_int(*b) for b in rows]
    s, t = d_val.numerator * qa.denominator, qa.numerator * d_val.denominator
    for (V, e), (W, f) in zip(adapted, (basis.to_basis_int(*m) for m in moved)):
        if any(s * e * x + t * f * y for x, y in zip(W[:half], V[half:])):
            raise AssertionError(f"the pure part is not the graph of T for a {kind} witness")
    t_f = mat_scale(Mat(tuple(frac_row(*r) for r in c_rows), k).T, -d_val / qa)
    if t_f @ t_f != Mat.scalar(k, -scale):
        raise AssertionError(f"{kind} structure identity T^2 = -(D^2/q) Id failed")
    xs = [(V[:half], e) for V, e in adapted]  # p1'(b_i), a basis of F
    ys = [(V[half:], e) for V, e in adapted]  # p2'(b_i) = T p1'(b_i)
    c_om = _form_matrix(ms._omega_form, ys, xs)  # omega(T f_i, f_j)
    g_f = gram(ms, comp)
    if mat_neg(mat_add(c_om, c_om.T)) != g_f:
        raise AssertionError("pullback metric disagrees with the metric on the pure part")
    sig = signature(ms, comp)
    w_f = _form_matrix(ms._omega_form, xs, skew=True)
    w_t = _form_matrix(ms._omega_form, ys, skew=True)
    omega_route = w_t == mat_scale(w_f, scale) and w_f.det() != 0
    partner = basis.conjugate(F0, 1 / scale, F1)
    k_hat = basis.conjugate(F1, F0, F0)
    gram_partner = image_orthogonal(ms, partner, u)
    gram_k = image_orthogonal(ms, k_hat, u)
    hermitian_full = signature(ms, u).s == 0
    if u0.is_zero() and hermitian_full and not (omega_route == gram_partner == gram_k):
        raise AssertionError(f"totally-{kind} routes disagree")
    totally = hermitian_full and u0.is_zero() and omega_route
    return PurePartMat(
        scale, basis, d_val, comp, t_f, g_f, sig, w_f, w_t,
        omega_route, gram_partner, totally,
    )


# Formerly pqh.classify.check_complex, with its Kaehler routes on the Fraction
# Mats of the pass above.
def check_complex_mat(ms: ModelSpace, u: Subspace, a: Operator) -> ComplexReport:
    """Verify the structure theorem for a complex-type witness.

    On top of the shared pure-part pass (:func:`_pure_part`): the signature
    has type (2p, 2s, 2q), and the scaled Kaehler identity agrees along
    three routes.
    """
    qa = a.q()
    if qa <= 0:
        raise ValueError("complex check needs a witness with positive q")
    pp = pure_part_mat(ms, u, a)
    if pp.t_f is not None:
        if any(x % 2 for x in pp.sig.as_tuple()):
            raise AssertionError("complex signature is not of type (2p, 2s, 2q)")
        # g(A b_i, b_j) on the rows of U', which are the graph vectors
        rows = pp.comp.int_basis()
        k_amb = _form_matrix(ms._metric_form, [a.act_int(*b) for b in rows], rows)
        k_gf = mat_scale(pp.g_f @ pp.t_f, qa / pp.d_val)
        k_form = mat_scale(mat_add(mat_scale(pp.w_f, pp.d_val), mat_scale(pp.w_t, qa / pp.d_val)), -F1)
        if not (k_amb == k_gf == k_form):
            raise AssertionError("Kaehler identity routes disagree")
    return ComplexReport(
        pp.scale, pp.basis, pp.comp, pp.sig.s == 0, pp.sig,
        pp.omega_route, pp.gram_partner, pp.totally,
    )


# Formerly pqh.linalg.vec_is_zero.
def vec_is_zero(u):
    return all(a == 0 for a in u)


# Formerly pqh.linalg.Mat.is_zero.
def mat_is_zero(self):
    return all(vec_is_zero(r) for r in self.rows)


# Formerly pqh.linalg.Mat.is_symmetric.
def mat_is_symmetric(self):
    return self.shape[0] == self.shape[1] and self == self.T


# Formerly pqh.linalg.Mat.trace.
def mat_trace(self):
    if self.nrows != self._ncols:
        raise ValueError("trace of non-square matrix")
    return sum((self.rows[i][i] for i in range(self.nrows)), F0)


# Formerly pqh.subspace._form_matrix, the pairing matrix of Fraction entries.
def _form_matrix(form, rows: list, cols: list | None = None, skew: bool = False) -> Mat:
    """The matrix (w(x_i, y_j)) of a bilinear form given as ``(entries,
    den)`` on rows x_i and columns y_j given as ``(ints, d)``: each entry is
    the numerator x^T w y over ``den * dx * dy``, built as a ``Fraction``
    once.  With no ``cols`` the form is taken as symmetric (skew with
    ``skew``) on ``rows`` against themselves: each entry on and above (with
    ``skew``, above) the diagonal is computed and mirrored."""
    w, den = form
    mirror = cols is None
    cols = rows if mirror else cols
    out = [[F0] * len(cols) for _ in rows]
    for j, (ys, dy) in enumerate(cols):
        wy = _form_image(w, ys)
        for i in range(j + 1 - skew) if mirror else range(len(rows)):
            xs, dx = rows[i]
            num = sum(map(mul, xs, wy))
            if num:
                out[i][j] = x = Fraction(num, den * dx * dy)
                if mirror:
                    out[j][i] = -x if skew else x
    return Mat(tuple(map(tuple, out)), len(cols))


# Formerly pqh.subspace.gram.
def gram(ms: ModelSpace, u: Subspace) -> Mat:
    """Gram matrix of the metric on the canonical basis of U."""
    return _form_matrix(ms._metric_form, u._rows)


# Formerly pqh.subspace.restrict_omega.
def restrict_omega(ms: ModelSpace, e_sub: Subspace) -> Mat:
    """Matrix of omega^E restricted to the canonical basis of a subspace of E."""
    return _form_matrix(ms._omega_form, e_sub._rows, skew=True)


# Formerly pqh.subspace.signature, on the Gram matrix and the Fraction loop
# above; the memo is left out, so that a call computes.
def signature_mat(ms: ModelSpace, u: Subspace) -> SignatureTriple:
    return SignatureTriple(*symmetric_signature(gram(ms, u)))


# Formerly pqh.classify._PurePart.t_f, for the pass of pqh.classify._pure_part.
def pure_part_t_f(self) -> Mat:
    """T = (-D/q) C^T on the basis p1'(b_j) of F; -D/q = -scale / D."""
    num, den = self.c
    return mat_scale(
        Mat(tuple(frac_row(r, den) for r in zip(*num)), len(num)), -self.scale / self.d_val
    )


# Formerly pqh.classify.kind_witnesses, on the Fraction pairing matrix of q.
def kind_witnesses_mat(stab: Subspace) -> KindWitnesses:
    """The witnesses of the stabilizer ``stab`` (a subspace of Q^3).

    q on its basis rows is one pairing matrix of their integer rows, and a
    witness is the combination (:meth:`Subspace.combine_int`) of the rows at
    a point of that binary form with the wanted sign; the rows are
    independent, so a nonzero point gives a nonzero witness."""
    if stab.dim == 0:
        return KindWitnesses(None, None, None)
    if stab.dim == 3:
        return KindWitnesses(Operator(1, 0, 0), Operator(0, 0, 1), Operator(1, 1, 0))
    qm = _form_matrix(_Q_FORM, stab.int_basis())
    if stab.dim == 1:
        a = qm.rows[0][0]
        points = [(F1,) if ok else None for ok in (a > 0, a < 0, a == 0)]
    else:
        a, b, c = qm.rows[0][0], qm.rows[0][1], qm.rows[1][1]
        points = [_positive_point(a, b, c), _positive_point(-a, -b, -c), _isotropic_point(a, b, c)]
    return KindWitnesses(
        *(pt and Operator(*frac_row(*stab.combine_int(*_int_row(pt)))) for pt in points)
    )


# Formerly pqh.classify.check_para_complex, with its eigenspace work on the
# Fraction matrix of T and the cross-eigenspace rank on a Fraction pairing
# matrix; it runs on the package pass.
def check_para_complex_mat(ms: ModelSpace, u: Subspace, a: Operator) -> ParaComplexReport:
    """Verify the weakly para-complex structure theorem for a witness with
    q(A) < 0.  On top of the shared pure-part pass (:func:`_pure_part`):
    eigenspace dimensions by the exact trace test, the neutral signature
    claim, and the eigenspace presentation and witness family when |q| is
    a square."""
    qa = a.q()
    if qa >= 0:
        raise ValueError("para-complex check needs a witness with negative q")
    pp = package_pure_part(ms, u, a)
    nu = -pp.scale
    comp, d_val, sig = pp.comp, pp.d_val, pp.sig
    if comp.dim == 0:
        return ParaComplexReport(
            nu, pp.basis, comp, 0, 0, True, True, sig, 0, None, None,
            False, False, False,
        )
    k, t_f = comp.dim, pure_part_t_f(pp)
    tr = mat_trace(t_f)
    if tr == 0:
        if k % 2:
            raise AssertionError("traceless para-complex part of odd dimension")
        d_plus = d_minus = k // 2
    else:
        ratio = is_rational_square(tr * tr / nu)
        if ratio is None or ratio.denominator != 1:
            raise AssertionError("trace test failed to give an integer split")
        # tr(T) = lam_plus (d+ - d-) with lam_plus = D / sqrt(|q|), so the
        # split is signed by tr relative to the sign of D
        r_signed = int(ratio) if (tr > 0) == (d_val > 0) else -int(ratio)
        if (k + r_signed) % 2:
            raise AssertionError("trace split has wrong parity")
        d_plus = (k + r_signed) // 2
        d_minus = (k - r_signed) // 2
    strict = d_plus == d_minus
    if sig.p != sig.q:
        raise AssertionError("para-complex signature is not of type (m, k-2m, m)")
    hermitian_pure = sig.s == 0
    if not strict and hermitian_pure:
        raise AssertionError("weakly-not-para-complex part must be degenerate")
    if hermitian_pure and sig.as_tuple() != (k // 2, 0, k // 2):
        raise AssertionError("Hermitian para-complex part must be neutral")
    # eigenspace data over Q when rho = sqrt(|q|) is rational
    rho = is_rational_square(-qa)
    eigen_pres = None
    family = None
    if rho is not None:
        lam_plus = d_val / rho
        # T x = lam x (C^T x = +-rho x) on the coordinates x of v = sum_j x_j b_j
        # makes v = (h1' + lam h2') (x) p1'(v), by the row identity
        vs1, vs2 = eigen = [
            comp.kernel_in([_int_row(c) for c in shifted.cols]).int_basis()
            for shifted in (mat_sub(t_f, Mat.scalar(k, lam_plus)), mat_add(t_f, Mat.scalar(k, lam_plus)))
        ]
        half = comp.ambient // 2
        lift1, lift2 = (
            Subspace._echelon([pp.basis.to_basis_int(*v)[0][:half] for v in vs], half) for vs in eigen
        )
        # d+ + d- = k, so matching dimensions are the recomposition U' = the
        # two eigenspaces, which are independent for distinct eigenvalues
        if lift1.dim != d_plus or lift2.dim != d_minus:
            raise AssertionError("rational eigenspace dimensions disagree with trace test")
        dir1, dir2 = line_direction(pp.basis, lam_plus), line_direction(pp.basis, -lam_plus)
        eigen_pres = (dir1, lift1, dir2, lift2)
        # cross-check m as the rank of the Gram pairing between eigenspaces,
        # whatever their bases (0 when one of them is empty)
        if mat_rank(_form_matrix(ms._metric_form, vs1, vs2)) != sig.p:
            raise AssertionError("cross-eigenspace rank disagrees with signature")
        # the witness family a I + a J +- K when the pure part sits in one eigenspace
        for lam in (lam_plus, -lam_plus):
            if t_f == Mat.scalar(k, lam):
                n_op = pp.basis.conjugate(F1, qa * lam / (d_val * d_val), lam)
                if not all(operator_preserves(op_add(a, op_scale(n_op, t)), comp) for t in (0, 1, 2)):
                    raise AssertionError("witness family member fails invariance")
                family = (a, n_op)
                break
    return ParaComplexReport(
        nu, pp.basis, comp, d_plus, d_minus, strict, hermitian_pure, sig,
        sig.p, eigen_pres, family, pp.omega_route, pp.gram_partner,
        pp.totally and strict,
    )


# Formerly pqh.classify.check_totally_real, on Fraction pairing matrices.
def check_totally_real_mat(ms: ModelSpace, u: Subspace, form: UFTForm) -> TotallyRealReport:
    """For a real nondegenerate U with graph form ``form``: the omega
    conditions on E1 = p1(U), E2 = TE1 and the skewness of T,
    cross-validated against the direct Gram tests IU _|_ U, JU _|_ U, KU _|_ U.

    The caller has proved ``is_real(form)`` (:func:`classify` calls this
    only after it); it is not tested again here."""
    if signature(ms, u).s != 0:
        raise ValueError("totally-real check needs a nondegenerate subspace")
    e1 = form.f_space
    e2 = form.t_image()
    o1 = mat_is_zero(restrict_omega(ms, e1))
    o2 = mat_is_zero(restrict_omega(ms, e2))
    # omega(f_i, T f_j) over the basis f_i of E1
    c = _form_matrix(ms._omega_form, e1.int_basis(), [_int_row(t) for t in form.t_map.cols])
    skew = mat_is_symmetric(c)  # omega(e, Te') = -omega(Te, e') for all pairs
    routes = tuple(image_orthogonal(ms, op, u) for op in (OP_I, OP_J, OP_K))
    conditions = o1 and o2 and skew
    if conditions != all(routes):
        raise AssertionError("totally-real routes disagree")
    if conditions:
        if not e1.intersect(e2).is_zero():
            raise AssertionError("totally real forces E1 ^ E2 = 0")
        vs = form.graph_rows()
        gm = _form_matrix(ms._metric_form, vs, vs)
        if gm != mat_scale(c, 2):
            raise AssertionError("totally-real metric identity 2 omega(e, Te') failed")
        if u.dim > ms.n:
            raise AssertionError("totally real exceeds the quarter-dimension bound")
    return TotallyRealReport(conditions, o1, o2, skew, routes)


# Formerly pqh.subspace.direct_sum_is, which spanned the parts every time.
def direct_sum_is_by_span(whole: Subspace, parts) -> bool:
    """Exact check that the parts are independent and span the whole."""
    return sum(p.dim for p in parts) == whole.dim and span_of(parts, whole.ambient) == whole


# Formerly pqh.subspace.Subspace.complement_in, on the transpose of the
# stacked rows of self and larger.
def complement_in(self: Subspace, larger: Subspace) -> Subspace:
    """Canonical complement of self inside larger (self must be inside)."""
    if not larger.contains(self):
        raise ValueError("complement_in needs a containing subspace")
    # the rows of larger, in order, that leave the span of self and the
    # rows before them: the pivot columns of [self; larger]^T past self
    # (scaling a column keeps them).  Some rows of a reduced basis are
    # a reduced basis, so no elimination follows.
    stacked = [V for V, _ in self._rows + larger._rows]
    keep = [p - self.dim for p in int_rref(zip(*stacked), len(stacked))[1] if p >= self.dim]
    return Subspace._of(
        [larger._rows[i] for i in keep], [larger.pivots[i] for i in keep], self.ambient
    )


# Formerly pqh.uft._map_graph.
def map_graph(f_space: Subspace, g_space: Subspace, local: Mat) -> Subspace:
    """The graph over h1 = (1, 0) of the map T f_j = sum_i local[i][j] g_i,
    for the canonical basis rows f_j of F and g_i of G: each T f_j is one
    :meth:`Subspace.combine_int` of G's rows, and the span one elimination."""
    identity = HBasisChange.identity()
    rows = [
        _graph_row(identity, f, g_space.combine_int(*_int_row(c)))[0]
        for f, c in zip(f_space.int_basis(), local.cols)
    ]
    return Subspace._echelon(rows, 2 * f_space.ambient)


# Formerly pqh.generate.twist_h, on integer rows.
def twist_h_rows(u: Subspace, s: HBasisChange) -> Subspace:
    """Apply an SL(H) coordinate change to every vector (flag-preserving):
    one elimination of U's integer rows moved by s."""
    return Subspace._echelon([_h_act_int(s._from, V, D)[0] for V, D in u.int_basis()], u.ambient)


# Formerly pqh.generate._block_rotation, _reflection and _tpc_blocks.
def _block_rotation(k: int) -> Mat:
    return Mat.identity(k // 2).kron(MAT_I)


def _reflection(k: int, plus: int) -> Mat:
    rows = [[F0] * k for _ in range(k)]
    for i in range(k):
        rows[i][i] = F1 if i < plus else -F1
    return Mat(rows)


def _tpc_blocks(k: int) -> Mat:
    """T with T^2 = Id, +1 eigenspace on odd slots, -1 on even slots."""
    return Mat.identity(k // 2).kron(mat_neg(MAT_K))


# Formerly the graph kinds of pqh.generate.generate: the graph of a local
# map in standard coordinates (for the complex kinds P R P^-1), then twisted.
def generate_map_graph(rng: Rng, n: int, kind: str, dim: int | None = None) -> Subspace:
    dim_e = 2 * n
    if dim is not None:
        check_dim(n, kind, dim)
    if kind in ("complex", "para_complex", "weakly_para_complex"):
        k = dim if dim is not None else 2 * (1 + rng.below(n))
        f_sub = g_sub = random_subspace(rng, dim_e, k)
        p = random_invertible(rng, k)
        if kind == "complex":
            base = _block_rotation(k)
        elif kind == "para_complex":
            base = _reflection(k, k // 2)
        else:
            plus = 1 + rng.below(k - 1) if k > 1 else 1
            if 2 * plus == k:
                plus = k  # force unequal eigenspace dimensions
            base = _reflection(k, min(plus, k))
        local = p @ base @ p.inverse()
    elif kind in ("totally_complex", "totally_para_complex"):
        m = dim // 2 if dim is not None else 1 + rng.below(n)
        pairs = sorted(rng_sample_pairs(rng, n, m))
        f_sub = g_sub = Subspace._unit_rows([j for p in pairs for j in (2 * p, 2 * p + 1)], dim_e)
        local = _block_rotation(2 * m) if kind == "totally_complex" else _tpc_blocks(2 * m)
    elif kind in ("real", "totally_real"):
        k = min(dim if dim is not None else 1 + rng.below(n), n)
        if kind == "real":
            # F on the first k coordinates, TF inside a disjoint block
            local = random_invertible(rng, k)
            f_cols, g_cols = range(k), range(k, 2 * k)
        else:
            # E1 on odd slots, E2 on even slots, symmetric invertible pairing
            while True:
                b = Mat([rng.rationals(k) for _ in range(k)], ncols=k)
                local = mat_add(b, b.T)
                if local.det() != 0:
                    break
            f_cols, g_cols = range(0, 2 * k, 2), range(1, 2 * k, 2)
        f_sub, g_sub = Subspace._unit_rows(f_cols, dim_e), Subspace._unit_rows(g_cols, dim_e)
    else:
        raise ValueError(f"not a graph kind: {kind!r}")
    return twist_h_rows(map_graph(f_sub, g_sub, local), random_sl2(rng))


# Formerly pqh.linalg.Mat.rank.
def mat_rank(m: Mat) -> int:
    return int_rank([_int_row(r)[0] for r in m.rows], m.ncols)


def traceless_entries(m: Mat) -> tuple:
    """The entries (x, y, z) of a traceless 2x2 matrix m = (x, y; z, -x), as
    ``HBasisChange.conjugate`` takes them."""
    (x, y), (z, w) = m.rows
    if x + w != 0:
        raise ValueError("operator matrix must be traceless 2x2")
    return x, y, z


# Formerly pqh.subspace.Subspace.coordinates_of; pqh reads coordinates as
# integer rows (``Subspace.coordinates_int``).
def coordinates_of(u: Subspace, v) -> tuple:
    """Coefficients of v in the canonical basis; error if v is outside."""
    coeffs = tuple(v[p] for p in u.pivots)
    if not u.contains_vector(v):
        raise ValueError("vector is not in the subspace")
    return coeffs


# Formerly pqh.linalg._int_rows, the clearing of ``Fraction`` rows that
# ``Mat.charpoly``, ``poly_eval_matrix`` and ``ModelSpace`` ran; they read
# a matrix's integer rows now.
def _int_rows(rows):
    """Clear the denominators of rational rows by one common lcm ``d``."""
    d = lcm(*(x.denominator for r in rows for x in r))
    return [[x.numerator * (d // x.denominator) for x in r] for r in rows], d


# Formerly pqh.linalg.Mat._add, __add__, __sub__, __neg__, scale, mul_vec and
# is_skew, as functions of a Mat: pqh.linalg.Mat has no element-wise
# arithmetic.
def mat_add(self, other, sign=1):
    if self.shape != other.shape:
        raise ValueError("shape mismatch")
    rows = []
    for pair in zip(self.int_rows(), other.int_rows()):
        (A, B), m = _one_denominator(pair)
        rows.append(_lowest_terms([x + sign * y for x, y in zip(A, B)], m))
    return Mat.of_ints(rows, self.ncols)


def mat_sub(self, other):
    return mat_add(self, other, -1)


def mat_neg(self):
    return mat_scale(self, -1)


def mat_scale(self, c):
    c = _entry(c)
    p, q = c.numerator, c.denominator
    rows = [_lowest_terms([p * x for x in V], q * d) for V, d in self.int_rows()]
    return Mat.of_ints(rows, self.ncols)


def mat_mul_vec(self, v):
    return (self @ Mat.from_cols((v,))).col(0)


def mat_is_skew(self):
    return self.shape[0] == self.shape[1] and self == mat_neg(self.T)


# Formerly pqh.model.Operator.scale and __add__.
def op_scale(self, c) -> Operator:
    c = _entry(c)
    return Operator(c * self.alpha, c * self.beta, c * self.gamma)


def op_add(self, other: Operator) -> Operator:
    return Operator(
        self.alpha + other.alpha, self.beta + other.beta, self.gamma + other.gamma
    )


# Formerly pqh.subspace.Subspace.__init__, the span of a Mat's rows.
def mat_span(mat: Mat) -> Subspace:
    return Subspace.span(mat.rows, mat.ncols)


# Formerly pqh.linalg.vec_add and vec_sub, which FracMat's sum and difference
# read; pqh.linalg.Mat has no element-wise arithmetic.
def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


# Formerly pqh.linalg.Mat, which held its rows as ``Fraction`` tuples and
# cleared them again in every kernel; pqh.linalg.Mat now holds integer rows.
# ``FracMat`` is that class with its name changed, and ``vec_scale`` the
# helper its ``scale`` read.
def vec_scale(c, u):
    return tuple(c * a for a in u)


class FracMat:
    """Immutable dense matrix with rational entries."""

    __slots__ = ("rows", "_ncols", "_hash", "_charpoly")

    def __init__(self, rows, ncols=None):
        self._hash = self._charpoly = None
        self.rows = tuple(tuple(_entry(x) for x in r) for r in rows)
        if self.rows:
            self._ncols = len(self.rows[0])
            if any(len(r) != self._ncols for r in self.rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != self._ncols:
                raise ValueError("ncols mismatch")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit ncols")
            self._ncols = ncols

    @classmethod
    def _of(cls, rows, ncols):
        """Trusted constructor, no checks: ``rows`` is a tuple of
        ``ncols``-long tuples of ``Fraction`` values."""
        m = cls.__new__(cls)
        m.rows, m._ncols, m._hash, m._charpoly = rows, ncols, None, None
        return m

    @classmethod
    def identity(cls, n):
        return cls._of(
            tuple(tuple(F1 if i == j else F0 for j in range(n)) for i in range(n)), n
        )

    @classmethod
    def scalar(cls, n, c):
        """c times the n x n identity."""
        c = _entry(c)
        rows = tuple(tuple(c if i == j else F0 for j in range(n)) for i in range(n))
        return cls._of(rows, n)

    @classmethod
    def from_cols(cls, cols, nrows=None):
        cols = tuple(tuple(c) for c in cols)
        if nrows is None:
            if not cols:
                raise ValueError("empty column list needs nrows")
            nrows = len(cols[0])
        if any(len(c) != nrows for c in cols):
            raise ValueError("columns must all have nrows entries")
        return cls(tuple(zip(*cols)) if cols else ((),) * nrows, ncols=len(cols))

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return self._ncols

    @property
    def shape(self):
        return (len(self.rows), self._ncols)

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    @property
    def cols(self):
        return tuple(self.col(j) for j in range(self._ncols))

    @property
    def T(self):
        if not self.rows:
            return FracMat._of(((),) * self._ncols, 0)
        return FracMat._of(tuple(zip(*self.rows)), len(self.rows))

    def __eq__(self, other):
        return (
            isinstance(other, FracMat)
            and self._ncols == other._ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rows, self._ncols))
        return self._hash

    def __repr__(self):
        return f"FracMat({list(map(list, self.rows))!r})"

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return FracMat._of(
            tuple(vec_add(a, b) for a, b in zip(self.rows, other.rows)), self._ncols
        )

    def __sub__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return FracMat._of(
            tuple(vec_sub(a, b) for a, b in zip(self.rows, other.rows)), self._ncols
        )

    def __neg__(self):
        return self.scale(-F1)

    def scale(self, c):
        c = _entry(c)
        return FracMat._of(tuple(vec_scale(c, r) for r in self.rows), self._ncols)

    def __matmul__(self, other):
        if self._ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        # Each left row and each right column over its own denominator:
        # entry (i, j) is P[i][j] / (d_i * e_j).  A common denominator for
        # the right factor would do, but with many distinct large
        # denominators its lcm makes the integers far longer.
        left = [_int_row(r) for r in self.rows]
        right = [_int_row(c) for c in other.cols]
        P = _int_matmul([a for a, _ in left], [b for b, _ in right])
        return FracMat._of(
            tuple(
                tuple(Fraction(x, da * db) if x else F0 for x, (_, db) in zip(row, right))
                for row, (_, da) in zip(P, left)
            ),
            other.ncols,
        )

    def kron(self, other):
        """Kronecker product: block (i, j) is ``self[i][j] * other``.  Only
        products of two nonzero entries are formed; a factor 1 reuses the other."""
        q = other._ncols
        width = self._ncols * q
        other_nz = [[(j, b) for j, b in enumerate(s) if b] for s in other.rows]
        rows = []
        for r in self.rows:
            nz = [(i * q, a) for i, a in enumerate(r) if a]
            for s in other_nz:
                row = [F0] * width
                for off, a in nz:
                    for j, b in s:
                        row[off + j] = b if a == 1 else a if b == 1 else a * b
                rows.append(tuple(row))
        return FracMat._of(tuple(rows), width)

    def mul_vec(self, v):
        return (self @ FracMat.from_cols((v,))).col(0)

    def is_skew(self):
        return self.shape[0] == self.shape[1] and self == -self.T

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row mismatch")
        return FracMat._of(
            tuple(a + b for a, b in zip(self.rows, other.rows)),
            self._ncols + other._ncols,
        )

    # -- elimination ------------------------------------------------------

    def rref(self):
        """Reduced row echelon form.

        Returns ``(R, pivots)`` where R keeps only the nonzero rows and
        pivots is the tuple of pivot column indices.  The result is the
        unique canonical basis of the row space (:func:`int_rref`).
        """
        basis, pivots = int_rref([_int_row(r)[0] for r in self.rows], self._ncols)
        return FracMat._of(tuple(frac_row(*r) for r in basis), self._ncols), pivots

    def kernel(self):
        """Canonical (RREF) basis of {x : A x = 0}, rows of the result
        (:func:`int_kernel`)."""
        basis, _ = int_kernel([_int_row(r)[0] for r in self.rows], self._ncols)
        return FracMat._of(tuple(frac_row(*r) for r in basis), self._ncols)

    def det(self):
        n = self.nrows
        if n != self._ncols:
            raise ValueError("determinant of non-square matrix")
        # _bareiss gives det of the rows cleared one by one; undo their scales
        rows = [_int_row(r) for r in self.rows]
        pivots, _, det = _bareiss([V for V, _ in rows], n)
        return Fraction(det, prod(d for _, d in rows)) if len(pivots) == n else F0

    def inverse(self):
        n = self.nrows
        if n != self._ncols:
            raise ValueError("inverse of non-square matrix")
        aug = self.hstack(FracMat.identity(n))
        R, pivots = aug.rref()
        if pivots[:n] != tuple(range(n)):
            raise ValueError("matrix is singular")
        return FracMat._of(tuple(r[n:] for r in R.rows), n)

    def solve(self, b):
        """One solution x of A x = b, or None if inconsistent."""
        aug = self.hstack(FracMat.from_cols((b,), nrows=self.nrows))
        R, pivots = aug.rref()
        if self._ncols in pivots:
            return None
        x = [F0] * self._ncols
        for i, p in enumerate(pivots):
            x[p] = R.rows[i][self._ncols]
        return tuple(x)

    def charpoly(self):
        """Monic characteristic polynomial det(xI - A), coefficients low to high.

        Rational entries only.  Both paths work on the integer matrix
        B = d*A, d the lcm of the denominators: B has an integer
        characteristic polynomial x^n + b_(n-1) x^(n-1) + ... + b_0, and
        the coefficient of x^k for A is a_k = b_k / d^(n-k).

        The Krylov path (:func:`_krylov_charpoly`) takes w_k = B^k e_0 and
        W = [w_0 ... w_(n-1)] (columns).  If W is nonsingular modulo the
        prime p = ``M127``, then det W != 0, so e_0 is a cyclic vector of
        B: its annihilator has degree n and is the characteristic
        polynomial, and b is the unique solution of W b = -w_n.  Every
        eigenvalue is at most rho = max_i sum_j |B_ij| in absolute value,
        so |b_k| <= C(n, k) rho^(n-k).  One LU factorization of W mod p and
        Dixon lifting give b one balanced p-adic digit a step, up to the
        first zero residual, which proves W b = -w_n; one still nonzero past
        p^K > 2 max_k C(n, k) rho^k raises.  No rational reconstruction and
        no probability enter, and the result is checked against
        a_(n-1) = -tr A.  When W is singular mod p (e_0 is not cyclic, as
        for a derogatory A, or p divides det W), Faddeev-LeVerrier
        (:func:`_faddeev_charpoly`) runs instead.  The
        first call keeps the result on the instance (``FracMat`` is immutable)
        and later calls return it.
        """
        if self._charpoly is None:
            n = self.nrows
            if n != self._ncols:
                raise ValueError("charpoly of non-square matrix")
            B, d = _int_rows(self.rows)
            b = _krylov_charpoly(B) or _faddeev_charpoly(B)
            self._charpoly = tuple(Fraction(c, d ** (n - k)) for k, c in enumerate(b))
        return self._charpoly


# Formerly pqh.uft.UFTForm, with T as a ``Fraction`` matrix ``t_map`` (the
# class renamed, and ``Mat`` read as ``FracMat``): its t_rows, graph_rows,
# t_on_subspace and t_image.
class FracUFTForm(NamedTuple):
    """A subspace presented as the graph of T: F -> E over h1.

    It holds a symplectic basis (h1, h2) of H, F, and ``t_map``, with one
    column per canonical basis vector of F holding its image in E.
    """

    h_basis: HBasisChange
    f_space: Subspace
    t_map: FracMat  # shape (dim E, dim F)

    @property
    def dim(self) -> int:
        return self.f_space.dim

    @property
    def dim_e(self) -> int:
        return self.f_space.ambient

    def graph_rows(self) -> list:
        """The graph vectors h1 (x) f + h2 (x) Tf over the canonical basis f
        of F, in its order, as ``(ints, d)`` rows in standard coordinates;
        the ``classify`` pairings read them as they are.

        Tf is column f of ``t_map``, but it comes from :meth:`t_rows`: its
        ``Mat`` product is the only ``Mat.__matmul__`` call on
        decompose-graph, where ``bench/tracing.py`` homes it.
        """
        tfs = map(_int_row, self.t_rows(self.f_space).rows)
        return [_graph_row(self.h_basis, f, tf) for f, tf in zip(self.f_space.int_basis(), tfs)]

    def t_rows(self, w: Subspace) -> FracMat:
        """T on the basis rows of a subspace W of F, one image per row.

        A row of F has its coordinates in the canonical basis of F at F's
        pivots, so the images are one product with ``t_map``.
        """
        coords = [coordinates_of(self.f_space, r) for r in w.mat.rows]
        return FracMat(coords, ncols=self.dim) @ self.t_map.T

    def t_on_subspace(self, w: Subspace) -> FracMat:
        """Matrix of T restricted to an invariant subspace W of F, in the
        canonical basis of W."""
        return FracMat.from_cols((coordinates_of(w, r) for r in self.t_rows(w).rows), nrows=w.dim)

    def t_image(self) -> Subspace:
        return Subspace.span(self.t_map.cols, self.dim_e)


# Formerly pqh.uft.to_uft, with T read off as ``Fraction`` columns.
def frac_to_uft(u: Subspace, basis: HBasisChange) -> FracUFTForm:
    """Present U as a graph over the h1 component of the given basis.

    Requires (h2 (x) E) ^ U = 0; then F = p1(U) and T is read off the
    canonical basis of F.  Over the standard basis, with no pivot of U in
    h2 (x) E, U's canonical rows already are (f_j | T f_j): F is
    :func:`~pqh.subspace.p1` and column j of T the second half of row j.
    Any other basis rewrites the rows and eliminates them (``_graph_of``).
    """
    dim_e = u.ambient // 2
    f_space = p1(u)
    if f_space.dim == u.dim and basis.mat == Mat.identity(2):
        t_map = FracMat.from_cols([frac_row(V[dim_e:], D) for V, D in u.int_basis()], nrows=dim_e)
        return FracUFTForm(basis, f_space, t_map)
    graph = frac_graph_of([basis.to_basis_int(V, D)[0] for V, D in u.int_basis()], dim_e)
    if graph is None:
        raise TransversalityError(
            "the h2 direction of the basis meets the subspace"
        )
    return FracUFTForm(basis, *graph)


# Formerly pqh.uft._graph_of, with T as ``Fraction`` columns.
def frac_graph_of(rows, dim_e: int):
    """(F, T) for the graph spanned by the plain-int rows (f | Tf), or None
    when their F parts are dependent.

    The elimination pivots only among the F coordinates and the T columns
    follow along, so the F rows come out as the canonical basis of F (in
    lowest terms, with no second elimination).  Scaling an input row
    leaves the result alone.
    """
    reduced, pivots = int_rref(rows, dim_e)
    if len(pivots) != len(rows):
        return None
    f_space = Subspace._of([_lowest_terms(V[:dim_e], d) for V, d in reduced], pivots, dim_e)
    return f_space, FracMat.from_cols([frac_row(V[dim_e:], d) for V, d in reduced], nrows=dim_e)


# Formerly pqh.uft.injectivize, which cleared F's rows and T's columns again.
def frac_injectivize(u: FracUFTForm) -> FracUFTForm:
    """An equivalent graph form whose T is injective.

    h1 is moved to the first h1 + s h2, s = 0, 1, ..., dim F + 1, whose
    fiber {f in F : Tf = s f} is zero: the fibers of distinct s are
    independent eigenspaces of T on F, so at most dim F of them are
    nonzero.  h2 stays, since h2 (x) E meets a graph over h1 only in 0.
    Each fiber is one :meth:`Subspace.kernel_in` of the rows Tf_i - s f_i
    over the canonical basis f_i of F, and s = 0 returns the form itself.
    The shear keeps F, since h1 (x) f + h2 (x) Tf = h1' (x) f + h2 (x) (T - s)f,
    so the rows Tf_i - s f_i are the columns of the new T.
    """
    dim_e = u.dim_e
    rows = [_int_row(f + tf) for f, tf in zip(u.f_space.mat.rows, u.t_map.cols)]
    for s in range(u.dim + 2):
        images = [([y - s * x for x, y in zip(V[:dim_e], V[dim_e:])], D) for V, D in rows]
        if u.f_space.kernel_in(images).is_zero():
            break
    else:
        raise AssertionError("injective presentation search failed")
    if s == 0:
        return u
    shear = HBasisChange.from_columns((F1, Fraction(s)), (F0, F1))
    t_map = FracMat.from_cols([frac_row(V, D) for V, D in images], nrows=dim_e)
    return FracUFTForm(u.h_basis.compose(shear), u.f_space, t_map)


# Formerly pqh.uft.invariant_core, on a ``Fraction`` T.
def frac_invariant_core(u: FracUFTForm):
    """Largest T-invariant subspace W* of F, for injective T, and T
    restricted to it.

    W* is the fixpoint of W0 = F, W_{k+1} = {w in W_k : Tw in W_k}: every
    T-invariant subspace of F lies in each W_k.  When F = E or W1 = F, TF
    lies in F, so W* = F and T on W* is read off the rows of ``t_map``.
    """
    w = u.f_space
    while 0 < w.dim < u.dim_e:
        # T on the canonical basis of F is the columns of t_map
        images = u.t_map.cols if w is u.f_space else u.t_rows(w).rows
        w_new = w.kernel_in([_int_row(r) for r in images], w)
        if w_new == w:
            break
        w = w_new
    if w.dim < u.dim:
        return w, u.t_on_subspace(w)
    return w, FracMat._of(tuple(u.t_map.rows[p] for p in w.pivots), w.dim)  # T f_j at F's pivots


def frac_graph_spectrum(form: FracUFTForm):
    """``uft.graph_spectrum`` over the copies above: the injective form,
    its core, T on the core, and ``(q, ker q(T))`` for each factor q of
    the minimal polynomial, the kernels by the package's ``poly_fiber``."""
    inj = frac_injectivize(form)
    core, t_core = frac_invariant_core(inj)
    # the package's poly_fiber reads T by its image rows, T's transpose
    t_rows = Mat(t_core.T.rows, ncols=t_core.nrows)
    parts = tuple((q, poly_fiber(core, t_rows, q)) for q in minimal_polynomial(t_core))
    return inj, core, t_core, parts


# Formerly pqh.model.standardize, which checked the anticommutations and the
# halves of J's eigenspaces that the unit and product relations imply, and
# raised StructureError for the two checks only a program fault can fail
# (``Mat`` read as ``FracMat``, the type of its arguments and of the basis).
FRAC_I, FRAC_J, FRAC_K = (FracMat(m.rows) for m in (MAT_I, MAT_J, MAT_K))


def frac_standardize(i_mat: FracMat, j_mat: FracMat, k_mat: FracMat) -> Standardization:
    """Find a basis in which an abstract triple becomes the standard one.

    The triple must satisfy -I^2 = J^2 = K^2 = Id, IJ = K and pairwise
    anticommutation exactly.  The +1 eigenspace of J is paired with its
    K-image; tie-breaking uses the lexicographically smallest reduced
    echelon eigenbasis, so the output is deterministic.
    """
    d = i_mat.nrows
    if i_mat.shape != (d, d) or j_mat.shape != (d, d) or k_mat.shape != (d, d):
        raise StructureError("structure matrices must be square of equal size")
    one = FracMat.identity(d)
    if (i_mat @ i_mat) != -one or (j_mat @ j_mat) != one or (k_mat @ k_mat) != one:
        raise StructureError("unit relations violated")
    if (i_mat @ j_mat) != k_mat:
        raise StructureError("product relation I J = K violated")
    if (
        i_mat @ j_mat != -(j_mat @ i_mat)
        or j_mat @ k_mat != -(k_mat @ j_mat)
        or i_mat @ k_mat != -(k_mat @ i_mat)
    ):
        raise StructureError("anticommutation relations violated")
    plus = (j_mat - one).kernel()
    minus = (j_mat + one).kernel()
    if plus.nrows != minus.nrows or plus.nrows + minus.nrows != d:
        raise StructureError("J eigenspaces do not split V in halves")
    cols = []
    for e_plus in plus.rows:
        ke = k_mat.mul_vec(e_plus)
        cols.append(vec_sub(e_plus, ke))
        cols.append(vec_add(e_plus, ke))
    basis = FracMat.from_cols(cols)
    if basis.det() == 0:
        raise StructureError("eigenbasis pairing is degenerate")
    pairs = FracMat.identity(d // 2)
    binv = basis.inverse()
    if (
        binv @ i_mat @ basis != pairs.kron(FRAC_I)
        or binv @ j_mat @ basis != pairs.kron(FRAC_J)
        or binv @ k_mat @ basis != pairs.kron(FRAC_K)
    ):
        raise StructureError("standardization failed to intertwine the triple")
    return Standardization(basis, d // 2)


# Formerly pqh.subspace.span_of, which eliminated even a single part.
def span_of_by_rref(parts, ambient: int) -> Subspace:
    """The sum of several subspaces, by one elimination of all their rows."""
    if any(p.ambient != ambient for p in parts):
        raise ValueError("ambient mismatch")
    return Subspace._echelon([V for p in parts for V, _ in p._rows], ambient)


# Formerly pqh.subspace.direct_sum_is, which certified a single part too.
def direct_sum_is_by_rank(whole: Subspace, parts) -> bool:
    """Exact check that the parts are independent and span the whole."""
    # the dimensions add up and each part lies in the whole; then a full
    # rank mod p of their rows, or else their span, shows them independent
    if sum(p.dim for p in parts) != whole.dim or not all(map(whole.contains, parts)):
        return False
    rows = [V for p in parts for V, _ in p._rows]
    return rank_mod(rows, whole.ambient) == len(rows) or span_of_by_rref(parts, whole.ambient) == whole


# Formerly pqh.subspace.Subspace.kernel_in, which took relations of zero
# images too.
def kernel_in_by_relations(self: Subspace, images: list, target: Subspace | None = None) -> Subspace:
    """{sum c_i b_i : sum c_i images[i] in target} over the basis rows
    b_i, for one image per row given as ``(ints, d)``; no target is 0."""
    if self.dim == 0 or (target is not None and target.dim == target.ambient):
        return self
    rel = _relations(images, target)
    if self.dim == self.ambient:
        return rel
    rows = [self.combine_int(c, d) for c, d in rel._rows]
    return Subspace._of(rows, [self.pivots[k] for k in rel.pivots], self.ambient)


# Formerly pqh.polyq.factor, which recomposed a certified irreducible p too.
def factor_recomposed(p):
    """Factor p over Q into monic irreducibles, multiplied back to p."""
    p = poly_trim(p)
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    if poly_deg(p) == 0:
        return p[0], []
    if _proved_irreducible(p):
        lead = Fraction(p[-1])
        out = [(tuple(x / lead for x in p), 1)]
    else:
        lead, out = _factor_sympy(p)
    # exact cross-check: the factorization must multiply back to p
    prod = (lead,)
    for fac, mult in out:
        prod = poly_mul(prod, poly_pow(fac, mult))
    if prod != p:
        raise AssertionError("factorization failed to recompose")
    return lead, out


# Formerly pqh.classify._decompose_pure, which ran the residue pass even
# when the factor kernels span F.
def decompose_pure_with_residue(u_pure: Subspace):
    """Pure-part decomposition: factor kernels of the core minimal
    polynomial become invariant addends; the residue is certified real or
    recursively decomposed.

    A pure subspace that is not a graph (every direction carries
    decomposable vectors) first sheds a minimal-fiber decomposable piece,
    which is itself a pure weakly para-complex addend."""
    if u_pure.dim == 0:  # the usual last residue; skips the graph search
        return [], Subspace.zero(u_pure.ambient)
    spectrum = subspace_spectrum(u_pure)
    if spectrum is None:
        hmin, fib = minimal_fiber_direction(u_pure)
        piece = decomposable_subspace(hmin, fib)
        witness = operator_in_basis(
            _direction_completion(normalize_direction(hmin)), 0, 0, 1
        )
        if not operator_preserves(witness, piece):
            raise AssertionError("decomposable piece witness fails invariance")
        addend = Addend("weakly_para_complex", piece, witness, None)
        rest = piece.complement_in(u_pure)
        sub_addends, sub_real = decompose_pure_with_residue(rest)
        return [addend] + sub_addends, sub_real
    _graph, form, parts = spectrum
    if not parts:
        return [], u_pure
    addends = []
    kernels = []
    for poly, ker in parts:
        kernels.append(ker)
        graph = graph_over(u_pure, form.h_basis, ker)
        deg = poly_deg(poly)
        if deg == 1:
            direction = line_direction(form.h_basis, -poly[0])
            witness = operator_in_basis(_direction_completion(direction), 0, 0, 1)
            kind = "weakly_para_complex"
        elif deg == 2:
            c0, c1 = poly[0], poly[1]
            witness = operator_in_basis(form.h_basis, 1 + c0, c0 - 1, c1)
            disc = c1 * c1 - 4 * c0
            kind = "complex" if disc < 0 else "weakly_para_complex"
        else:
            witness = None
            kind = "irreducible_block"
        if witness is not None and not operator_preserves(witness, graph):
            raise AssertionError("constructed addend witness fails invariance")
        addends.append(Addend(kind, graph, witness, tuple(poly)))
    residual_f = span_of_by_rref(kernels, form.dim_e).complement_in(form.f_space)
    # the residue is a graph subspace: an empty spectrum returns it as real
    sub_addends, sub_real = decompose_pure_with_residue(
        graph_over(u_pure, form.h_basis, residual_f)
    )
    return addends + sub_addends, sub_real

"""Reference copies of definitions that left ``pqh`` because only tests
read them, or that ``pqh`` replaced.

Each is a verbatim copy of the package code, so the tests that used it as
an independent check of the package keep the same reference.  The line
above each definition names its former home.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable

from pqh.classify import ParaComplexReport, Stabilizer, operator_preserves
from pqh.linalg import F0, F1, Mat, _entry, _int_row, _lowest_terms, frac_row, int_rref, vec_add
from pqh.model import OP_I, OP_J, OP_K, HBasisChange, Operator, StructureError, tensor
from pqh.polyq import is_rational_square, poly_eval_matrix
from pqh.subspace import Subspace, h_fiber, maximal_pq
from pqh.uft import TransversalityError, UFTForm


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
    if not omega.is_skew() or omega.det() == 0:
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
    form = report.pure_form
    if form is None:
        raise ValueError("no pure part to analyze")
    t_f = form.t_on_subspace(form.f_space)
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
        return w, Mat._of(tuple(u.t_map.rows[p] for p in w.pivots), u.dim)
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


# Formerly pqh.model._pairing, on the integer rows of omega^E.
def pairing_rows(w, a, b) -> int:
    """a^T w b for integer rows ``a``, ``b`` and integer matrix rows ``w``."""
    return sum(x * sum(map(mul, row, b)) for x, row in zip(a, w) if x)


# Formerly the block Gram of pqh.classify.is_para_quaternionic.
def block_gram(ms, e_prime):
    split = Mat.identity(2).kron(e_prime.mat)
    return split @ ms.metric_matrix() @ split.T


# Formerly pqh.subspace.maximal_pq, which ran its loop for every U (no memo).
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
def stabilizer(u: Subspace) -> Stabilizer:
    """Solve the linear system AU <= U for the coordinates of A."""
    rows = []
    for xs, dx in u.int_basis():
        # the residues of I x, J x, K x over one denominator; scaling a
        # constraint row, or dropping a zero one, leaves the kernel alone
        parts = [u.reduce_int(*op.act_int(xs, dx)) for op in (OP_I, OP_J, OP_K)]
        d = lcm(*(e for _, e in parts))
        ri, rj, rk = ([x * (d // e) for x in v] for v, e in parts)
        rows.extend(filter(any, zip(ri, rj, rk)))
    return Stabilizer(Mat(rows, ncols=3).kernel())


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


# Formerly pqh.uft.to_uft, which eliminated the rows for every basis.
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
    return UFTForm(basis, *graph)


# Formerly pqh.uft._graph_of (it stays there for the other bases).
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
    return Mat._of(tuple(form.h_basis.from_basis(rows)), 2 * form.dim_e)


# Formerly pqh.uft.UFTForm.graph_basis.
def graph_basis(form: UFTForm) -> Mat:
    """The graph vectors over the canonical basis of F, in its order."""
    return graph_rows(form, form.f_space)


# Formerly pqh.uft.UFTForm.span.
def graph_span(form: UFTForm) -> Subspace:
    return Subspace(graph_basis(form))


# Formerly w_t of pqh.classify._pure_part.
def pure_part_w_t(ms, form):
    return form.t_map.T @ ms.omega @ form.t_map


# Formerly k_amb of pqh.classify.check_complex.
def kaehler_ambient(ms, form, a):
    vs = graph_basis(form)
    return vs @ a.as_matrix(ms.dim_e).T @ ms.metric_matrix() @ vs.T


# Formerly the cross-eigenspace matrix of pqh.classify.check_para_complex,
# on the graphs over the two eigenspaces.
def cross_eigenspace_gram(ms, graph1, graph2):
    vs1, vs2 = graph1.mat, graph2.mat
    return vs1 @ ms.metric_matrix() @ vs2.T


# Formerly c of pqh.classify.check_totally_real.
def totally_real_c(ms, form):
    return form.f_space.mat @ ms.omega @ form.t_map


# Formerly gm of pqh.classify.check_totally_real.
def graph_gram(ms, form):
    vs = graph_basis(form)
    return vs @ ms.metric_matrix() @ vs.T


# Formerly pqh.uft.induced_g_f.
def induced_g_f(ms, u):
    """Pullback metric g_F(f, f') = -[omega(Tf, f') + omega(Tf', f)] on the
    canonical basis of F."""
    b = u.f_space.mat.T  # columns are the basis of F
    c = u.t_map.T @ ms.omega @ b
    return -(c + c.T)

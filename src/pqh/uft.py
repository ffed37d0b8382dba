"""Graph-form subspaces U^{F,T} = {h1 (x) f + h2 (x) Tf : f in F}.

A subspace admits this form relative to a symplectic basis (h1, h2) of
H exactly when some direction h has (h (x) E) ^ U = 0; the second basis
vector is placed on that transversal direction.  The machinery here
finds transversal directions, converts to and from graph form, makes T
injective, computes the decomposable-vector spectrum, and produces the
two direct-sum normal forms.

A graph form keeps T as integers from :func:`to_uft` to the
characteristic polynomial: ``UFTForm.t_cols`` holds T f_j for each
canonical basis vector f_j of F as one ``(ints, d)`` row of a ``Mat``,
read off U's rows (or ``_graph_of``'s reduced rows) with no
``Fraction``, and ``t_map``, T as a ``Fraction`` matrix, is built only
when something reads it (the ``uft`` command prints it).  T acts on
whole bases: :meth:`UFTForm.t_rows` maps the basis rows of a subspace W
of F by one integer ``Mat`` product of their coordinates with
``t_cols``, and the graph rows are integer rows
(:meth:`UFTForm.graph_rows`).  Over the standard basis of H they are
the canonical basis of the span, so :meth:`UFTForm.span` eliminates only
over another basis.
Every graph row is :func:`_graph_row` of two ``(ints, d)`` halves.  A
graph given over the basis of a subspace S of E (:func:`graph_in`: every
graph kind of ``generate``, twisted by s in SL(H), and form 2's E0 part)
is one elimination of width 2 dim S, whose reduced rows two
``Subspace.combine_int`` carry to V with no elimination there.
The direction searches read the fiber of h2 off U's pivots
(``subspace.h2_fiber``); when it is zero, U's rows are (f | Tf) over
F = p1(U) and :func:`to_uft` over the standard basis eliminates nothing.
The fibers of a failed transversal search are handed to form 1's sweep
(:func:`minimal_fiber_direction`) by the decompositions that run both,
so none is taken twice and none is kept on U.
Each piece of a graph is one :meth:`Subspace.kernel_in` cut of the
subspace U the caller holds: :func:`graph_over` takes the h1 components
of U's rows into a subspace of F, the U' of :func:`pq_split` is
U ^ (H (x) C) for the complement C of E0 (read by the generic and form-2
decompositions and by ``classify._pure_part``), and each fiber
{f in F : Tf = s f} that :func:`injectivize` tries is the kernel of the
rows Tf - s f.  Those rows are also the answer: the shear
h1 -> h1 + s h2 keeps F and takes T to T - s Id, so no graph is
eliminated again.  With the lattice layer's shortcuts (``subspace``),
a generic graph, whose core has one irreducible factor with kernel F,
splits into U alone with no elimination past the spectral pass:
``poly_fiber``'s Cayley-Hamilton zero is all-zero images, and the generic
and form-2 decompositions recompose U from one part equal to U.

The spectrum of a graph form is :func:`graph_spectrum`: injectivize,
take the invariant core W*, factor the minimal polynomial of T on W*
once and attach to each irreducible factor q its kernel ker q(T).  It is
computed once per subspace: :func:`subspace_spectrum` keeps the graph
form and its spectrum in the memo of the ``Subspace`` instance, and the
decomposable spectrum, the form-2 split with its residue check and the
generic decomposition all read it there.

The zero fiber that ends :func:`injectivize`'s search is the kernel of
the new T, so T's injectivity is not tested again; ``t_image`` is the
span of ``t_cols``' rows.  ``invariant_core``
starts its fixpoint at F, since its callers' T is injective, and when
TF lies in F reads T on W* = F off ``t_cols`` at F's pivots.  T on W* is
held by its image rows, the transpose of its matrix: the characteristic
polynomial is the same, and the rows of q(T^T) are the columns of q(T),
which ``poly_fiber`` reads, so no transpose is taken.  No direction
is tried for a subspace too large to meet h (x) E in 0
(:func:`find_transversal_direction`).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .linalg import F0, F1, Mat, _lowest_terms, int_rref
from .model import HBasisChange, StructureError, _h_act_int
from .polyq import minimal_polynomial, poly_deg, poly_eval_matrix
from .subspace import (
    Subspace,
    decomposable_subspace,
    direct_sum_is,
    h2_fiber,
    h_fiber,
    maximal_pq,
    p1,
    product_subspace,
    span_of,
)


class TransversalityError(StructureError):
    """The requested basis direction meets the subspace nontrivially."""


class UFTForm(NamedTuple):
    """A subspace presented as the graph of T: F -> E over h1.

    It holds a symplectic basis (h1, h2) of H, F, and ``t_cols``, whose
    row j is T f_j for the j-th canonical basis vector f_j of F, as an
    integer row ``(ints, d)``; ``t_map`` is T as a matrix, with those
    rows as its columns.
    """

    h_basis: HBasisChange
    f_space: Subspace
    t_cols: Mat  # shape (dim F, dim E): the columns of T

    @property
    def t_map(self) -> Mat:
        """T as a matrix of shape (dim E, dim F), built when read."""
        return self.t_cols.T

    @property
    def dim(self) -> int:
        return self.f_space.dim

    @property
    def dim_e(self) -> int:
        return self.f_space.ambient

    def span(self) -> Subspace:
        rows = self.graph_rows()
        # over the standard basis of H the rows (f_j | T f_j) are already
        # reduced, with F's pivots, as to_uft reads them off
        if self.h_basis.mat == Mat.identity(2):
            return Subspace._of(rows, self.f_space.pivots, 2 * self.dim_e)
        return Subspace._echelon([V for V, _ in rows], 2 * self.dim_e)

    def graph_rows(self) -> list:
        """The graph vectors h1 (x) f + h2 (x) Tf over the canonical basis f
        of F, in its order, as ``(ints, d)`` rows in standard coordinates;
        the ``classify`` pairings read them as they are.

        Tf is row f of ``t_cols``, but it comes from :meth:`t_rows`, whose
        integer ``Mat`` product is the only ``Mat.__matmul__`` call on
        decompose-graph, where ``bench/tracing.py`` homes it.
        """
        tfs = self.t_rows(self.f_space).int_rows()
        return [_graph_row(self.h_basis, f, tf) for f, tf in zip(self.f_space.int_basis(), tfs)]

    def t_rows(self, w: Subspace) -> Mat:
        """T on the basis rows of a subspace W of F, one image per row.

        A row of F has its coordinates in the canonical basis of F at F's
        pivots, so the images are one integer product with ``t_cols``.
        """
        coords = [self.f_space.coordinates_int(V, d) for V, d in w.int_basis()]
        return Mat.of_ints(coords, self.dim) @ self.t_cols

    def t_on_subspace(self, w: Subspace) -> Mat:
        """T restricted to an invariant subspace W of F by its image rows:
        row j holds the coordinates of T w_j in the canonical basis w of W,
        so this is the transpose of T's matrix, with the same spectrum."""
        return Mat.of_ints([w.coordinates_int(V, d) for V, d in self.t_rows(w).int_rows()], w.dim)

    def t_image(self) -> Subspace:
        # the span of T's columns, the rows of t_cols: this is the one call
        # of ``Subspace.span`` on classify-sweep, where bench/tracing.py
        # homes it, so it reads their Fraction view
        return Subspace.span(self.t_cols.rows, self.dim_e)


def _graph_row(h_basis: HBasisChange, x: tuple, y: tuple) -> tuple:
    """h1' (x) x + h2' (x) y in standard coordinates, for the basis
    ``h_basis`` = (h1', h2') and x, y given as ``(ints, d)``; the result
    is an ``(ints, d)`` row.  It is the one builder of graph rows."""
    (V, d), (W, e) = x, y
    m = lcm(d, e)
    return _h_act_int(h_basis._from, [a * (m // d) for a in V] + [b * (m // e) for b in W], m)


def graph_in(space: Subspace, rows: list, s: HBasisChange) -> Subspace:
    """The span of the graph vectors s (h1 (x) x + h2 (x) y), for a
    subspace S of E with canonical basis B and one plain-int row x + y
    per vector: the coordinates of x and y over B.

    s acts on H only, so it commutes with B (+) B, and the span is
    (B (+) B) W for W spanned by the rows s (x | y): one elimination of
    width 2 dim S.  B is reduced, so B (+) B takes W's reduced rows to
    reduced rows, pivot q < dim S to B's pivot p_q and dim S + q to
    dim E + p_q, and each is two :meth:`Subspace.combine_int`.
    """
    k, dim_e = space.dim, space.ambient
    reduced, pivots = int_rref([_h_act_int(s._from, r, 1)[0] for r in rows], 2 * k)
    identity = HBasisChange.identity()
    graph = [
        _graph_row(identity, space.combine_int(V[:k], d), space.combine_int(V[k:], d))
        for V, d in reduced
    ]
    b_pivots = space.pivots
    return Subspace._of(
        graph, [b_pivots[q] if q < k else dim_e + b_pivots[q - k] for q in pivots], 2 * dim_e
    )


def find_transversal_direction(u: Subspace, fibers: list | None = None):
    """A direction h with (h (x) E) ^ U = 0, or None when every direction
    meets U (then U is not a graph subspace in any basis).

    Candidates are h2 + t*h1 for t = 0, 1, ..., dim U: a failing direction
    carries decomposable vectors of U, and a U with any transversal
    direction is a graph with at most dim U such directions, so one of the
    dim U + 1 candidates is transversal.  h (x) E has dimension
    dim E = ambient / 2, so it meets every U of larger dimension and no
    candidate is tried then.  The fiber of t = 0, h2 itself, is read off
    U's pivots (:func:`~pqh.subspace.h2_fiber`); only t >= 1 runs
    :func:`~pqh.subspace.h_fiber`.  A list ``fibers`` receives the
    fibers taken, in the order of t.
    """
    if u.dim > u.ambient // 2:
        return None
    for t in range(u.dim + 1):
        h = (Fraction(t), F1)
        fib = _fiber(u, h)
        if fibers is not None:
            fibers.append(fib)
        if fib.is_zero():
            return h
    return None


def _fiber(u: Subspace, h) -> Subspace:
    """The fiber of a candidate h2 + t*h1 of the direction searches."""
    return h2_fiber(u) if h[0] == 0 else h_fiber(u, h)


def graph_form(u: Subspace, fibers: list | None = None) -> UFTForm | None:
    """U as a graph over the first transversal direction, or None; a list
    ``fibers`` receives the fibers of the search."""
    h = find_transversal_direction(u, fibers)
    return None if h is None else to_uft(u, transversal_basis(h))


def transversal_basis(h) -> HBasisChange:
    """Symplectic basis with the given direction in the h2 slot."""
    a, b = Fraction(h[0]), Fraction(h[1])
    if b != 0:
        k = (1 / b, F0)
    else:
        k = (F0, -1 / a)
    return HBasisChange.from_columns(k, (a, b))


def to_uft(u: Subspace, basis: HBasisChange) -> UFTForm:
    """Present U as a graph over the h1 component of the given basis.

    Requires (h2 (x) E) ^ U = 0; then F = p1(U) and T is read off the
    canonical basis of F.  Over the standard basis, with no pivot of U in
    h2 (x) E, U's canonical rows already are (f_j | T f_j): F is
    :func:`~pqh.subspace.p1` and column j of T, row j of ``t_cols``, the
    second half of row j, in lowest terms.
    Any other basis rewrites the rows and eliminates them (``_graph_of``).
    """
    dim_e = u.ambient // 2
    f_space = p1(u)
    if f_space.dim == u.dim and basis.mat == Mat.identity(2):
        t_cols = Mat.of_ints([_lowest_terms(V[dim_e:], D) for V, D in u.int_basis()], dim_e)
        return UFTForm(basis, f_space, t_cols)
    graph = _graph_of([basis.to_basis_int(V, D)[0] for V, D in u.int_basis()], dim_e)
    if graph is None:
        raise TransversalityError(
            "the h2 direction of the basis meets the subspace"
        )
    return UFTForm(basis, *graph)


def _graph_of(rows, dim_e: int):
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
    return f_space, Mat.of_ints([_lowest_terms(V[dim_e:], d) for V, d in reduced], dim_e)


def injectivize(u: UFTForm) -> UFTForm:
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
    # each f_i and T f_i over the lcm of their two denominators
    rows = []
    for (V, d), (W, e) in zip(u.f_space.int_basis(), u.t_cols.int_rows()):
        m = lcm(d, e)
        rows.append(([x * (m // d) for x in V], [y * (m // e) for y in W], m))
    for s in range(u.dim + 2):
        images = [([y - s * x for x, y in zip(V, W)], m) for V, W, m in rows]
        if u.f_space.kernel_in(images).is_zero():
            break
    else:
        raise AssertionError("injective presentation search failed")
    if s == 0:
        return u
    shear = HBasisChange.from_columns((F1, Fraction(s)), (F0, F1))
    t_cols = Mat.of_ints([_lowest_terms(V, m) for V, m in images], u.dim_e)
    return UFTForm(u.h_basis.compose(shear), u.f_space, t_cols)


def _std_direction(basis: HBasisChange, coeffs) -> tuple:
    """Standard H-coordinates of a direction given in a basis of H."""
    a, b = coeffs
    h1, h2 = basis.h1, basis.h2
    return (a * h1[0] + b * h2[0], a * h1[1] + b * h2[1])


def normalize_direction(h) -> tuple:
    a, b = Fraction(h[0]), Fraction(h[1])
    if a != 0:
        return (F1, b / a)
    if b == 0:
        raise ValueError("zero direction")
    return (F0, F1)


def line_direction(basis: HBasisChange, lam) -> tuple:
    """The normalized standard direction h1 + lam h2 of a basis: the
    decomposable direction of a root lam of the graph map."""
    return normalize_direction(_std_direction(basis, (F1, lam)))


def poly_fiber(w: Subspace, t_w: Mat, poly) -> Subspace:
    """ker poly(T) inside W, for T given by its image rows on the basis of
    W (:meth:`UFTForm.t_on_subspace`): poly(T^T) = poly(T)^T, whose rows
    are the columns of poly(T), the images of W's basis.

    When deg poly >= dim W and chi_T divides poly, ``poly_eval_matrix``
    returns poly(T) = 0 by Cayley-Hamilton (see :mod:`pqh.polyq`),
    reading chi_T off ``t_w``, where ``minimal_polynomial`` left it.  An
    irreducible factor of full degree is such a case; its fiber is W.
    """
    return w.kernel_in(poly_eval_matrix(poly, t_w).int_rows())


def invariant_core(u: UFTForm):
    """Largest T-invariant subspace W* of F, for injective T, and T
    restricted to it by its image rows (:meth:`UFTForm.t_on_subspace`).

    W* is the fixpoint of W0 = F, W_{k+1} = {w in W_k : Tw in W_k}: every
    T-invariant subspace of F lies in each W_k.  When F = E or W1 = F, TF
    lies in F, so W* = F and T on W* is read off ``t_cols`` at F's pivots.
    """
    w = u.f_space
    while 0 < w.dim < u.dim_e:
        # T on the canonical basis of F is the rows of t_cols
        images = u.t_cols if w is u.f_space else u.t_rows(w)
        w_new = w.kernel_in(images.int_rows(), w)
        if w_new == w:
            break
        w = w_new
    if w.dim < u.dim:
        return w, u.t_on_subspace(w)
    # row j is T f_j at F's pivots
    images = [_lowest_terms([V[p] for p in w.pivots], d) for V, d in u.t_cols.int_rows()]
    return w, Mat.of_ints(images, w.dim)


def graph_spectrum(form: UFTForm):
    """(inj, parts): an injective presentation of the graph and, for each
    monic irreducible factor q of T on its invariant core W*, in
    :func:`~pqh.polyq.factor` order, the pair (q, ker q(T) on W*).

    ``parts`` is empty exactly when W* = 0.  When T on W* has one factor
    q = chi_T (the generic case), q(T) = 0 and ker q(T) = W*;
    :func:`poly_fiber` proves that zero from the chi_T that
    ``minimal_polynomial`` computed on the same ``t_core``, so the core
    has one Krylov pass and no power of T is formed.
    """
    inj = injectivize(form)
    core, t_core = invariant_core(inj)
    parts = tuple((q, poly_fiber(core, t_core, q)) for q in minimal_polynomial(t_core))
    return inj, parts


def subspace_spectrum(u: Subspace, fibers: list | None = None):
    """None when U has no graph form, else ``(form, inj, parts)`` with
    ``form = graph_form(u)`` and ``(inj, parts) = graph_spectrum(form)``;
    computed once per ``Subspace`` instance (:meth:`Subspace.memo`).  The
    call that computes it appends the search's fibers to a list
    ``fibers``; a later call leaves the list as it is."""

    def compute():
        form = graph_form(u, fibers)
        return None if form is None else (form, *graph_spectrum(form))

    return u.memo("spectrum", compute)


class SpectralLine(NamedTuple):
    """A decomposable direction [a : b] with its fiber {f : (a h1 + b h2) (x) f in U}."""

    direction: tuple
    fiber: Subspace


class IrreducibleBlock(NamedTuple):
    """A degree >= 2 irreducible factor of the core characteristic polynomial,
    with the kernel of its evaluation as the attached subspace."""

    coeffs: tuple
    fiber: Subspace


class PencilSpectrum(NamedTuple):
    lines: tuple
    blocks: tuple


def decomposable_spectrum(u: Subspace) -> PencilSpectrum:
    """All rational decomposable directions of a pure subspace with their
    fibers, plus the irreducible (degree >= 2) part of the core spectrum."""
    spectrum = subspace_spectrum(u)
    if spectrum is None:
        # U0 != 0 puts h (x) E0 inside U for every h, so no direction is transversal
        if not maximal_pq(u).is_zero():
            raise StructureError("spectrum needs a pure subspace; strip U0 first")
        raise StructureError(
            "not a graph subspace: every direction has a nonzero fiber, "
            "so the decomposable spectrum is not a finite list"
        )
    _form, inj, parts = spectrum
    lines = []
    blocks = []
    for poly, fiber in parts:
        if poly_deg(poly) == 1:
            lines.append(SpectralLine(line_direction(inj.h_basis, -poly[0]), fiber))
        else:
            blocks.append(IrreducibleBlock(tuple(poly), fiber))
    lines.sort(key=lambda l: l.direction)
    blocks.sort(key=lambda b: b.coeffs)
    return PencilSpectrum(tuple(lines), tuple(blocks))


# -- the two decomposition normal forms -------------------------------------


class DecomposablePiece(NamedTuple):
    """A summand h (x) F' of purely decomposable vectors."""

    direction: tuple
    e_space: Subspace

    def span(self) -> Subspace:
        return decomposable_subspace(self.direction, self.e_space)


class Form1(NamedTuple):
    piece: DecomposablePiece | None
    graph: UFTForm
    graph_space: Subspace  # the subspace ``graph`` spans


class Form2(NamedTuple):
    pieces: tuple
    graph: UFTForm


def minimal_fiber_direction(u: Subspace, fibers=()):
    """A direction h whose fiber {e : h (x) e in U} has the smallest
    possible dimension, found by a sweep.

    The fiber is the kernel of a 2-parameter matrix pencil, so its
    dimension exceeds the generic value on at most rank <= dim E special
    directions; the dim E + dim U + 2 pairwise independent candidates
    h2 + t*h1 therefore include a generic one, whose fiber is the minimum.
    The fiber is also U ^ (h (x) E), of dimension at least
    dim U + dim E - dim V = dim U - dim E, so the sweep stops at the first
    candidate that reaches max(0, dim U - dim E): no later one is strictly
    smaller, and the first strict minimum is the one kept.  The fiber of
    t = 0 is read off U's pivots, as in :func:`find_transversal_direction`,
    and the first ``len(fibers)`` fibers are those given, the fibers of a
    failed transversal search of the same U.
    """
    dim_e = u.ambient // 2
    floor = max(0, u.dim - dim_e)
    best = None
    best_fiber = None
    for t in range(dim_e + u.dim + 2):
        cand = (Fraction(t), F1)
        fib = fibers[t] if t < len(fibers) else _fiber(u, cand)
        if best_fiber is None or fib.dim < best_fiber.dim:
            best, best_fiber = cand, fib
            if fib.dim == floor:
                break
    return best, best_fiber


def decompose_form1(u: Subspace, fibers=()) -> Form1:
    """U = (h (x) F') (+) U^{F'', T''} with the graph part of maximal
    dimension among all graph subspaces of U.

    For any direction h, a complement of h (x) fiber(h) inside U meets
    h (x) E trivially, hence is a graph over a basis with h second; its
    dimension is maximal exactly when the fiber of h has minimal
    dimension, so h is taken generic for the fiber pencil.  ``fibers`` are
    those of a failed transversal search of U, read by the sweep.
    """
    h, fib = minimal_fiber_direction(u, fibers)
    basis = transversal_basis(h)
    if fib.dim == 0:
        return Form1(None, to_uft(u, basis), u)
    piece = DecomposablePiece(normalize_direction(h), fib)
    rest = piece.span().complement_in(u)
    graph = to_uft(rest, basis)
    if not direct_sum_is(u, [piece.span(), rest]):
        raise AssertionError("form 1 does not recompose")
    return Form1(piece, graph, rest)


def pq_split(u: Subspace):
    """(U0, E0, U'): the maximal para-quaternionic part U0 = H (x) E0 of U
    and its complement U' = U ^ (H (x) C) for the canonical complement C of
    E0, the vectors of U with no E0 components.  U' is U itself when
    U0 = 0, since H (x) C is then the whole space."""
    u0 = maximal_pq(u)
    e0 = p1(u0)
    return u0, e0, u.intersect(product_subspace(e0.complement()))


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
    # the first rows of a reduced basis are the reduced basis of their span
    kernel_rows = inner.int_basis()[:kdim]
    kernel = Subspace._of(kernel_rows, inner.pivots[:kdim], ambient)
    c = kernel.complement_in(b)
    rows = [V for V, _ in kernel_rows]
    for (C, dc), (A, da) in zip(c.int_basis(), a1.int_basis()):  # c.dim <= dim A1
        rows.append([x * da + y * dc for x, y in zip(C, A)])  # (c_j + a_j) dc da
    out = Subspace._echelon(rows, ambient)
    if out.dim != m:
        raise AssertionError("eigenfree construction lost dimension")
    return out


def _no_rational_eigenvalue_map(dim: int) -> Mat:
    """An automorphism of Q^dim (dim >= 2) without rational eigenvalues."""
    if dim < 2:
        raise ValueError("needs dimension at least 2")
    rows = [[F0] * dim for _ in range(dim)]
    start = 0
    if dim % 2:
        # companion of x^3 - 2, irreducible over Q
        rows[0][2] = Fraction(2)
        rows[1][0] = F1
        rows[2][1] = F1
        start = 3
    for i in range(start, dim, 2):
        rows[i][i + 1] = -F1
        rows[i + 1][i] = F1
    return Mat(rows)


def graph_over(u: Subspace, basis: HBasisChange, sub: Subspace) -> Subspace:
    """The vectors of a graph subspace U over the h1 of ``basis`` whose h1
    component lies in a subspace ``sub`` of F: one kernel of the h1
    components of U's basis rows with target ``sub``."""
    half = u.ambient // 2
    comps = [basis.to_basis_int(V, D) for V, D in u.int_basis()]
    return u.kernel_in([(V[:half], D) for V, D in comps], sub)


def _form2_graph(w: Subspace, inj: UFTForm, parts):
    """Split a graph subspace W into eigen-direction pieces and a
    decomposable-free part of maximal dimension, given the spectrum
    ``(inj, parts)`` of its form (:func:`graph_spectrum`).

    The largest fiber becomes the single decomposable piece; every other
    eigenspace is twisted into the complement, which stays free of
    eigenvectors by the recursive pairing construction.  With no rational
    eigenvalue the part is W itself."""
    dim_e = inj.dim_e
    # fibers of the degree-1 factors only: higher factors carry no direction
    eigens = [
        (fiber, line_direction(inj.h_basis, -poly[0]))
        for poly, fiber in parts
        if poly_deg(poly) == 1
    ]
    if not eigens:
        return [], w
    eigens.sort(key=lambda fd: (-fd[0].dim, fd[1]))
    top_fiber, top_dir = eigens[0]
    groups = [fd[0] for fd in eigens]
    rest = span_of(groups, dim_e).complement_in(inj.f_space)
    s_space = span_of([_eigenfree_inside(groups), rest], dim_e)
    return [DecomposablePiece(top_dir, top_fiber)], graph_over(w, inj.h_basis, s_space)


def decompose_form2(u: Subspace) -> Form2:
    """U = k1 (x) F1 (+) ... (+) ks (x) Fs (+) U^{F~, T~} with pairwise
    independent directions and a last addend free of (rational)
    decomposable vectors; for graph subspaces the last addend has the
    maximal possible dimension (dim U minus the largest fiber)."""
    u0, e0, u_prime = pq_split(u)
    fibers = []
    spectrum = subspace_spectrum(u_prime, fibers)
    if spectrum is not None:
        # U' is a graph: split it by the spectrum memoized on U'
        pieces, tilde = _form2_graph(u_prime, *spectrum[1:])
    else:
        # U' is pure but no graph: form 1 splits off a minimal-fiber piece
        # first, and its graph part is split into eigen-direction pieces
        form1 = decompose_form1(u_prime, fibers)
        pieces, tilde = _form2_graph(form1.graph_space, *graph_spectrum(form1.graph))
        pieces.insert(0, form1.piece)
    used_dirs = [p.direction for p in pieces]
    if not u0.is_zero():
        # a line has no automorphism without eigenvalues, so a 1-dimensional
        # E0 splits into two decomposable pieces; otherwise one piece plus
        # the graph of a rational-eigenvalue-free automorphism of E0
        n_fresh = 2 if e0.dim == 1 else 1
        fresh = []
        # the candidates and the pieces' directions are normalized, one
        # representative per line, so a fresh line is one not yet listed
        for cand in _direction_candidates():
            if cand not in used_dirs + fresh:
                fresh.append(cand)
                if len(fresh) == n_fresh:
                    break
        for nd in fresh:
            pieces.append(DecomposablePiece(nd, e0))
        used_dirs.extend(fresh)
        if e0.dim > 1:
            # row j of the graph is (e_j | column j of the map) over E0's basis
            t0 = _no_rational_eigenvalue_map(e0.dim)
            unit = Mat.identity(e0.dim).cols
            rows = [list(map(int, e + c)) for e, c in zip(unit, t0.cols)]
            tilde = tilde.sum(graph_in(e0, rows, HBasisChange.identity()))
    residue = subspace_spectrum(tilde)
    if residue is None:
        raise AssertionError("form 2 residue is not a graph subspace")
    if not direct_sum_is(u, [p.span() for p in pieces] + [tilde]):
        raise AssertionError("form 2 does not recompose")
    if decomposable_spectrum(tilde).lines:
        raise AssertionError("form 2 residue still has decomposable vectors")
    return Form2(tuple(pieces), residue[0])


def _direction_candidates():
    yield (F0, F1)
    t = 0
    while True:
        yield (F1, Fraction(t))
        t += 1

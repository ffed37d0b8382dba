"""Graph-form subspaces U^{F,T} = {h1 (x) f + h2 (x) Tf : f in F}.

A subspace admits this form relative to a symplectic basis (h1, h2) of
H exactly when some direction h has (h (x) E) ^ U = 0; the second basis
vector is placed on that transversal direction.  The machinery here
finds transversal directions, converts to and from graph form, changes
basis, makes T injective, computes the decomposable-vector spectrum and
the induced metric, and produces the two direct-sum normal forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import F0, F1, Mat, _eliminate
from .model import HBasisChange, ModelSpace, StructureError, tensor
from .polyq import factor, poly_deg, poly_eval_matrix
from .subspace import (
    Subspace,
    decomposable_subspace,
    direct_sum_is,
    h_fiber,
    maximal_pq,
    p1p2,
)


class TransversalityError(StructureError):
    """The requested basis direction meets the subspace nontrivially."""


@dataclass(frozen=True)
class UFTForm:
    """A subspace presented as the graph of T: F -> E over h1.

    ``t_map`` has one column per canonical basis vector of F, holding
    its image in E; the defining basis is always symplectic.
    """

    h_basis: HBasisChange
    f_space: Subspace
    t_map: Mat  # shape (dim E, dim F)

    @property
    def dim(self) -> int:
        return self.f_space.dim

    @property
    def dim_e(self) -> int:
        return self.f_space.ambient

    def span(self) -> Subspace:
        rows = []
        for j, f in enumerate(self.f_space.mat.rows):
            rows.append(self.h_basis.assemble(f, self.t_map.col(j)).coords)
        return Subspace.span(rows, 2 * self.dim_e)

    def apply_t(self, f) -> tuple:
        """Image under T of a vector of F (given in E coordinates)."""
        return self.t_map.mul_vec(self.f_space.coordinates_of(f))

    def t_on_subspace(self, w: Subspace) -> Mat:
        """Matrix of T restricted to an invariant subspace W of F, in the
        canonical basis of W."""
        cols = []
        for row in w.mat.rows:
            cols.append(w.coordinates_of(self.apply_t(row)))
        return Mat.from_cols(cols, nrows=w.dim)

    def t_image(self) -> Subspace:
        return Subspace.span(self.t_map.cols, self.dim_e)

    def t_is_injective(self) -> bool:
        return self.t_map.rank() == self.dim


def find_transversal_direction(u: Subspace):
    """A direction h with (h (x) E) ^ U = 0, or None when every direction
    meets U (then U is not a graph subspace in any basis).

    Candidates are h2 + t*h1 for t = 0, 1, ..., dim U, then h1: failing
    directions carry decomposable vectors of U, and a graph subspace of
    dimension m has at most m of those.
    """
    for t in range(u.dim + 1):
        h = (Fraction(t), F1)
        if h_fiber(u, h).is_zero():
            return h
    h = (F1, F0)
    if h_fiber(u, h).is_zero():
        return h
    return None


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
    canonical basis of F.
    """
    dim_e = u.ambient // 2
    pairs = [basis.h_components(v) for v in u.basis_vectors]
    rows = [tuple(a) + tuple(b) for a, b in pairs]
    # pivots only among the F coordinates; the T columns follow along
    reduced, pivots, _ = _eliminate(rows, dim_e)
    if len(pivots) != u.dim:
        raise TransversalityError(
            "the h2 direction of the basis meets the subspace"
        )
    f_rows = [tuple(r[:dim_e]) for r in reduced]
    t_cols = [tuple(r[dim_e:]) for r in reduced]
    f_space = Subspace.span(f_rows, dim_e)
    if f_space.mat.rows != tuple(f_rows):
        raise AssertionError("prefix echelon failed to canonicalize F")
    return UFTForm(basis, f_space, Mat.from_cols(t_cols, nrows=dim_e))


def pencil_change(f_space: Subspace, t_map: Mat, a, b, c, d):
    """The graph data (F', T') after rewriting h1 = a h1' + b h2',
    h2 = c h1' + d h2'.

    F' = (a Id + c T) F and T' carries (a + cT)f to (b + dT)f; the pencil
    value a Id + c T must be injective on F.
    """
    a, b, c, d = (Fraction(x) for x in (a, b, c, d))
    if a * d - b * c == 0:
        raise ValueError("basis-change coefficients are singular")
    dim_e = f_space.ambient
    new_f_rows = []
    new_images = []
    for j, f in enumerate(f_space.mat.rows):
        tf = t_map.col(j)
        nf = tuple(a * x + c * y for x, y in zip(f, tf))
        ni = tuple(b * x + d * y for x, y in zip(f, tf))
        new_f_rows.append(nf)
        new_images.append(ni)
    stacked = [nf + ni for nf, ni in zip(new_f_rows, new_images)]
    reduced, pivots, _ = _eliminate(stacked, dim_e)
    if len(pivots) != f_space.dim:
        raise ValueError("pencil value a Id + c T is not injective on F")
    f_new = Subspace.span([tuple(r[:dim_e]) for r in reduced], dim_e)
    t_new = Mat.from_cols([tuple(r[dim_e:]) for r in reduced], nrows=dim_e)
    return f_new, t_new


def uft_change_basis(u: UFTForm, s: HBasisChange) -> UFTForm:
    """Rewrite the graph form relative to the composed basis.

    The new defining basis is (old basis) followed by s; the old basis
    vectors expressed in the new ones supply the pencil coefficients.
    """
    new_basis = u.h_basis.compose(s)
    p = s.mat.inverse()
    a, b = p.rows[0][0], p.rows[1][0]
    c, d = p.rows[0][1], p.rows[1][1]
    f_new, t_new = pencil_change(u.f_space, u.t_map, a, b, c, d)
    return UFTForm(new_basis, f_new, t_new)


def injectivize(u: UFTForm) -> UFTForm:
    """An equivalent graph form whose T is injective.

    Both basis directions are moved off the (at most dim U) decomposable
    directions of the subspace, then renormalized to determinant one.
    """
    if u.t_is_injective():
        return u
    span = u.span()
    h2_new = None
    for t in range(span.dim + 2):
        cand = (Fraction(t), F1)
        if h_fiber(span, _std_direction(u.h_basis, cand)).is_zero():
            h2_new = cand
            break
    h1_new = None
    for s in range(span.dim + 2):
        cand = (F1, Fraction(s))
        if not h_fiber(span, _std_direction(u.h_basis, cand)).is_zero():
            continue
        if h2_new is not None and F1 - Fraction(s) * h2_new[0] == 0:
            continue
        h1_new = cand
        break
    if h1_new is None or h2_new is None:
        raise AssertionError("injective presentation search failed")
    det = F1 - h1_new[1] * h2_new[0]
    cols = Mat.from_cols((h1_new, (h2_new[0] / det, h2_new[1] / det)))
    out = uft_change_basis(u, HBasisChange(cols))
    if not out.t_is_injective():
        raise AssertionError("injectivization produced a non-injective T")
    return out


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


def invariant_core(u: UFTForm):
    """Largest T-invariant subspace W* inside F ^ TF and T restricted to it.

    W* is the fixpoint of W0 = F ^ TF, W_{k+1} = {w in W_k : Tw in W_k};
    for injective T it is the largest T-invariant subspace of F.
    """
    w = u.f_space.intersect(u.t_image())
    while not w.is_zero():
        images = [u.apply_t(row) for row in w.mat.rows]
        pivset = set(w.pivots)
        free = [j for j in range(w.ambient) if j not in pivset]
        qrows = [tuple(w.reduce(img)[j] for j in free) for img in images]
        combos = Mat(qrows, ncols=len(free)).T.kernel()
        rows = []
        for combo in combos.rows:
            x = [F0] * w.ambient
            for coef, row in zip(combo, w.mat.rows):
                if coef != 0:
                    for j, val in enumerate(row):
                        x[j] += coef * val
            rows.append(tuple(x))
        w_new = Subspace.span(rows, w.ambient)
        if w_new == w:
            break
        w = w_new
    return w, u.t_on_subspace(w)


@dataclass(frozen=True)
class SpectralLine:
    """A decomposable direction [a : b] with its fiber {f : (a h1 + b h2) (x) f in U}."""

    direction: tuple
    fiber: Subspace


@dataclass(frozen=True)
class IrreducibleBlock:
    """A degree >= 2 irreducible factor of the core characteristic polynomial,
    with the kernel of its evaluation as the attached subspace."""

    coeffs: tuple
    fiber: Subspace


@dataclass(frozen=True)
class PencilSpectrum:
    lines: tuple
    blocks: tuple

    @property
    def total_line_dim(self) -> int:
        return sum(line.fiber.dim for line in self.lines)


def decomposable_spectrum(u: Subspace) -> PencilSpectrum:
    """All rational decomposable directions of a pure subspace with their
    fibers, plus the irreducible (degree >= 2) part of the core spectrum."""
    if not maximal_pq(u).is_zero():
        raise StructureError("spectrum needs a pure subspace; strip U0 first")
    if u.dim == 0:
        return PencilSpectrum((), ())
    h = find_transversal_direction(u)
    if h is None:
        raise StructureError(
            "not a graph subspace: every direction has a nonzero fiber, "
            "so the decomposable spectrum is not a finite list"
        )
    form = injectivize(to_uft(u, transversal_basis(h)))
    core, t_core = invariant_core(form)
    lines = []
    blocks = []
    if core.dim:
        _, factors = factor(t_core.charpoly())
        for poly, _mult in factors:
            ker = poly_eval_matrix(poly, t_core).kernel()
            fiber_rows = []
            for combo in ker.rows:
                x = [F0] * core.ambient
                for coef, row in zip(combo, core.mat.rows):
                    if coef != 0:
                        for j, val in enumerate(row):
                            x[j] += coef * val
                fiber_rows.append(tuple(x))
            fiber = Subspace.span(fiber_rows, core.ambient)
            if poly_deg(poly) == 1:
                lam = -poly[0]
                direction = normalize_direction(
                    _std_direction(form.h_basis, (F1, lam))
                )
                lines.append(SpectralLine(direction, fiber))
            else:
                blocks.append(IrreducibleBlock(tuple(poly), fiber))
    lines.sort(key=lambda l: l.direction)
    blocks.sort(key=lambda b: b.coeffs)
    return PencilSpectrum(tuple(lines), tuple(blocks))


def induced_g_f(ms: ModelSpace, u: UFTForm) -> Mat:
    """Pullback metric g_F(f, f') = -[omega(Tf, f') + omega(Tf', f)] on the
    canonical basis of F."""
    b = u.f_space.mat.T  # columns are the basis of F
    c = u.t_map.T @ ms.omega @ b
    return -(c + c.T)


# -- the two decomposition normal forms -------------------------------------


@dataclass(frozen=True)
class DecomposablePiece:
    """A summand h (x) F' of purely decomposable vectors."""

    direction: tuple
    e_space: Subspace

    def span(self) -> Subspace:
        return decomposable_subspace(self.direction, self.e_space)


@dataclass(frozen=True)
class Form1:
    piece: DecomposablePiece | None
    graph: UFTForm


@dataclass(frozen=True)
class Form2:
    pieces: tuple
    graph: UFTForm


def minimal_fiber_direction(u: Subspace):
    """A direction h whose fiber {e : h (x) e in U} has the smallest
    possible dimension, found by a sweep.

    The fiber is the kernel of a 2-parameter matrix pencil, so its
    dimension exceeds the generic value on at most rank <= dim E special
    directions; sweeping dim E + dim U + 2 pairwise independent
    candidates therefore always sees a generic one.
    """
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
    if best_fiber.dim > 0:
        fib = h_fiber(u, (F1, F0))
        if fib.dim < best_fiber.dim:
            best, best_fiber = (F1, F0), fib
    return best, best_fiber


def _empty_form(dim_e: int) -> UFTForm:
    return UFTForm(
        HBasisChange.identity(),
        Subspace.zero(dim_e),
        Mat(tuple(() for _ in range(dim_e)), ncols=0),
    )


def decompose_form1(u: Subspace) -> Form1:
    """U = (h (x) F') (+) U^{F'', T''} with the graph part of maximal
    dimension among all graph subspaces of U.

    For any direction h, a complement of h (x) fiber(h) inside U meets
    h (x) E trivially, hence is a graph over a basis with h second; its
    dimension is maximal exactly when the fiber of h has minimal
    dimension, so h is taken generic for the fiber pencil.
    """
    dim_e = u.ambient // 2
    if u.dim == 0:
        return Form1(None, _empty_form(dim_e))
    h, fib = minimal_fiber_direction(u)
    basis = transversal_basis(h)
    if fib.dim == 0:
        return Form1(None, to_uft(u, basis))
    piece = DecomposablePiece(normalize_direction(h), fib)
    rest = piece.span().complement_in(u)
    graph = to_uft(rest, basis)
    if not direct_sum_is(u, [piece.span(), rest]):
        raise AssertionError("form 1 does not recompose")
    return Form1(piece, graph)


def clean_complement(u: Subspace, u0: Subspace, e0: Subspace) -> Subspace:
    """A complement of U0 = H (x) E0 inside U whose vectors have no E0
    components at all (each one is reduced modulo U0)."""
    comp = u0.complement_in(u)
    dim_e = u.ambient // 2
    rows = []
    for r in comp.mat.rows:
        e, ep = r[:dim_e], r[dim_e:]
        rows.append(tuple(e0.reduce(e)) + tuple(e0.reduce(ep)))
    cleaned = Subspace.span(rows, u.ambient)
    if cleaned.dim != comp.dim:
        raise AssertionError("cleaning collapsed the complement")
    return cleaned


def _eigenfree_inside(groups):
    """A subspace of A1 (+) ... (+) As of dimension sum(dim Ai, i >= 2)
    containing no nonzero vector of any single Ai.  Groups must be sorted
    by descending dimension."""
    ambient = groups[0].ambient
    if len(groups) <= 1:
        return Subspace.zero(ambient)
    a1 = groups[0]
    b = Subspace.zero(ambient)
    for g in groups[1:]:
        b = b.sum(g)
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


def _graph_over(form: UFTForm, sub: Subspace) -> Subspace:
    """The part of the graph lying over a subspace of F."""
    rows = []
    for f in sub.mat.rows:
        rows.append(form.h_basis.assemble(f, form.apply_t(f)).coords)
    return Subspace.span(rows, 2 * form.dim_e)


def _lift_combo_rows(combos: Mat, space: Subspace) -> Subspace:
    rows = []
    for combo in combos.rows:
        x = [F0] * space.ambient
        for coef, row in zip(combo, space.mat.rows):
            if coef != 0:
                for j, val in enumerate(row):
                    x[j] += coef * val
        rows.append(tuple(x))
    return Subspace.span(rows, space.ambient)


def _form2_graph(form: UFTForm):
    """Split a graph subspace into eigen-direction pieces and a
    decomposable-free part of maximal dimension.

    The largest fiber becomes the single decomposable piece; every other
    eigenspace is twisted into the complement, which stays free of
    eigenvectors by the recursive pairing construction."""
    inj = injectivize(form)
    core, t_core = invariant_core(inj)
    dim_e = form.dim_e
    if core.is_zero():
        return [], form.span()
    eigens = []
    _, factors = factor(t_core.charpoly())
    for poly, _mult in factors:
        if poly_deg(poly) != 1:
            continue
        lam = -poly[0]
        fiber = _lift_combo_rows(poly_eval_matrix(poly, t_core).kernel(), core)
        direction = normalize_direction(_std_direction(inj.h_basis, (F1, lam)))
        eigens.append((fiber, direction))
    if not eigens:
        return [], form.span()
    eigens.sort(key=lambda fd: (-fd[0].dim, fd[1]))
    top_fiber, top_dir = eigens[0]
    groups = [fd[0] for fd in eigens]
    free_part = _eigenfree_inside(groups)
    all_eigen = Subspace.zero(dim_e)
    for g in groups:
        all_eigen = all_eigen.sum(g)
    rest = all_eigen.complement_in(inj.f_space)
    s_space = free_part.sum(rest)
    return [DecomposablePiece(top_dir, top_fiber)], _graph_over(inj, s_space)


def _form2_pure(x: Subspace):
    """Pieces and decomposable-free part for a pure subspace (which need
    not be a graph: a minimal-fiber piece is split off first if not)."""
    if x.dim == 0:
        return [], x
    h, fib = minimal_fiber_direction(x)
    if fib.dim == 0:
        return _form2_graph(to_uft(x, transversal_basis(h)))
    piece = DecomposablePiece(normalize_direction(h), fib)
    rest = piece.span().complement_in(x)
    sub_pieces, tilde = _form2_graph(to_uft(rest, transversal_basis(h)))
    return [piece] + sub_pieces, tilde


def decompose_form2(u: Subspace) -> Form2:
    """U = k1 (x) F1 (+) ... (+) ks (x) Fs (+) U^{F~, T~} with pairwise
    independent directions and a last addend free of (rational)
    decomposable vectors; for graph subspaces the last addend has the
    maximal possible dimension (dim U minus the largest fiber)."""
    dim_v = u.ambient
    dim_e = dim_v // 2
    u0 = maximal_pq(u)
    e0 = p1p2(u0)[0]
    if u0.is_zero():
        u_prime = u
    else:
        u_prime = clean_complement(u, u0, e0)
    pieces, tilde = _form2_pure(u_prime)
    used_dirs = [p.direction for p in pieces]
    graph_parts = [tilde] if tilde.dim else []
    if not u0.is_zero():
        # a line has no automorphism without eigenvalues, so a 1-dimensional
        # E0 splits into two decomposable pieces; otherwise one piece plus
        # the graph of a rational-eigenvalue-free automorphism of E0
        n_fresh = 2 if e0.dim == 1 else 1
        fresh = []
        for cand in _direction_candidates():
            nd = normalize_direction(cand)
            if all(not _parallel(nd, d) for d in used_dirs + fresh):
                fresh.append(nd)
                if len(fresh) == n_fresh:
                    break
        for nd in fresh:
            pieces.append(DecomposablePiece(nd, e0))
        used_dirs.extend(fresh)
        if e0.dim > 1:
            t0 = _no_rational_eigenvalue_map(e0.dim)
            rows = []
            for i, f in enumerate(e0.mat.rows):
                img = [F0] * dim_e
                for jj, coef in enumerate(t0.col(i)):
                    if coef != 0:
                        for jdx, val in enumerate(e0.mat.rows[jj]):
                            img[jdx] += coef * val
                vec = tensor((1, 0), f) + tensor((0, 1), img)
                rows.append(vec.coords)
            graph_parts.append(Subspace.span(rows, dim_v))
    tilde = Subspace.zero(dim_v)
    for g in graph_parts:
        tilde = tilde.sum(g)
    if tilde.is_zero():
        graph = UFTForm(
            HBasisChange.identity(),
            Subspace.zero(dim_e),
            Mat(tuple(() for _ in range(dim_e)), ncols=0),
        )
    else:
        ht = find_transversal_direction(tilde)
        if ht is None:
            raise AssertionError("form 2 residue is not a graph subspace")
        graph = to_uft(tilde, transversal_basis(ht))
    parts = [p.span() for p in pieces] + ([tilde] if not tilde.is_zero() else [])
    if not direct_sum_is(u, parts):
        raise AssertionError("form 2 does not recompose")
    if not tilde.is_zero():
        spec = decomposable_spectrum(tilde)
        if spec.lines:
            raise AssertionError("form 2 residue still has decomposable vectors")
    return Form2(tuple(pieces), graph)


def _direction_candidates():
    yield (F0, F1)
    t = 0
    while True:
        yield (F1, Fraction(t))
        t += 1


def _parallel(d1, d2) -> bool:
    return d1[0] * d2[1] - d1[1] * d2[0] == 0

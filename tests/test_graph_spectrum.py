"""One spectral pass per graph form against the code it replaced.

``uft.graph_spectrum`` is the one place that injectivizes a graph form,
takes the invariant core W* and attaches to each irreducible factor q of
T on W* its kernel; ``polyq.minimal_polynomial`` returns the irreducible
factors alone, with no exponent; and
``uft.find_transversal_direction`` is the one direction search.  Each ``ref_*`` function below is the earlier
implementation; every new path must agree with it exactly, for
non-injective T, repeated factors, irreducible quadratic blocks and
entries of 100 digits.
"""

import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from reference import t_is_injective
from test_graph_maps import entry_kinds, graph_forms, low_rank
from test_model import h_basis_changes, huge_entries

import pqh.polyq
from pqh.classify import generic_decompose
from pqh.generate import generate
from pqh.linalg import F0, F1, Mat
from pqh.model import HBasisChange
from pqh.polyq import (
    factor,
    minimal_polynomial,
    poly_deg,
    poly_eval_matrix,
    poly_mul,
    poly_pow,
)
from pqh.rng import Rng
from pqh.subspace import Subspace, decomposable_subspace, h_fiber, span_of
from pqh.uft import (
    UFTForm,
    _std_direction,
    find_transversal_direction,
    graph_spectrum,
    injectivize,
    invariant_core,
    poly_fiber,
    to_uft,
)

# -- the replaced code, kept as references -------------------------------------


def ref_minimal_polynomial(A):
    """The expanded minimal polynomial the old ``minimal_polynomial`` returned."""
    if A.nrows == 0:
        return (F1,)
    _, factors = factor(A.charpoly())
    m = (F1,)
    for q, mult in factors:
        e = 1
        while e < mult:
            Pe = poly_eval_matrix(poly_pow(q, e), A)
            if Pe.kernel().nrows == mult * poly_deg(q):
                break
            e += 1
        m = poly_mul(m, poly_pow(q, e))
    return m


def ref_find_transversal_direction(u):
    for t in range(u.dim + 1):
        h = (Fraction(t), F1)
        if h_fiber(u, h).is_zero():
            return h
    h = (F1, F0)
    if h_fiber(u, h).is_zero():
        return h
    return None


def ref_injectivize(u):
    """The old two-loop search for a new h2 and a new h1."""
    if t_is_injective(u):
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
    out = to_uft(u.span(), u.h_basis.compose(HBasisChange(cols)))
    if not t_is_injective(out):
        raise AssertionError("injectivization produced a non-injective T")
    return out


def ref_graph_spectrum(form):
    """The pipeline each reader carried: factor the core charpoly, then
    take the kernel of every factor."""
    inj = ref_injectivize(form)
    core, t_core = invariant_core(inj)
    if core.is_zero():
        return inj, ()
    _, factors = factor(t_core.charpoly())
    return inj, tuple((q, poly_fiber(core, t_core, q)) for q, _mult in factors)


# -- strategies ------------------------------------------------------------------

# x^2 + 1, x^2 - 2, x^2 + x + 1, x^2 - x + 3, as (c0, c1) of x^2 + c1 x + c0
QUADRATICS = ((1, 0), (-2, 0), (1, 1), (3, -1))
# 0 makes T singular; 1, 2 and 1/2 put decomposable directions on the
# candidates of both direction searches
EIGENVALUES = (0, 1, 2, -1, Fraction(1, 2))


@st.composite
def block_matrices(draw, max_size, eigenvalues=EIGENVALUES, quadratics=True):
    """A block-diagonal matrix of Jordan blocks and companion matrices of
    irreducible quadratics, of size max_size.  Eigenvalues come from a
    short list, so factors repeat across and within blocks."""
    blocks = []
    size = 0
    while size < max_size:
        if quadratics and max_size - size >= 2 and draw(st.booleans()):
            c0, c1 = draw(st.sampled_from(QUADRATICS))
            block = [[0, -c0], [1, -c1]]
        else:
            lam = draw(st.sampled_from(eigenvalues))
            k = draw(st.integers(1, max_size - size))
            block = [[lam if j == i else int(j == i + 1) for j in range(k)] for i in range(k)]
        blocks.append(block)
        size += len(block)
    rows = [[0] * size for _ in range(size)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            rows[at + i][at : at + len(row)] = row
        at += len(block)
    return Mat(rows)


@st.composite
def conjugated(draw, b, entries):
    """P^-1 B P for a unipotent P = L U with entries of the given kind."""
    k = b.nrows
    lower = [[1 if i == j else draw(entries) if j < i else 0 for j in range(k)] for i in range(k)]
    upper = [[1 if i == j else draw(entries) if j > i else 0 for j in range(k)] for i in range(k)]
    p = Mat(lower, ncols=k) @ Mat(upper, ncols=k)
    return p.inverse() @ b @ p


@st.composite
def spectral_forms(draw):
    """Graph forms whose T maps F into itself by a conjugated block matrix
    (Jordan blocks, zero eigenvalues, irreducible quadratics); a third of
    them also send F partly out of itself by a low-rank term, so that the
    core is smaller than F."""
    entries = draw(entry_kinds)
    dim_e = 2 * draw(st.integers(1, 3))
    m = draw(st.integers(1, dim_e))
    f_space = Subspace(draw(low_rank(m, dim_e, entries)))
    if f_space.dim == 0:
        f_space = Subspace.full(dim_e)
    m = f_space.dim
    t_f = draw(conjugated(draw(block_matrices(m)), entries))
    t_map = f_space.mat.T @ t_f
    if draw(st.integers(0, 2)) == 0:
        t_map = t_map + draw(low_rank(dim_e, m, entries))
    basis = draw(h_basis_changes()) if draw(st.booleans()) else HBasisChange.identity()
    return UFTForm(basis, f_space, t_map.T)


any_forms = st.one_of(spectral_forms(), graph_forms().map(lambda fe: fe[0]))


@st.composite
def subspaces_with_lines(draw):
    """Sums of decomposable pieces h (x) E' along candidate directions of
    the searches, plus a random part; often not a graph subspace."""
    entries = draw(entry_kinds)
    dim_e = 2 * draw(st.integers(1, 3))
    directions = [(0, 1), (1, 1), (2, 1), (1, 0), (1, 2), (Fraction(1, 2), 1)]
    parts = [
        decomposable_subspace(
            draw(st.sampled_from(directions)),
            Subspace(draw(low_rank(draw(st.integers(1, 2)), dim_e, entries))),
        )
        for _ in range(draw(st.integers(1, 3)))
    ]
    parts.append(Subspace(draw(low_rank(draw(st.integers(0, 3)), 2 * dim_e, entries))))
    return span_of(parts, 2 * dim_e)


REF = settings(max_examples=80, deadline=None)


# -- the factors of the minimal polynomial ------------------------------------------


@st.composite
def square_matrices(draw):
    """Rank-deficient matrices, conjugated nilpotent Jordan matrices and
    dense matrices with 100-digit entries."""
    kind = draw(st.sampled_from(["low_rank", "nilpotent", "blocks", "huge"]))
    k = draw(st.integers(0, 4))
    if kind == "low_rank":
        return draw(low_rank(k, k, draw(entry_kinds)))
    if kind == "huge":
        return Mat([[draw(huge_entries) for _ in range(k)] for _ in range(k)], ncols=k)
    zeros_only = kind == "nilpotent"
    if k == 0:
        return Mat((), ncols=0)
    b = draw(
        block_matrices(k, eigenvalues=(0,) if zeros_only else EIGENVALUES, quadratics=not zeros_only)
    )
    return draw(conjugated(b, draw(entry_kinds)))


@REF
@given(square_matrices())
def test_minimal_polynomial_is_the_irreducible_factors_of_the_reference(a):
    assert minimal_polynomial(a) == tuple(q for q, _e in factor(ref_minimal_polynomial(a))[1])


def test_minimal_polynomial_of_a_nilpotent_jordan_block():
    # the minimal polynomial x^3 has the one factor x
    n3 = Mat(((0, 1, 0), (0, 0, 1), (0, 0, 0)))
    assert minimal_polynomial(n3) == ((0, 1),)
    assert minimal_polynomial(Mat((), ncols=0)) == ()


# -- the spectrum of a graph form -------------------------------------------------


@REF
@given(any_forms)
def test_graph_spectrum_matches_the_old_pipeline(form):
    assert graph_spectrum(form) == ref_graph_spectrum(form)


def test_graph_spectrum_of_a_jordan_block_and_a_quadratic():
    # T = J_2(1) (+) companion(x^2 + 1) on F = E = Q^4, over the standard basis
    t = Mat(((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)))
    form = UFTForm(HBasisChange.identity(), Subspace.full(4), t.T)
    inj, parts = graph_spectrum(form)
    assert inj == form
    e = Mat.identity(4).rows
    assert parts == (
        ((-1, 1), Subspace.span([e[0]], 4)),
        ((1, 0, 1), Subspace.span([e[2], e[3]], 4)),
    )


# -- the one direction search -------------------------------------------------------


@REF
@given(st.one_of(subspaces_with_lines(), any_forms.map(UFTForm.span)))
def test_find_transversal_direction_matches_the_old_loop(u):
    assert find_transversal_direction(u) == ref_find_transversal_direction(u)


@REF
@given(any_forms)
def test_injectivize_matches_the_old_two_loop_search(form):
    assert injectivize(form) == ref_injectivize(form)


def test_injectivize_skips_decomposable_candidates():
    # T = diag(0, 1) over E = Q^2: h1 and h1 + h2 carry decomposable
    # vectors, so h1 moves to h1 + 2 h2
    form = UFTForm(HBasisChange.identity(), Subspace.full(2), Mat(((0, 0), (0, 1))).T)
    out = injectivize(form)
    assert out.h_basis == HBasisChange.from_columns((1, 2), (0, 1))
    assert out == ref_injectivize(form)


# -- factorizations per decomposition -------------------------------------------------


def test_generic_decompose_factors_the_core_once(monkeypatch):
    calls = []

    def counting_factor(p):
        calls.append(p)
        return factor(p)

    for name, module in list(sys.modules.items()):
        if name.startswith("pqh") and getattr(module, "factor", None) is factor:
            monkeypatch.setattr(module, "factor", counting_factor)
    assert pqh.polyq.factor is counting_factor
    generic_decompose(generate(Rng(1), 6, "generic", 12))
    assert len(calls) == 1

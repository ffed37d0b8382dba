"""Graph pieces cut out of U by one kernel, against the code that rebuilt them.

``uft.graph_over`` takes the h1 components of U's basis rows into a
subspace of F, ``uft.pq_split``'s U' is U ^ (H (x) C) for the complement C
of E0, and ``uft.injectivize`` reads each fiber {f : Tf = s f} off the
rows of T as one kernel.  Each ``ref_*`` function below is a copy of the
code it replaced, which built graph rows or a span and eliminated them
again; every new path must agree with it exactly, for zero, rank-one and
non-injective T, twisted bases and entries of about 100 bits.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from reference import graph_rows, t_is_injective, twist_h_rows
from test_graph_maps import bits100, dense, entry_kinds, graph_forms, small_entries, subspaces_of
from test_kernel_in import split_instances
from test_rank_certificates import model_subspaces

from pqh.generate import random_sl2
from pqh.linalg import F0, F1, Mat, _int_row, frac_row
from pqh.model import HBasisChange
from pqh.rng import Rng
from pqh.subspace import Subspace, h_fiber, maximal_pq, p1
from pqh.uft import (
    UFTForm,
    _no_rational_eigenvalue_map,
    _std_direction,
    decompose_form2,
    graph_over,
    injectivize,
    pq_split,
    subspace_spectrum,
    to_uft,
)

# -- the replaced code, kept as references -------------------------------------


def ref_graph_over(form, sub):
    """The graph over a subspace of F, rebuilt from its graph rows."""
    return Subspace(graph_rows(form, sub))


def clean_complement(u, u0, e0):
    """A complement of U0 = H (x) E0 inside U whose vectors have no E0
    components at all (each one is reduced modulo U0)."""
    comp = u0.complement_in(u)
    dim_e = u.ambient // 2
    rows = []
    for r in comp.mat.rows:
        e, ep = r[:dim_e], r[dim_e:]
        rows.append(frac_row(*e0.reduce_int(*_int_row(e))) + frac_row(*e0.reduce_int(*_int_row(ep))))
    cleaned = Subspace.span(rows, u.ambient)
    if cleaned.dim != comp.dim:
        raise AssertionError("cleaning collapsed the complement")
    return cleaned


def ref_pq_split(u):
    u0 = maximal_pq(u)
    e0 = p1(u0)
    return u0, e0, (u if u0.is_zero() else clean_complement(u, u0, e0))


def ref_first_transversal(u, basis, candidates):
    if u.dim > u.ambient // 2:
        return None
    for h in candidates:
        if h_fiber(u, _std_direction(basis, h)).is_zero():
            return h
    return None


def ref_injectivize(u):
    """The search over the span of the graph, after an injectivity test."""
    if t_is_injective(u):
        return u
    span = u.span()
    h1_new = ref_first_transversal(
        span, u.h_basis, [(F1, Fraction(s)) for s in range(span.dim + 2)]
    )
    if h1_new is None:
        raise AssertionError("injective presentation search failed")
    out = to_uft(span, u.h_basis.compose(HBasisChange.from_columns(h1_new, (F0, F1))))
    if not t_is_injective(out):
        raise AssertionError("injectivization produced a non-injective T")
    return out


# -- strategies ------------------------------------------------------------------

REF = settings(max_examples=60, deadline=None)

sl2_bases = st.integers(0, 2**32).map(lambda seed: random_sl2(Rng(seed)))
bases = st.just(HBasisChange.identity()) | sl2_bases


@st.composite
def subs_of(draw, space, entries):
    """0, the whole of ``space``, or a random subspace of it."""
    kind = draw(st.sampled_from(["zero", "all", "random"]))
    if kind == "zero":
        return Subspace.zero(space.ambient)
    if kind == "all":
        return space
    return draw(subspaces_of(space, entries))


@st.composite
def eigen_forms(draw):
    """T mapping F into itself as P diag(d) P^-1 with each d_i in
    0, 1, ..., dim F, so that the fibers of s = 0, 1, ... are often
    nonzero and the search goes past them."""
    entries = draw(entry_kinds)
    dim_e = 2 * draw(st.integers(1, 3))
    m = draw(st.integers(1, dim_e))
    f_space = Subspace(draw(dense(m, dim_e, entries)))
    m = f_space.dim
    if m == 0:
        return UFTForm(draw(bases), f_space, Mat((), ncols=dim_e))
    d = [draw(st.integers(0, m)) for _ in range(m)]
    diag = Mat([[d[i] if i == j else 0 for j in range(m)] for i in range(m)], ncols=m)
    # unit lower times unit upper triangular: always invertible
    low = [[F1 if i == j else (draw(entries) if j < i else F0) for j in range(m)] for i in range(m)]
    up = [[F1 if i == j else (draw(entries) if j > i else F0) for j in range(m)] for i in range(m)]
    p = Mat(low, ncols=m) @ Mat(up, ncols=m)
    t_on_f = p @ diag @ p.inverse()
    return UFTForm(draw(bases), f_space, t_on_f.T @ f_space.mat)


@st.composite
def twisted_graph_forms(draw):
    """The graph forms of ``test_graph_maps`` with the basis redrawn as the
    identity or a ``random_sl2`` change, and their entry strategy."""
    form, entries = draw(graph_forms())
    return UFTForm(draw(bases), form.f_space, form.t_cols), entries


# -- graph_over ------------------------------------------------------------------


@REF
@given(st.data())
def test_graph_over_matches_the_graph_rows(data):
    form, entries = data.draw(twisted_graph_forms())
    sub = data.draw(subs_of(form.f_space, entries))
    assert graph_over(form.span(), form.h_basis, sub) == ref_graph_over(form, sub)


@REF
@given(st.data())
def test_graph_over_with_100_bit_entries(data):
    form = data.draw(eigen_forms())
    sub = data.draw(subs_of(form.f_space, data.draw(st.sampled_from([bits100, small_entries]))))
    assert graph_over(form.span(), form.h_basis, sub) == ref_graph_over(form, sub)


# -- pq_split --------------------------------------------------------------------


@REF
@given(model_subspaces() | split_instances().map(lambda inst: inst[1]))
def test_pq_split_matches_clean_complement(u):
    got = pq_split(u)
    assert got == ref_pq_split(u)
    if got[0].is_zero():
        # the spectrum memo of U is read through U'
        assert got[2] is u


# -- injectivize -----------------------------------------------------------------


@REF
@given(st.one_of(eigen_forms(), twisted_graph_forms().map(lambda fe: fe[0])))
def test_injectivize_matches_the_span_search(form):
    ref = ref_injectivize(form)
    out = injectivize(form)
    assert (out.h_basis, out.f_space, out.t_map) == (ref.h_basis, ref.f_space, ref.t_map)
    if ref is form:
        assert out is form


# -- form 2 keeps the U' it holds --------------------------------------------------


def test_form2_of_a_graph_without_rational_eigenvalues_builds_no_span(monkeypatch):
    # the graph of a rotation-like T over all of E, twisted: U has no
    # decomposable vector, so form 2 has no pieces and its residue is U
    n = 2
    t_map = _no_rational_eigenvalue_map(2 * n)
    graph = UFTForm(HBasisChange.identity(), Subspace.full(2 * n), t_map.T).span()
    u = twist_h_rows(graph, random_sl2(Rng(5)))
    calls = []
    span = UFTForm.span

    def counting_span(self):
        calls.append(self)
        return span(self)

    monkeypatch.setattr(UFTForm, "span", counting_span)
    form2 = decompose_form2(u)
    assert calls == []
    # the residue is U itself, so its graph form is the one in U's memo
    assert form2.pieces == () and form2.graph is subspace_spectrum(u)[0]

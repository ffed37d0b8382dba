"""Whole-basis graph maps against the per-row code they replaced.

T acts on all basis rows of a subspace W of F by one product
(``UFTForm.t_rows``), coordinate rows move between the standard basis and
an H-basis by one call (``conftest.to_basis`` / ``reference.from_basis``), and
``HBasisChange.conjugate`` is the one conjugation s m s^-1.  Each ``ref_*``
function below is the earlier per-row implementation; every new path must
agree with it exactly, for non-injective T, rank-deficient W and entries
of about 100 bits.  ``invariant_core``, whose callers pass an injective T,
is checked on injective presentations only, also against the version that
started its fixpoint at F ^ TF (``reference.invariant_core``).
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import to_basis
from reference import from_basis, operator_from_mat2, traceless_entries, twist_h_rows
from reference import invariant_core as f_cap_tf_invariant_core
from test_model import h_basis_changes

from pqh.classify import operator_in_basis
from pqh.generate import KINDS, generate
from pqh.linalg import F0, Mat, _int_row, frac_row
from pqh.model import MAT_I, MAT_J, MAT_K, HBasisChange, Operator
from pqh.rng import Rng
from pqh.subspace import Subspace, p1
from pqh.uft import UFTForm, graph_form, graph_over, injectivize, invariant_core, pq_split

# -- the per-row code, kept as references -------------------------------------


def ref_apply_t(form, f):
    """The deleted ``UFTForm.apply_t``: T of one vector of F."""
    return form.t_map.mul_vec(form.f_space.coordinates_of(f))


def ref_t_on_subspace(form, w):
    cols = [w.coordinates_of(ref_apply_t(form, row)) for row in w.mat.rows]
    return Mat.from_cols(cols, nrows=w.dim)


def ref_invariant_core(form):
    w = form.f_space.intersect(form.t_image())
    while not w.is_zero():
        images = [ref_apply_t(form, row) for row in w.mat.rows]
        pivset = set(w.pivots)
        free = [j for j in range(w.ambient) if j not in pivset]
        qrows = [tuple(frac_row(*w.reduce_int(*_int_row(img)))[j] for j in free) for img in images]
        w_new = Subspace(Mat(qrows, ncols=len(free)).T.kernel() @ w.mat)
        if w_new == w:
            break
        w = w_new
    return w, ref_t_on_subspace(form, w)


def _blocks(m, half):
    """[[p I, r I], [q I, t I]] for m = [[p, q], [r, t]], so that a row
    (e, e') times it is (p e + q e', r e + t e')."""
    (p, q), (r, t) = m.rows
    top = Mat.scalar(half, p).hstack(Mat.scalar(half, r))
    bottom = Mat.scalar(half, q).hstack(Mat.scalar(half, t))
    return Mat._of(top.rows + bottom.rows, top.ncols)


def ref_from_basis(s, rows, half):
    return list((Mat(rows, ncols=2 * half) @ _blocks(s.mat, half)).rows)


def ref_to_basis(s, rows, half):
    return list((Mat(rows, ncols=2 * half) @ _blocks(s.mat.inverse(), half)).rows)


def ref_graph_over(form, sub):
    rows = [f + ref_apply_t(form, f) for f in sub.mat.rows]
    return Subspace.span(ref_from_basis(form.h_basis, rows, form.dim_e), 2 * form.dim_e)


def ref_graph_basis(form):
    rows = [f + tf for f, tf in zip(form.f_space.mat.rows, form.t_map.cols)]
    return Mat(ref_from_basis(form.h_basis, rows, form.dim_e), ncols=2 * form.dim_e)


def ref_p1p2(u, s):
    half = u.ambient // 2
    comps = ref_to_basis(s, u.mat.rows, half)
    return (
        Subspace.span([c[:half] for c in comps], half),
        Subspace.span([c[half:] for c in comps], half),
    )


def ref_conjugate(s, m):
    """The deleted ``classify._conjugated_operator``."""
    return operator_from_mat2(s.mat @ m @ s.mat.inverse())


# -- strategies ------------------------------------------------------------------

small_entries = st.fractions(min_value=-20, max_value=20, max_denominator=12)
bits100 = st.builds(Fraction, st.integers(-(2**100), 2**100), st.integers(1, 2**100))
entry_kinds = st.sampled_from([small_entries, bits100])


@st.composite
def dense(draw, nrows, ncols, entries):
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    return Mat(rows, ncols=ncols)


@st.composite
def low_rank(draw, nrows, ncols, entries):
    """Zero, rank at most one, or dense."""
    kind = draw(st.sampled_from(["zero", "rank1", "dense"]))
    if kind == "zero" or not nrows or not ncols:
        return Mat(((0,) * ncols,) * nrows, ncols=ncols)
    if kind == "rank1":
        return draw(dense(nrows, 1, entries)) @ draw(dense(1, ncols, entries))
    return draw(dense(nrows, ncols, entries))


@st.composite
def subspaces_of(draw, space, entries):
    """A subspace of ``space`` spanned by up to dim + 1 combinations of its
    basis, so often rank-deficient, sometimes zero."""
    k = draw(st.integers(0, space.dim + 1))
    return Subspace(draw(low_rank(k, space.dim, entries)) @ space.mat)


@st.composite
def graph_forms(draw):
    """Graph forms with T zero, of rank one, mapping F into itself (so the
    invariant core is large) or arbitrary; F itself may come from
    dependent rows."""
    entries = draw(entry_kinds)
    dim_e = 2 * draw(st.integers(1, 3))
    f_space = Subspace(draw(low_rank(draw(st.integers(0, dim_e)), dim_e, entries)))
    m = f_space.dim
    if draw(st.booleans()):
        t_map = f_space.mat.T @ draw(low_rank(m, m, entries))
    else:
        t_map = draw(low_rank(dim_e, m, entries))
    basis = draw(h_basis_changes()) if draw(st.booleans()) else HBasisChange.identity()
    return UFTForm(basis, f_space, t_map), entries


REF = settings(max_examples=80, deadline=None)


# -- T on whole bases ----------------------------------------------------------


@REF
@given(st.data())
def test_t_rows_and_t_on_subspace_match_per_row_reference(data):
    form, entries = data.draw(graph_forms())
    w = data.draw(subspaces_of(form.f_space, entries))
    assert form.t_rows(w).rows == tuple(ref_apply_t(form, r) for r in w.mat.rows)
    try:
        expected = ref_t_on_subspace(form, w)
    except ValueError:
        with pytest.raises(ValueError, match="not in the subspace"):
            form.t_on_subspace(w)
    else:
        assert form.t_on_subspace(w) == expected
    core = ref_invariant_core(form)[0]
    assert form.t_on_subspace(core) == ref_t_on_subspace(form, core)


@REF
@given(st.data())
def test_t_rows_rejects_rows_outside_f(data):
    form, entries = data.draw(graph_forms())
    v = tuple(data.draw(st.lists(entries, min_size=form.dim_e, max_size=form.dim_e)))
    w = Subspace.span([v], form.dim_e)
    if form.f_space.contains(w):
        return
    with pytest.raises(ValueError, match="not in the subspace"):
        ref_apply_t(form, w.mat.rows[0])
    with pytest.raises(ValueError, match="not in the subspace"):
        form.t_rows(w)


@REF
@given(st.data())
def test_invariant_core_matches_per_row_reference(data):
    form = injectivize(data.draw(graph_forms())[0])
    assert invariant_core(form) == ref_invariant_core(form)


def test_invariant_core_shrinks_over_several_steps():
    # F = <e1, e2, e3, e5> in Q^6, T: e1 -> e2 -> e3 -> e4 and e5 -> 2 e5;
    # W0 = <e2, e3, e5>, W1 = <e2, e5>, W2 = <e5> = W*
    e = Mat.identity(6).rows
    f_space = Subspace.span([e[0], e[1], e[2], e[4]], 6)
    t_map = Mat.from_cols([e[1], e[2], e[3], tuple(2 * x for x in e[4])], nrows=6)
    form = UFTForm(HBasisChange(Mat(((1, 2), (0, 1)))), f_space, t_map)
    core, t_core = invariant_core(form)
    assert (core, t_core) == ref_invariant_core(form)
    assert core == Subspace.span([e[4]], 6) and t_core == Mat(((2,),))
    assert (core, t_core) == f_cap_tf_invariant_core(form)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=10, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_invariant_core_from_f_matches_the_start_at_f_cap_tf(kind, n, seed):
    """On the injective presentation of the graph form of U' (U itself when
    U0 = 0) of generated instances of every kind."""
    form = graph_form(pq_split(generate(Rng(seed), n, kind))[2])
    assume(form is not None)
    inj = injectivize(form)
    assert invariant_core(inj) == f_cap_tf_invariant_core(inj)


@REF
@given(st.data())
def test_graph_over_and_graph_basis_match_per_row_reference(data):
    form, entries = data.draw(graph_forms())
    sub = data.draw(subspaces_of(form.f_space, entries))
    assert graph_over(form.span(), form.h_basis, sub) == ref_graph_over(form, sub)
    assert tuple(frac_row(*r) for r in form.graph_rows()) == ref_graph_basis(form).rows
    assert form.span() == Subspace(ref_graph_basis(form))


# -- the H-basis rewrite ---------------------------------------------------------


@REF
@given(st.data())
def test_to_basis_and_from_basis_match_block_products(data):
    s = data.draw(h_basis_changes())
    entries = data.draw(entry_kinds)
    half = data.draw(st.integers(1, 4))
    mat = data.draw(low_rank(data.draw(st.integers(0, 5)), 2 * half, entries))
    rows = mat.rows
    to, back = to_basis(s, rows), from_basis(s, rows)
    assert to == ref_to_basis(s, rows, half)
    assert back == ref_from_basis(s, rows, half)
    assert all(type(x) is Fraction for r in to + back for x in r)
    assert from_basis(s, to) == list(rows)
    u = Subspace(mat)
    comps = to_basis(s, u.mat.rows)
    swapped = [c[half:] + c[:half] for c in comps]
    ref1, ref2 = ref_p1p2(u, s)
    assert p1(Subspace.span(comps, 2 * half)) == ref1
    assert p1(Subspace.span(swapped, 2 * half)) == ref2
    assert twist_h_rows(u, s) == Subspace(u.mat @ _blocks(s.mat, half))


def test_to_basis_accepts_int_rows():
    s = HBasisChange(Mat(((2, 1), (1, 1))))
    assert to_basis(s, [(1, 0, 0, 1)]) == [(1, -1, -1, 2)]
    assert from_basis(s, [(1, -1, -1, 2)]) == [(1, 0, 0, 1)]
    assert to_basis(s, []) == [] and from_basis(s, []) == []
    assert to_basis(s, [(F0, F0)]) == [(F0, F0)]


# -- one conjugation ----------------------------------------------------------------


@REF
@given(st.data())
def test_conjugate_matches_inverse_by_elimination(data):
    s = data.draw(h_basis_changes())
    entries = data.draw(entry_kinds)
    a, b, c = (data.draw(entries) for _ in range(3))
    m = Mat(((a, b), (c, -a)))
    assert s.conjugate(*traceless_entries(m)) == ref_conjugate(s, m)
    for x in (MAT_I, MAT_J, MAT_K):
        assert s.conjugate(*traceless_entries(x)) == ref_conjugate(s, x)
    assert operator_in_basis(s, a, b, c) == ref_conjugate(s, Operator(a, b, c).mat2())

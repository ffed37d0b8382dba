"""One stored integer 2x2 per H-action, against the code it replaced.

An ``Operator`` and an ``HBasisChange`` act on the pair (e, e') of
E-components by one 2x2 matrix.  Each now keeps that matrix cleared of
denominators, and a basis change keeps its inverse too, computed once by
``Mat.inverse``.  ``to_uft`` over a composed basis rewrites U's rows with
that inverse, and ``injectivize`` reads the sheared T off the rows
whose fiber it tested.  Each ``ref_*`` function below is a copy of the
code it replaced, which built the matrix again on every call, inverted a
basis change by its adjugate and moved a graph by a ``Fraction`` pencil;
every new path must agree with it exactly, for zero, rank-one and
non-injective T, 100-digit unimodular bases and entries of about 100 bits.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import to_basis
from reference import from_basis, mat_is_zero, operator_from_mat2, t_is_injective, traceless_entries
from test_graph_cuts import eigen_forms, twisted_graph_forms
from test_graph_maps import graph_forms
from test_model import h_basis_changes, model_spaces, operators, vectors
from test_uft import ref_pencil_change

from pqh.linalg import F0, F1, Mat, _int_row
from pqh.model import MAT_I, MAT_J, MAT_K, OP_I, OP_J, OP_K, HBasisChange, ModelSpace, Operator
from pqh.model import ParaQuaternion
from pqh.subspace import Subspace
from pqh.uft import UFTForm, injectivize, to_uft

# -- the replaced code, kept as references -------------------------------------


def ref_h_act(m, coords) -> tuple:
    """The coordinates of (m0*e + m1*e', m2*e + m3*e') for the vector with
    coordinates ``coords`` = (e, e') and a 2x2 rational m read row-wise."""
    if len(coords) % 2:
        raise ValueError("coordinate length must be even")
    try:
        xs, dx = _int_row(coords)
    except AttributeError:
        raise TypeError("expected rational coordinates") from None
    out, d = ref_h_act_int(m, xs, dx)
    return tuple(Fraction(x, d) if x else F0 for x in out)


def ref_h_act_int(m, xs, dx) -> tuple:
    """:func:`ref_h_act` on the integer row xs / dx: ``(ints, d)`` of the result."""
    (m0, m1, m2, m3), dm = _int_row(m)
    half = len(xs) // 2
    pairs = list(zip(xs[:half], xs[half:]))
    out = [m0 * e + m1 * ep for e, ep in pairs] + [m2 * e + m3 * ep for e, ep in pairs]
    return out, dm * dx


def ref_h_mat(op) -> tuple:
    """The 2x2 matrix acting on the E-components (e, e'), row-wise."""
    a, b, g = op.alpha, op.beta, op.gamma
    return (-g, b - a, a + b, g)


def ref_adjugate(s) -> Mat:
    """The inverse matrix, which is the adjugate since the determinant is 1."""
    (a, b), (c, d) = s.mat.rows
    return Mat(((d, -b), (-c, a)))


def ref_inverse_entries(s) -> tuple:
    """The entries of s^-1, the adjugate, read row-wise."""
    (a, b), (c, d) = s.mat.rows
    return (d, -b, -c, a)


def ref_uft_change_basis(u: UFTForm, s: HBasisChange) -> UFTForm:
    """Rewrite the graph form relative to the composed basis.

    The new defining basis is (old basis) followed by s; the old basis
    vectors expressed in the new ones supply the pencil coefficients.
    """
    new_basis = u.h_basis.compose(s)
    p = s.mat.inverse()
    a, b = p.rows[0][0], p.rows[1][0]
    c, d = p.rows[0][1], p.rows[1][1]
    f_new, t_new = ref_pencil_change(u.f_space, u.t_map, a, b, c, d)
    return UFTForm(new_basis, f_new, t_new)


def ref_injectivize(u: UFTForm) -> UFTForm:
    """``injectivize`` with the shear made by ``ref_uft_change_basis``."""
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
    out = ref_uft_change_basis(u, HBasisChange.from_columns((F1, Fraction(s)), (F0, F1)))
    if not t_is_injective(out):
        raise AssertionError("injectivization produced a non-injective T")
    return out


def ref_hermitian_product(ms, x, y, s):
    """``ModelSpace.hermitian_product`` relative to an H-basis s, with x and
    y rewritten as ``Fraction`` rows and cleared again."""
    (xs, dx), (ys, dy) = map(_int_row, to_basis(s, (x, y)))
    d = ms._metric_form[1] * dx
    vals = [Fraction(ms._metric_int(xs, ys), d * dy)]
    for op in (OP_I, OP_J, OP_K):
        zs, dz = op.act_int(ys, dy)
        vals.append(Fraction(ms._metric_int(xs, zs), d * dz))
    return ParaQuaternion(vals[0], vals[1], -vals[2], -vals[3])


# -- strategies ------------------------------------------------------------------

REF = settings(max_examples=80, deadline=None)

SWAP = HBasisChange(Mat(((0, -1), (1, 0))))

rows_of = st.integers(0, 4).flatmap(lambda dim_e: st.lists(vectors(dim_e), min_size=1, max_size=3))


def same_form(a: UFTForm, b: UFTForm) -> bool:
    return (a.h_basis, a.f_space, a.t_map) == (b.h_basis, b.f_space, b.t_map)


# -- the stored matrices ---------------------------------------------------------


@REF
@given(operators(), rows_of)
def test_operator_action_matches_h_mat(a, xs):
    m = ref_h_mat(a)
    for x in xs:
        assert a.apply_coords(x) == ref_h_act(m, x)
        row = _int_row(x)
        assert a.act_int(*row) == ref_h_act_int(m, *row)


@REF
@given(h_basis_changes(), rows_of, operators())
def test_basis_change_matches_the_adjugate(s, xs, a):
    coords = list(xs)
    assert to_basis(s, coords) == [ref_h_act(ref_inverse_entries(s), r) for r in coords]
    assert from_basis(s, coords) == [ref_h_act(sum(s.mat.rows, ()), r) for r in coords]
    for r in coords:
        row = _int_row(r)
        assert s.to_basis_int(*row) == ref_h_act_int(ref_inverse_entries(s), *row)
    assert s.mat.inverse() == ref_adjugate(s)
    assert s._to == _int_row(sum(s.mat.inverse().rows, ()))
    for m in (MAT_I, MAT_J, MAT_K, a.mat2()):
        assert s.conjugate(*traceless_entries(m)) == operator_from_mat2(s.mat @ m @ ref_adjugate(s))


@REF
@given(model_spaces(), st.data())
def test_hermitian_product_in_a_basis_matches_the_fraction_rows(ms, data):
    s = data.draw(h_basis_changes())
    x, y = data.draw(vectors(ms.dim_e)), data.draw(vectors(ms.dim_e))
    assert ms.hermitian_product(x, y, s) == ref_hermitian_product(ms, x, y, s)


def test_the_stored_matrices_are_not_fields():
    a, s = Operator(1, Fraction(1, 2), 3), HBasisChange(Mat(((2, 1), (1, 1))))
    assert repr(a) == "Operator(alpha=Fraction(1, 1), beta=Fraction(1, 2), gamma=Fraction(3, 1))"
    assert a == Operator(1, Fraction(1, 2), 3) and hash(a) == hash(Operator(1, Fraction(1, 2), 3))
    assert s == HBasisChange(s.mat) and hash(s) == hash(HBasisChange(s.mat))
    assert repr(s) == f"HBasisChange(mat={s.mat!r})"
    # equality, hash and repr read the fields only: overwriting the derived
    # attributes of an equal copy changes none of them
    ms = ModelSpace.standard(2)
    assert repr(ms) == f"ModelSpace(n=2, omega={ms.omega!r})"
    for value, derived in ((a, ("_m", "_act")), (ms, ("_omega_form", "_metric_form"))):
        twin = type(value)(*(getattr(value, f) for f in value._fields))
        for name in derived:
            assert name not in value._fields
            object.__setattr__(twin, name, None)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)


# -- a basis change: to_uft of the span over the composed basis -----------------


@REF
@given(graph_forms(), h_basis_changes() | st.just(SWAP))
def test_uft_change_basis_matches_the_pencil(form_entries, s):
    form, _entries = form_entries
    try:
        ref = ref_uft_change_basis(form, s)
    except ValueError:
        with pytest.raises(ValueError):
            to_uft(form.span(), form.h_basis.compose(s))
        return
    assert same_form(to_uft(form.span(), form.h_basis.compose(s)), ref)


def test_symplectic_swap_of_a_zero_map_is_rejected_on_both_sides():
    # T = 0: the new h2 is -h1, which meets U = h1 (x) E'
    ep = Subspace.span([(1, 0)], 2)
    form = to_uft(Subspace.span([(1, 0, 0, 0)], 4), HBasisChange.identity())
    assert form.f_space == ep and mat_is_zero(form.t_map)
    with pytest.raises(ValueError):
        ref_uft_change_basis(form, SWAP)
    with pytest.raises(ValueError):
        to_uft(form.span(), form.h_basis.compose(SWAP))


# -- injectivize -----------------------------------------------------------------


@REF
@given(st.one_of(eigen_forms(), twisted_graph_forms().map(lambda fe: fe[0])))
def test_injectivize_matches_the_basis_change(form):
    ref = ref_injectivize(form)
    out = injectivize(form)
    assert same_form(out, ref)
    if ref is form:
        assert out is form

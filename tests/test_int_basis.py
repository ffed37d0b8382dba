"""Subspaces held as integer rows, against the Fraction bodies they replaced.

A ``Subspace`` keeps its canonical basis as ``(ints, d)`` rows in lowest
terms and builds its ``Fraction`` matrix ``mat`` only when it is read.
Each ``ref_*`` function below is the earlier body of an operation, run on
``Fraction`` matrices through ``Mat.rref`` (the old canonical form); it
returns that reduced matrix, and the new operation must give a subspace
whose ``mat`` is equal to it.  Inputs include zero and full subspaces,
rank-deficient spanning rows, rows with denominators and ~100-bit entries.
"""

from fractions import Fraction

import pytest
import test_cli
from hypothesis import assume, given
from hypothesis import strategies as st
from conftest import congruent_instance, dense_congruence, hand_built_instance, pairing_values, to_basis
from test_linalg import _eliminate
from test_model import h_basis_changes, model_spaces, operators
from test_rank_certificates import SETTINGS, big, int_rows, ref_maximal_pq
from reference import mat_is_zero, twist_h_rows

from pqh.classify import classify, oracle_check
from pqh.generate import KINDS, generate, random_sl2
from pqh.linalg import F0, F1, P30, Mat, _int_row, int_kernel, int_rref
from pqh.model import OMEGA_H, HBasisChange, ModelSpace
from pqh.rng import Rng
from pqh.subspace import (
    Subspace,
    decomposable_subspace,
    h2_fiber,
    h_fiber,
    image,
    is_orthogonal,
    maximal_pq,
    p1,
    product_subspace,
    span_of,
)
from pqh.uft import TransversalityError, to_uft

# -- reference copies ---------------------------------------------------------


def canon(m):
    """The old canonical form: the reduced rows of a ``Fraction`` matrix."""
    return m.rref()[0]


def is_basis(u, ref):
    """Whether u holds the reduced basis ``ref`` (a ``Fraction`` matrix):
    the same rows, kept in lowest terms, with the same pivots."""
    return (
        u.mat == ref
        and u.int_basis() == [_int_row(r) for r in ref.rows]
        and u.pivots == tuple(next(j for j, x in enumerate(r) if x) for r in ref.rows)
    )


def ref_kernel(m):
    """``Mat.kernel`` before ``int_kernel``: a kernel basis read off one
    ``rref``, then put in reduced form by a second one."""
    R, pivots = m.rref()
    free = [j for j in range(m.ncols) if j not in set(pivots)]
    basis = []
    for j in free:
        v = [F0] * m.ncols
        v[j] = F1
        for i, p in enumerate(pivots):
            v[p] = -R.rows[i][j]
        basis.append(tuple(v))
    if not basis:
        return Mat((), ncols=m.ncols)
    return Mat(basis).rref()[0]


def ref_span(rows, ambient):
    return canon(Mat(rows, ncols=ambient))


def ref_sum(u, w):
    return canon(Mat(u.mat.rows + w.mat.rows, u.mat.ncols))


def ref_span_of(parts, ambient):
    return canon(Mat(tuple(r for p in parts for r in p.mat.rows), ncols=ambient))


def ref_relations(rows, target):
    """The old ``_relations`` without its certificate (it only skips the
    kernel when the answer is 0): a kernel of the reduced rows' columns."""
    width = len(rows[0][0])
    if target is not None:
        rows = [target.reduce_int(V, D) for V, D in rows]
    live = [j for j in range(width) if any(V[j] for V, _ in rows)]
    cols = [tuple(Fraction(V[j], D) if V[j] else F0 for j in live) for V, D in rows]
    return ref_kernel(Mat(tuple(zip(*cols)), len(cols)))


def ref_kernel_in(w, images, target=None):
    if w.dim == 0 or (target is not None and target.dim == target.ambient):
        return w.mat
    rel = ref_relations(images, target)
    if rel.nrows == 0:
        return Mat((), ncols=w.ambient)
    return canon(rel if w.dim == w.ambient else rel @ w.mat)


def ref_intersect(u, w):
    if u.dim == u.ambient:
        return w.mat
    return ref_kernel_in(u, [_int_row(r) for r in u.mat.rows], w)


def ref_h_fiber(u, h):
    (a, b), d = _int_row(tuple(map(Fraction, h)))
    half = u.ambient // 2
    cols = []
    for j in range(half):
        col = [0] * u.ambient
        col[j], col[half + j] = a, b
        cols.append(u.reduce_int(col, d))
    return ref_kernel_in(Subspace.full(half), cols)


def ref_image(a, u):
    return canon(Mat([a.apply_coords(r) for r in u.mat.rows], ncols=u.ambient))


def ref_product_subspace(e_sub):
    return canon(Mat.identity(2).kron(e_sub.mat))


def ref_decomposable_subspace(h, e_sub):
    return canon(Mat((tuple(h),), ncols=2).kron(e_sub.mat))


def ref_p1p2(u, basis=None):
    if basis is None:
        basis = HBasisChange.identity()
    half = u.ambient // 2
    comps = to_basis(basis, u.mat.rows)
    return (
        canon(Mat([c[:half] for c in comps], ncols=half)),
        canon(Mat([c[half:] for c in comps], ncols=half)),
    )


def ref_to_uft(u, basis):
    """(F, T) of the old ``to_uft``, or None when h2 (x) E meets U."""
    half = u.ambient // 2
    rows = to_basis(basis, u.mat.rows)
    reduced, pivots, _ = _eliminate(rows, half)
    if len(pivots) != len(rows):
        return None
    f_rows = [tuple(r[:half]) for r in reduced]
    t_map = Mat.from_cols([tuple(r[half:]) for r in reduced], nrows=half)
    return canon(Mat(f_rows, ncols=half)), t_map


def ref_gram(ms, u):
    return u.mat @ OMEGA_H.kron(ms.omega) @ u.mat.T


def ref_restrict_omega(ms, e_sub):
    return e_sub.mat @ ms.omega @ e_sub.mat.T


def ref_is_orthogonal(ms, u, w):
    return mat_is_zero(u.mat @ OMEGA_H.kron(ms.omega) @ w.mat.T)


def ref_complement_in(u, larger):
    _, pivots = Mat(u.mat.rows + larger.mat.rows, u.mat.ncols).T.rref()
    return canon(Mat([larger.mat.rows[p - u.dim] for p in pivots if p >= u.dim], ncols=u.ambient))


# -- strategies ------------------------------------------------------------------


@st.composite
def rational_rows(draw, nrows, ambient):
    """``int_rows`` (dense, rank-deficient, or rank-deficient mod P30 only),
    each row divided by its own ~100-bit denominator, or left integral."""
    rows = draw(int_rows(nrows, ambient))
    dens = draw(st.lists(st.sampled_from([1]) | big.filter(bool), min_size=nrows, max_size=nrows))
    return [tuple(Fraction(x, d) for x in r) for r, d in zip(rows, dens)]


@st.composite
def spaces(draw, ambient):
    """A subspace of Q^ambient: zero, full, or spanned by rational rows,
    often fewer dimensions than rows."""
    kind = draw(st.sampled_from(["zero", "full", "rows", "sparse"]))
    if kind == "zero":
        return Subspace.zero(ambient)
    if kind == "full":
        return Subspace.full(ambient)
    rows = draw(rational_rows(draw(st.integers(1, ambient + 1)), ambient))
    if kind == "sparse":  # zero columns put gaps between the pivots
        gone = draw(st.sets(st.integers(0, max(ambient - 1, 0))))
        rows = [tuple(F0 if j in gone else x for j, x in enumerate(r)) for r in rows]
    return Subspace.span(rows, ambient)


# -- the integer kernels of linalg -------------------------------------------------


@SETTINGS
@given(st.data())
def test_int_rref_is_int_row_of_mat_rref(data):
    nrows, width = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    rows = data.draw(int_rows(nrows, width))
    basis, pivots = int_rref(rows, width)
    R, ref_pivots = Mat(rows, ncols=width).rref()
    assert pivots == ref_pivots
    assert basis == [_int_row(r) for r in R.rows]
    assert all(d > 0 for _, d in basis)


@SETTINGS
@given(st.data())
def test_int_kernel_matches_two_rref_kernel(data):
    nrows, width = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    m = Mat(data.draw(rational_rows(nrows, width)), ncols=width)
    basis, pivots = int_kernel([_int_row(r)[0] for r in m.rows], width)
    ref = ref_kernel(m)
    assert basis == [_int_row(r) for r in ref.rows]
    assert pivots == ref.rref()[1]
    assert m.kernel() == ref


# -- construction, equality and hash ------------------------------------------------


@SETTINGS
@given(st.data())
def test_span_and_equality_match_fraction_matrices(data):
    ambient = data.draw(st.integers(0, 6))
    rows_u = data.draw(rational_rows(data.draw(st.integers(0, 5)), ambient))
    u = Subspace.span(rows_u, ambient)
    assert is_basis(u, ref_span(rows_u, ambient))
    assert u.int_basis() == [_int_row(r) for r in u.mat.rows]
    assert all(isinstance(V, list) for V, _ in u.int_basis())
    assert u == Subspace(Mat(rows_u, ncols=ambient))
    # the same space from other spanning rows: sums of pairs, scaled by 7
    rows_w = [tuple(7 * (x + y) for x, y in zip(r, s)) for r, s in zip(rows_u, rows_u[1:])]
    for rows in (rows_w, rows_w + rows_u[:1], rows_u[::-1]):
        w = Subspace.span(rows, ambient)
        assert (u == w) == (u.mat == w.mat) == (ref_span(rows_u, ambient) == ref_span(rows, ambient))
        if u == w:
            assert hash(u) == hash(w)
    assert Subspace.zero(ambient) != Subspace.zero(ambient + 1)


def test_int_basis_returns_copies():
    u = Subspace.span([(1, 2, 3), (0, 1, 5)], 3)
    w = Subspace.span([(1, 2, 3), (0, 1, 5)], 3)
    rows = u.int_basis()
    rows[0][0][1] = 9
    rows.pop()
    assert u == w and hash(u) == hash(w) and u.dim == 2
    assert u.int_basis() == [_int_row(r) for r in u.mat.rows]


@pytest.mark.parametrize("salt", [0, 1])
def test_goldens_do_not_depend_on_the_subspace_hash(monkeypatch, capsys, salt):
    # every subspace in one hash bucket, or hashes that differ from the
    # default: sets and dicts of subspaces would iterate in another order
    monkeypatch.setattr(Subspace, "__hash__", lambda u: salt * ~hash(u.pivots))
    test_cli.TestGolden().test_goldens(capsys)


@SETTINGS
@given(st.data())
def test_sum_and_span_of_match_reference(data):
    ambient = data.draw(st.integers(1, 6))
    parts = [data.draw(spaces(ambient)) for _ in range(data.draw(st.integers(0, 3)))]
    assert is_basis(span_of(parts, ambient), ref_span_of(parts, ambient))
    if len(parts) >= 2:
        assert is_basis(parts[0].sum(parts[1]), ref_sum(parts[0], parts[1]))


@SETTINGS
@given(st.data())
def test_zero_full_and_complements_match_reference(data):
    ambient = data.draw(st.integers(0, 6))
    assert is_basis(Subspace.zero(ambient), Mat((), ncols=ambient))
    assert is_basis(Subspace.full(ambient), canon(Mat.identity(ambient)))
    larger = data.draw(spaces(ambient))
    u = Subspace.span(larger.mat.rows[: data.draw(st.integers(0, larger.dim))], ambient)
    assert is_basis(u.complement_in(larger), ref_complement_in(u, larger))
    units = [[F1 if i == j else F0 for i in range(ambient)] for j in range(ambient) if j not in u.pivots]
    assert is_basis(u.complement(), canon(Mat(units, ncols=ambient)))


# -- the kernel primitive and its callers --------------------------------------------------


@SETTINGS
@given(st.data())
def test_kernel_in_matches_reference(data):
    ambient = data.draw(st.integers(1, 5))
    w = data.draw(spaces(ambient))
    width = data.draw(st.integers(1, 5))
    images = [_int_row(r) for r in data.draw(rational_rows(w.dim, width))]
    target = data.draw(st.none() | spaces(width))
    if w.dim:
        assert is_basis(w.kernel_in(images, target), ref_kernel_in(w, images, target))
        assert is_basis(w.kernel_in(images), ref_kernel_in(w, images))


@SETTINGS
@given(st.data())
def test_intersect_matches_reference(data):
    ambient = data.draw(st.integers(1, 6))
    u, w = data.draw(spaces(ambient)), data.draw(spaces(ambient))
    shared = data.draw(st.booleans())
    if shared:  # w keeps part of u, so the two meet in more than 0
        w = Subspace.span(list(u.mat.rows[: u.dim // 2 + 1]) + list(w.mat.rows[:1]), ambient)
    assert is_basis(u.intersect(w), ref_intersect(u, w))
    assert is_basis(w.intersect(u), ref_intersect(w, u))


@SETTINGS
@given(st.data())
def test_h_fiber_and_image_match_reference(data):
    n = data.draw(st.integers(1, 2))
    u = data.draw(spaces(4 * n))
    h = data.draw(st.tuples(big, big).filter(any))
    assert is_basis(h_fiber(u, h), ref_h_fiber(u, h))
    a = data.draw(operators())
    assert is_basis(image(a, u), ref_image(a, u))


@SETTINGS
@given(st.data())
def test_product_and_decomposable_subspaces_match_reference(data):
    e_sub = data.draw(spaces(data.draw(st.integers(1, 4))))
    assert is_basis(product_subspace(e_sub), ref_product_subspace(e_sub))
    h = data.draw(st.tuples(big, big).filter(any) | st.sampled_from([(1, 0), (0, 1), (0, -3)]))
    h = tuple(Fraction(x, data.draw(big.filter(bool))) for x in h)
    assert is_basis(decomposable_subspace(h, e_sub), ref_decomposable_subspace(h, e_sub))


@SETTINGS
@given(st.data())
def test_p1_matches_reference(data):
    n = data.draw(st.integers(1, 2))
    u = data.draw(spaces(4 * n))
    assert is_basis(p1(u), ref_p1p2(u)[0])


@SETTINGS
@given(st.data())
def test_to_uft_matches_reference(data):
    n = data.draw(st.integers(1, 2))
    u = data.draw(spaces(4 * n))
    basis = data.draw(h_basis_changes())
    ref = ref_to_uft(u, basis)
    if ref is None:
        with pytest.raises(TransversalityError):
            to_uft(u, basis)
    else:
        form = to_uft(u, basis)
        assert is_basis(form.f_space, ref[0]) and form.t_map == ref[1]
        assert form.h_basis == basis


# -- pairings of basis rows ---------------------------------------------------------


@SETTINGS
@given(st.data())
def test_gram_and_is_orthogonal_match_reference(data):
    ms = data.draw(model_spaces())
    u, w = data.draw(spaces(4 * ms.n)), data.draw(spaces(4 * ms.n))
    assert pairing_values(ms._metric_form, u.int_basis(), u.int_basis()) == ref_gram(ms, u)
    assert is_orthogonal(ms, u, w) == ref_is_orthogonal(ms, u, w)
    a = data.draw(operators())
    moved = image(a, u)
    assert is_orthogonal(ms, moved, u) == ref_is_orthogonal(ms, moved, u)


@SETTINGS
@given(st.data())
def test_restrict_omega_matches_reference(data):
    ms = data.draw(model_spaces())
    e_sub = data.draw(spaces(2 * ms.n))
    rows = e_sub.int_basis()
    assert pairing_values(ms._omega_form, rows, rows) == ref_restrict_omega(ms, e_sub)


def test_pairings_on_isotropic_and_orthogonal_spaces():
    # h1 (x) E is totally isotropic; h1 (x) E' and h2 (x) E'' are orthogonal
    # exactly when omega(E', E'') = 0
    ms = ModelSpace.standard(2)
    e1 = Subspace.span([(1, 0, 0, 0), (0, 0, 1, 0)], 4)
    e2 = Subspace.span([(0, 0, 1, 0)], 4)
    h1e = decomposable_subspace((1, 0), Subspace.full(4))
    rows = h1e.int_basis()
    assert mat_is_zero(pairing_values(ms._metric_form, rows, rows)) and is_orthogonal(ms, h1e, h1e)
    assert is_orthogonal(ms, decomposable_subspace((1, 0), e1), decomposable_subspace((0, 1), e2))
    assert pairing_values(ms._omega_form, e1.int_basis(), e1.int_basis()) == ref_restrict_omega(ms, e1)
    full = Subspace.full(4).int_basis()
    assert not mat_is_zero(pairing_values(ms._omega_form, full, full))


# -- one helper for combining basis rows ------------------------------------------


@SETTINGS
@given(st.data())
def test_combine_int_is_the_fraction_combination(data):
    ambient = data.draw(st.integers(1, 6))
    u = data.draw(spaces(ambient))
    coeffs = data.draw(st.lists(big, min_size=u.dim, max_size=u.dim))
    coeffs = [Fraction(c, data.draw(big.filter(bool))) for c in coeffs]
    ints, d = u.combine_int(*_int_row(coeffs)) if coeffs else u.combine_int([])
    assert d > 0
    if u.dim:
        assert (Mat((coeffs,), ncols=u.dim) @ u.mat).rows[0] == tuple(Fraction(x, d) for x in ints)
    else:
        assert not any(ints)


def test_oracle_on_generated_real_instances_is_clean():
    # the sampled real-flag witness search combines basis rows with
    # ``combine_int``; on real instances it must find no violation
    ms = ModelSpace.standard(2)
    for seed in range(3):
        u = generate(Rng(seed), 2, "real", 3)
        findings = oracle_check(ms, classify(ms, u), u)
        assert all(f.ok for f in findings), [f for f in findings if not f.ok]


# -- maximal_pq on subspaces larger than E ---------------------------------------------


@st.composite
def large_model_subspaces(draw):
    """Subspaces of H (x) E with dim U > dim E: pure, or with U0 != 0.
    Past 3n rows the h2 fiber's cut cannot be certified, and E0 != 0."""
    n = draw(st.integers(1, 3))
    ambient = 4 * n
    kind = draw(st.sampled_from(["rows", "pq_plus_rows", "full"]))
    if kind == "full":
        return Subspace.full(ambient)
    if kind == "rows":
        rows = draw(rational_rows(draw(st.integers(2 * n + 1, ambient)), ambient))
    else:
        e_sub = draw(spaces(2 * n).filter(lambda e: not e.is_zero()))
        rows = list(product_subspace(e_sub).mat.rows)
        low = max(0, 2 * n + 1 - len(rows))
        rows += draw(rational_rows(draw(st.integers(low, max(low, ambient - len(rows)))), ambient))
    return Subspace.span(rows, ambient)


@SETTINGS
@given(large_model_subspaces(), st.integers(0, 999))
def test_maximal_pq_of_large_subspaces_matches_reference(u, seed):
    assume(u.dim > u.ambient // 2)
    for v in (u, twist_h_rows(u, random_sl2(Rng(seed)))):
        assert maximal_pq(v) == ref_maximal_pq(v)


def test_maximal_pq_of_a_large_subspace_with_a_pq_part():
    # U = H (x) span(e1 + 2 e2) + span(a row): dim 3 > dim E = 2, dim U0 = 2
    line = product_subspace(Subspace.span([(1, 2)], 2))
    u = Subspace.span(list(line.mat.rows) + [(0, 1, 3, 0)], 4)
    assert maximal_pq(u) == ref_maximal_pq(u) == line


def test_maximal_pq_of_generated_generic_instances_is_zero():
    # generic instances at n = 2 have the default dim 6 > dim E = 4
    for seed in range(3):
        u = generate(Rng(seed), 2, "generic", 6)
        assert u.dim > u.ambient // 2
        assert maximal_pq(u).is_zero() and ref_maximal_pq(u).is_zero()


def test_maximal_pq_with_a_pivot_divisible_by_p():
    # U = span(e1, e2 + e4, e3 + P30 e4) in Q^4 (n = 1): U0 = 0, and
    # P30 is 0 in the rank certificates' field
    u = Subspace.span([(1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, P30)], 4)
    assert maximal_pq(u) == ref_maximal_pq(u) == Subspace.zero(4)


@pytest.mark.parametrize("kind", KINDS + ("hand_built",))
def test_maximal_pq_of_generated_instances_matches_reference(kind):
    if kind == "hand_built":  # 0 < dim U0 < dim U on every seed
        cases = [hand_built_instance(seed)[1] for seed in range(1000, 1030)]
    else:
        cases = [generate(Rng(seed), 2, kind, None) for seed in range(2)]
    for u in cases:
        assert maximal_pq(u) == ref_maximal_pq(u)


def test_maximal_pq_where_the_certificate_cannot_apply():
    # generic n = 3, dim 10-11: dim U + dim(h2 fiber) > dim V, so the cut
    # takes its exact kernel, and E0 != 0; also under a twist and in a
    # dense congruent model
    for dim in (10, 11):
        for seed in range(3):
            u = generate(Rng(seed), 3, "generic", dim)
            twisted = twist_h_rows(u, random_sl2(Rng(9000 + seed)))
            p = dense_congruence(3, Rng(7000 + seed).rationals(36))
            _ms, moved = congruent_instance(ModelSpace.standard(3), u, p)
            for v in (u, twisted, moved):
                assert v.dim + h2_fiber(v).dim > v.ambient
                got = maximal_pq(v)
                assert not got.is_zero() and got == ref_maximal_pq(v)

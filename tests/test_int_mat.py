"""``linalg.Mat`` on integer rows against ``reference.FracMat``, the
``Fraction``-row class it replaced, and the integer graph maps of
``pqh.uft`` against their ``Fraction`` copies in ``reference``.

Every ``Mat`` method is compared on zero, unit-row, rank-deficient,
non-square, ~500-bit and many-denominator matrices; the graph readers
(``to_uft``, ``t_rows``, ``graph_rows``, ``t_on_subspace``, ``t_image``,
``injectivize``, ``invariant_core`` and the spectrum) on every kind at
n = 1-3, twisted by SL(H) and moved to a dense omega^E.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import congruent_instance, dense_congruence
from reference import (
    FracMat,
    frac_graph_spectrum,
    frac_injectivize,
    frac_invariant_core,
    frac_to_uft,
    mat_add,
    mat_is_skew,
    mat_mul_vec,
    mat_neg,
    mat_scale,
    mat_sub,
    twist_h_rows,
)

from pqh.generate import KINDS, generate, random_sl2
from pqh.instances import format_matrix
from pqh.linalg import Mat, _int_row
from pqh.model import ModelSpace
from pqh.rng import Rng
from pqh.subspace import Subspace
from pqh.uft import (
    TransversalityError,
    find_transversal_direction,
    graph_spectrum,
    injectivize,
    invariant_core,
    to_uft,
    transversal_basis,
)

SETTINGS = settings(max_examples=150, deadline=None)

small = st.fractions(-20, 20, max_denominator=12)
bits500 = st.builds(Fraction, st.integers(-(2**500), 2**500), st.integers(1, 2**500))
SHAPES = ("zero", "unit", "low_rank", "dense", "denominators")


@st.composite
def raw_rows(draw, nrows, ncols, entries=None):
    """Rows of ``Fraction`` entries of the given shape: zero, unit rows
    (some zero), of rank below min(nrows, ncols), dense, or dense with one
    distinct ~130-bit denominator per entry."""
    shape = draw(st.sampled_from(SHAPES))
    if entries is None:
        entries = draw(st.sampled_from([small, bits500]))
    if shape == "zero" or not nrows or not ncols:
        return [[Fraction(0)] * ncols for _ in range(nrows)]
    if shape == "unit":
        cols = draw(st.lists(st.integers(-1, ncols - 1), min_size=nrows, max_size=nrows))
        return [[Fraction(int(j == c)) for j in range(ncols)] for c in cols]
    if shape == "denominators":
        base = draw(st.integers(2**128, 2**132))
        nums = draw(st.lists(st.integers(-(10**40), 10**40), min_size=nrows * ncols, max_size=nrows * ncols))
        return [[Fraction(nums[i * ncols + j], base + i * ncols + j) for j in range(ncols)] for i in range(nrows)]
    if shape == "low_rank":
        rank = draw(st.integers(0, min(nrows, ncols) - 1))
        left = FracMat(draw(raw_rows(nrows, rank, entries)) if rank else ((),) * nrows, ncols=rank)
        right = FracMat(draw(raw_rows(rank, ncols, entries)), ncols=ncols)
        return [list(r) for r in (left @ right).rows]
    return [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]


@st.composite
def pairs(draw, nrows=None, ncols=None):
    """One matrix of a drawn shape as ``(Mat, FracMat)`` on the same rows."""
    nrows = draw(st.integers(0, 6)) if nrows is None else nrows
    ncols = draw(st.integers(0, 6)) if ncols is None else ncols
    rows = draw(raw_rows(nrows, ncols))
    return Mat(rows, ncols=ncols), FracMat(rows, ncols=ncols)


def same(m, f):
    """``m`` is the integer-row ``Mat`` of the ``FracMat`` ``f``."""
    assert isinstance(m, Mat) and isinstance(f, FracMat)
    assert m.shape == f.shape and m.nrows == f.nrows and m.ncols == f.ncols
    assert m.int_rows() == [_int_row(r) for r in f.rows]
    assert m.rows == f.rows and m.cols == f.cols
    assert m == Mat(f.rows, f.ncols) and hash(m) == hash(Mat(f.rows, f.ncols))
    return True


@SETTINGS
@given(pairs(), st.data())
def test_views_equality_and_hash(pair, data):
    m, f = pair
    assert same(m, f)
    assert repr(m) == repr(f).replace("FracMat(", "Mat(", 1)
    for j in range(f.ncols):
        assert m.col(j) == f.col(j)
    # a second matrix: the same rows, one entry moved, or another draw
    how = data.draw(st.sampled_from(["same", "moved", "other"]))
    rows = [list(r) for r in f.rows]
    if how == "moved" and f.nrows and f.ncols:
        rows[data.draw(st.integers(0, f.nrows - 1))][data.draw(st.integers(0, f.ncols - 1))] += 1
    elif how == "other":
        rows = data.draw(raw_rows(f.nrows, f.ncols))
    m2, f2 = Mat(rows, ncols=f.ncols), FracMat(rows, ncols=f.ncols)
    assert (m == m2) == (f == f2)
    if m == m2:
        assert hash(m) == hash(m2)
    assert m != f.rows and m != f


@SETTINGS
@given(pairs(), st.data())
def test_entrywise_operations(pair, data):
    m, f = pair
    rows = data.draw(raw_rows(f.nrows, f.ncols))
    m2, f2 = Mat(rows, ncols=f.ncols), FracMat(rows, ncols=f.ncols)
    c = data.draw(st.one_of(small, bits500, st.integers(-3, 3)))
    assert same(m.T, f.T) and same(m.T.T, f)
    assert same(mat_neg(m), -f) and same(mat_scale(m, c), f.scale(c))
    assert same(mat_add(m, m2), f + f2) and same(mat_sub(m, m2), f - f2)
    assert same(m.hstack(m2), f.hstack(f2))
    assert mat_is_skew(m) == f.is_skew()
    skew = mat_sub(m, m.T) if m.nrows == m.ncols else m
    assert mat_is_skew(skew) == FracMat(skew.rows, ncols=skew.ncols).is_skew()


@SETTINGS
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.data())
def test_products(p, q, r, data):
    m, f = data.draw(pairs(p, q))
    m2, f2 = data.draw(pairs(q, r))
    assert same(m @ m2, f @ f2)
    if q:
        v = data.draw(st.lists(st.one_of(small, bits500), min_size=q, max_size=q))
        assert mat_mul_vec(m, v) == f.mul_vec(v)
    k, fk = data.draw(pairs(data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))))
    assert same(m.kron(k), f.kron(fk))


@SETTINGS
@given(pairs(), st.data())
def test_elimination(pair, data):
    m, f = pair
    (r, pivots), (fr, fpivots) = m.rref(), f.rref()
    assert pivots == fpivots and same(r, fr)
    assert same(m.kernel(), f.kernel())
    b = data.draw(st.lists(st.one_of(small, bits500), min_size=f.nrows, max_size=f.nrows))
    assert m.solve(b) == f.solve(b)
    if f.nrows != f.ncols:
        for name in ("det", "inverse", "charpoly"):
            with pytest.raises(ValueError):
                getattr(m, name)()
        return
    assert m.det() == f.det()
    if f.det():
        assert same(m.inverse(), f.inverse())
    else:
        with pytest.raises(ValueError):
            m.inverse()
    assert m.charpoly() == f.charpoly()


@SETTINGS
@given(st.integers(0, 6), st.one_of(small, bits500, st.integers(-3, 3)), st.data())
def test_constructors(n, c, data):
    assert same(Mat.identity(n), FracMat.identity(n))
    assert same(Mat.scalar(n, c), FracMat.scalar(n, c))
    m, f = data.draw(pairs(n))
    assert same(Mat.from_cols(f.cols, nrows=n), FracMat.from_cols(f.cols, nrows=n))
    assert same(Mat(f.rows, f.ncols), f)
    assert same(Mat.of_ints(m.int_rows(), m.ncols), f)


def test_distinct_large_denominators():
    # one distinct 100-digit denominator per entry, the case where the one
    # lcm that charpoly and poly_eval_matrix clear by is longest
    n = 6
    nums = Rng(4).rationals(n * n)
    rows = [[Fraction(nums[i * n + j].numerator * 10**60, 10**99 + 7 * (i * n + j)) for j in range(n)] for i in range(n)]
    m, f = Mat(rows), FracMat(rows)
    assert m.charpoly() == f.charpoly()
    assert same(m @ m, f @ f) and same(m.inverse(), f.inverse()) and m.det() == f.det()


def test_a_derived_matrix_keeps_no_fraction_rows_until_read():
    m = Mat(((1, Fraction(1, 3)), (Fraction(2, 5), 7)))
    derived = (m.T, m @ m, m.inverse(), m.rref()[0], m.kron(m))
    assert all(d._rows is None for d in derived)
    assert derived[1].rows == (FracMat(m.rows) @ FracMat(m.rows)).rows
    assert derived[1]._rows is not None


# -- the graph readers --------------------------------------------------------------


def _variants(n, kind, seed):
    """A generated instance, its SL(H) twist and its dense-omega^E copy."""
    ms = ModelSpace.standard(n)
    u = generate(Rng(seed), n, kind)
    twisted = twist_h_rows(u, random_sl2(Rng(500 + seed)))
    p = dense_congruence(n, Rng(700 + seed).rationals(4 * n * n))
    return [u, twisted, congruent_instance(ms, u, p)[1]]


def _same_form(form, ref):
    assert form.h_basis == ref.h_basis and form.f_space == ref.f_space
    assert same(form.t_map, ref.t_map) and same(form.t_cols, ref.t_map.T)
    assert format_matrix(form.t_map) == format_matrix(ref.t_map)
    return True


def _check_readers(u, basis):
    try:
        ref = frac_to_uft(u, basis)
    except TransversalityError:
        with pytest.raises(TransversalityError):
            to_uft(u, basis)
        return False
    form = to_uft(u, basis)
    assert _same_form(form, ref)
    assert form.graph_rows() == ref.graph_rows()
    assert form.t_image() == ref.t_image()
    f = form.f_space
    # F, the span of its first rows, and the span of its last row
    for w in (f, Subspace._of(f.int_basis()[: f.dim // 2 + 1], f.pivots[: f.dim // 2 + 1], f.ambient),
              Subspace.span(f.mat.rows[-1:], f.ambient)):
        assert same(form.t_rows(w), ref.t_rows(w))
    inj, rinj = injectivize(form), frac_injectivize(ref)
    assert _same_form(inj, rinj)
    (core, t_core), (rcore, rt_core) = invariant_core(inj), frac_invariant_core(rinj)
    # the package holds T on the core by its image rows, the transpose
    assert core == rcore and same(t_core.T, rt_core)
    if core.dim:
        assert same(inj.t_on_subspace(core).T, rinj.t_on_subspace(core))
    sinj, parts = graph_spectrum(form)
    assert _same_form(sinj, rinj)
    assert parts == frac_graph_spectrum(ref)[3]
    return True


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_graph_readers_match_the_fraction_copies(kind, n):
    checked = 0
    for seed in range(3):
        for u in _variants(n, kind, seed):
            h = find_transversal_direction(u)
            bases = [random_sl2(Rng(900 + seed))]
            if h is not None:
                bases.append(transversal_basis(h))
            checked += sum(_check_readers(u, basis) for basis in bases)
    # the pure kinds present a graph on every variant
    if kind not in ("para_quaternionic", "nilpotent", "generic", "decomposable"):
        assert checked >= 9

"""``Mat.kron`` and the tensor layouts it builds, against the hand-filled
loops it replaced; and the zero subspace on the general path of every
function that used to return early for it."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqh.classify import (
    GenericDecomposition,
    PQReport,
    TotallyRealReport,
    check_totally_real,
    generic_decompose,
    is_para_quaternionic,
    is_real,
)
from pqh.generate import generate, random_invertible, random_subspace
from pqh.linalg import F0, F1, Mat
from pqh.model import (
    MAT_I,
    MAT_J,
    MAT_K,
    OMEGA_H,
    HBasisChange,
    ModelSpace,
    Operator,
    standard_symplectic,
    standardize,
    tensor,
)
from pqh.rng import Rng
from pqh.subspace import (
    Subspace,
    decomposable_subspace,
    direct_sum_is,
    product_subspace,
)
from pqh.uft import (
    Form1,
    Form2,
    PencilSpectrum,
    UFTForm,
    decompose_form1,
    decompose_form2,
    decomposable_spectrum,
    graph_form,
)

# -- Mat.kron against its entry formula ---------------------------------------

entries = st.sampled_from([0, 1, -1]) | st.fractions(
    min_value=-20, max_value=20, max_denominator=12
) | st.builds(Fraction, st.integers(-(10**100), 10**100), st.integers(1, 10**100))


@st.composite
def mats(draw, nrows=None, ncols=None):
    """Matrices of up to 3 x 3, with 0 rows or 0 columns allowed."""
    nrows = draw(st.integers(0, 3)) if nrows is None else nrows
    ncols = draw(st.integers(0, 3)) if ncols is None else ncols
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    return Mat(rows, ncols=ncols)


KRON = settings(max_examples=80, deadline=None)


@KRON
@given(mats(), mats())
def test_kron_entry_formula(a, b):
    k = a.kron(b)
    assert k.shape == (a.nrows * b.nrows, a.ncols * b.ncols)
    for i, ra in enumerate(a.rows):
        for r, rb in enumerate(b.rows):
            row = k.rows[i * b.nrows + r]
            for j, x in enumerate(ra):
                for c, y in enumerate(rb):
                    assert row[j * b.ncols + c] == x * y
    assert all(type(x) is Fraction for row in k.rows for x in row)


@KRON
@given(st.data())
def test_kron_mixed_product(data):
    p, q, r, s, t, u = (data.draw(st.integers(0, 3)) for _ in range(6))
    a, c = data.draw(mats(p, q)), data.draw(mats(q, r))
    b, d = data.draw(mats(s, t)), data.draw(mats(t, u))
    assert a.kron(b) @ c.kron(d) == (a @ c).kron(b @ d)


# -- the replaced loops, kept as references -------------------------------------


def ref_as_matrix(op, dim_e):
    m = op.mat2()
    rows = []
    for bi in range(2):
        for r in range(dim_e):
            row = [F0] * (2 * dim_e)
            for bj in range(2):
                row[bj * dim_e + r] = m.rows[bi][bj]
            rows.append(tuple(row))
    return Mat(rows)


def ref_standard_symplectic(dim):
    rows = [[F0] * dim for _ in range(dim)]
    for i in range(0, dim, 2):
        rows[i][i + 1] = F1
        rows[i + 1][i] = -F1
    return Mat(rows)


def ref_standard_blocks(pairs):
    def blockdiag(b):
        d = 2 * pairs
        rows = [[F0] * d for _ in range(d)]
        for p in range(pairs):
            for r in range(2):
                for c in range(2):
                    rows[2 * p + r][2 * p + c] = b.rows[r][c]
        return Mat(rows)

    return blockdiag(MAT_I), blockdiag(MAT_J), blockdiag(MAT_K)


def ref_metric_matrix(omega):
    z = Mat.scalar(omega.nrows, 0)
    top, bottom = z.hstack(omega), (-omega).hstack(z)
    return Mat._of(top.rows + bottom.rows, top.ncols)


def ref_product_subspace(e_sub):
    zero = (F0,) * e_sub.ambient
    rows = [r for f in e_sub.mat.rows for r in (f + zero, zero + f)]
    return Subspace.span(rows, 2 * e_sub.ambient)


def ref_decomposable_subspace(h, e_sub):
    return Subspace.span([tensor(h, f) for f in e_sub.mat.rows], 2 * e_sub.ambient)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_layouts_match_the_replaced_loops(n):
    rng = Rng(100 + n)
    dim_e = 2 * n
    assert standard_symplectic(dim_e) == ref_standard_symplectic(dim_e)
    for op in (Operator(1, 0, 0), Operator(0, 1, 0), Operator(0, 0, 1), Operator(0, 0, 0)):
        assert op.mat2().kron(Mat.identity(dim_e)) == ref_as_matrix(op, dim_e)
    for _ in range(10):
        op = Operator(rng.rational(), rng.rational(), rng.rational())
        assert op.mat2().kron(Mat.identity(dim_e)) == ref_as_matrix(op, dim_e)
    # the structure triple that standardize intertwines with, on a
    # conjugated copy of it: its basis carries the copy back to the triple
    std = ref_standard_blocks(dim_e)
    p = random_invertible(rng, 2 * dim_e)
    conj = [p @ m @ p.inverse() for m in std]
    b = standardize(*conj).basis
    assert [b.inverse() @ m @ b for m in conj] == list(std)
    q = random_invertible(rng, dim_e)
    for ms in (ModelSpace.standard(n), ModelSpace(n, q.T @ standard_symplectic(dim_e) @ q)):
        assert OMEGA_H.kron(ms.omega) == ref_metric_matrix(ms.omega)
    for k in range(dim_e + 1):
        e_sub = random_subspace(rng, dim_e, k)
        assert product_subspace(e_sub) == ref_product_subspace(e_sub)
        for h in ((1, 0), (0, 1), (rng.rational(), rng.nonzero_rational())):
            assert decomposable_subspace(h, e_sub) == ref_decomposable_subspace(h, e_sub)


# -- the zero subspace on the general path -------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zero_subspace_values(n):
    """The values the removed zero-subspace branches returned."""
    ms = ModelSpace.standard(n)
    zero, e_zero = Subspace.zero(4 * n), Subspace.zero(2 * n)
    empty = UFTForm(HBasisChange.identity(), e_zero, Mat(((),) * (2 * n), ncols=0))
    assert decompose_form1(zero) == Form1(None, empty, zero)
    assert decompose_form2(zero) == Form2((), empty)
    assert decomposable_spectrum(zero) == PencilSpectrum((), ())
    assert is_real(graph_form(zero))
    assert check_totally_real(ms, zero, graph_form(zero)) == TotallyRealReport(
        True, True, True, True, (True, True, True)
    )
    assert generic_decompose(zero) == GenericDecomposition(zero, (), zero)
    assert is_para_quaternionic(ms, zero) == PQReport(True, True, True)
    assert Subspace((zero.mat @ OMEGA_H.kron(ms.omega)).kernel()) == Subspace.full(4 * n)
    # zero parts leave the direct-sum test as it was without them
    u = generate(Rng(n), n, "generic")
    assert direct_sum_is(u, [zero, u, zero])
    assert direct_sum_is(zero, [zero, zero])
    assert not direct_sum_is(u, [zero])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generic_decompose_of_para_quaternionic_is_u0_alone(n):
    for seed in range(3):
        u = generate(Rng(seed), n, "para_quaternionic")
        tree = generic_decompose(u)
        assert (tree.u0, tree.addends, tree.real_addend) == (u, (), Subspace.zero(4 * n))

"""Integer cores against reference copies of the Fraction code they replaced.

Each ``ref_*`` function below is the earlier implementation of a kernel
that now passes ``(ints, d)`` rows to the next kernel instead of building
``Fraction`` tuples: coset reduction, the operator action, the Hermitian
product, the fiber of a direction, matrix polynomials and the oracle.
Every fast path must agree with its reference exactly, on rank-deficient
and large-coefficient inputs too.
"""

import sys
import zlib
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from conftest import cleared_rows, hand_built_instance
from test_graph_maps import bits100
from test_linalg import bits500, huge_entries, matrices, ref_charpoly, ref_matmul, small_entries

import pqh.linalg
import pqh.polyq
import pqh.uft
from pqh.classify import (
    OracleFinding,
    classify,
    generic_decompose,
    operator_preserves,
    oracle_check,
    stabilizer,
)
from pqh.generate import KINDS, generate, random_sl2
from pqh.linalg import (
    F0,
    F1,
    P30,
    Mat,
    _int_row,
    _int_rows,
    _krylov_rows,
    frac_row,
    int_rank,
    rank_mod,
    symmetric_signature,
)
from pqh.model import (
    MAT_I,
    MAT_J,
    MAT_K,
    OP_I,
    OP_J,
    OP_K,
    HBasisChange,
    ModelSpace,
    Operator,
    ParaQuaternion,
)
from pqh.polyq import poly_eval_matrix, poly_mul, poly_rem
from pqh.rng import Rng
from pqh.subspace import (
    SignatureTriple,
    Subspace,
    decomposable_subspace,
    h_fiber,
    image,
    is_orthogonal,
    p1,
    product_subspace,
)
from pqh.uft import decompose_form1, decompose_form2
from reference import mat_is_zero, maximal_invariant_subspace, metric, sqrt_of, vec_is_zero
from reference import oracle_check as ref_oracle
from reference import traceless_entries

# -- reference copies ---------------------------------------------------------


def ref_reduce(u, v):
    """``Subspace.reduce`` before its integer core was split out."""
    from math import gcd

    basis = [_int_row(r) for r in u.mat.rows]
    V, D = _int_row(v)
    for (R, e), p in zip(basis, u.pivots):
        c = V[p]
        if c:
            V = [e * x - c * y for x, y in zip(V, R)]
            D *= e
            if D > 1:
                g = gcd(D, *V)
                if g > 1:
                    V = [x // g for x in V]
                    D //= g
    return tuple(Fraction(x, D) if x else F0 for x in V)


def ref_apply(op, coords):
    """``Operator.apply_coords`` before the integer action was split out."""
    a, b, g = op.alpha, op.beta, op.gamma
    (m0, m1, m2, m3), dm = _int_row((-g, b - a, a + b, g))
    xs, dx = _int_row(coords)
    half = len(xs) // 2
    pairs = list(zip(xs[:half], xs[half:]))
    out = [m0 * e + m1 * ep for e, ep in pairs] + [m2 * e + m3 * ep for e, ep in pairs]
    d = dm * dx
    return tuple(Fraction(x, d) if x else F0 for x in out)


def ref_hermitian_product(ms, x, y, basis=None):
    """``ModelSpace.hermitian_product`` through ``metric`` and the
    conjugated triple of the H-basis."""
    if basis is None:
        i, j, k = OP_I, OP_J, OP_K
    else:
        i, j, k = (basis.conjugate(*traceless_entries(m)) for m in (MAT_I, MAT_J, MAT_K))
    return ParaQuaternion(
        metric(ms, x, y),
        metric(ms, x, ref_apply(i, y)),
        -metric(ms, x, ref_apply(j, y)),
        -metric(ms, x, ref_apply(k, y)),
    )


def ref_preimage_by(u, m):
    if u.dim == u.ambient:
        return Subspace.full(m.ncols)
    free = [j for j in range(u.ambient) if j not in set(u.pivots)]
    qcols = []
    for x_col in range(m.ncols):
        red = ref_reduce(u, m.col(x_col))
        qcols.append(tuple(red[j] for j in free))
    return Subspace(Mat.from_cols(qcols, nrows=len(free)).kernel())


def ref_h_fiber(u, h):
    """``h_fiber`` through two scaled identity matrices."""
    a, b = h
    if a == 0 and b == 0:
        raise ValueError("direction must be nonzero")
    eye = Mat.identity(u.ambient // 2)
    return ref_preimage_by(u, Mat._of(eye.scale(a).rows + eye.scale(b).rows, eye.ncols))


def ref_poly_eval_matrix(p, A):
    """Horner's rule on ``Fraction`` matrices."""
    n = A.nrows
    acc = Mat.scalar(n, 0)
    for a in reversed(p):
        acc = (acc @ A) + Mat.identity(n).scale(a)
    return acc


def ref_stabilizer_basis(u):
    """The basis of ``stabilizer(u)`` from Fraction residues."""
    rows = []
    for x in u.mat.rows:
        ri = ref_reduce(u, ref_apply(OP_I, x))
        rj = ref_reduce(u, ref_apply(OP_J, x))
        rk = ref_reduce(u, ref_apply(OP_K, x))
        rows.extend(zip(ri, rj, rk))
    if not rows:
        return Mat.identity(3)
    return Mat(rows, ncols=3).kernel()


def ref_operator_preserves(a, u):
    return all(vec_is_zero(ref_reduce(u, ref_apply(a, x))) for x in u.mat.rows)


def ref_oracle_check(ms, report, u, seed=0, samples=25):
    """``oracle_check`` with Fraction rows between its kernels."""
    rng = Rng(seed)
    out = []

    def check(name, ok, detail=""):
        out.append(OracleFinding(name, bool(ok), detail))

    if u.dim == 0:
        check("empty-subspace", True, "vacuous")
        return out
    u0 = product_subspace(ref_h_fiber(u, (1, 0)).intersect(ref_h_fiber(u, (0, 1))))
    check("u0-matches", u0 == report.u0)
    check("pure-flag", report.flags.pure == u0.is_zero())
    check(
        "pq-flag",
        report.flags.para_quaternionic == (u == product_subspace(p1(u))),
    )
    vecs = u.basis
    pairwise = Mat([[metric(ms, x, y) for y in vecs] for x in vecs], ncols=u.dim)
    sig = SignatureTriple(*symmetric_signature(cleared_rows(pairwise)))
    check("signature", sig.as_tuple() == report.signature.as_tuple())
    check("hermitian-flag", report.flags.hermitian == (sig.s == 0))
    dim_e = ms.dim_e
    for kind, wit in (
        ("complex", report.witnesses.complex),
        ("para_complex", report.witnesses.para_complex),
        ("nilpotent", report.witnesses.nilpotent),
    ):
        if wit is None:
            continue
        check(f"{kind}-witness-invariance", ref_operator_preserves(wit, u))
        amat = wit.mat2().kron(Mat.identity(dim_e))
        check(
            f"{kind}-witness-square-identity",
            amat @ amat == Mat.identity(2 * dim_e).scale(-wit.q()),
        )
        sign_ok = {
            "complex": wit.q() > 0,
            "para_complex": wit.q() < 0,
            "nilpotent": wit.q() == 0 and not wit.is_zero(),
        }[kind]
        check(f"{kind}-witness-sign", sign_ok)
    if report.flags.real:
        check("real-vs-stabilizer", report.stab.dim == 0)
        # drawn only under the flag, as the oracle draws them
        violation = None
        for _ in range(samples):
            a = Operator(rng.rational(), rng.rational(), rng.rational())
            if a.is_zero():
                continue
            (x,) = (Mat((rng.rationals(u.dim),), ncols=u.dim) @ u.mat).rows
            ax = ref_apply(a, x)
            if any(v != 0 for v in ax) and vec_is_zero(ref_reduce(u, ax)):
                violation = (a, x)
                break
        check(
            "real-no-sampled-violation",
            violation is None,
            "" if violation is None else f"witness {violation[0]}",
        )
    if report.flags.totally_real:
        for name, op in (("I", OP_I), ("J", OP_J), ("K", OP_K)):
            check(
                f"totally-real-{name}-orthogonal",
                is_orthogonal(ms, image(op, u), u),
            )
    if report.complex_report and not report.flags.para_quaternionic:
        cr = report.complex_report
        jhat = cr.basis.conjugate(F0, 1 / cr.scale, F1)
        check(
            "totally-complex-gram",
            report.flags.totally_complex
            == (
                report.flags.hermitian
                and u0.is_zero()
                and is_orthogonal(ms, image(jhat, u), u)
            ),
        )
    if (
        report.flags.complex
        and report.flags.pure
        and not report.flags.para_quaternionic
    ):
        check("pure-complex-witness-unique", report.stab.dim == 1)
        wit = report.witnesses.complex
        for _ in range(samples):
            b = Operator(rng.rational(), rng.rational(), rng.rational())
            if b.is_zero():
                continue
            if (
                b.alpha * wit.beta == b.beta * wit.alpha
                and b.alpha * wit.gamma == b.gamma * wit.alpha
                and b.beta * wit.gamma == b.gamma * wit.beta
            ):
                continue
            if b.q() != 0:
                rows, dim = [ref_apply(b, x) for x in u.mat.rows], u.dim
            else:
                bu = Subspace.span([ref_apply(b, x) for x in u.mat.rows], u.ambient)
                rows, dim = bu.mat.rows, bu.dim
            residues = Mat([ref_reduce(u, r) for r in rows], ncols=u.ambient)
            if residues.rref()[0].nrows != dim:
                check("pure-complex-moves-off", False, f"B={b}")
                break
        else:
            check("pure-complex-moves-off", True)
    for _ in range(2):
        x = vecs[rng.below(len(vecs))]
        y = vecs[rng.below(len(vecs))]
        base = ref_hermitian_product(ms, x, y).imag().norm()
        ok = True
        for _ in range(3):
            s = random_sl2(rng)
            val = ref_hermitian_product(ms, x, y, s).imag().norm()
            if val != base:
                ok = False
                break
        check("hermitian-norm-invariance", ok)
        if not ok:
            break
    if report.uft is not None:
        check("uft-round-trip", report.uft.span() == u)
    check("dim-bound-real", not report.flags.real or u.dim <= 2 * ms.n)
    check("dim-bound-totally-real", not report.flags.totally_real or u.dim <= ms.n)
    return out


# -- strategies -----------------------------------------------------------------

rationals = st.sampled_from([small_entries, huge_entries]).flatmap(lambda e: e)


@st.composite
def subspaces(draw, ambient):
    """Zero, full, rank-deficient or random subspaces of Q^ambient."""
    kind = draw(st.sampled_from(["zero", "full", "rows"]))
    if kind == "zero":
        return Subspace.zero(ambient)
    if kind == "full":
        return Subspace.full(ambient)
    entries = draw(st.sampled_from([small_entries, huge_entries]))
    return Subspace(draw(matrices(draw(st.integers(0, ambient + 2)), ambient, entries)))


@st.composite
def subspace_and_vector(draw):
    """(U, v) in Q^(4n): v inside U, or anything, with int or Fraction entries."""
    ambient = 4 * draw(st.integers(1, 3))
    u = draw(subspaces(ambient))
    ints = st.integers(-(10**40), 10**40) | st.integers(-9, 9)
    v = draw(st.lists(ints | rationals, min_size=ambient, max_size=ambient))
    if u.dim and draw(st.booleans()):
        coeffs = draw(st.lists(rationals, min_size=u.dim, max_size=u.dim))
        v = (Mat((coeffs,), ncols=u.dim) @ u.mat).rows[0]
    return u, tuple(v)


operators = st.builds(Operator, rationals, rationals, rationals)

# -- coset reduction --------------------------------------------------------------


@given(subspace_and_vector())
@example((Subspace.zero(4), (0, 0, 0, 0)))
@example((Subspace.full(4), (Fraction(1, 3), 0, 10**50, -1)))
@settings(max_examples=80, deadline=None)
def test_reduce_and_contains_match_reference(uv):
    u, v = uv
    red = ref_reduce(u, v)
    assert frac_row(*u.reduce_int(*_int_row(v))) == red
    assert u.contains_vector(v) == vec_is_zero(red)
    V, D = u.reduce_int(*_int_row(v))
    assert tuple(Fraction(x, D) for x in V) == red
    assert u.contains_int(*_int_row(v)) == vec_is_zero(red)


# -- operator action ----------------------------------------------------------------


@given(operators, subspace_and_vector())
@example(Operator(0, 0, 0), (Subspace.zero(4), (1, 2, 3, 4)))
@settings(max_examples=80, deadline=None)
def test_operator_action_matches_reference(op, uv):
    _, v = uv
    ref = ref_apply(op, v)
    assert op.apply_coords(v) == ref
    out, d = op.act_int(*_int_row(v))
    assert tuple(Fraction(x, d) for x in out) == ref


@given(operators, subspace_and_vector())
@settings(max_examples=60, deadline=None)
def test_invariance_and_stabilizer_match_reference(op, uv):
    u, _ = uv
    assert operator_preserves(op, u) == ref_operator_preserves(op, u)
    assert stabilizer(u).mat == ref_stabilizer_basis(u)


def test_maximal_invariant_subspace_is_invariant():
    for kind in KINDS:
        u = generate(Rng(3), 2, kind)
        for op in (OP_I, OP_J, OP_K, Operator(1, 2, Fraction(-1, 3))):
            w = maximal_invariant_subspace(op, u)
            assert u.contains(w)
            assert ref_operator_preserves(op, w)


# -- Hermitian product -------------------------------------------------------------


@st.composite
def vector_pairs(draw):
    n = draw(st.integers(1, 3))
    ms = ModelSpace.standard(n)
    x, y = (tuple(draw(st.lists(rationals, min_size=4 * n, max_size=4 * n))) for _ in range(2))
    return ms, x, y


@given(vector_pairs(), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_hermitian_product_matches_reference(msxy, seed):
    ms, x, y = msxy
    for basis in (None, random_sl2(Rng(seed))):
        assert ms.hermitian_product(x, y, basis) == ref_hermitian_product(ms, x, y, basis)


def test_hermitian_product_rejects_what_the_reference_rejects(ms2):
    x = (1, 0, 0, 1)
    with pytest.raises(ValueError, match="model space"):
        metric(ms2, x, x)
    with pytest.raises(ValueError, match="model space"):
        ms2.hermitian_product(x, x)


# -- fibers --------------------------------------------------------------------------


directions = st.tuples(rationals, rationals).filter(lambda h: h != (0, 0))


@given(
    st.integers(1, 3).flatmap(lambda n: subspaces(4 * n)),
    directions | st.sampled_from([(0, 1), (1, 0), (0, Fraction(-7, 3)), (10**60, 0)]),
)
@settings(max_examples=80, deadline=None)
def test_h_fiber_matches_reference(u, h):
    assert h_fiber(u, h) == ref_h_fiber(u, h)


def test_h_fiber_of_generated_instances_matches_reference():
    for kind in KINDS:
        u = generate(Rng(5), 2, kind)
        for h in ((1, 0), (0, 1), (1, 1), (Fraction(2, 3), Fraction(-5, 7))):
            assert h_fiber(u, h) == ref_h_fiber(u, h)


def test_h_fiber_rejects_zero_direction():
    with pytest.raises(ValueError, match="nonzero"):
        h_fiber(Subspace.full(4), (0, 0))


# -- scalar matrices -----------------------------------------------------------------


@given(rationals | st.integers(-(10**30), 10**30), st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_scalar_matches_scaled_identity(c, n):
    m = Mat.scalar(n, c)
    assert m == Mat.identity(n).scale(c)
    assert m.shape == (n, n)
    assert all(type(x) is Fraction for row in m.rows for x in row)


def test_scalar_over_quadext_and_floats():
    with pytest.raises(TypeError):
        Mat.scalar(3, sqrt_of(2))
    with pytest.raises(TypeError):
        Mat.identity(2).scale(0.5)
    with pytest.raises(TypeError):
        Mat.scalar(2, 0.5)


# -- matrix polynomials --------------------------------------------------------------


@st.composite
def polys_and_matrices(draw):
    entries = draw(st.sampled_from([small_entries, huge_entries]))
    n = draw(st.integers(0, 7))
    a = draw(matrices(n, n, entries))  # dense, zero or rank-deficient
    p = tuple(draw(st.lists(entries, max_size=5)))
    return p, a


@given(polys_and_matrices())
@example(((), Mat((), ncols=0)))
@example(((F1,), Mat.scalar(3, 0)))
@example(((Fraction(3, 7), 0, 0), Mat(((0, 1), (0, 0)))))
@example(
    (
        (Fraction(-(2**120) + 1, 3**80), F0, Fraction(2**101, 5)),
        Mat(((Fraction(2**130, 7), 1), (Fraction(3, 2**110), Fraction(-1, 2**105)))),
    )
)
@settings(max_examples=80, deadline=None)
def test_poly_eval_matrix_matches_fraction_horner(pa):
    p, a = pa
    got = poly_eval_matrix(p, a)
    assert got == ref_poly_eval_matrix(p, a)
    assert got.shape == a.shape
    assert all(type(x) is Fraction for row in got.rows for x in row)


@pytest.mark.parametrize("degree", range(21))
@given(st.data())
@settings(max_examples=6, deadline=None)
def test_poly_eval_matrix_at_every_chunk_boundary(degree, data):
    """Degrees 0-20 meet every split into chunks of isqrt(degree) terms."""
    entries = data.draw(st.sampled_from([small_entries, bits100]))
    n = data.draw(st.integers(0, 5))
    a = data.draw(matrices(n, n, entries))
    p = tuple(data.draw(st.lists(entries, min_size=degree, max_size=degree))) + (
        data.draw(entries.filter(bool)),
    )
    assert poly_eval_matrix(p, a) == ref_poly_eval_matrix(p, a)


def test_poly_eval_matrix_on_low_rank_products():
    rng = Rng(11)
    for k in range(4):
        left = Mat([rng.rationals(k) for _ in range(5)], ncols=k)
        right = Mat([rng.rationals(5) for _ in range(k)], ncols=5)
        a = ref_matmul(left, right)
        p = tuple(rng.rationals(4))
        assert poly_eval_matrix(p, a) == ref_poly_eval_matrix(p, a)


# -- the zero route ---------------------------------------------------------------------


@pytest.fixture
def products(monkeypatch):
    """Counts the Paterson-Stockmeyer matrix products: ``polyq`` calls
    ``_int_matmul`` only there, and ``charpoly``'s Krylov rows are built
    in ``linalg``."""
    calls = [0]
    matmul = pqh.polyq._int_matmul

    def wrapped(*args):
        calls[0] += 1
        return matmul(*args)

    monkeypatch.setattr(pqh.polyq, "_int_matmul", wrapped)
    return calls


def krylov_rank_mod(a):
    """rank_mod of w_0, ..., w_(n-1), w_k = B^k e_0 for B = d*A."""
    B, _ = _int_rows(a.rows)
    return rank_mod(_krylov_rows(B, a.nrows), a.nrows)


def cyclic_matrix(rng, n):
    """A dense n x n rational matrix whose e_0 is cyclic mod P30."""
    while True:
        a = Mat([rng.rationals(n) for _ in range(n)], ncols=n)
        if krylov_rank_mod(a) == n:
            return a


@pytest.mark.parametrize("n", range(1, 7))
def test_charpoly_and_its_multiples_are_proved_zero(n, products):
    """p = chi_A and p = chi_A r with deg p > n take the Cayley-Hamilton
    route: the answer is zero with no matrix product."""
    rng = Rng(70 + n)
    a = cyclic_matrix(rng, n)
    cp = a.charpoly()
    for p in (cp, poly_mul(cp, tuple(rng.rationals(3))), poly_mul(cp, (F0, F1))):
        assert poly_eval_matrix(p, a) == ref_poly_eval_matrix(p, a) == Mat.scalar(n, 0)
    assert products[0] == 0


@given(st.integers(1, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_multiples_of_the_charpoly_match_fraction_horner(n, data):
    """Zero answers on dense, zero and rank-deficient matrices, whichever
    path proves them."""
    entries = data.draw(st.sampled_from([small_entries, huge_entries]))
    a = data.draw(matrices(n, n, entries))
    r = tuple(data.draw(st.lists(entries, max_size=3))) + (data.draw(entries.filter(bool)),)
    p = poly_mul(a.charpoly(), r)
    got = poly_eval_matrix(p, a)
    assert got == ref_poly_eval_matrix(p, a)
    assert mat_is_zero(got) and got.shape == a.shape


def test_a_derogatory_charpoly_is_left_to_paterson_stockmeyer(products):
    """e_0 is not cyclic for a derogatory A, but chi_A(A) = 0 by
    Cayley-Hamilton, with no product.  For diag(0, 1), p = x^2 gives
    p(A) e_0 = 0 but p(A) != 0; chi_A = x^2 - x does not divide it, so
    Paterson-Stockmeyer runs."""
    a = Mat(((2, 0, 0), (0, 2, 0), (0, 0, Fraction(1, 3))))
    assert krylov_rank_mod(a) < 3
    p = a.charpoly()
    assert poly_eval_matrix(p, a) == ref_poly_eval_matrix(p, a) == Mat.scalar(3, 0)
    assert products[0] == 0
    a = Mat(((0, 0), (0, 1)))
    assert poly_eval_matrix((F0, F0, F1), a) == ref_poly_eval_matrix((F0, F0, F1), a) == a
    assert products[0] > 0


def test_a_nonzero_answer_zero_mod_the_prime_is_not_proved_zero():
    """No residue mod P30 decides a zero: for A = [[0]] and p = x - P30,
    p(A) = [[-P30]] is zero mod P30.  Likewise for the nilpotent
    A = [[0, 0], [1, 0]], cyclic at e_0, and p = x^2 + P30, where
    p(A) = P30 I."""
    a = Mat(((0,),))
    p = (Fraction(-P30), F1)
    assert poly_eval_matrix(p, a) == ref_poly_eval_matrix(p, a) == Mat(((-P30,),))
    a = Mat(((0, 0), (1, 0)))
    p = (Fraction(P30), F0, F1)
    assert krylov_rank_mod(a) == 2
    assert poly_eval_matrix(p, a) == ref_poly_eval_matrix(p, a) == Mat.scalar(2, P30)


def test_krylov_rows_singular_mod_the_prime_fall_back(products):
    """e_0 is cyclic over Q for A = [[1, 0], [P30, 2]] (w_1 = (1, P30)),
    but w_0 and w_1 are dependent mod P30.  No prime enters the
    Cayley-Hamilton route, so chi_A(A) = 0 is still given with no product."""
    a = Mat(((1, 0), (P30, 2)))
    B, _ = _int_rows(a.rows)
    assert int_rank(_krylov_rows(B, 2), 2) == 2 and krylov_rank_mod(a) == 1
    p = a.charpoly()
    assert poly_eval_matrix(p, a) == ref_poly_eval_matrix(p, a) == Mat.scalar(2, 0)
    assert products[0] == 0


@st.composite
def derogatory_matrices(draw, n, entries):
    """c I, or diag(M, M) with one more diagonal entry when n is odd: every
    eigenvalue of M repeats in the two blocks, so no vector is cyclic."""
    if n < 2 or draw(st.booleans()):
        return Mat.scalar(n, draw(entries))
    k = n // 2
    m = draw(matrices(k, k, entries)).rows
    rows = [r + (F0,) * (n - k) for r in m]
    rows += [(F0,) * k + r + (F0,) * (n - 2 * k) for r in m]
    if n % 2:
        rows.append((F0,) * (n - 1) + (draw(entries),))
    return Mat(rows)


@given(
    n=st.integers(1, 5),
    entries=st.sampled_from([small_entries, huge_entries, bits500]),
    data=st.data(),
)
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_multiples_of_chi_are_zero_by_cayley_hamilton(products, n, entries, data):
    """p = chi_A r with deg p >= n is the zero matrix with no product, on
    dense, zero, rank-deficient and derogatory A, ~500-bit entries included."""
    a = data.draw(matrices(n, n, entries) | derogatory_matrices(n, entries))
    r = tuple(data.draw(st.lists(entries, max_size=3))) + (data.draw(entries.filter(bool)),)
    p = poly_mul(a.charpoly(), r)
    products[0] = 0
    got = poly_eval_matrix(p, a)
    assert products[0] == 0
    assert got == ref_poly_eval_matrix(p, a) == Mat.scalar(n, 0)


def test_zeros_chi_does_not_divide_and_nonzero_answers_take_paterson_stockmeyer(products):
    """diag(2, 2, 1/3) has minimal polynomial (x - 2)(x - 1/3): p = x times
    it kills A, but chi_A = (x - 2)^2 (x - 1/3) does not divide p, so the
    zero comes from the product.  So does a nonzero answer of degree >= n."""
    a = Mat(((2, 0, 0), (0, 2, 0), (0, 0, Fraction(1, 3))))
    p = poly_mul((F0, F1), poly_mul((Fraction(-2), F1), (Fraction(-1, 3), F1)))
    assert poly_rem(p, a.charpoly())
    assert poly_eval_matrix(p, a) == ref_poly_eval_matrix(p, a) == Mat.scalar(3, 0)
    assert products[0] > 0
    products[0] = 0
    a = cyclic_matrix(Rng(8), 4)
    p = tuple(Rng(9).rationals(5)) + (F1,)
    got = poly_eval_matrix(p, a)
    assert got == ref_poly_eval_matrix(p, a) and not mat_is_zero(got)
    assert products[0] > 0


def test_charpoly_runs_once_per_instance(monkeypatch):
    """The Krylov path, and the Faddeev-LeVerrier fallback of a derogatory
    matrix, run on the first call only; later calls return the kept tuple."""
    calls = []
    for name in ("_krylov_charpoly", "_faddeev_charpoly"):

        def spy(B, name=name, real=getattr(pqh.linalg, name)):
            calls.append(name)
            return real(B)

        monkeypatch.setattr(pqh.linalg, name, spy)
    krylov = ["_krylov_charpoly"]
    for a, runs in (
        (cyclic_matrix(Rng(12), 4), krylov),
        (Mat.scalar(3, Fraction(5, 7)), krylov + ["_faddeev_charpoly"]),
    ):
        calls.clear()
        first = a.charpoly()
        assert a.charpoly() == first == ref_charpoly(a)
        assert calls == runs


def test_the_charpoly_slot_is_invisible_and_not_inherited():
    """``==`` and ``hash`` ignore the kept value, and a matrix built from
    another one starts without it."""
    rows = ((1, 2, 0), (Fraction(1, 3), 0, 5), (7, -1, 2))
    a, b = Mat(rows), Mat(rows)
    h = hash(a)
    cp = a.charpoly()
    assert b._charpoly is None and a == b and hash(a) == h == hash(b)
    derived = (a.T, a.scale(2), a @ a, Mat._of(a.rows, 3))
    assert all(m._charpoly is None for m in derived)
    assert derived[0].charpoly() == derived[3].charpoly() == cp


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_decompose_graph_request_builds_its_krylov_rows_once(seed, monkeypatch):
    """The benchmark's decompose-graph request at seeds 1-3 takes one
    Krylov pass, for the charpoly of its core, and polyq runs no
    ``rank_mod``."""
    built, callers = [0], []
    krylov_rows, rank_mod_ = pqh.linalg._krylov_rows, pqh.linalg.rank_mod

    def count_rows(*args):
        built[0] += 1
        return krylov_rows(*args)

    def record_caller(*args):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return rank_mod_(*args)

    for name, module in list(sys.modules.items()):
        if not name.startswith("pqh"):
            continue
        if getattr(module, "_krylov_rows", None) is krylov_rows:
            monkeypatch.setattr(module, "_krylov_rows", count_rows)
        if getattr(module, "rank_mod", None) is rank_mod_:
            monkeypatch.setattr(module, "rank_mod", record_caller)
    u = generate(Rng((zlib.crc32(b"decompose-graph") << 32) ^ seed), 6, "generic", 12)
    generic_decompose(u)
    decompose_form2(u)
    decompose_form1(u)
    assert built[0] == 1
    assert "pqh.polyq" not in callers


def test_empty_matrix_and_zero_polynomial(products):
    """n = 0 has no e_0 and takes Paterson-Stockmeyer; an untrimmed zero
    p of length > n is proved zero like any other."""
    empty = Mat((), ncols=0)
    for p in ((), (F1,), (F1, F0, Fraction(-3, 4))):
        assert poly_eval_matrix(p, empty) == empty
    a = cyclic_matrix(Rng(5), 3)
    assert poly_eval_matrix((), a) == Mat.scalar(3, 0)
    products[0] = 0
    assert poly_eval_matrix((F0, F0, F0, F0), a) == Mat.scalar(3, 0)
    assert products[0] == 0


def test_the_decompose_graph_request_runs_no_matrix_power(products, monkeypatch):
    """The first decompose-graph request of the benchmark at seed 1 (a
    generic graph of dim 12 at n = 6, whose 12 x 12 core has one factor
    q = chi_T of degree 12) still evaluates q(T) once, and proves it zero
    without a Paterson-Stockmeyer product."""
    evals = [0]
    evaluate = pqh.polyq.poly_eval_matrix

    def wrapped(*args):
        evals[0] += 1
        return evaluate(*args)

    monkeypatch.setattr(pqh.uft, "poly_eval_matrix", wrapped)
    monkeypatch.setattr(pqh.polyq, "poly_eval_matrix", wrapped)
    u = generate(Rng((zlib.crc32(b"decompose-graph") << 32) ^ 1), 6, "generic", 12)
    generic_decompose(u)
    decompose_form2(u)
    decompose_form1(u)
    assert evals[0] == 1
    assert products[0] == 0


# -- ranks -----------------------------------------------------------------------------


@given(st.integers(0, 6), st.integers(0, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_int_rank_matches_rref(nrows, ncols, data):
    a = data.draw(matrices(nrows, ncols, huge_entries | small_entries))
    rows = [_int_row(r)[0] for r in a.rows]
    assert int_rank(rows, ncols) == a.rref()[0].nrows


# -- the oracle --------------------------------------------------------------------------


def forged_pure_complex(report):
    """The report with U claimed pure complex, so that the oracle's
    ``pure-complex-moves-off`` search runs on every U that is not
    para-quaternionic, and names a ``B=...`` wherever U's stabilizer is
    more than a line (on the decomposable kind, among others)."""
    flags = report.flags._replace(complex=True, pure=True)
    witnesses = report.witnesses._replace(complex=report.witnesses.complex or OP_I)
    return report._replace(flags=flags, witnesses=witnesses)


def forged_not_pq(report):
    """The report with ``para_quaternionic`` off, which gates the oracle's
    ``totally-complex-gram`` (and its pure-complex search) on every report
    with a complex part."""
    return report._replace(flags=report.flags._replace(para_quaternionic=False))


@pytest.mark.parametrize("kind", KINDS)
def test_oracle_findings_match_reference(kind):
    for n in (1, 2, 3):
        ms = ModelSpace.standard(n)
        for seed in range(6):
            u = generate(Rng(seed), n, kind)
            report = classify(ms, u)
            assert report.stab.mat == ref_stabilizer_basis(u)
            for rep in (report, forged_pure_complex(report), forged_not_pq(report)):
                got = oracle_check(ms, rep, u, seed=seed)
                ref = ref_oracle_check(ms, rep, u, seed=seed)
                assert [(f.name, f.ok, f.detail) for f in got] == [
                    (f.name, f.ok, f.detail) for f in ref
                ]


def flipped_reports(report):
    """The report as classified, then with ``real``, ``complex``, ``pure`` or
    ``totally_real`` flipped one at a time; a flipped-on complex flag keeps
    the report's witness, or takes I when it has none."""
    out = [report]
    for flag in ("real", "complex", "pure", "totally_real"):
        flags = report.flags._replace(**{flag: not getattr(report.flags, flag)})
        forged = report._replace(flags=flags)
        if flags.complex and report.witnesses.complex is None:
            forged = forged._replace(witnesses=report.witnesses._replace(complex=OP_I))
        out.append(forged)
    return out


def findings(fs):
    return [(f.name, f.ok, f.detail) for f in fs]


@pytest.mark.parametrize("kind", KINDS + ("hand_built",))
def test_sampled_checks_match_the_fraction_oracle(kind):
    """The oracle's real search, pure-complex search and twisted Hermitian
    norms read integer rows and a residue table; the oracle they replaced
    (``reference.oracle_check``) built an ``Operator`` and cleared rows per
    sample and an ``HBasisChange`` per SL(H) frame.  Every finding and
    detail must agree, failing ones included: the forged flags make the
    searches name ``witness ...`` and ``B=...``."""
    if kind == "hand_built":
        cases = [(*hand_built_instance(seed), seed) for seed in range(1000, 1030)]
    else:
        cases = [(n, generate(Rng(seed), n, kind), seed) for n in (1, 2, 3) for seed in range(6)]
    failing = 0
    for n, u, seed in cases:
        ms = ModelSpace.standard(n)
        for rep in flipped_reports(classify(ms, u)):
            got = findings(oracle_check(ms, rep, u, seed=seed))
            assert got == findings(ref_oracle(ms, rep, u, seed=seed))
            failing += sum(not ok for _, ok, _ in got)
    assert failing > 0


def test_real_search_on_chosen_draws():
    """Draws with q(A) = 0, where A x != 0 is not read off x != 0.  Oracle
    seed 1 on a real U of dim 2 draws (-5/2, 2, 3/2) as its 21st sample.
    Seed 55 draws (-5/3, -1, 4/3) first, whose kernel on H is (1, 2): it
    maps a para-quaternionic U into itself (a violation of a forged real
    flag) and kills every x in (1, 2) (x) E' (no violation from it).  On
    two nilpotent U with a forged real flag, U's rows have different
    denominators, and seed 0 finds no violation only when their residues
    are summed over one denominator."""
    cases = [(2, generate(Rng(s), 2, "real", 2), 1, False) for s in range(4)]
    cases.append((2, generate(Rng(0), 2, "para_quaternionic"), 55, True))
    line = decomposable_subspace((1, 2), Subspace.span([(1, 0, 2, 0), (0, 1, 0, 3)], 4))
    cases.append((2, line, 55, True))
    cases += [(n, generate(Rng(s), n, "nilpotent"), 0, True) for n, s in ((1, 2), (2, 4))]
    want = []
    for n, u, seed, forge in cases:
        ms = ModelSpace.standard(n)
        rep = classify(ms, u)
        if forge:
            rep = rep._replace(flags=rep.flags._replace(real=True))
        got = findings(oracle_check(ms, rep, u, seed=seed))
        assert got == findings(ref_oracle(ms, rep, u, seed=seed))
        real = {name: (ok, detail) for name, ok, detail in got}["real-no-sampled-violation"]
        want.append(real)
    witness = Operator(Fraction(-5, 3), -1, Fraction(4, 3))
    assert want[:6] == [(True, "")] * 4 + [(False, f"witness {witness}"), (True, "")]
    assert want[6:] == [(True, "")] * 2


def test_sampled_checks_build_no_basis_change(monkeypatch):
    """On ``generate(Rng(3), 4, kind)`` the oracle builds no ``HBasisChange``
    (the old one built one per SL(H) frame), calls ``hermitian_product`` once
    per sampled pair (not once per frame too), and its real search calls
    ``contains_int`` on no sample: it makes the same calls with the real flag
    forged off."""
    calls = {"basis": 0, "product": 0, "contains": 0}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(HBasisChange, "__init__", spy("basis", HBasisChange.__init__))
    monkeypatch.setattr(
        ModelSpace, "hermitian_product", spy("product", ModelSpace.hermitian_product)
    )
    monkeypatch.setattr(Subspace, "contains_int", spy("contains", Subspace.contains_int))
    ms = ModelSpace.standard(4)
    for kind in ("real", "complex"):
        u = generate(Rng(3), 4, kind)
        report = classify(ms, u)
        assert report.flags.real == (kind == "real")
        assert report.flags.complex == (kind == "complex")
        for k in calls:
            calls[k] = 0
        assert all(f.ok for f in oracle_check(ms, report, u))
        assert calls["basis"] == 0 and calls["product"] == 2
        if kind == "real":
            with_search = calls["contains"]
            calls["contains"] = 0
            off = report._replace(flags=report.flags._replace(real=False))
            oracle_check(ms, off, u)
            assert calls["contains"] == with_search

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqh.linalg import F0, F1, Mat, _eliminate, symmetric_signature
from pqh.polyq import (
    factor,
    is_rational_square,
    minimal_polynomial,
    poly_divmod,
    poly_eval_matrix,
    poly_mul,
    rational_roots,
    squarefree_part,
)
from pqh.quadext import QuadExt, sqrt_of
from pqh.rng import Rng
from pqh.subspace import Subspace


def rand_mat(rng, r, c):
    return Mat([rng.rationals(c) for _ in range(r)])


# -- reference kernels: the Fraction implementations the integer ones replaced


def ref_matmul(A, B):
    out = []
    brows = B.rows
    width = B.ncols
    for r in A.rows:
        acc = [F0] * width
        for a, brow in zip(r, brows):
            if a == 0:
                continue
            for j, b in enumerate(brow):
                if b != 0:
                    acc[j] += a * b
        out.append(tuple(acc))
    return Mat(out, ncols=width)


def ref_charpoly(A):
    n = A.nrows
    if n == 0:
        return (F1,)
    coeffs = [F1]
    M = Mat.identity(n)
    for k in range(1, n + 1):
        AM = ref_matmul(A, M)
        c = -AM.trace() / k
        coeffs.append(c)
        M = AM + Mat.identity(n).scale(c)
    return tuple(reversed(coeffs))


def ref_rref(A):
    rows = [list(r) for r in A.rows]
    pivots = []
    r = 0
    for c in range(A.ncols):
        sel = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return Mat(rows[:r], ncols=A.ncols), tuple(pivots)


def ref_det(A):
    n = A.nrows
    rows = [list(r) for r in A.rows]
    det = F1
    for c in range(n):
        sel = None
        for i in range(c, n):
            if rows[i][c] != 0:
                sel = i
                break
        if sel is None:
            return F0
        if sel != c:
            rows[c], rows[sel] = rows[sel], rows[c]
            det = -det
        det = det * rows[c][c]
        inv = rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] / inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


def ref_echelon_pairs(rows, prefix):
    rows = [list(r) for r in rows]
    r = 0
    for c in range(prefix):
        sel = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return rows, r


def ref_reduce(u, v):
    v = list(v)
    for row, p in zip(u.mat.rows, u.pivots):
        c = v[p]
        if c != 0:
            for j in range(len(v)):
                v[j] -= c * row[j]
    return tuple(v)


# kernel, inverse and solve are unchanged code on top of rref; these are the
# same code on top of ref_rref


def ref_kernel(A):
    R, pivots = ref_rref(A)
    free = [j for j in range(A.ncols) if j not in pivots]
    basis = []
    for j in free:
        v = [F0] * A.ncols
        v[j] = F1
        for i, p in enumerate(pivots):
            v[p] = -R.rows[i][j]
        basis.append(tuple(v))
    return ref_rref(Mat(basis, ncols=A.ncols))[0]


def ref_inverse(A):
    n = A.nrows
    R, pivots = ref_rref(A.hstack(Mat.identity(n)))
    if pivots[:n] != tuple(range(n)):
        return None
    return Mat(tuple(r[n:] for r in R.rows), ncols=n)


def ref_solve(A, b):
    R, pivots = ref_rref(A.hstack(Mat.from_cols((b,), nrows=A.nrows)))
    if A.ncols in pivots:
        return None
    x = [F0] * A.ncols
    for i, p in enumerate(pivots):
        x[p] = R.rows[i][A.ncols]
    return tuple(x)


small_entries = st.fractions(min_value=-20, max_value=20, max_denominator=12)
huge_entries = st.builds(
    Fraction,
    st.integers(-(10**100), 10**100),
    st.integers(1, 10**100),
)


@st.composite
def matrices(draw, nrows, ncols, entries):
    """Dense, zero or rank-deficient rational matrices of the given shape."""
    kind = draw(st.sampled_from(["dense", "zero", "low_rank"]))
    if kind == "zero" or not nrows or not ncols:
        return Mat.zeros(nrows, ncols)
    if kind == "dense":
        rows = draw(
            st.lists(
                st.lists(entries, min_size=ncols, max_size=ncols),
                min_size=nrows,
                max_size=nrows,
            )
        )
        return Mat(rows, ncols=ncols)
    rank = draw(st.integers(0, min(nrows, ncols) - 1))
    left = draw(matrices(nrows, rank, entries))
    right = draw(matrices(rank, ncols, entries))
    return ref_matmul(left, right)


@st.composite
def products(draw):
    m, k, n = (draw(st.integers(0, 12)) for _ in range(3))
    entries = draw(st.sampled_from([small_entries, huge_entries]))
    return draw(matrices(m, k, entries)), draw(matrices(k, n, entries))


@st.composite
def square_matrices(draw):
    entries = draw(st.sampled_from([small_entries, huge_entries]))
    # the Fraction reference charpoly takes about a minute on a dense 12 x 12
    # matrix of distinct 100-digit denominators; the explicit example below
    # covers 100-digit entries at 12 x 12
    n = draw(st.integers(0, 12 if entries is small_entries else 8))
    if n and draw(st.booleans()):
        # nilpotent Jordan block, scaled and shifted: charpoly (x - s)^n
        scale, shift = draw(entries), draw(entries)
        return Mat(
            tuple(
                tuple(shift if j == i else scale if j == i + 1 else F0 for j in range(n))
                for i in range(n)
            ),
            ncols=n,
        )
    return draw(matrices(n, n, entries))


@st.composite
def systems(draw):
    """(A, b): A of 0-10 rows by 0-12 columns, b consistent or random."""
    entries = draw(st.sampled_from([small_entries, huge_entries]))
    a = draw(matrices(draw(st.integers(0, 10)), draw(st.integers(0, 12)), entries))
    if draw(st.booleans()):
        b = a.mul_vec(tuple(draw(st.lists(entries, min_size=a.ncols, max_size=a.ncols))))
    else:
        b = tuple(draw(st.lists(entries, min_size=a.nrows, max_size=a.nrows)))
    return a, b


@st.composite
def reductions(draw):
    """(U, v): v has int or Fraction entries, inside U or not."""
    ambient = draw(st.integers(0, 12))
    entries = draw(st.sampled_from([small_entries, huge_entries]))
    u = Subspace(draw(matrices(draw(st.integers(0, 10)), ambient, entries)))
    ints = st.integers(-(10**100), 10**100) | st.integers(-9, 9)
    v = draw(st.lists(ints | entries, min_size=ambient, max_size=ambient))
    if u.dim and draw(st.booleans()):
        # a combination of the basis rows plus an int vector
        coeffs = draw(st.lists(entries, min_size=u.dim, max_size=u.dim))
        comb = Mat((coeffs,), ncols=u.dim) @ u.mat
        v = [x + y for x, y in zip(comb.rows[0], v)] if draw(st.booleans()) else comb.rows[0]
    return u, tuple(v)


quad_entries = small_entries | st.builds(
    lambda a, b: QuadExt(a, b, Fraction(2)), small_entries, small_entries
)


@st.composite
def quad_matrices(draw):
    """Matrices mixing Fraction and QuadExt entries over Q(sqrt 2)."""
    r, c = draw(st.integers(0, 4)), draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(quad_entries, min_size=c, max_size=c), min_size=r, max_size=r))
    if r > 1 and draw(st.booleans()):
        rows[-1] = [x + 2 * y for x, y in zip(rows[0], rows[1])]  # rank-deficient
    return Mat(rows, ncols=c)


class TestMat:
    def test_rref_canonical(self):
        rng = Rng(5)
        for _ in range(50):
            a = rand_mat(rng, 3, 5)
            r1, piv = a.rref()
            # re-reducing is idempotent and shuffled rows give the same form
            assert r1.rref()[0] == r1
            shuffled = Mat(a.rows[::-1])
            assert shuffled.rref()[0] == r1

    def test_kernel(self):
        rng = Rng(6)
        for _ in range(50):
            a = rand_mat(rng, 3, 6)
            k = a.kernel()
            assert k.nrows == 6 - a.rank()
            for row in k.rows:
                assert all(x == 0 for x in a.mul_vec(row))

    def test_inverse_and_det(self):
        rng = Rng(7)
        for _ in range(30):
            m = rand_mat(rng, 4, 4)
            if m.det() == 0:
                continue
            assert m @ m.inverse() == Mat.identity(4)
            assert m.inverse().det() * m.det() == 1

    def test_solve(self):
        a = Mat(((1, 2), (3, 4)))
        x = a.solve((5, 11))
        assert a.mul_vec(x) == (Fraction(5), Fraction(11))
        inconsistent = Mat(((1, 1), (2, 2))).solve((1, 3))
        assert inconsistent is None

    def test_charpoly_cayley_hamilton(self):
        rng = Rng(8)
        for _ in range(20):
            m = rand_mat(rng, 3, 3)
            cp = m.charpoly()
            assert cp[-1] == 1
            assert poly_eval_matrix(cp, m).is_zero()
            assert cp[0] == (-1) ** 3 * m.det()

    @given(products())
    @example((Mat((), ncols=3), Mat.zeros(3, 2)))
    @example((Mat.zeros(2, 0), Mat((), ncols=4)))
    @example((Mat.zeros(3, 2), Mat(((), ()), ncols=0)))
    @settings(max_examples=80, deadline=None)
    def test_matmul_matches_fraction_reference(self, ab):
        a, b = ab
        prod = a @ b
        assert prod == ref_matmul(a, b)
        assert prod.shape == (a.nrows, b.ncols)

    @given(square_matrices())
    @example(Mat((), ncols=0))
    @example(Mat(((0, 1, 0), (0, 0, 1), (0, 0, 0))))
    @example(Mat(((-3, 1), (0, -3))))
    @example(
        Mat(
            [
                [Fraction((-1) ** (i * j) * (10**99 + 7 * i + j), 10**99 + (i + j) % 3) for j in range(12)]
                for i in range(12)
            ]
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_charpoly_matches_fraction_reference(self, a):
        cp = a.charpoly()
        assert cp == ref_charpoly(a)
        assert all(type(c) is Fraction for c in cp)
        assert poly_eval_matrix(cp, a).is_zero()

    def test_charpoly_nilpotent_jordan_block(self):
        for n in range(1, 13):
            j = Mat(tuple(tuple(int(c == r + 1) for c in range(n)) for r in range(n)))
            assert j.charpoly() == (F0,) * n + (F1,)

    def test_charpoly_inexact_division_raises(self, monkeypatch):
        import pqh.linalg

        good = pqh.linalg._int_matmul

        def off_by_one(A, Bcols):
            out = good(A, Bcols)
            out[0][0] += 1
            return out

        monkeypatch.setattr(pqh.linalg, "_int_matmul", off_by_one)
        with pytest.raises(AssertionError, match="inexact division"):
            Mat.zeros(2, 2).charpoly()

    @given(systems())
    @example((Mat((), ncols=4), ()))
    @example((Mat.zeros(3, 5), (F0, F1, F0)))
    @example((Mat(((-(10**100), Fraction(1, 10**100)), (-1, Fraction(-1, 10**200)))), (1, 1)))
    @settings(max_examples=80, deadline=None)
    def test_rref_kernel_solve_match_fraction_reference(self, ab):
        a, b = ab
        R, pivots = a.rref()
        assert (R, pivots) == ref_rref(a)
        assert all(type(x) is Fraction for row in R.rows for x in row)
        assert a.rank() == len(pivots)
        assert a.kernel() == ref_kernel(a)
        assert a.solve(b) == ref_solve(a, b)

    @given(square_matrices())
    @example(Mat((), ncols=0))
    @example(Mat(((2, 1, 0), (1, 1, 0), (0, 0, 1))))  # pivot 1 after pivot 2
    @example(Mat(((1, 2, 3), (4, 5, 6), (7, 8, 9))))  # singular
    @settings(max_examples=80, deadline=None)
    def test_det_inverse_match_fraction_reference(self, a):
        det = a.det()
        assert det == ref_det(a)
        assert type(det) is Fraction
        ref = ref_inverse(a)
        if ref is None:
            assert det == 0
            with pytest.raises(ValueError, match="singular"):
                a.inverse()
        else:
            assert a.inverse() == ref

    @given(systems(), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_prefix_elimination_matches_fraction_reference(self, ab, prefix):
        # uft.to_uft and uft.pencil_change take pivots among the first
        # columns only, and read the rows only when the prefix has full rank
        a, _ = ab
        prefix = min(prefix, a.ncols)
        rows, pivots, _ = _eliminate(a.rows, prefix)
        ref_rows, ref_npiv = ref_echelon_pairs(a.rows, prefix)
        assert len(pivots) == ref_npiv
        if ref_npiv == a.nrows:
            assert [list(r) for r in rows] == ref_rows

    @given(reductions())
    @example((Subspace(Mat((), ncols=3)), (1, -2, 3)))
    @example((Subspace(Mat(((2, 4, 6),))), (10**100, 2 * 10**100, 3 * 10**100)))
    @settings(max_examples=80, deadline=None)
    def test_reduce_matches_fraction_reference(self, uv):
        u, v = uv
        red = u.reduce(v)
        assert red == ref_reduce(u, v)
        assert all(type(x) is Fraction for x in red)
        assert all(red[p] == 0 for p in u.pivots)

    @given(quad_matrices())
    @settings(max_examples=40, deadline=None)
    def test_elimination_over_quadext_matches_reference(self, a):
        assert a.rref() == ref_rref(a)
        assert a.kernel() == ref_kernel(a)
        if a.nrows == a.ncols:
            assert a.det() == ref_det(a)

    def test_bareiss_divisions_are_exact(self, monkeypatch):
        # run the integer elimination on ints whose // fails on a remainder
        import pqh.linalg

        divisors = []

        class Exact(int):
            def __mul__(self, other):
                return Exact(int(self) * int(other))

            __rmul__ = __mul__

            def __sub__(self, other):
                return Exact(int(self) - int(other))

            def __floordiv__(self, other):
                q, r = divmod(int(self), int(other))
                assert r == 0, "inexact Bareiss division"
                divisors.append(other)
                return Exact(q)

        int_row = pqh.linalg._int_row

        def exact_row(r):
            ints, d = int_row(r)
            return [Exact(x) for x in ints], d

        monkeypatch.setattr(pqh.linalg, "_int_row", exact_row)
        rng = Rng(11)
        for _ in range(60):
            r, c = 1 + rng.below(7), 1 + rng.below(9)
            a = rand_mat(rng, r, c)
            if rng.below(2):
                a = ref_matmul(rand_mat(rng, r, 1 + rng.below(r)), rand_mat(rng, a.nrows and r, c))
            assert a.rref() == ref_rref(a)
            if r == c:
                assert a.det() == ref_det(a)
        assert sum(abs(d) > 1 for d in divisors) > 1000

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Mat(((0.5, 1), (0, 1)))


class TestSignature:
    def test_diagonal(self):
        m = Mat(((2, 0, 0), (0, 0, 0), (0, 0, -3)))
        assert symmetric_signature(m) == (1, 1, 1)

    def test_hyperbolic_split(self):
        # zero diagonal, off-diagonal pair gives (1, 0, 1)
        m = Mat(((0, 1), (1, 0)))
        assert symmetric_signature(m) == (1, 0, 1)

    def test_mixed(self):
        m = Mat(((0, 1, 0), (1, 0, 0), (0, 0, 5)))
        assert symmetric_signature(m) == (2, 0, 1)

    def test_congruence_invariance(self):
        rng = Rng(9)
        for _ in range(40):
            m = rand_mat(rng, 4, 4)
            sym = m + m.T
            sig = symmetric_signature(sym)
            p = rand_mat(rng, 4, 4)
            if p.det() == 0:
                continue
            assert symmetric_signature(p.T @ sym @ p) == sig

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            symmetric_signature(Mat(((0, 1), (2, 0))))


class TestPoly:
    def test_factor_quadratics(self):
        # x^2 + 1 irreducible; x^2 - 1 splits
        one = Fraction(1)
        lead, fs = factor((one, Fraction(0), one))
        assert lead == 1 and fs == [((one, Fraction(0), one), 1)]
        lead, fs = factor((-one, Fraction(0), one))
        assert [f for f, _ in fs] == [(-one, one), (one, one)]

    def test_factor_random_products(self):
        rng = Rng(10)
        for _ in range(25):
            f = (rng.nonzero_rational(), Fraction(1))
            g = (rng.rational(), rng.rational(), Fraction(1))
            prod = poly_mul(poly_mul(f, f), g)
            lead, fs = factor(prod)
            rebuilt = (lead,)
            for fac, mult in fs:
                for _ in range(mult):
                    rebuilt = poly_mul(rebuilt, fac)
            assert rebuilt == prod

    def test_rational_roots(self):
        # (x - 2)(x + 1/3)(x^2 + 1)
        f = poly_mul(
            poly_mul((Fraction(-2), Fraction(1)), (Fraction(1, 3), Fraction(1))),
            (Fraction(1), Fraction(0), Fraction(1)),
        )
        assert rational_roots(f) == {Fraction(2), Fraction(-1, 3)}

    def test_squarefree(self):
        f = poly_mul((Fraction(-1), Fraction(1)), (Fraction(-1), Fraction(1)))
        assert squarefree_part(f) == (Fraction(-1), Fraction(1))

    def test_minimal_polynomial(self):
        # Jordan block with eigenvalue 2: minpoly (x-2)^2, charpoly (x-2)^2
        j = Mat(((2, 1), (0, 2)))
        assert minimal_polynomial(j) == (Fraction(4), Fraction(-4), Fraction(1))
        # diagonalizable: minpoly squarefree
        d = Mat(((2, 0), (0, 2)))
        assert minimal_polynomial(d) == (Fraction(-2), Fraction(1))

    def test_divmod(self):
        f = (Fraction(1), Fraction(2), Fraction(1))  # (x+1)^2
        q, r = poly_divmod(f, (Fraction(1), Fraction(1)))
        assert q == (Fraction(1), Fraction(1)) and r == ()

    def test_import_leaves_sympy_unloaded(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        out = subprocess.run(
            [sys.executable, "-c", "import sys, pqh; print('sympy' in sys.modules)"],
            capture_output=True,
            text=True,
            check=True,
            env=dict(os.environ, PYTHONPATH=path),
        ).stdout
        assert out == "False\n"

    def test_is_rational_square(self):
        assert is_rational_square(Fraction(9, 4)) == Fraction(3, 2)
        assert is_rational_square(Fraction(2)) is None
        assert is_rational_square(Fraction(-1)) is None
        assert is_rational_square(Fraction(0)) == 0


class TestQuadExt:
    def test_field_ops(self):
        r2 = sqrt_of(2)
        x = 1 + r2
        assert x * x == 3 + 2 * r2
        assert (x * x - 3) / 2 == r2
        y = x.inverse()
        assert x * y == 1
        assert r2 * r2 == 2

    def test_nonsquare_radicand_required(self):
        with pytest.raises(ValueError):
            QuadExt(Fraction(1), Fraction(1), Fraction(4))

    def test_linear_algebra_over_extension(self):
        r2 = sqrt_of(2)
        m = Mat(((QuadExt(Fraction(0), Fraction(0), Fraction(2)), 2 + 0 * r2),
                 (1 + 0 * r2, QuadExt(Fraction(0), Fraction(0), Fraction(2)))))
        # T = [[0,2],[1,0]]: kernel of T - sqrt(2) is spanned by (sqrt(2), 1)
        shifted = m - Mat.identity(2).scale(r2)
        k = shifted.kernel()
        assert k.nrows == 1
        v = k.rows[0]
        assert tuple(m.mul_vec(v)) == tuple(r2 * x for x in v)

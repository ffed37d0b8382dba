import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_graph_maps import bits100

from pqh.generate import generate
from pqh.linalg import (
    F0,
    F1,
    M127,
    Mat,
    _bareiss,
    _faddeev_charpoly,
    _int_row,
    _int_rows,
    _krylov_charpoly,
    frac_row,
    int_rref,
    symmetric_signature,
)
from pqh.polyq import (
    factor,
    is_rational_square,
    minimal_polynomial,
    poly_eval_matrix,
    poly_mul,
)
from pqh.rng import Rng
from pqh.subspace import Subspace
from pqh.uft import graph_form, injectivize, invariant_core, pq_split
from conftest import cleared_rows
from reference import QuadExt, mat_is_zero, mat_rank, mat_trace, sqrt_of


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
        c = -mat_trace(AM) / k
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


# -- the Fraction-row elimination that Mat.rref and Mat.det ran before they
# read int_rref and _bareiss directly: _eliminate verbatim, and the method
# bodies on top of it (inverse and solve are unchanged code over rref)


def _eliminate(rows, width):
    """Fraction-free Gauss-Jordan elimination (Bareiss), pivots in columns < width.

    Returns ``(R, pivots, det)``: ``R`` holds the pivot rows of the reduced
    row echelon form, and ``det`` is the signed product of the pivots that
    dividing elimination would meet, so ``det(A)`` when A is square and
    nonsingular.

    The rational rows are scaled to ints, each by its own lcm of
    denominators (``scale`` is their product), and run through
    :func:`_bareiss`.  A pivot row ends as ``row / D[i]`` of the reduced
    form, each entry built once as ``Fraction(x, D[i])``, and the last
    pivot is ``+-det`` of the scaled rows.
    """
    M, scale = [], 1
    for r in rows:
        ints, d = _int_row(r)
        M.append(ints)
        scale *= d
    pivots, D, det = _bareiss(M, width)
    R = [frac_row(row, d) for row, d in zip(M, D)]
    return R, pivots, Fraction(det, scale)


def elim_rref(self):
    R, pivots, _ = _eliminate(self.rows, self._ncols)
    return Mat._of(tuple(R), self._ncols), pivots


def elim_det(self):
    n = self.nrows
    if n != self._ncols:
        raise ValueError("determinant of non-square matrix")
    _, pivots, det = _eliminate(self.rows, n)
    return det if len(pivots) == n else F0


def elim_inverse(self):
    n = self.nrows
    if n != self._ncols:
        raise ValueError("inverse of non-square matrix")
    aug = self.hstack(Mat.identity(n))
    R, pivots = elim_rref(aug)
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return Mat._of(tuple(r[n:] for r in R.rows), n)


def elim_solve(self, b):
    aug = self.hstack(Mat.from_cols((b,), nrows=self.nrows))
    R, pivots = elim_rref(aug)
    if self._ncols in pivots:
        return None
    x = [F0] * self._ncols
    for i, p in enumerate(pivots):
        x[p] = R.rows[i][self._ncols]
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
        return Mat(((0,) * ncols,) * nrows, ncols=ncols)
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
def eliminations(draw):
    """(A, b): A zero, dense or rank-deficient, square (so also singular)
    or not, with small or ~100-bit entries; b of A's height."""
    entries = draw(st.sampled_from([small_entries, bits100]))
    nrows = draw(st.integers(0, 8))
    ncols = nrows if draw(st.booleans()) else draw(st.integers(0, 10))
    a = draw(matrices(nrows, ncols, entries))
    return a, tuple(draw(st.lists(entries, min_size=nrows, max_size=nrows)))


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


class TestMat:
    def test_floats_rejected(self):
        one = Mat.identity(2)
        with pytest.raises(TypeError):
            one.scale(0.5)
        with pytest.raises(TypeError):
            one.mul_vec((0.5, 1))
        with pytest.raises(TypeError):
            one @ Mat(((0.5,), (1,)))

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
            assert k.nrows == 6 - mat_rank(a)
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
            assert mat_is_zero(poly_eval_matrix(cp, m))
            assert cp[0] == (-1) ** 3 * m.det()

    @given(products())
    @example((Mat((), ncols=3), Mat(((0,) * 2,) * 3, ncols=2)))
    @example((Mat(((),) * 2, ncols=0), Mat((), ncols=4)))
    @example((Mat(((0,) * 2,) * 3, ncols=2), Mat(((), ()), ncols=0)))
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
        assert mat_is_zero(poly_eval_matrix(cp, a))

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
            Mat.scalar(2, 0).charpoly()

    @given(systems())
    @example((Mat((), ncols=4), ()))
    @example((Mat(((0,) * 5,) * 3, ncols=5), (F0, F1, F0)))
    @example((Mat(((-(10**100), Fraction(1, 10**100)), (-1, Fraction(-1, 10**200)))), (1, 1)))
    @settings(max_examples=80, deadline=None)
    def test_rref_kernel_solve_match_fraction_reference(self, ab):
        a, b = ab
        R, pivots = a.rref()
        assert (R, pivots) == ref_rref(a)
        assert all(type(x) is Fraction for row in R.rows for x in row)
        assert mat_rank(a) == len(pivots)
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
        # uft._graph_of (under to_uft) takes pivots among the first
        # columns only, and reads the rows only when the prefix has full
        # rank
        a, _ = ab
        prefix = min(prefix, a.ncols)
        rows, pivots = int_rref([_int_row(r)[0] for r in a.rows], prefix)
        ref_rows, ref_npiv = ref_echelon_pairs(a.rows, prefix)
        assert len(pivots) == ref_npiv
        if ref_npiv == a.nrows:
            assert [list(frac_row(*r)) for r in rows] == ref_rows

    @given(eliminations())
    @example((Mat.scalar(3, 0), (F1, F0, F0)))
    @example((Mat(((1, 2, 3), (4, 5, 6), (7, 8, 9))), (1, 1, 1)))  # singular
    @example((Mat(((0,) * 4,) * 2, ncols=4), (F0, F0)))
    @example((Mat([[Fraction(2**100 - 3 * i - j, 2**99 + i + 5 * j) for j in range(5)] for i in range(5)]), (1,) * 5))
    @settings(max_examples=100, deadline=None)
    def test_elimination_matches_eliminate_reference(self, ab):
        a, b = ab
        R, pivots = a.rref()
        assert (R, pivots) == elim_rref(a)
        assert all(type(x) is Fraction for row in R.rows for x in row)
        assert a.solve(b) == elim_solve(a, b)
        if a.nrows != a.ncols:
            return
        det = a.det()
        assert det == elim_det(a)
        assert type(det) is Fraction
        try:
            ref = elim_inverse(a)
        except ValueError:
            assert det == 0
            with pytest.raises(ValueError, match="singular"):
                a.inverse()
        else:
            assert a.inverse() == ref

    @given(reductions())
    @example((Subspace(Mat((), ncols=3)), (1, -2, 3)))
    @example((Subspace(Mat(((2, 4, 6),))), (10**100, 2 * 10**100, 3 * 10**100)))
    @settings(max_examples=80, deadline=None)
    def test_reduce_matches_fraction_reference(self, uv):
        u, v = uv
        red = frac_row(*u.reduce_int(*_int_row(v)))
        assert red == ref_reduce(u, v)
        assert all(type(x) is Fraction for x in red)
        assert all(red[p] == 0 for p in u.pivots)

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

    @pytest.mark.parametrize(
        "bad", [sqrt_of(2), "1", None, 0.5], ids=["quadext", "str", "none", "float"]
    )
    def test_non_rational_entries_rejected(self, bad):
        # a built Mat is rational: ints and Fractions only
        with pytest.raises(TypeError):
            Mat(((1, bad),))
        with pytest.raises(TypeError):
            Mat.scalar(2, bad)
        with pytest.raises(TypeError):
            Mat.identity(2).scale(bad)

    def test_from_cols_rejects_ragged_columns(self):
        with pytest.raises(ValueError):
            Mat.from_cols([(1, 2), (3,)])
        with pytest.raises(ValueError):
            Mat.from_cols([(1, 2)], nrows=3)
        assert Mat.from_cols([(1, 2), (3, 4)], nrows=2) == Mat(((1, 3), (2, 4)))
        assert Mat.from_cols([], nrows=2).shape == (2, 0)


# -- the Krylov-Dixon charpoly and its Faddeev-LeVerrier fallback


def faddeev_charpoly(a):
    """``Mat.charpoly`` by the fallback path alone."""
    B, d = _int_rows(a.rows)
    return tuple(Fraction(c, d ** (a.nrows - k)) for k, c in enumerate(_faddeev_charpoly(B)))


def krylov_applies(a):
    """Whether ``Mat.charpoly`` takes the Krylov path on ``a``."""
    return _krylov_charpoly(_int_rows(a.rows)[0]) is not None


bits500 = st.builds(Fraction, st.integers(-(2**500), 2**500), st.integers(1, 2**500))


def companion(coeffs):
    """The companion matrix of x^n + sum c_k x^k: ones below the diagonal,
    so e_0 is cyclic."""
    n = len(coeffs)
    return Mat(
        [[int(j == i - 1) for j in range(n - 1)] + [-coeffs[i]] for i in range(n)], ncols=n
    )


def block_diag(*blocks):
    n = sum(b.nrows for b in blocks)
    rows, off = [], 0
    for b in blocks:
        for r in b.rows:
            rows.append((F0,) * off + r + (F0,) * (n - off - b.nrows))
        off += b.nrows
    return Mat(rows, ncols=n)


@st.composite
def conjugated(draw, a, entries):
    """P a P^-1 for an invertible P, or a itself."""
    if not a.nrows or draw(st.booleans()):
        return a
    p = draw(matrices(a.nrows, a.nrows, entries).filter(lambda m: m.det() != 0))
    return p @ a @ p.inverse()


@st.composite
def charpoly_cases(draw):
    """(A, whether e_0 is cyclic for A as drawn)."""
    entries = draw(st.sampled_from([small_entries, bits500]))
    n = draw(st.integers(1, 8 if entries is small_entries else 6))
    shape = draw(
        st.sampled_from(
            ["cyclic", "scalar", "twice", "square_root", "diagonal", "m127", "jordan", "dense"]
        )
    )
    if shape == "cyclic":
        a = companion(draw(st.lists(entries, min_size=n, max_size=n)))
        return draw(conjugated(a, small_entries)), None
    if shape == "scalar":  # lambda I
        return Mat.scalar(n, draw(entries)), n == 1
    if shape == "twice":  # diag(C, C): every vector has degree <= n / 2
        c = companion(draw(st.lists(entries, min_size=1, max_size=4)))
        return draw(conjugated(block_diag(c, c), small_entries)), False
    if shape == "square_root":  # T^2 = -s Id on Q^2k, derogatory for k >= 2
        k, s = draw(st.integers(2, 4)), draw(entries.filter(bool))
        eye, zero = Mat.identity(k), Mat.scalar(k, 0)
        t = zero.hstack(eye.scale(-s)).rows + eye.hstack(zero).rows
        return draw(conjugated(Mat(t, ncols=2 * k), small_entries)), False
    if shape == "diagonal":  # e_0 is an eigenvector
        return Mat(
            [[draw(entries) if i == j else 0 for j in range(n)] for i in range(n)], ncols=n
        ), n == 1
    if shape == "m127":  # W = [e_0, 0, ...] mod M127
        a = companion(draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))
        return a.scale(M127 * draw(st.integers(1, 3))), n == 1
    if shape == "jordan":  # nilpotent, e_0 cyclic with the ones below the diagonal
        lower = draw(st.booleans())
        j = Mat([[int(c == r - 1 if lower else c == r + 1) for c in range(n)] for r in range(n)])
        return j, lower or n == 1
    return draw(matrices(n, n, entries)), None


@given(charpoly_cases())
@settings(max_examples=150, deadline=None)
def test_charpoly_matches_faddeev_on_cyclic_and_derogatory_matrices(case):
    a, cyclic = case
    cp = a.charpoly()
    assert cp == faddeev_charpoly(a)
    if cyclic is not None:
        assert krylov_applies(a) == cyclic
    if max(x.numerator.bit_length() for r in a.rows for x in r) < 64 and a.nrows <= 6:
        assert cp == ref_charpoly(a)


def test_charpoly_with_many_distinct_large_denominators():
    # 20 distinct 100-digit denominators over an 8 x 8 matrix
    rng = Rng(20)
    dens = [10**99 + rng.below(10**99) for _ in range(20)]
    a = Mat(
        [[Fraction(rng.below(10**100) - 10**99, dens[(8 * i + j) % 20]) for j in range(8)] for i in range(8)]
    )
    assert krylov_applies(a)
    assert a.charpoly() == faddeev_charpoly(a)


def spy_on_fallback(monkeypatch):
    import pqh.linalg

    calls = []

    def spy(B):
        calls.append(len(B))
        return _faddeev_charpoly(B)

    monkeypatch.setattr(pqh.linalg, "_faddeev_charpoly", spy)
    return calls


def core_map(u):
    form = graph_form(pq_split(u)[2])
    return invariant_core(injectivize(form))[1]


def test_workload_cores_take_the_krylov_path(monkeypatch):
    calls = spy_on_fallback(monkeypatch)
    for seed in range(3):
        t = core_map(generate(Rng(seed), 6, "generic", 12))
        assert t.nrows == 12
        assert t.charpoly() == faddeev_charpoly(t)
    assert calls == []


def test_complex_cores_fall_back_to_faddeev(monkeypatch):
    t = core_map(generate(Rng(0), 2, "complex"))
    # T is a shift of a square root of -s Id: its minimal polynomial is a
    # quadratic, so it is derogatory
    assert t.nrows >= 4
    # the spy goes in first: minimal_polynomial computes the charpoly
    # that t keeps
    calls = spy_on_fallback(monkeypatch)
    assert sum(len(q) - 1 for q in minimal_polynomial(t)) == 2
    assert t.charpoly() == ref_charpoly(t)
    assert calls == [t.nrows]


def test_charpoly_trace_check_raises(monkeypatch):
    import pqh.linalg

    good = pqh.linalg._int_matmul

    def off_by_one(A, Bcols):
        out = good(A, Bcols)
        out[0][0] += 1
        return out

    a = companion([5, -3, 2])
    assert krylov_applies(a)
    monkeypatch.setattr(pqh.linalg, "_int_matmul", off_by_one)
    with pytest.raises(AssertionError, match="trace check"):
        a.charpoly()


class TestSignature:
    def test_diagonal(self):
        m = Mat(((2, 0, 0), (0, 0, 0), (0, 0, -3)))
        assert symmetric_signature(cleared_rows(m)) == (1, 1, 1)

    def test_hyperbolic_split(self):
        # zero diagonal, off-diagonal pair gives (1, 0, 1)
        m = Mat(((0, 1), (1, 0)))
        assert symmetric_signature(cleared_rows(m)) == (1, 0, 1)

    def test_mixed(self):
        m = Mat(((0, 1, 0), (1, 0, 0), (0, 0, 5)))
        assert symmetric_signature(cleared_rows(m)) == (2, 0, 1)

    def test_congruence_invariance(self):
        rng = Rng(9)
        for _ in range(40):
            m = rand_mat(rng, 4, 4)
            sym = m + m.T
            sig = symmetric_signature(cleared_rows(sym))
            p = rand_mat(rng, 4, 4)
            if p.det() == 0:
                continue
            assert symmetric_signature(cleared_rows(p.T @ sym @ p)) == sig

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            symmetric_signature([[0, 1], [2, 0]])


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

    def test_minimal_polynomial(self):
        # the irreducible factors only: x - 2 for the Jordan block, whose
        # minimal polynomial is (x - 2)^2, and for 2 Id, whose is x - 2
        for a in (Mat(((2, 1), (0, 2))), Mat(((2, 0), (0, 2)))):
            assert minimal_polynomial(a) == ((-2, 1),)

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


def test_generic_decompositions_leave_sympy_unloaded():
    # the core polynomials of these graphs are proved irreducible modulo
    # small primes, so no decomposition needs sympy's factorization
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    script = (
        "import sys\n"
        "from pqh.classify import generic_decompose\n"
        "from pqh.generate import generate\n"
        "from pqh.rng import Rng\n"
        "from pqh.uft import decompose_form1, decompose_form2\n"
        "for s in (1, 2, 3):\n"
        "    u = generate(Rng(s), 3, 'generic', 6)\n"
        "    generic_decompose(u)\n"
        "    decompose_form2(u)\n"
        "    decompose_form1(u)\n"
        "    print('sympy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=path),
    ).stdout
    assert out == "False\nFalse\nFalse\n"


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


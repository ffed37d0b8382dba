"""Exact dense linear algebra over Q.

All matrices are immutable tuples of row tuples; entries are
``fractions.Fraction`` by default.  Rational work runs on plain Python
integers and builds each output ``Fraction`` once: products and
``charpoly`` clear denominators, and every elimination (``rref`` and so
``kernel``, ``rank``, ``inverse``, ``solve``; ``det``; the prefix-pivot
echelon form of :mod:`pqh.uft`) is the one fraction-free Gauss-Jordan
loop :func:`_eliminate`.  Matrices over Q(sqrt(c))
(:class:`pqh.quadext.QuadExt`) support ``+``, ``-``, ``scale`` and
elimination, which runs the same loop with field division.  There is no
floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import floordiv, mul, truediv

F0 = Fraction(0)
F1 = Fraction(1)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u):
    return tuple(c * a for a in u)


def vec_is_zero(u):
    return all(a == 0 for a in u)


def vec_dot(u, v):
    return sum((a * b for a, b in zip(u, v)), F0)


def _int_row(r):
    """Clear the denominators of one rational (or int) row.

    Returns ``(ints, d)`` with ``d`` the lcm of the denominators, so that
    ``r[j] == Fraction(ints[j], d)``.
    """
    d = lcm(*[x.denominator for x in r])
    if d == 1:
        return [x.numerator for x in r], 1
    return [x.numerator * (d // x.denominator) for x in r], d


def _int_rows(rows):
    """Clear the denominators of rational rows by one common lcm ``d``."""
    d = lcm(*(x.denominator for r in rows for x in r))
    return [[x.numerator * (d // x.denominator) for x in r] for r in rows], d


def _int_matmul(A, Bcols):
    """Product of plain-int matrices, ``A`` given by rows and ``B`` by columns."""
    return [[sum(map(mul, r, c)) for c in Bcols] for r in A]


def _eliminate(rows, width):
    """Fraction-free Gauss-Jordan elimination (Bareiss), pivots in columns < width.

    Returns ``(R, pivots, det)``: ``R`` holds the pivot rows of the reduced
    row echelon form, and ``det`` is the signed product of the pivots that
    dividing elimination would meet, so ``det(A)`` when A is square and
    nonsingular.

    Rational rows are scaled to ints, each by its own lcm of denominators.
    A step with pivot ``p`` (the one before it ``prev``) takes every other
    row with ``f != 0`` in the pivot column to ``(p*row - f*prow) / prev``;
    the division is exact, since every entry stays a minor of the scaled
    matrix.  Bareiss would also scale the rows with ``f == 0`` by
    ``p / prev``; here they are left alone and each row keeps the pivot
    ``D[i]`` it was last brought up to date at, so its Bareiss value is
    ``row * prev / D[i]``, again exact.  A pivot row ends as ``row / D[i]``
    of the reduced form, each entry built once as ``Fraction(x, D[i])``,
    and the last pivot is ``+-det`` of the scaled rows.  Rows with entries
    outside Q (``QuadExt``) run the same loop with field division and no
    scaling.
    """
    field = not all(type(x) is Fraction for r in rows for x in r)
    if field:
        M = [list(r) for r in rows]
        prev, scale = F1, F1
    else:
        M, scale = [], 1
        for r in rows:
            ints, d = _int_row(r)
            M.append(ints)
            scale *= d
        prev = 1
    div = truediv if field else floordiv
    n = len(M)
    D = [prev] * n
    pivots = []
    sign = 1
    for c in range(width):
        r = len(pivots)
        if r == n:
            break
        sel = next((i for i in range(r, n) if M[i][c]), None)
        if sel is None:
            continue
        if sel != r:
            M[r], M[sel] = M[sel], M[r]
            D[r], D[sel] = D[sel], D[r]
            sign = -sign
        prow = M[r]
        if D[r] != prev:  # bring the row up to date
            prow = [div(x * prev, D[r]) for x in prow]
        p = prow[c]
        for i, row in enumerate(M):
            f = row[c]
            if not f or i == r:
                continue
            if D[i] != prev:
                row = [div(x * prev, D[i]) for x in row]
                f = row[c]
            if field:
                M[i] = [(p * x - f * y) / prev for x, y in zip(row, prow)]
            else:
                M[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
            D[i] = p
        M[r], D[r] = prow, p
        prev = p
        pivots.append(c)
    r = len(pivots)
    if field:
        R = [tuple(x / d for x in row) for row, d in zip(M, D[:r])]
        return R, tuple(pivots), sign * prev / scale
    R = [tuple(Fraction(x, d) if x else F0 for x in row) for row, d in zip(M, D[:r])]
    return R, tuple(pivots), Fraction(sign * prev, scale)


def _entry(x):
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        raise TypeError("floating point is not allowed in exact matrices")
    return x


class Mat:
    """Immutable dense matrix with exact field entries."""

    __slots__ = ("rows", "_ncols", "_hash")

    def __init__(self, rows, ncols=None):
        self._hash = None
        self.rows = tuple(tuple(_entry(x) for x in r) for r in rows)
        if self.rows:
            self._ncols = len(self.rows[0])
            if any(len(r) != self._ncols for r in self.rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != self._ncols:
                raise ValueError("ncols mismatch")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit ncols")
            self._ncols = ncols

    @classmethod
    def identity(cls, n):
        return cls(
            tuple(tuple(F1 if i == j else F0 for j in range(n)) for i in range(n)),
            ncols=n,
        )

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls(tuple((F0,) * ncols for _ in range(nrows)), ncols=ncols)

    @classmethod
    def from_cols(cls, cols, nrows=None):
        cols = tuple(tuple(c) for c in cols)
        if not cols:
            if nrows is None:
                raise ValueError("empty column list needs nrows")
            return cls(tuple(() for _ in range(nrows)), ncols=0)
        return cls(tuple(zip(*cols)), ncols=len(cols))

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return self._ncols

    @property
    def shape(self):
        return (len(self.rows), self._ncols)

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    @property
    def cols(self):
        return tuple(self.col(j) for j in range(self._ncols))

    @property
    def T(self):
        return Mat(tuple(zip(*self.rows)), ncols=len(self.rows)) if self.rows else Mat(
            tuple(() for _ in range(self._ncols)), ncols=0
        )

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self._ncols == other._ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rows, self._ncols))
        return self._hash

    def __repr__(self):
        return f"Mat({list(map(list, self.rows))!r})"

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Mat(
            tuple(vec_add(a, b) for a, b in zip(self.rows, other.rows)),
            ncols=self._ncols,
        )

    def __sub__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Mat(
            tuple(vec_sub(a, b) for a, b in zip(self.rows, other.rows)),
            ncols=self._ncols,
        )

    def __neg__(self):
        return self.scale(-F1)

    def scale(self, c):
        return Mat(tuple(vec_scale(c, r) for r in self.rows), ncols=self._ncols)

    def __matmul__(self, other):
        if self._ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        # Each left row and each right column over its own denominator:
        # entry (i, j) is P[i][j] / (d_i * e_j).  A common denominator for
        # the right factor would do, but with many distinct large
        # denominators its lcm makes the integers far longer.
        left = [_int_row(r) for r in self.rows]
        right = [_int_row(c) for c in other.cols]
        P = _int_matmul([a for a, _ in left], [b for b, _ in right])
        return Mat(
            tuple(
                tuple(Fraction(x, da * db) if x else F0 for x, (_, db) in zip(row, right))
                for row, (_, da) in zip(P, left)
            ),
            ncols=other.ncols,
        )

    def mul_vec(self, v):
        if len(v) != self._ncols:
            raise ValueError("vector length mismatch")
        return tuple(vec_dot(r, v) for r in self.rows)

    def is_zero(self):
        return all(vec_is_zero(r) for r in self.rows)

    def is_symmetric(self):
        return self.shape[0] == self.shape[1] and self == self.T

    def is_skew(self):
        return self.shape[0] == self.shape[1] and self == -self.T

    def vstack(self, other):
        if self._ncols != other._ncols:
            raise ValueError("column mismatch")
        return Mat(self.rows + other.rows, ncols=self._ncols)

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row mismatch")
        return Mat(
            tuple(a + b for a, b in zip(self.rows, other.rows)),
            ncols=self._ncols + other._ncols,
        )

    # -- elimination ------------------------------------------------------

    def rref(self):
        """Reduced row echelon form.

        Returns ``(R, pivots)`` where R keeps only the nonzero rows and
        pivots is the tuple of pivot column indices.  The result is the
        unique canonical basis of the row space.
        """
        R, pivots, _ = _eliminate(self.rows, self._ncols)
        return Mat(R, ncols=self._ncols), pivots

    def rank(self):
        return self.rref()[0].nrows

    def kernel(self):
        """Canonical (RREF) basis of {x : A x = 0}, rows of the result."""
        R, pivots = self.rref()
        pivset = set(pivots)
        free = [j for j in range(self._ncols) if j not in pivset]
        basis = []
        for j in free:
            v = [F0] * self._ncols
            v[j] = F1
            for i, p in enumerate(pivots):
                v[p] = -R.rows[i][j]
            basis.append(tuple(v))
        if not basis:
            return Mat((), ncols=self._ncols)
        return Mat(basis, ncols=self._ncols).rref()[0]

    def det(self):
        n = self.nrows
        if n != self._ncols:
            raise ValueError("determinant of non-square matrix")
        _, pivots, det = _eliminate(self.rows, n)
        return det if len(pivots) == n else F0

    def inverse(self):
        n = self.nrows
        if n != self._ncols:
            raise ValueError("inverse of non-square matrix")
        aug = self.hstack(Mat.identity(n))
        R, pivots = aug.rref()
        if pivots[:n] != tuple(range(n)):
            raise ValueError("matrix is singular")
        return Mat(tuple(r[n:] for r in R.rows), ncols=n)

    def solve(self, b):
        """One solution x of A x = b, or None if inconsistent."""
        aug = self.hstack(Mat.from_cols((b,), nrows=self.nrows))
        R, pivots = aug.rref()
        if self._ncols in pivots:
            return None
        x = [F0] * self._ncols
        for i, p in enumerate(pivots):
            x[p] = R.rows[i][self._ncols]
        return tuple(x)

    def trace(self):
        if self.nrows != self._ncols:
            raise ValueError("trace of non-square matrix")
        return sum((self.rows[i][i] for i in range(self.nrows)), F0)

    def charpoly(self):
        """Monic characteristic polynomial det(xI - A), coefficients low to high.

        Rational entries only.  Faddeev-LeVerrier on the integer matrix
        B = d*A, d the lcm of the denominators: B has the integer
        characteristic polynomial sum c_k x^(n-k), each step divides by k
        exactly, and the coefficient of x^(n-k) for A is c_k / d^k.
        """
        n = self.nrows
        if n != self._ncols:
            raise ValueError("charpoly of non-square matrix")
        B, d = _int_rows(self.rows)
        Bcols = list(zip(*B))
        coeffs = [1]  # c_0, the leading coefficient of x^n
        M = [[int(i == j) for j in range(n)] for i in range(n)]
        for k in range(1, n + 1):
            # M is a polynomial in B, so B M = M B
            M = _int_matmul(M, Bcols)
            c, r = divmod(-sum(M[i][i] for i in range(n)), k)
            if r:
                raise AssertionError("inexact division in Faddeev-LeVerrier")
            coeffs.append(c)
            for i in range(n):
                M[i][i] += c
        # coeffs is [c_0, ..., c_n] from x^n downward; return low->high
        return tuple(Fraction(c, d**k) for k, c in enumerate(coeffs))[::-1]


def symmetric_signature(M: Mat):
    """Sylvester inertia (p, s, q) of a symmetric matrix, by exact congruence.

    Pivot rule: first nonzero diagonal entry; when the diagonal is all
    zero but the matrix is not, the first nonzero off-diagonal pair is
    split hyperbolically and contributes (1, 0, 1).
    """
    if not M.is_symmetric():
        raise ValueError("signature of non-symmetric matrix")
    idx = list(range(M.nrows))
    a = {
        (i, j): M.rows[i][j] for i in idx for j in idx if M.rows[i][j] != 0
    }
    pos = neg = null = 0
    while idx:
        piv = next((i for i in idx if a.get((i, i), F0) != 0), None)
        if piv is not None:
            d = a[(piv, piv)]
            if d > 0:
                pos += 1
            else:
                neg += 1
            idx.remove(piv)
            col = {k: a[(piv, k)] for k in idx if (piv, k) in a}
            for k in col:
                for l in col:
                    val = a.get((k, l), F0) - col[k] * col[l] / d
                    if val == 0:
                        a.pop((k, l), None)
                    else:
                        a[(k, l)] = val
            continue
        pair = None
        for i in idx:
            for j in idx:
                if j > i and a.get((i, j), F0) != 0:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            null += len(idx)
            break
        i, j = pair
        b = a[(i, j)]
        pos += 1
        neg += 1
        idx.remove(i)
        idx.remove(j)
        rowi = {k: a.get((i, k), F0) for k in idx}
        rowj = {k: a.get((j, k), F0) for k in idx}
        for k in idx:
            for l in idx:
                val = a.get((k, l), F0) - (rowi[k] * rowj[l] + rowj[k] * rowi[l]) / b
                if val == 0:
                    a.pop((k, l), None)
                else:
                    a[(k, l)] = val
    return (pos, null, neg)

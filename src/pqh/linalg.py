"""Exact dense linear algebra over Q.

All matrices are immutable tuples of row tuples of ``fractions.Fraction``.
``Mat(rows)`` turns ints into ``Fraction`` values and raises ``TypeError``
on any other entry (a float, an element of Q(sqrt c), a string, ``None``),
so there is no floating point anywhere and a built ``Mat`` is rational.
Operations on built matrices return ``Fraction`` entries only, and build
their results through the trusted constructor ``Mat._of`` with no second
check.

Work runs on plain Python integers and builds each output ``Fraction``
once: products (and so ``mul_vec``) and ``charpoly`` clear denominators,
and every elimination is the one fraction-free Gauss-Jordan loop
:func:`_bareiss` on integer rows, which no other module runs.  Its
reduced forms leave this module through two kernels that stay in
integers end to end and build no ``Fraction``: :func:`int_rref` gives
the reduced rows as ``(ints, d)`` in lowest terms, the form in which
:mod:`pqh.subspace` keeps a canonical basis, and :func:`int_kernel`
gives the reduced kernel basis in the same form, by one pass with the
columns in reverse order.  A ``width`` below the row length puts the
pivots in a prefix of the columns, which is how :mod:`pqh.uft` reads a
graph off its rows.  ``Mat.rref`` (and so ``inverse`` and ``solve``) is
the ``Fraction`` view of :func:`int_rref`, and ``Mat.kernel`` that of
:func:`int_kernel`.  ``Mat.det`` clears each row and reads the last
pivot of :func:`_bareiss`, and :func:`int_rank` builds no ``Fraction``
either.

:func:`rank_mod` is the rank of integer rows modulo the prime
p = 2^30 - 35 = 1073741789, the largest prime below 2^30, a certificate
rather than an estimate: every minor of the rows reduces to the same
minor mod p, so a nonzero r x r minor mod p is a nonzero minor over Q
and ``rank_mod <= int_rank``.  A ``rank_mod`` equal to the number of
rows (or of columns) therefore proves full rank over Q; any smaller
value proves nothing, and callers fall back to the exact elimination.
Rows with denominators are cleared row by row first, since scaling a
row by a nonzero integer keeps the rank.  A residue below 2^30 is one
CPython int digit and a product of two is at most two, so the
elimination stays on the interpreter's small-int paths.

``Mat.charpoly`` reads the characteristic polynomial of the integer
matrix d*A off the Krylov vectors of e_0: one LU factorization modulo
the Mersenne prime M127 = 2^127 - 1 and Dixon lifting (J. D. Dixon,
Numer. Math. 40, 1982) until the residual is exactly zero, again a proof
rather than an estimate.  When those vectors are dependent mod M127
(always so for a derogatory matrix), Faddeev-LeVerrier runs instead.
P30 and M127 are the module's two fixed moduli.  The Krylov vectors
(:func:`_krylov_rows`) serve ``charpoly`` only, which runs once per
``Mat``: the instance keeps the result, and
:func:`pqh.polyq.poly_eval_matrix` reads it to prove a zero.

:func:`symmetric_signature` is the one kernel that is not Gauss-Jordan:
it takes a symmetric matrix as square integer rows, the pairing
numerators of :mod:`pqh.subspace`, and eliminates by congruence on
integers; it builds no ``Mat`` and no ``Fraction``.  With pivot
d, the rest becomes |d| a_kl - sign(d) a_ki a_il, a positive multiple of
the Schur complement, so the pivot counts with the sign of d.  Before
each pivot the matrix is divided by the gcd of its entries: first the
input, whose rows carry the factors d_i of their denominators, then each
rest.  That leaves the primitive part
of the block that fraction-free elimination (E. H. Bareiss, Math. Comp.
22, 1968) divides out exactly by the previous pivot, so no entry is
longer than a Bareiss minor, and a Gram matrix, whose Schur complements
share large factors, keeps far shorter entries than those minors.  The
congruence step for a zero remaining diagonal adds one row (column)
outside the pivots to another, an integer unimodular change.

The tensor-structured matrices of the model (the metric omega^H (x) omega^E,
an operator A (x) Id_E) are laid out by one constructor, :meth:`Mat.kron`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm, prod
from operator import mul

F0 = Fraction(0)
F1 = Fraction(1)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u):
    return tuple(c * a for a in u)


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


def _bareiss(M, width):
    """Fraction-free Gauss-Jordan elimination (Bareiss), in place on the
    int rows ``M``, pivots in columns < width.

    Returns ``(pivots, D, det)``: after the loop ``M[i] / D[i]`` is pivot row
    ``i`` of the reduced row echelon form, and ``det`` is the signed last
    pivot.

    A step with pivot ``p`` (the one before it ``prev``) takes every other
    row with ``f != 0`` in the pivot column to ``(p*row - f*prow) // prev``;
    the division is exact, since every entry stays a minor of the matrix.
    Bareiss would also scale the rows with ``f == 0`` by ``p / prev``; here
    they are left alone and each row keeps the pivot ``D[i]`` it was last
    brought up to date at, so its Bareiss value is ``row * prev // D[i]``,
    again exact.
    """
    prev = 1
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
            prow = [x * prev // D[r] for x in prow]
        p = prow[c]
        for i, row in enumerate(M):
            f = row[c]
            if not f or i == r:
                continue
            if D[i] != prev:
                row = [x * prev // D[i] for x in row]
                f = row[c]
            M[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
            D[i] = p
        M[r], D[r] = prow, p
        prev = p
        pivots.append(c)
    return tuple(pivots), D[: len(pivots)], sign * prev


def _lowest_terms(ints, d) -> tuple:
    """The row ints / d as ``(ints, d)`` with d > 0 and gcd(ints, d) = 1,
    which is what :func:`_int_row` gives for the same rational row."""
    g = gcd(d, *ints)
    if d < 0:
        g = -g
    if g == 1:
        return ints, d
    return [x // g for x in ints], d // g


def frac_row(ints, d) -> tuple:
    """The rational row ints / d, one ``Fraction`` per nonzero entry."""
    return tuple(Fraction(x, d) if x else F0 for x in ints)


def int_rref(rows, width) -> tuple:
    """Reduced row echelon form of plain-int rows, pivots in columns < width.

    Returns ``(basis, pivots)``: one row ``(ints, d)`` in lowest terms
    (:func:`_lowest_terms`) per pivot, so ``basis`` is the canonical basis
    of the row space and equals ``_int_row`` of the rows of ``Mat.rref``.
    Scaling an input row leaves the result alone.
    """
    M = [list(r) for r in rows]
    pivots, D, _ = _bareiss(M, width)
    return [_lowest_terms(row, d) for row, d in zip(M, D)], pivots


def int_kernel(rows, width) -> tuple:
    """Canonical (RREF) basis of {x : A x = 0} for A given by plain-int rows.

    Returns ``(basis, pivots)`` as :func:`int_rref` does, by one
    elimination: run with the columns in reverse order, every reduced row
    R_i is zero right of its pivot p_i, so the kernel vector of a free
    column j, e_j - sum_i (R_ij / R_i,p_i) e_{p_i}, has its leading 1 at j
    and none at another free column.  The kernel is in reduced form as
    built, with the free columns as pivots.
    """
    M = [list(reversed(r)) for r in rows]
    rpivots, D, _ = _bareiss(M, width)
    last = width - 1
    pivots = [last - c for c in rpivots]
    taken = set(pivots)
    free = tuple(j for j in range(width) if j not in taken)
    basis = []
    for j in free:
        used = [(p, row[last - j], d) for p, row, d in zip(pivots, M, D) if row[last - j]]
        L = lcm(*(d for _, _, d in used))
        v = [0] * width
        v[j] = L
        for p, a, d in used:
            v[p] = -a * (L // d)
        basis.append(_lowest_terms(v, L))
    return basis, free


def int_rank(rows, width) -> int:
    """Rank of plain-int rows, with no output ``Fraction`` built."""
    return len(_bareiss([list(r) for r in rows], width)[0])


P30 = (1 << 30) - 35  # the prime of :func:`rank_mod`, the largest below 2^30


def rank_mod(rows, width) -> int:
    """Rank modulo ``P30`` of plain-int rows, pivots in columns < width.

    A lower bound on :func:`int_rank` (see the module docstring): when it
    equals ``len(rows)`` the rows are independent over Q.
    """
    M = [[x % P30 for x in r] for r in rows]
    n = len(M)
    rank = 0
    for c in range(width):
        if rank == n:
            break
        sel = next((i for i in range(rank, n) if M[i][c]), None)
        if sel is None:
            continue
        M[rank], M[sel] = M[sel], M[rank]
        prow = M[rank]
        inv = pow(prow[c], -1, P30)
        for i in range(rank + 1, n):
            f = M[i][c]
            if f:
                f = f * inv % P30
                M[i] = [(x - f * y) % P30 for x, y in zip(M[i], prow)]
        rank += 1
    return rank


def _entry(x) -> Fraction:
    """The one scalar coercion: int or ``Fraction`` to ``Fraction``, else ``TypeError``."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


class Mat:
    """Immutable dense matrix with rational entries."""

    __slots__ = ("rows", "_ncols", "_hash", "_charpoly")

    def __init__(self, rows, ncols=None):
        self._hash = self._charpoly = None
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
    def _of(cls, rows, ncols):
        """Trusted constructor, no checks: ``rows`` is a tuple of
        ``ncols``-long tuples of ``Fraction`` values."""
        m = cls.__new__(cls)
        m.rows, m._ncols, m._hash, m._charpoly = rows, ncols, None, None
        return m

    @classmethod
    def identity(cls, n):
        return cls._of(
            tuple(tuple(F1 if i == j else F0 for j in range(n)) for i in range(n)), n
        )

    @classmethod
    def scalar(cls, n, c):
        """c times the n x n identity."""
        c = _entry(c)
        rows = tuple(tuple(c if i == j else F0 for j in range(n)) for i in range(n))
        return cls._of(rows, n)

    @classmethod
    def from_cols(cls, cols, nrows=None):
        cols = tuple(tuple(c) for c in cols)
        if nrows is None:
            if not cols:
                raise ValueError("empty column list needs nrows")
            nrows = len(cols[0])
        if any(len(c) != nrows for c in cols):
            raise ValueError("columns must all have nrows entries")
        return cls(tuple(zip(*cols)) if cols else ((),) * nrows, ncols=len(cols))

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
        if not self.rows:
            return Mat._of(((),) * self._ncols, 0)
        return Mat._of(tuple(zip(*self.rows)), len(self.rows))

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
        return Mat._of(
            tuple(vec_add(a, b) for a, b in zip(self.rows, other.rows)), self._ncols
        )

    def __sub__(self, other):
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Mat._of(
            tuple(vec_sub(a, b) for a, b in zip(self.rows, other.rows)), self._ncols
        )

    def __neg__(self):
        return self.scale(-F1)

    def scale(self, c):
        c = _entry(c)
        return Mat._of(tuple(vec_scale(c, r) for r in self.rows), self._ncols)

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
        return Mat._of(
            tuple(
                tuple(Fraction(x, da * db) if x else F0 for x, (_, db) in zip(row, right))
                for row, (_, da) in zip(P, left)
            ),
            other.ncols,
        )

    def kron(self, other):
        """Kronecker product: block (i, j) is ``self[i][j] * other``.  Only
        products of two nonzero entries are formed; a factor 1 reuses the other."""
        q = other._ncols
        width = self._ncols * q
        other_nz = [[(j, b) for j, b in enumerate(s) if b] for s in other.rows]
        rows = []
        for r in self.rows:
            nz = [(i * q, a) for i, a in enumerate(r) if a]
            for s in other_nz:
                row = [F0] * width
                for off, a in nz:
                    for j, b in s:
                        row[off + j] = b if a == 1 else a if b == 1 else a * b
                rows.append(tuple(row))
        return Mat._of(tuple(rows), width)

    def mul_vec(self, v):
        return (self @ Mat.from_cols((v,))).col(0)

    def is_skew(self):
        return self.shape[0] == self.shape[1] and self == -self.T

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row mismatch")
        return Mat._of(
            tuple(a + b for a, b in zip(self.rows, other.rows)),
            self._ncols + other._ncols,
        )

    # -- elimination ------------------------------------------------------

    def rref(self):
        """Reduced row echelon form.

        Returns ``(R, pivots)`` where R keeps only the nonzero rows and
        pivots is the tuple of pivot column indices.  The result is the
        unique canonical basis of the row space (:func:`int_rref`).
        """
        basis, pivots = int_rref([_int_row(r)[0] for r in self.rows], self._ncols)
        return Mat._of(tuple(frac_row(*r) for r in basis), self._ncols), pivots

    def kernel(self):
        """Canonical (RREF) basis of {x : A x = 0}, rows of the result
        (:func:`int_kernel`)."""
        basis, _ = int_kernel([_int_row(r)[0] for r in self.rows], self._ncols)
        return Mat._of(tuple(frac_row(*r) for r in basis), self._ncols)

    def det(self):
        n = self.nrows
        if n != self._ncols:
            raise ValueError("determinant of non-square matrix")
        # _bareiss gives det of the rows cleared one by one; undo their scales
        rows = [_int_row(r) for r in self.rows]
        pivots, _, det = _bareiss([V for V, _ in rows], n)
        return Fraction(det, prod(d for _, d in rows)) if len(pivots) == n else F0

    def inverse(self):
        n = self.nrows
        if n != self._ncols:
            raise ValueError("inverse of non-square matrix")
        aug = self.hstack(Mat.identity(n))
        R, pivots = aug.rref()
        if pivots[:n] != tuple(range(n)):
            raise ValueError("matrix is singular")
        return Mat._of(tuple(r[n:] for r in R.rows), n)

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

    def charpoly(self):
        """Monic characteristic polynomial det(xI - A), coefficients low to high.

        Rational entries only.  Both paths work on the integer matrix
        B = d*A, d the lcm of the denominators: B has an integer
        characteristic polynomial x^n + b_(n-1) x^(n-1) + ... + b_0, and
        the coefficient of x^k for A is a_k = b_k / d^(n-k).

        The Krylov path (:func:`_krylov_charpoly`) takes w_k = B^k e_0 and
        W = [w_0 ... w_(n-1)] (columns).  If W is nonsingular modulo the
        prime p = ``M127``, then det W != 0, so e_0 is a cyclic vector of
        B: its annihilator has degree n and is the characteristic
        polynomial, and b is the unique solution of W b = -w_n.  Every
        eigenvalue is at most rho = max_i sum_j |B_ij| in absolute value,
        so |b_k| <= C(n, k) rho^(n-k).  One LU factorization of W mod p and
        Dixon lifting give b one balanced p-adic digit a step, up to the
        first zero residual, which proves W b = -w_n; one still nonzero past
        p^K > 2 max_k C(n, k) rho^k raises.  No rational reconstruction and
        no probability enter, and the result is checked against
        a_(n-1) = -tr A.  When W is singular mod p (e_0 is not cyclic, as
        for a derogatory A, or p divides det W), Faddeev-LeVerrier
        (:func:`_faddeev_charpoly`) runs instead.  The
        first call keeps the result on the instance (``Mat`` is immutable)
        and later calls return it.
        """
        if self._charpoly is None:
            n = self.nrows
            if n != self._ncols:
                raise ValueError("charpoly of non-square matrix")
            B, d = _int_rows(self.rows)
            b = _krylov_charpoly(B) or _faddeev_charpoly(B)
            self._charpoly = tuple(Fraction(c, d ** (n - k)) for k, c in enumerate(b))
        return self._charpoly


M127 = (1 << 127) - 1  # the Mersenne prime of :func:`_krylov_charpoly`


def _krylov_rows(B, count):
    """The first ``count`` Krylov vectors w_k = B^k e_0 of the n x n int
    matrix B, n >= 1, as int lists: the rows that ``charpoly`` solves
    for, once per ``Mat`` instance."""
    W = [[1] + [0] * (len(B) - 1)]
    while len(W) < count:
        W.append(_int_matmul([W[-1]], B)[0])
    return W


def _krylov_charpoly(B):
    """The integer characteristic polynomial of the int matrix B, low to
    high, from the Krylov vectors of e_0 (see :meth:`Mat.charpoly`); None
    when they are dependent mod ``M127``.

    Each Dixon step solves W y = r mod p for the residual r, adds the
    balanced digit y p^k to b and divides r - W y by p, exactly.
    """
    n = len(B)
    if n == 0:
        return (1,)
    W = _krylov_rows(B, n + 1)
    rows = list(zip(*W[:n]))
    lu = _lu_mod(rows, M127)
    if lu is None:
        return None
    rho = max(sum(map(abs, r)) for r in B)
    bound = 2 * max(comb(n, k) * rho**k for k in range(n + 1))
    half = M127 >> 1
    r = [-x for x in W[n]]
    b = [0] * n
    pk = 1
    while any(r):  # W b + p^k r = -w_n, so r = 0 proves W b = -w_n
        if pk > bound:
            raise AssertionError("Krylov charpoly exceeds its coefficient bound")
        y = [x - M127 if x > half else x for x in _lu_solve_mod(lu, r, M127)]
        r, rems = zip(*(divmod(ri - sum(map(mul, row, y)), M127) for ri, row in zip(r, rows)))
        if any(rems):
            raise AssertionError("inexact Dixon step in the Krylov charpoly")
        b = [bi + yi * pk for bi, yi in zip(b, y)]
        pk *= M127
    if b[-1] != -sum(B[i][i] for i in range(n)):
        raise AssertionError("Krylov charpoly fails the trace check")
    return (*b, 1)


def _lu_mod(M, p):
    """LU factors of the square int matrix M modulo the prime p, or None
    when M is singular mod p.

    Returns ``(perm, LU, dinv)``: the rows of M in the order ``perm`` are
    L U mod p, with L unit lower triangular (below the diagonal of ``LU``)
    and U upper triangular (on and above it), and ``dinv`` holds the
    inverses of U's diagonal mod p.
    """
    n = len(M)
    A = [[x % p for x in r] for r in M]
    perm = list(range(n))
    dinv = []
    for c in range(n):
        sel = next((i for i in range(c, n) if A[i][c]), None)
        if sel is None:
            return None
        A[c], A[sel] = A[sel], A[c]
        perm[c], perm[sel] = perm[sel], perm[c]
        prow = A[c][c + 1 :]
        inv = pow(A[c][c], -1, p)
        dinv.append(inv)
        for row in A[c + 1 :]:
            f = row[c] * inv % p
            row[c] = f
            if f:
                row[c + 1 :] = [(x - f * y) % p for x, y in zip(row[c + 1 :], prow)]
    return perm, A, dinv


def _lu_solve_mod(lu, r, p):
    """The solution mod p of M x = r, for the factors ``lu`` of M
    (:func:`_lu_mod`) and int entries r."""
    perm, A, dinv = lu
    n = len(A)
    y = []
    for i, row in enumerate(A):
        y.append((r[perm[i]] - sum(map(mul, row[:i], y))) % p)
    x = [0] * n
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - sum(map(mul, A[i][i + 1 :], x[i + 1 :]))) * dinv[i] % p
    return x


def _faddeev_charpoly(B):
    """The integer characteristic polynomial of the int matrix B, low to
    high, by Faddeev-LeVerrier: with c_0 = 1 and M_0 = I, each step takes
    M_k = B M_(k-1) + c_k I with c_k = -tr(B M_(k-1)) / k, an exact
    division, and c_k is the coefficient of x^(n-k)."""
    n = len(B)
    Bcols = list(zip(*B))
    coeffs = [1]
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
    return coeffs[::-1]


def symmetric_signature(rows):
    """Sylvester inertia (p, s, q) of the symmetric matrix given by its
    square integer rows, by exact congruence on integers.

    Callers pass the pairing numerators of a form on integer rows (see
    :func:`pqh.subspace.signature`): D N D up to a positive constant for
    D = diag(d_i) > 0, so by Sylvester the same inertia as the rational
    matrix.  Each step removes one pivot row and column.  One pivot rule:
    the first nonzero remaining diagonal entry d.  When every remaining
    diagonal entry is zero but some a_ij is not, add row j to row i and
    column j to column i, a unimodular congruence that makes a_ii = 2 a_ij,
    and pivot at i.  The rest becomes |d| a_kl - sign(d) a_ki a_il, which
    is |d| times the Schur complement: a positive multiple, so it keeps the
    inertia of the rest, and the pivot counts with the sign of d.  Before
    each pivot the matrix is divided by the gcd of its entries, an exact
    division: on the input it removes the common factors that the row
    denominators leave in pairing numerators, and on each rest it leaves
    the primitive part of the Bareiss block (d a_kl - a_ki a_il) / prev,
    so no entry is longer than the minor Bareiss would hold.
    """
    n = len(rows)
    a = [list(r) for r in rows]
    if any(len(r) != n for r in a) or a != [list(c) for c in zip(*a)]:
        raise ValueError("signature of non-symmetric matrix")
    pos = neg = 0
    while a:
        g = gcd(*(x for r in a for x in r))
        if g > 1:
            a = [[x // g for x in r] for r in a]
        i = next((k for k, r in enumerate(a) if r[k]), None)
        if i is None:
            i, j = next(((k, l) for k, r in enumerate(a) for l, x in enumerate(r) if x), (None, None))
            if i is None:
                break
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for r in a:
                r[i] += r[j]
        r = a.pop(i)
        d = r.pop(i)
        if d > 0:
            pos += 1
        else:
            neg += 1
            d, r = -d, [-x for x in r]
        rest = []
        for row in a:
            f = row.pop(i)
            rest.append([d * x - f * y for x, y in zip(row, r)])
        a = rest
    return (pos, n - pos - neg, neg)

"""Univariate polynomial arithmetic and factorization over Q.

Polynomials are tuples of Fractions, coefficients from low to high
degree, with no trailing zeros (the zero polynomial is ``()``).
Degrees stay desk-scale (<= 4n) but coefficients coming out of echelon
forms routinely reach dozens of digits.

:func:`factor` first tries to prove p irreducible by a modular
certificate, the degree-set test that Zassenhaus's algorithm starts with
(Musser, J. ACM 22(3), 1975).  Let c be the integer polynomial of p and
q a prime of :data:`_PRIMES` that does not divide the leading
coefficient of c and keeps c mod q squarefree.  By Gauss's lemma every
factor of p over Q of degree d reduces mod q to a product of distinct
irreducible factors of c mod q whose degrees add up to d, so d is a
subset sum of the degrees of the factors mod q, which distinct-degree
factorization finds.  When these sets of sums, over several primes, meet
only in {0, deg p}, p is irreducible.  Every other p (reducible, or not
proved within :data:`_PATTERNS` patterns) is factored by sympy, imported
only then: importing this module (and ``pqh``) does not load it, and
neither does a run whose polynomials are all proved irreducible.
Everything else is hand-rolled.

:func:`poly_eval_matrix` proves p(A) = 0 for an n x n matrix A and
deg p >= n without a matrix product when chi_A, the characteristic
polynomial that ``Mat.charpoly`` keeps on A, divides p over Q: by
Cayley-Hamilton chi_A(A) = 0, so p(A) = r(A) chi_A(A) = 0.  One
:func:`poly_rem` decides it, with no cyclic vector, no prime and no
probability.  Every other p, and so every nonzero answer, is evaluated
by Paterson-Stockmeyer.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import mul

from .linalg import F0, F1, Mat, _int_matmul, _int_row, _int_rows

ZERO = ()
ONE = (F1,)

# The primes of the irreducibility certificate, in the order tried, and
# how many of them may give a factorization pattern before sympy takes over
_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)
_PATTERNS = 24


def poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_deg(p):
    return len(p) - 1


def poly_mul(p, q):
    if not p or not q:
        return ZERO
    out = [F0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_pow(p, k):
    out = ONE
    base = p
    while k:
        if k & 1:
            out = poly_mul(out, base)
        k >>= 1
        if k:
            base = poly_mul(base, base)
    return out


def poly_rem(a, b):
    """The remainder of a by the monic b over Q, trimmed."""
    a = list(a)
    db = len(b) - 1
    while len(a) > db:
        t = a.pop()
        if t:
            for j, bj in enumerate(b[:-1], len(a) - db):
                a[j] -= t * bj
    return poly_trim(a)


def poly_eval_matrix(p, A: Mat) -> Mat:
    """p(A) for a square rational matrix A, by Paterson-Stockmeyer in ints.

    With B = d*A (d the lcm of A's denominators) and e*p = c (e the lcm of
    p's denominators), N = sum_k g_k B^k with g_k = c_k d^(m-k) is
    e d^m p(A), m the degree of p; each output ``Fraction`` is built once
    from N.  The powers B, ..., B^s for s = isqrt(m) are formed once, and
    N is evaluated by Horner's rule in B^s over chunks of s coefficients,
    each chunk a combination of those powers; the top chunk takes up to
    s + 1.  That is s - 1 matrix products for the powers and ceil(m / s) - 1
    for the Horner steps, about 2 sqrt(m) in place of Horner's m, and none
    for degree <= 1.

    When m >= n >= 1 (A is n x n) and chi_A divides p, p(A) = 0 by
    Cayley-Hamilton (see the module docstring) and the zero matrix is
    returned before any clearing.  Paterson-Stockmeyer gives every other
    answer: each nonzero one, and the zeros where only the minimal
    polynomial of A divides p.
    """
    n = A.nrows
    m = len(p) - 1
    if not p or (0 < n <= m and not poly_rem(p, A.charpoly())):
        return Mat.scalar(n, 0)
    B, d = _int_rows(A.rows)
    c, e = _int_row(p)
    g = [ck * d ** (m - k) for k, ck in enumerate(c)]
    s = max(1, isqrt(m))
    powers = [B]  # B^1, ..., B^s
    Bcols = list(zip(*B))
    while len(powers) < s:
        powers.append(_int_matmul(powers[-1], Bcols))
    steps = max(0, -(-m // s) - 1)  # Horner steps in B^s

    def chunk(lo, hi):
        """sum_{k=lo..hi} g_k B^(k-lo), as int rows."""
        coeffs = g[lo + 1 : hi + 1]
        if coeffs:
            C = [
                [sum(map(mul, coeffs, entries)) for entries in zip(*rows)]
                for rows in zip(*powers[: len(coeffs)])
            ]
        else:
            C = [[0] * n for _ in range(n)]
        for i in range(n):
            C[i][i] += g[lo]
        return C

    N = chunk(steps * s, m)
    Scols = list(zip(*powers[-1]))
    for j in range(steps - 1, -1, -1):
        C = chunk(j * s, j * s + s - 1)
        N = [[x + y for x, y in zip(r, cr)] for r, cr in zip(_int_matmul(N, Scols), C)]
    den = e * d**m
    return Mat._of(tuple(tuple(Fraction(x, den) if x else F0 for x in r) for r in N), n)


def _rem_mod(a, b, q):
    """The remainder of a by b over F_q; coefficients reduced mod q, b[-1] != 0."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, q)
    while len(a) > db:
        t = a.pop() * inv % q
        if t:
            k = len(a) - db
            for j in range(db):
                a[k + j] = (a[k + j] - t * b[j]) % q
    while a and not a[-1]:
        a.pop()
    return a


def _gcd_deg_mod(a, b, q):
    """deg gcd(a, b) over F_q, for a != 0; coefficients as for :func:`_rem_mod`."""
    while b:
        a, b = b, _rem_mod(a, b, q)
    return len(a) - 1


def _factor_degrees_mod(c, q):
    """Degrees of the irreducible factors of the int polynomial c over F_q.

    None when q divides the leading coefficient of c or c mod q is not
    squarefree.  Distinct-degree factorization: for h = x^(q^k) mod f,
    deg gcd(f, h - x) is the sum of the degrees, dividing k, of the
    factors of f; h^q mod f is h's coefficient vector times the Frobenius
    matrix whose row i is x^(q i) mod f.
    """
    n = len(c) - 1
    f = [x % q for x in c]
    if not f[-1]:
        return None
    if _gcd_deg_mod(f, poly_trim([i * x % q for i, x in enumerate(f)][1:]), q):
        return None
    inv = pow(f[-1], -1, q)
    # the rows are packed b bits a coefficient: x r mod f is r shifted up
    # one slot, less its top slot t, plus t (q - f_i / f_n) in each slot i.
    # Unreduced slot i stays below (i + 1) q^2, and below n^2 q^3 in a
    # product by h
    b = (n * n * q**3).bit_length()
    top = b * (n - 1)
    low = (1 << top) - 1
    neg = sum((q - x * inv % q) << (b * i) for i, x in enumerate(f[:-1]))
    rows = [1]
    for _ in range(n - 1):
        r = rows[-1]
        for _ in range(q):
            r = ((r & low) << b) + (r >> top) % q * neg
        rows.append(r)
    slot = (1 << b) - 1
    h = [0, 1] + [0] * (n - 2)
    degs = []
    k = 1
    while 2 * k <= n - sum(degs):
        packed = sum(map(mul, h, rows))
        h = [(packed >> (b * i) & slot) % q for i in range(n)]
        g = h.copy()
        g[1] = (g[1] - 1) % q
        found = _gcd_deg_mod(f, poly_trim(g), q) - sum(d for d in degs if k % d == 0)
        degs += [k] * (found // k)
        k += 1
    left = n - sum(degs)
    return degs + [left] if left else degs


def _proved_irreducible(p):
    """True when the factorization patterns of p mod :data:`_PRIMES` prove it irreducible.

    False means only that :data:`_PATTERNS` patterns gave no proof (see
    the module docstring for the proof).
    """
    c, _ = _int_row(p)
    n = len(c) - 1
    if n == 1:
        return True
    common = (2 << n) - 1  # bit d: a factor of degree d is still possible
    patterns = 0
    for q in _PRIMES:
        degs = _factor_degrees_mod(c, q)
        if degs is None:
            continue
        sums = 1
        for d in degs:
            sums |= sums << d
        common &= sums
        if common == 1 | 1 << n:
            return True
        patterns += 1
        if patterns == _PATTERNS:
            break
    return False


def _factor_sympy(p):
    """:func:`factor` by sympy, for a trimmed p of degree >= 1."""
    import sympy

    sp = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(p)],
        sympy.Symbol("x"),
        domain="QQ",
    )
    lead_s, factors_s = sp.factor_list()
    lead = Fraction(int(lead_s.p), int(lead_s.q))
    out = []
    for fac, mult in factors_s:
        lc = fac.LC()
        lead *= Fraction(int(lc.p), int(lc.q)) ** mult
        monic = fac.monic()
        coeffs = tuple(
            Fraction(int(c.p), int(c.q)) for c in reversed(monic.all_coeffs())
        )
        out.append((coeffs, int(mult)))
    out.sort(key=lambda fm: (poly_deg(fm[0]), fm[0]))
    return lead, out


def factor(p):
    """Factor p over Q into monic irreducibles.

    Returns (leading_coefficient, [(irreducible monic poly, multiplicity)...]),
    factors sorted by (degree, coefficients) for determinism; for p of
    degree >= 1 every returned number is a ``Fraction``, int input
    included.  A p proved irreducible by its patterns modulo small primes
    is returned as (lc, [(p / lc, 1)]) without sympy; every other p is
    factored by sympy.
    """
    p = poly_trim(p)
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    if poly_deg(p) == 0:
        return p[0], []
    if _proved_irreducible(p):
        lead = Fraction(p[-1])
        out = [(tuple(x / lead for x in p), 1)]
    else:
        lead, out = _factor_sympy(p)
    # exact cross-check: the factorization must multiply back to p
    prod = (lead,)
    for fac, mult in out:
        prod = poly_mul(prod, poly_pow(fac, mult))
    if prod != p:
        raise AssertionError("factorization failed to recompose")
    return lead, out


def minimal_polynomial(A: Mat):
    """The monic irreducible factors of the minimal polynomial of a square
    rational matrix, in :func:`factor` order: those of its characteristic
    polynomial, which has the same roots.  ``()`` for the empty matrix,
    whose minimal polynomial is 1.
    """
    if A.nrows == 0:
        return ()
    return tuple(q for q, _mult in factor(A.charpoly())[1])


def is_rational_square(x: Fraction):
    """Exact test: is x the square of a rational? Returns the root or None."""
    if x < 0:
        return None
    if x == 0:
        return F0
    rn = isqrt(x.numerator)
    rd = isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


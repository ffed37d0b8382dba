"""Univariate polynomial arithmetic and factorization over Q.

Polynomials are tuples of Fractions, coefficients from low to high
degree, with no trailing zeros (the zero polynomial is ``()``).
Degrees stay desk-scale (<= 4n) but coefficients coming out of echelon
forms routinely reach dozens of digits, so irreducible factorization is
delegated to sympy; everything else is hand-rolled.  sympy is imported
by :func:`factor` on first use, so importing this module (and ``pqh``)
does not load it.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .linalg import F0, F1, Mat, _int_matmul, _int_row, _int_rows

ZERO = ()
ONE = (F1,)


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
        base = poly_mul(base, base)
        k >>= 1
    return out


def poly_eval_matrix(p, A: Mat) -> Mat:
    """p(A) for a square rational matrix A, by Horner's rule in ints.

    With B = d*A (d the lcm of A's denominators) and e*p = c (e the lcm of
    p's denominators), the Horner steps N <- N B + c_k d^(m-k) I, from
    N = c_m I down to k = 0, give N = e d^m p(A), m the degree of p; each
    output ``Fraction`` is built once from N.
    """
    n = A.nrows
    if not p:
        return Mat.zeros(n, n)
    B, d = _int_rows(A.rows)
    c, e = _int_row(p)
    Bcols = list(zip(*B))
    m = len(p) - 1
    N = [[c[m] if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(m - 1, -1, -1):
        N = _int_matmul(N, Bcols)
        ck = c[k] * d ** (m - k)
        for i in range(n):
            N[i][i] += ck
    den = e * d**m
    return Mat._of(tuple(tuple(Fraction(x, den) if x else F0 for x in r) for r in N), n)


def factor(p):
    """Factor p over Q into monic irreducibles.

    Returns (leading_coefficient, [(irreducible monic poly, multiplicity)...]),
    factors sorted by (degree, coefficients) for determinism.
    """
    import sympy

    p = poly_trim(p)
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    if poly_deg(p) == 0:
        return p[0], []
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
    # exact cross-check: the factorization must multiply back to p
    prod = (lead,)
    for fac, mult in out:
        prod = poly_mul(prod, poly_pow(fac, mult))
    if prod != p:
        raise AssertionError("factorization failed to recompose")
    return lead, out


def minimal_polynomial(A: Mat):
    """Monic minimal polynomial of a square rational matrix, factored.

    Returns ((q, e), ...): each monic irreducible factor q of the
    characteristic polynomial, in :func:`factor` order, with its exponent
    e in the minimal polynomial (the product of the q^e); ``()`` for the
    empty matrix, whose minimal polynomial is 1.
    """
    if A.nrows == 0:
        return ()
    _, factors = factor(A.charpoly())
    out = []
    for q, mult in factors:
        e = 1
        while e < mult:
            Pe = poly_eval_matrix(poly_pow(q, e), A)
            if Pe.kernel().nrows == mult * poly_deg(q):
                break
            e += 1
        out.append((q, e))
    return tuple(out)


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


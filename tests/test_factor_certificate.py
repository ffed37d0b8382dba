"""The modular irreducibility certificate of ``polyq.factor`` against sympy.

``factor`` returns (lc, [(p / lc, 1)]) without sympy when the factorization
patterns of p modulo small primes prove p irreducible, and calls
``polyq._factor_sympy`` otherwise.  ``_factor_sympy`` is the reference:
``factor`` must return exactly what it returns, on irreducible and
reducible inputs alike, and on inputs that defeat or skip the certificate.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pqh.polyq
from pqh.classify import generic_decompose
from pqh.generate import generate
from pqh.polyq import (
    _factor_sympy,
    _proved_irreducible,
    factor,
    poly_deg,
    poly_mul,
    poly_trim,
)
from pqh.rng import Rng

small = st.fractions(min_value=-30, max_value=30, max_denominator=20)
large = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**20))
coefficients = small | large
nonzero = coefficients.filter(bool)


@st.composite
def polys(draw, min_deg=1, max_deg=12):
    entries = draw(st.sampled_from([small, large, coefficients]))
    deg = draw(st.integers(min_deg, max_deg))
    return tuple(draw(st.lists(entries, min_size=deg, max_size=deg))) + (draw(nonzero),)


def x(*coeffs):
    """A polynomial from its coefficients, low to high degree."""
    return tuple(Fraction(c) for c in coeffs)


def assert_matches_reference(p):
    assert factor(p) == _factor_sympy(poly_trim(p))


@settings(max_examples=60, deadline=None)
@given(polys())
def test_random_polynomials(p):
    assert_matches_reference(p)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(polys(1, 4), st.integers(1, 3)), min_size=2, max_size=3))
def test_products_with_multiplicities(factors):
    p = (Fraction(1),)
    for f, mult in factors:
        for _ in range(mult):
            p = poly_mul(p, f)
    assert_matches_reference(p)
    _, found = factor(p)
    assert len(found) >= 2 or found[0][1] >= 2


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=11),
    st.integers(1, 10**4),
)
def test_leading_coefficient_divisible_by_first_primes(lower, lead):
    # 2, 3, 5 and 7 all divide the leading coefficient and are skipped
    assert_matches_reference(x(*lower, 210 * lead))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 8).flatmap(
        lambda k: st.lists(st.integers(-50, 50), min_size=k, max_size=k)
    )
)
@example([-1, 0])
def test_irreducible_but_not_squarefree_mod_first_primes(g):
    # x^k + 1155 g(x) with 3 not dividing g(0) is irreducible (Eisenstein
    # at 3) and is x^k, not squarefree, mod 3, 5, 7 and 11; [-1, 0] is
    # x^2 - 3 * 5 * 7 * 11
    if g[0] % 3 == 0:
        g[0] += 1
    p = x(*(1155 * a for a in g), 1)
    assert_matches_reference(p)
    assert len(factor(p)[1]) == 1


@pytest.mark.parametrize(
    "p", [x(1, 0, 0, 0, 1), x(1, 0, -10, 0, 1)], ids=["x4+1", "x4-10x2+1"]
)
def test_irreducible_but_split_mod_every_prime_falls_back(p):
    # every factor mod q has degree <= 2, so 2 is a subset sum at every q
    assert not _proved_irreducible(p)
    lead, found = factor(p)
    assert (lead, found) == _factor_sympy(p)
    assert found == [(p, 1)]


def test_int_input_gives_fractions():
    for p in [(1, 0, 1), (3, 1), (-1, 0, 1), (2, 0, 0, 4)]:
        lead, found = factor(p)
        assert type(lead) is Fraction
        assert all(type(c) is Fraction for f, _ in found for c in f)
        assert (lead, found) == _factor_sympy(p)


def test_generic_core_polynomial_is_settled_without_sympy(monkeypatch):
    def no_sympy(p):
        raise AssertionError("the sympy path ran")

    seen = []

    def recording(p):
        seen.append(p)
        return factor(p)

    monkeypatch.setattr(pqh.polyq, "_factor_sympy", no_sympy)
    monkeypatch.setattr(pqh.polyq, "factor", recording)
    generic_decompose(generate(Rng(1), 6, "generic", 12))
    assert [poly_deg(p) for p in seen] == [12]

"""Answers read off dimensions or canonical rows, against the code they skip.

Where the dimensions, or the equality of canonical rows, already fix an
answer, the lattice layer and its decompose callers return it with no
elimination, coset reduction or rank certificate: ``direct_sum_is`` on one
nonzero part, ``span_of`` of one part, ``kernel_in`` on all-zero images,
``_decompose_pure`` when the factor kernels span F, and ``factor`` on a
certified irreducible polynomial.  Each is compared with its pre-change
copy in ``tests/reference.py`` on zero, full, equal, rank-deficient and
~200-bit-entry inputs, and every ``ValueError`` of the copies must still
be raised.  Form 1's fiber sweep reads the fibers of a failed transversal
search instead of taking them again.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference import (
    decompose_pure_with_residue,
    direct_sum_is_by_rank,
    factor_recomposed,
    kernel_in_by_relations,
    span_of_by_rref,
)
from test_rank_certificates import SETTINGS, big, int_rows

import pqh.uft as uft_module
from pqh.classify import generic_decompose
from pqh.generate import KINDS, generate
from pqh.polyq import factor, poly_mul
from pqh.rng import Rng
from pqh.subspace import Subspace, direct_sum_is, span_of
from pqh.uft import decompose_form2, pq_split

bits200 = st.integers(-(1 << 200), 1 << 200)

# -- strategies ------------------------------------------------------------------


@st.composite
def spaces(draw, ambient):
    """A zero, full, or row-spanned subspace of Q^ambient, from rows that
    are dense or rank-deficient, with ~100- or ~200-bit entries."""
    kind = draw(st.sampled_from(["zero", "full", "rows"]))
    if kind == "zero":
        return Subspace.zero(ambient)
    if kind == "full":
        return Subspace.full(ambient)
    entries = draw(st.sampled_from([big, bits200]))
    return Subspace.span(draw(int_rows(draw(st.integers(1, ambient)), ambient, entries)), ambient)


def with_zero_parts(draw, parts, ambient):
    """``parts`` with zero subspaces put in at drawn places."""
    out = list(parts)
    for _ in range(draw(st.integers(0, 2))):
        out.insert(draw(st.integers(0, len(out))), Subspace.zero(ambient))
    return out


def outcome(fn, *args):
    """The value of ``fn(*args)``, or its ``ValueError`` message."""
    try:
        return fn(*args)
    except ValueError as exc:
        return "ValueError", str(exc)


# -- span_of and direct_sum_is ------------------------------------------------------


@SETTINGS
@given(st.data())
def test_span_of_matches_reference(data):
    ambient = data.draw(st.integers(1, 6))
    parts = data.draw(st.lists(spaces(ambient), max_size=3))
    parts = with_zero_parts(data.draw, parts, ambient)
    assert span_of(parts, ambient) == span_of_by_rref(parts, ambient)


def test_span_of_one_part_is_that_part():
    u = Subspace.span([[1, 2, 3]], 3)
    assert span_of([u], 3) is u


@st.composite
def decompositions(draw):
    """(whole, parts): the whole split into groups of its basis rows, one
    part equal to the whole or of its dimension, or parts drawn freely;
    zero parts are put in at drawn places."""
    ambient = draw(st.integers(1, 6))
    whole = draw(spaces(ambient))
    kind = draw(st.sampled_from(["split", "single", "any"]))
    if kind == "split":
        rows = list(whole.mat.rows)
        cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=3)))
        bounds = [0] + cuts + [len(rows)]
        parts = [Subspace.span(rows[a:b], ambient) for a, b in zip(bounds, bounds[1:]) if b > a]
    elif kind == "single":
        other = draw(spaces(ambient))
        parts = [draw(st.sampled_from([whole, Subspace.span(whole.mat.rows, ambient), other]))]
    else:
        parts = draw(st.lists(spaces(ambient), max_size=3))
    return whole, with_zero_parts(draw, parts, ambient)


@SETTINGS
@given(decompositions())
def test_direct_sum_is_matches_reference(case):
    whole, parts = case
    assert direct_sum_is(whole, parts) == direct_sum_is_by_rank(whole, parts)


def test_direct_sum_of_one_part_reads_its_rows():
    u = Subspace.span([[1, 2, 0, 0], [0, 0, 1, 5]], 4)
    parts = [Subspace.zero(4), Subspace.span(u.mat.rows, 4), Subspace.zero(4)]
    assert direct_sum_is(u, parts)
    assert not direct_sum_is(u, [Subspace.span([[1, 2, 0, 0], [0, 0, 1, 6]], 4)])


@SETTINGS
@given(st.data())
def test_ambient_mismatch_raises_as_before(data):
    """``span_of`` raises as its copy did.  ``direct_sum_is`` now checks
    the ambients first, so it raises on every mismatch, and in particular
    wherever its copy raised (the copy returns False when the dimensions
    do not add up before it meets the odd part)."""
    ambient = data.draw(st.integers(1, 5))
    parts = data.draw(st.lists(spaces(ambient), max_size=2))
    odd = data.draw(spaces(ambient + 1))
    parts.insert(data.draw(st.integers(0, len(parts))), odd)
    whole = data.draw(spaces(ambient))
    assert outcome(span_of, parts, ambient) == outcome(span_of_by_rref, parts, ambient)
    assert outcome(span_of, parts, ambient) == ("ValueError", "ambient mismatch")
    new = outcome(direct_sum_is, whole, parts)
    assert new == ("ValueError", "ambient mismatch")
    old = outcome(direct_sum_is_by_rank, whole, parts)
    assert old in (new, False)


# -- kernel_in --------------------------------------------------------------------


@st.composite
def kernel_cases(draw):
    """(W, images, target): one image per basis row of W, all zero or a mix
    of zero and dense rows, into no target, 0, everything, or a subspace."""
    ambient = draw(st.integers(1, 5))
    w = draw(spaces(ambient))
    width = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["zero", "mixed"]))
    entries = draw(st.sampled_from([big, bits200]))
    images = []
    for _ in range(w.dim):
        d = draw(st.integers(1, 1 << 64))
        if kind == "zero" or draw(st.booleans()):
            images.append(([0] * width, d))
        else:
            images.append((draw(st.lists(entries, min_size=width, max_size=width)), d))
    return w, images, draw(st.one_of(st.none(), spaces(width)))


@SETTINGS
@given(kernel_cases())
def test_kernel_in_matches_reference(case):
    w, images, target = case
    new = w.kernel_in(images, target)
    assert new == kernel_in_by_relations(w, images, target)
    if not any(any(V) for V, _ in images):
        assert new is w


# -- the pure-part residue ---------------------------------------------------------


def _addend_key(a):
    return a.kind, a.space, a.poly, None if a.witness is None else a.witness.mat2()


@pytest.mark.parametrize("kind", KINDS)
def test_generic_decompose_matches_the_residue_pass(kind):
    """The pure part's addends and real residue are those of the copy that
    ran the residue pass when the factor kernels span F."""
    for n in (1, 2, 3):
        for seed in (0, 1, 2):
            u = generate(Rng(seed), n, kind)
            decomp = generic_decompose(u)
            u0, _e0, u_prime = pq_split(u)
            addends, real = decompose_pure_with_residue(u_prime)
            assert decomp.u0 == u0 and decomp.real_addend == real
            assert list(map(_addend_key, decomp.addends)) == list(map(_addend_key, addends))


# -- factor ------------------------------------------------------------------------


coeffs = st.one_of(st.integers(-50, 50), bits200, st.fractions(max_denominator=30))


@st.composite
def polynomials(draw):
    """A polynomial with nonzero leading coefficient, often irreducible,
    or a product of two, which is not."""

    def one():
        deg = draw(st.integers(1, 4))
        p = draw(st.lists(coeffs, min_size=deg, max_size=deg))
        return tuple(p) + (draw(coeffs.filter(bool)),)

    return poly_mul(one(), one()) if draw(st.booleans()) else one()


@SETTINGS
@given(polynomials())
def test_factor_matches_reference(p):
    lead, out = factor(p)
    assert (lead, out) == factor_recomposed(p)
    assert isinstance(lead, Fraction)
    assert all(isinstance(x, Fraction) for fac, _ in out for x in fac)


def test_factor_of_a_certified_irreducible_keeps_fractions():
    for p in ((-2, 0, 1), (3, 1, 0, 5), (1 << 200, 7, 1)):
        lead, out = factor(p)
        assert (lead, out) == factor_recomposed(p)
        assert len(out) == 1 and out[0][1] == 1
        assert isinstance(lead, Fraction) and all(isinstance(x, Fraction) for x in out[0][0])
    for p in ((0,), (), (5,)):
        assert outcome(factor, p) == outcome(factor_recomposed, p)


# -- the fiber sweep -------------------------------------------------------------


def test_fiber_sweep_computes_each_candidate_once(monkeypatch):
    """At n = 2, seed 2, the generic U has a pure U' with no graph form and
    dim U' = 3 <= dim E = 4: the failed transversal search takes the
    fibers of t = 1, 2, 3, and the minimal-fiber sweep of form 1 starts
    over from t = 0.  Each fiber of t >= 1 is taken once: the sweep reads
    the first three from the failed search, which hands them over."""
    u = generate(Rng(2), 2, "generic")
    _u0, _e0, u_prime = pq_split(u)
    assert u_prime.dim == 3 and uft_module.graph_form(u_prime) is None
    calls = []
    real_h_fiber = uft_module.h_fiber

    def counting(space, h):
        calls.append((space, h))
        return real_h_fiber(space, h)

    monkeypatch.setattr(uft_module, "h_fiber", counting)
    for run in (decompose_form2, generic_decompose):
        calls.clear()
        run(generate(Rng(2), 2, "generic"))
        ts = [h[0] for _space, h in calls]
        assert len({id(space) for space, _h in calls}) == 1
        assert len(ts) == len(set(ts)) == 8 and {1, 2, 3} <= set(ts)

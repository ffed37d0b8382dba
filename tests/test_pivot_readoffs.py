"""What U's canonical basis states, read off its pivots, against the
eliminations it replaced.

The rows of U with a pivot in h2 (x) E are h2 (x) (the fiber of h2), as
the rows with a pivot in h1 (x) E give p1(U).  So ``subspace.h2_fiber``
needs no kernel, ``maximal_pq`` cuts E0 out of it (the e whose h1 copy
also lies in U) with no structure operator, the direction searches read
their t = 0 fiber off it, and over the standard basis ``uft.to_uft``
reads F = p1(U) and T off U's rows.  Graph rows are built in integers
(``UFTForm.graph_rows``), and ``classify.stabilizer`` solves its integer
rows with ``int_kernel``.  Each reference in ``tests/reference.py`` is
the code before; every new path must give the same values on generated
kinds and their twists, dense-omega^E congruent copies, the hand-built
family, and random subspaces of every dimension, including ones with
rows in h2 (x) E.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import congruent_instance, dense_congruence, hand_built_instance
from reference import (
    find_transversal_direction as ref_find_transversal_direction,
    graph_basis as ref_graph_basis,
    graph_span as ref_graph_span,
    maximal_pq_loop,
    minimal_fiber_direction as ref_minimal_fiber_direction,
    stabilizer as ref_stabilizer,
    to_uft as ref_to_uft,
)
from reference import twist_h_rows
from test_model import h_basis_changes

import pqh.subspace
import pqh.uft
from pqh.classify import stabilizer
from pqh.generate import KINDS, generate, random_sl2
from pqh.linalg import frac_row
from pqh.model import HBasisChange, ModelSpace, Operator
from pqh.rng import Rng
from pqh.subspace import (
    Subspace,
    decomposable_subspace,
    h2_fiber,
    h_fiber,
    maximal_pq,
    product_subspace,
)
from pqh.uft import (
    TransversalityError,
    decompose_form1,
    find_transversal_direction,
    graph_form,
    minimal_fiber_direction,
    to_uft,
    transversal_basis,
)

SETTINGS = settings(max_examples=80, deadline=None)


def assert_to_uft_matches(u, basis):
    """``to_uft`` and its copy agree, or both raise ``TransversalityError``."""
    try:
        want = ref_to_uft(u, basis)
    except TransversalityError:
        with pytest.raises(TransversalityError):
            to_uft(u, basis)
        return None
    got = to_uft(u, basis)
    assert (got.h_basis, got.f_space, got.t_map) == (want.h_basis, want.f_space, want.t_map)
    assert got.f_space.pivots == want.f_space.pivots
    return got


def assert_graph_rows_match(form):
    assert tuple(frac_row(*r) for r in form.graph_rows()) == ref_graph_basis(form).rows
    assert form.span() == ref_graph_span(form)


def assert_readoffs_match(u):
    """Every read-off of this change against its reference on one U."""
    assert h2_fiber(u) == h_fiber(u, (0, 1))
    assert maximal_pq(u) == maximal_pq_loop(u)
    h = find_transversal_direction(u)
    assert h == ref_find_transversal_direction(u)
    assert minimal_fiber_direction(u) == ref_minimal_fiber_direction(u)
    got = stabilizer(u)
    assert got == ref_stabilizer(u) and got.ambient == 3
    assert all(type(x) is Fraction for r in got.mat.rows for x in r)
    assert_to_uft_matches(u, HBasisChange.identity())
    if h is not None:
        form = assert_to_uft_matches(u, transversal_basis(h))
        assert_graph_rows_match(form)
        got_form = graph_form(u)
        assert (got_form.h_basis, got_form.f_space, got_form.t_map) == (form.h_basis, form.f_space, form.t_map)
    # form 1's graph over the generic direction, read off or eliminated
    h_min, fib = ref_minimal_fiber_direction(u)
    form1 = decompose_form1(u)
    assert form1.graph_space.dim == u.dim - fib.dim
    assert_to_uft_matches(form1.graph_space, transversal_basis(h_min))
    assert_graph_rows_match(form1.graph)


# -- generated kinds, their twists and dense congruent copies ---------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_generated_kinds_twists_and_congruent_copies(kind):
    for n in (1, 2, 3):
        std = ModelSpace.standard(n)
        for seed in range(6):
            u = generate(Rng(seed), n, kind)
            twisted = twist_h_rows(u, random_sl2(Rng(9000 + seed)))
            p = dense_congruence(n, Rng(7000 + seed).rationals(4 * n * n))
            _ms, moved = congruent_instance(std, u, p)
            for v in (u, twisted, moved):
                assert_readoffs_match(v)


def test_hand_built_family():
    for seed in range(1000, 1030):
        _n, u = hand_built_instance(seed)
        assert 0 < maximal_pq(u).dim < u.dim
        assert_readoffs_match(u)
        assert_readoffs_match(twist_h_rows(u, random_sl2(Rng(9000 + seed))))


# -- random subspaces, with and without rows in h2 (x) E --------------------------------

entries = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    st.builds(Fraction, st.integers(-(2**100), 2**100), st.integers(1, 2**100)),
)


@st.composite
def e_subspaces(draw, dim_e):
    rows = draw(st.lists(st.lists(entries, min_size=dim_e, max_size=dim_e), max_size=dim_e))
    return Subspace.span(rows, dim_e)


@st.composite
def random_subspaces(draw):
    """A random subspace of V at n = 1-3 of any dimension, H (x) E', h2 (x) F,
    a graph plus rows in h2 (x) E, or the zero subspace."""
    n = draw(st.integers(1, 3))
    dim_e, ambient = 2 * n, 4 * n
    kind = draw(st.sampled_from(["rows", "product", "h2", "graph_plus_h2", "zero"]))
    if kind == "zero":
        return Subspace.zero(ambient)
    if kind == "product":
        return product_subspace(draw(e_subspaces(dim_e)))
    if kind == "h2":
        return decomposable_subspace((0, 1), draw(e_subspaces(dim_e)))
    if kind == "graph_plus_h2":
        graph = draw(st.lists(st.lists(entries, min_size=ambient, max_size=ambient), max_size=dim_e))
        h2 = decomposable_subspace((0, 1), draw(e_subspaces(dim_e)))
        return Subspace.span(graph + list(h2.basis), ambient)
    rows = draw(st.lists(st.lists(entries, min_size=ambient, max_size=ambient), max_size=ambient))
    return Subspace.span(rows, ambient)


@SETTINGS
@given(random_subspaces())
def test_random_subspaces(u):
    assert_readoffs_match(u)


@SETTINGS
@given(random_subspaces(), h_basis_changes())
def test_to_uft_over_any_basis(u, basis):
    form = assert_to_uft_matches(u, basis)
    if form is not None:
        assert_graph_rows_match(form)


def test_the_h2_fiber_sees_every_row_in_h2():
    # U = <h1 (x) e1 + h2 (x) e2, h2 (x) (e1 + e2)> at n = 1: one pivot in h2 (x) E
    u = Subspace.span([(1, 0, 0, 1), (0, 0, 1, 1)], 4)
    assert h2_fiber(u) == Subspace.span([(1, 1)], 2) == h_fiber(u, (0, 1))
    assert find_transversal_direction(u) == ref_find_transversal_direction(u) == (1, 1)
    with pytest.raises(TransversalityError):
        to_uft(u, HBasisChange.identity())
    assert h2_fiber(Subspace.zero(4)).is_zero() and maximal_pq(Subspace.zero(4)).is_zero()
    assert h2_fiber(Subspace.full(4)) == Subspace.full(2)


# -- no elimination on the decompose-graph instance ----------------------------------


def test_the_decompose_graph_instance_needs_no_elimination(monkeypatch):
    """On ``generate(Rng(s), 6, "generic", 12)``, U0 = 0 is read off a zero
    h2 fiber with no ``_relations``, the h2 candidate with no ``h_fiber``,
    and the graph form over the standard basis with no ``int_rref``."""
    calls = {"_relations": 0, "h_fiber": 0, "int_rref": 0}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(pqh.subspace, "_relations", spy("_relations", pqh.subspace._relations))
    monkeypatch.setattr(pqh.uft, "h_fiber", spy("h_fiber", pqh.uft.h_fiber))
    monkeypatch.setattr(pqh.uft, "int_rref", spy("int_rref", pqh.uft.int_rref))
    for s in range(3):
        u = generate(Rng(s), 6, "generic", 12)
        assert maximal_pq(u).is_zero()
        assert calls["_relations"] == 0
        assert find_transversal_direction(u) == (0, 1)
        assert minimal_fiber_direction(u) == ((0, 1), Subspace.zero(12))
        assert calls["h_fiber"] == 0
        form = graph_form(u)
        assert calls["int_rref"] == 0
        want = ref_to_uft(u, HBasisChange.identity())
        assert (form.h_basis, form.f_space, form.t_map) == (want.h_basis, want.f_space, want.t_map)


def test_maximal_pq_applies_no_structure_operator(monkeypatch):
    """``maximal_pq`` calls no ``Operator.act_int``.  With a zero h2 fiber,
    and on generic n = 6, dim 16 (a 4-dimensional fiber, where the rank
    certificate proves E0 = 0), it takes no exact ``int_kernel`` either;
    at n = 3, dim 10 the certificate cannot apply and one kernel runs."""
    zero_fiber = [generate(Rng(s), 6, "generic", 12) for s in range(3)]
    certified = [generate(Rng(s), 6, "generic", 16) for s in range(3)]
    wide = generate(Rng(0), 3, "generic", 10)
    calls = {"act_int": 0, "int_kernel": 0}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(Operator, "act_int", spy("act_int", Operator.act_int))
    monkeypatch.setattr(pqh.subspace, "int_kernel", spy("int_kernel", pqh.subspace.int_kernel))
    assert [h2_fiber(u).dim for u in zero_fiber + certified] == [0, 0, 0, 4, 4, 4]
    assert all(maximal_pq(u).is_zero() for u in zero_fiber + certified)
    assert calls == {"act_int": 0, "int_kernel": 0}
    # dim E0 = 2: U0 = H (x) E0 has dim 4
    assert h2_fiber(wide).dim == 4 and maximal_pq(wide).dim == 4
    assert calls == {"act_int": 0, "int_kernel": 1}


# -- the minimal-fiber sweep stops at its floor -----------------------------------------


def sweep_cases():
    """Every kind at n = 1-3, generic at every dim above 2n, each with a
    twist, and the hand-built family."""
    for n in (1, 2, 3):
        us = [generate(Rng(seed), n, kind) for kind in KINDS for seed in range(3)]
        us += [generate(Rng(seed), n, "generic", dim) for dim in range(2 * n + 1, 4 * n) for seed in range(3)]
        for seed, u in enumerate(us):
            yield u
            yield twist_h_rows(u, random_sl2(Rng(9000 + seed)))
    for seed in range(1000, 1200):
        yield hand_built_instance(seed)[1]


def test_minimal_fiber_direction_matches_the_full_sweep():
    """The fiber U ^ (h (x) E) has dimension at least dim U - dim E, so the
    sweep stops at the first candidate of dimension max(0, dim U - dim E);
    the full sweep keeps the same first strict minimum."""
    stopped = 0
    for u in sweep_cases():
        got = minimal_fiber_direction(u)
        assert got == ref_minimal_fiber_direction(u)
        stopped += got[1].dim == u.dim - u.ambient // 2 > 0
    assert stopped > 0


def count_h_fiber(monkeypatch):
    calls = {"h_fiber": 0}

    def wrapped(*args, **kwargs):
        calls["h_fiber"] += 1
        return h_fiber(*args, **kwargs)

    monkeypatch.setattr(pqh.uft, "h_fiber", wrapped)
    return calls


def test_the_sweep_takes_no_h_fiber_at_its_floor(monkeypatch):
    """On generic n = 6, dim 16 the h2 fiber, read off U's pivots, already
    has dimension dim U - dim E = 4, so no candidate runs ``h_fiber``."""
    calls = count_h_fiber(monkeypatch)
    for s in range(3):
        u = generate(Rng(s), 6, "generic", 16)
        h, fib = minimal_fiber_direction(u)
        assert (h, fib.dim) == ((0, 1), 4) and fib == h2_fiber(u)
        assert calls["h_fiber"] == 0
        assert (h, fib) == ref_minimal_fiber_direction(u)


def test_a_sweep_below_its_floor_runs_every_candidate(monkeypatch):
    """U = (H (x) E') (+) a graph at n = 2: every fiber contains E', so none
    reaches the floor max(0, dim U - dim E) = 0 and all dim E + dim U + 2
    candidates run, t >= 1 by ``h_fiber``."""
    e_prime = Subspace.span([(1, 0, 0, 0)], 4)
    graph = Subspace.span([(0, 1, 0, 0, 0, 0, 1, 0)], 8)
    u = product_subspace(e_prime).sum(graph)
    assert u.dim == 3
    calls = count_h_fiber(monkeypatch)
    h, fib = minimal_fiber_direction(u)
    assert calls["h_fiber"] == 4 + 3 + 1
    assert fib.dim == 1 and fib.contains(e_prime)
    assert (h, fib) == ref_minimal_fiber_direction(u)

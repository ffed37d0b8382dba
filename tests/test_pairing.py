"""Integer pairings with g and omega^E against the ``Fraction`` products
they replaced, and classification under a dense omega^E.

``ModelSpace`` keeps omega^E (and g = omega^H (x) omega^E, laid out from
it) as its nonzero entries, and ``subspace._pairings`` gives the
numerators of every pairing of integer rows; ``conftest.pairing_values``
puts them over their denominators.  Each reference in ``tests/reference.py``
is the earlier code: the row loop of ``_pairing`` and the triple products
with ``OMEGA_H.kron(omega)`` or ``omega`` that ``classify`` and ``uft`` used.
They are compared on the standard omega^E and on a dense congruent
P^T omega P with rational P, on zero rows, rank-deficient row sets and
~100-bit entries.

A congruence Id_H (x) P^-1 carries U in the standard model to a subspace
of the model with omega' = P^T omega P; it commutes with I, J, K and is an
isometry, so flags, signature and stabilizer must not move, and the
oracle must stay clean.
"""

from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import congruent_instance, dense_congruence, pairing_values, pure_part_coordinates
from reference import (
    _int_rows,
    block_gram,
    cross_eigenspace_gram,
    graph_gram,
    induced_g_f as ref_induced_g_f,
    kaehler_ambient,
    mat_add,
    mat_is_zero,
    mat_neg,
    mat_rank,
    pairing_rows,
    pure_part_w_t,
    totally_real_c,
)

from pqh.classify import _pure_part, classify, is_para_quaternionic, oracle_check
from pqh.generate import KINDS, generate
from pqh.linalg import Mat, _int_row
from pqh.model import OMEGA_H, OP_I, OP_J, OP_K, ModelSpace, Operator, _form_image, _pairing
from pqh.rng import Rng
from pqh.subspace import (
    Subspace,
    _pairings,
    image_orthogonal,
    is_orthogonal,
    omega_kernel_in,
    p1,
)
from pqh.uft import graph_form, graph_over, pq_split, to_uft

REF = settings(max_examples=60, deadline=None)

small = st.fractions(min_value=-20, max_value=20, max_denominator=12)
bits100 = st.builds(Fraction, st.integers(-(2**100), 2**100), st.integers(1, 2**100))


@st.composite
def models(draw):
    """The standard model, or P^T omega P for a dense rational P."""
    n = draw(st.integers(1, 3))
    ms = ModelSpace.standard(n)
    if draw(st.booleans()):
        return ms
    entries = draw(st.sampled_from([small, bits100]))
    p = dense_congruence(n, draw(st.lists(entries, min_size=4 * n * n, max_size=4 * n * n)))
    return ModelSpace(n, p.T @ ms.omega @ p)


@st.composite
def row_sets(draw, length):
    """Up to five rows: random rows, zero rows and combinations of earlier
    rows (so the set is often rank-deficient), small or ~100-bit."""
    entries = draw(st.sampled_from([small, bits100]))
    rows = [tuple(draw(st.lists(entries, min_size=length, max_size=length))) for _ in range(draw(st.integers(0, 3)))]
    for _ in range(draw(st.integers(0, 2))):
        if len(rows) >= 2 and draw(st.booleans()):
            c = draw(small)
            rows.append(tuple(x + c * y for x, y in zip(rows[0], rows[1])))
        else:
            rows.append((Fraction(0),) * length)
    return draw(st.permutations(rows))


def cleared(rows):
    return [_int_row(tuple(map(Fraction, r))) for r in rows]


def product(x_rows, w, y_rows, length):
    """The ``Fraction`` product X w Y^T."""
    return Mat(x_rows, ncols=length) @ w @ Mat(y_rows, ncols=length).T


# -- the pairing and the pairing matrix -------------------------------------------


@REF
@given(st.data())
def test_pairing_matches_the_row_loop(data):
    ms = data.draw(models())
    w_rows = _int_rows(ms.omega.rows)[0]
    ints = st.integers(-(2**100), 2**100) | st.integers(-3, 3)
    row = lambda k: data.draw(st.lists(ints, min_size=k, max_size=k))  # noqa: E731
    a, b = row(ms.dim_e), row(ms.dim_e)
    w = ms._omega_form[0]
    assert _pairing(w, a, b) == pairing_rows(w_rows, a, b)
    assert sum(map(mul, a, _form_image(w, b))) == pairing_rows(w_rows, a, b)
    assert _pairing(w, a, [0] * ms.dim_e) == 0
    x, y, h = row(ms.dim_v), row(ms.dim_v), ms.dim_e
    old = pairing_rows(w_rows, x[:h], y[h:]) - pairing_rows(w_rows, x[h:], y[:h])
    assert ms._metric_int(x, y) == old
    assert ms._omega_form[1] == ms._metric_form[1] == _int_rows(ms.omega.rows)[1]


@REF
@given(st.data())
def test_pairings_match_the_fraction_product(data):
    ms = data.draw(models())
    g = OMEGA_H.kron(ms.omega)
    for form, w, length in ((ms._omega_form, ms.omega, ms.dim_e), (ms._metric_form, g, ms.dim_v)):
        xs, ys = data.draw(row_sets(length)), data.draw(row_sets(length))
        # the numerators over den * d_x * d_y
        assert pairing_values(form, cleared(xs), cleared(ys)) == product(xs, w, ys, length)
        assert pairing_values(form, cleared(xs), cleared(xs)) == product(xs, w, xs, length)
        x_ints, y_ints = ([V for V, _ in cleared(r)] for r in (xs, ys))
        assert _pairings(form, x_ints, y_ints) == [[_pairing(form[0], x, y) for x in x_ints] for y in y_ints]


@REF
@given(st.data())
def test_orthogonality_and_omega_kernel_match_the_fraction_products(data):
    ms = data.draw(models())
    g = OMEGA_H.kron(ms.omega)
    u = Subspace.span(data.draw(row_sets(ms.dim_v)), ms.dim_v)
    w = Subspace.span(data.draw(row_sets(ms.dim_v)), ms.dim_v)
    assert is_orthogonal(ms, u, w) == mat_is_zero(product(u.basis, g, w.basis, ms.dim_v))
    for a in (OP_I, OP_J, OP_K, Operator(Fraction(3, 7), -2, 5)):
        ambient = u.mat @ a.mat2().kron(Mat.identity(ms.dim_e)).T @ g @ u.mat.T
        assert image_orthogonal(ms, a, u) == mat_is_zero(ambient)
    e_a = Subspace.span(data.draw(row_sets(ms.dim_e)), ms.dim_e)
    e_b = Subspace.span(data.draw(row_sets(ms.dim_e)), ms.dim_e)
    kernel = omega_kernel_in(ms, e_a, e_b)
    assert e_b.contains(kernel)
    assert mat_is_zero(product(e_a.basis, ms.omega, kernel.basis, ms.dim_e))
    if e_a.dim:
        assert kernel.dim == e_b.dim - mat_rank(product(e_a.basis, ms.omega, e_b.basis, ms.dim_e))


# -- the rewritten sites ----------------------------------------------------------


def _models(n: int, seed: int):
    """The standard model and a dense congruent one, P from ``Rng(seed)``."""
    ms = ModelSpace.standard(n)
    p = dense_congruence(n, Rng(1000 + seed).rationals(4 * n * n))
    return [ms, ModelSpace(n, p.T @ ms.omega @ p)]


INSTANCES = [(kind, n, seed) for kind in KINDS for n in (1, 2) for seed in (0, 1)]


@pytest.mark.parametrize("kind,n,seed", INSTANCES)
def test_every_site_matches_its_fraction_product(kind, n, seed):
    u = generate(Rng(seed), n, kind)
    for ms in _models(n, seed):
        form = graph_form(u)
        if form is not None:
            t_cols = [_int_row(t) for t in form.t_map.cols]
            vs = form.graph_rows()
            c = pairing_values(ms._omega_form, t_cols, form.f_space.int_basis())
            assert mat_neg(mat_add(c, c.T)) == ref_induced_g_f(ms, form)
            # _pure_part's w_t, check_totally_real's c and gm
            assert pairing_values(ms._omega_form, t_cols, t_cols) == pure_part_w_t(ms, form)
            assert pairing_values(ms._omega_form, form.f_space.int_basis(), t_cols) == totally_real_c(ms, form)
            assert pairing_values(ms._metric_form, vs, vs) == graph_gram(ms, form)
            # check_complex's k_amb, for any operator
            for a in (OP_I, OP_K, Operator(2, Fraction(-1, 3), 1)):
                moved = [a.act_int(*v) for v in vs]
                assert pairing_values(ms._metric_form, moved, vs) == kaehler_ambient(ms, form, a)
        pqr = is_para_quaternionic(ms, u)
        if pqr.is_pq:
            assert pqr.gram_block_ok
            e_rows = p1(u).int_basis()
            assert block_gram(ms, p1(u)) == OMEGA_H.kron(pairing_values(ms._omega_form, e_rows, e_rows))
        rep = classify(ms, u)
        for wit in (rep.witnesses.complex, rep.witnesses.para_complex):
            if wit is None:
                continue
            pp = _pure_part(ms, u, wit)
            if pp.comp.dim:
                # the pass reads F in the basis of U''s h1' parts, and keeps
                # omega(T., T.) there and g_F as integer numerators over the
                # form's denominator and its own (omega transposed)
                form = to_uft(pp.comp, pp.basis)
                p = pure_part_coordinates(pp, form)
                den = ms._omega_form[1]
                w_t = Mat([[Fraction(x, den * pp.w[2]) for x in r] for r in pp.w[1]]).T
                g_f = Mat([[Fraction(x, den * pp.g[1]) for x in r] for r in pp.g[0]])
                assert w_t == p @ pure_part_w_t(ms, form) @ p.T
                assert g_f == p @ ref_induced_g_f(ms, form) @ p.T
        pcr = rep.para_complex_report
        if pcr is not None and pcr.eigen_presentation is not None:
            _dir1, lift1, _dir2, lift2 = pcr.eigen_presentation
            comp = pq_split(u)[2]
            g1, g2 = (graph_over(comp, pcr.basis, lift) for lift in (lift1, lift2))
            new = pairing_values(ms._metric_form, g1.int_basis(), g2.int_basis())
            assert new == cross_eigenspace_gram(ms, g1, g2)


# -- classify and the oracle under a dense omega^E -------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_congruent_models_agree_and_the_oracle_stays_clean(kind):
    for n in (1, 2, 3):
        std = ModelSpace.standard(n)
        for seed in (0, 1, 2):
            u = generate(Rng(seed), n, kind)
            p = dense_congruence(n, Rng(500 + 10 * n + seed).rationals(4 * n * n))
            ms, v = congruent_instance(std, u, p)
            # a 2 x 2 skew form has 2 nonzero entries whatever P is
            assert n == 1 or len(ms._omega_form[0]) > 2 * n
            want, got = classify(std, u), classify(ms, v)
            assert got.flags == want.flags, (kind, n, seed)
            assert got.signature == want.signature
            assert got.stab.dim == want.stab.dim
            bad = [f for f in oracle_check(ms, got, v, seed=seed) if not f.ok]
            assert bad == [], (kind, n, seed, bad)

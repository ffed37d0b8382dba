"""The classify path's small-integer routes against the routes they replaced.

The oracle draws its samples as integers (``Rng.rational_int``), pairs each
Hermitian-norm pair once into the 2x2 table of omega^E on its H-halves and
reads every SL(H) frame off it, and checks the graph round trip by
containment; ``Subspace.reduce_int`` subtracts every pivot multiple over
one lcm; and ``classify`` refutes ``real`` from a stabilizer witness with
0 != AU <= U before the real test.  Each must give what the route before
it gave: ``Rng.rational``, ``ModelSpace._metric_int`` on the twisted rows,
``UFTForm.span() == u``, the loop in ``tests/reference.py`` and
``is_real(graph_form(u))``.
"""

from fractions import Fraction
from importlib import import_module

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import dense_congruence, hand_built_instance
from reference import oracle_check as ref_oracle
from reference import mat_scale, twist_h_rows
from reference import reduce_int_loop

from pqh.classify import (
    _cleared_adjugate,
    _h_table,
    _twisted_products,
    classify,
    is_real,
    oracle_check,
)
from pqh.generate import KINDS, generate, random_sl2, random_sl2_draws
from pqh.linalg import Mat, _int_row, frac_row
from pqh.model import OP_I, OP_J, OP_K, ModelSpace, _h_act_int
from pqh.rng import Rng
from pqh.subspace import Subspace
from pqh.uft import UFTForm, graph_form

classify_module = import_module("pqh.classify")  # pqh.classify is also the function
SETTINGS = settings(max_examples=80, deadline=None)


# -- integer draws ------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 55, 2**64 - 1])
def test_rational_int_reproduces_rational_and_its_stream(seed):
    a, b = Rng(seed), Rng(seed)
    for _ in range(300):
        num, den = a.rational_int()
        assert -9 <= num <= 9 and 1 <= den <= 3
        assert Fraction(num, den) == b.rational()
        assert a.state == b.state
    # the SL(H) draws: the same s, and the stream in the same place
    for _ in range(20):
        draws = random_sl2_draws(a)
        s = random_sl2(b)
        (na, da), (nb, db), (nc, dc) = draws
        a_, b_, c_ = Fraction(na, da), Fraction(nb, db), Fraction(nc, dc)
        assert s.mat == Mat(((a_, b_), (c_, (1 + b_ * c_) / a_)))
        assert a.state == b.state


# -- the 2x2 Hermitian-norm table --------------------------------------------------------

small = st.integers(-9, 9)
big = st.integers(-(2**80), 2**80)


@st.composite
def paired_rows(draw):
    """(ms, xs, ys): a model space at n = 1-3 with the standard omega^E or a
    dense congruent one, and two integer rows of V."""
    n = draw(st.integers(1, 3))
    ms = ModelSpace.standard(n)
    if draw(st.booleans()):
        count = 4 * n * n
        entries = draw(st.lists(st.fractions(-5, 5, max_denominator=4), min_size=count, max_size=count))
        p = dense_congruence(n, entries)
        ms = ModelSpace(n, p.T @ ms.omega @ p)
    rows = st.lists(small | big, min_size=4 * n, max_size=4 * n)
    return ms, draw(rows), draw(rows)


def per_vector(ms, m, xs, ys):
    """g(Mx, A My) for A = I, J, K as the oracle computed it before: M
    applied to each row, A to My, and one pairing of g per value."""
    xm, _ = _h_act_int((m, 1), xs, 1)
    ym, _ = _h_act_int((m, 1), ys, 1)
    return tuple(ms._metric_int(xm, op.act_int(ym, 1)[0]) for op in (OP_I, OP_J, OP_K))


@SETTINGS
@given(paired_rows(), st.tuples(small | big, small | big, small | big, small | big))
def test_table_products_match_the_per_vector_pairings(msxy, m):
    ms, xs, ys = msxy
    p = _h_table(ms._omega_form[0], xs, ys)
    assert _twisted_products(p, m) == per_vector(ms, m, xs, ys)


@SETTINGS
@given(paired_rows(), st.integers(0, 2**64 - 1))
def test_table_products_on_sl2_draws(msxy, seed):
    """The cleared adjugate of an SL(H) draw is lambda s^-1 with
    lambda^2 = det, and the table reads the same g values off it."""
    ms, xs, ys = msxy
    draws = random_sl2_draws(Rng(seed))
    m = _cleared_adjugate(draws)
    det = m[0] * m[3] - m[1] * m[2]
    (na, da), (_, db), (_, dc) = draws
    lam = na * da * db * dc
    inv = random_sl2(Rng(seed)).mat.inverse()
    assert Mat(((m[0], m[1]), (m[2], m[3]))) == mat_scale(inv, lam)
    assert det == lam * lam > 0
    p = _h_table(ms._omega_form[0], xs, ys)
    assert _twisted_products(p, m) == per_vector(ms, m, xs, ys)


# -- coset reduction in one pass ---------------------------------------------------------

entries = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    st.builds(Fraction, st.integers(-(2**500), 2**500), st.integers(1, 2**500)),
)


@st.composite
def subspace_and_row(draw):
    """A subspace of Q^d (zero, full, from rank-deficient rows or from
    ~500-bit rows) and a row, possibly inside it."""
    d = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["zero", "full", "rank_deficient", "rows"]))
    if kind == "zero":
        u = Subspace.zero(d)
    elif kind == "full":
        u = Subspace.full(d)
    else:
        k = draw(st.integers(1, d))
        rows = draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=k, max_size=k))
        if kind == "rank_deficient":
            c = draw(st.lists(entries, min_size=k, max_size=k))
            rows.append([sum(a * r[j] for a, r in zip(c, rows)) for j in range(d)])
        u = Subspace.span(rows, d)
    v = draw(st.lists(entries, min_size=d, max_size=d))
    if u.dim and draw(st.booleans()):  # a vector of u, or u's row plus noise
        c = draw(st.lists(entries, min_size=u.dim, max_size=u.dim))
        w = [sum(a * r[j] for a, r in zip(c, u.basis)) for j in range(d)]
        v = w if draw(st.booleans()) else [x + y for x, y in zip(w, v)]
    return u, v


@SETTINGS
@given(subspace_and_row())
def test_reduce_int_matches_the_loop(uv):
    u, v = uv
    V, D = _int_row(v)
    got, want = u.reduce_int(list(V), D), reduce_int_loop(u, list(V), D)
    assert frac_row(*got) == frac_row(*want)
    assert u.contains_int(V, D) == (not any(want[0]))


def test_reduce_int_on_zero_full_and_a_500_bit_row():
    big_row = (Fraction(2**500 + 1, 3**300), Fraction(-(2**499), 7), 1, Fraction(1, 2))
    u = Subspace.span([big_row, (1, 2, 3, 4)], 4)
    for w in (Subspace.zero(4), Subspace.full(4), u):
        for v in (big_row, (0, 0, 0, 0), (1, 0, 0, 0), (Fraction(3, 2**500), 5, -1, 2)):
            V, D = _int_row(v)
            got = w.reduce_int(list(V), D)
            want = reduce_int_loop(w, list(V), D)
            assert frac_row(*got) == frac_row(*want)
    assert not any(u.reduce_int(*_int_row(big_row))[0])


# -- real refuted by the stabilizer's witness ---------------------------------------------


def shortcut_cases():
    for kind in KINDS:
        for n in (1, 2, 3, 4):
            for seed in range(3):
                u = generate(Rng(seed), n, kind)
                yield n, u
                yield n, twist_h_rows(u, random_sl2(Rng(9000 + seed)))


@pytest.mark.parametrize("family", ["kinds", "hand_built"])
def test_real_flag_equals_the_real_test(family):
    """``classify``'s ``real`` is ``is_real(graph_form(u))`` whether the
    stabilizer's witness refuted it or the real test ran."""
    if family == "kinds":
        cases = list(shortcut_cases())
    else:
        cases = [hand_built_instance(seed) for seed in range(1000, 1200)]
    refuted = 0
    for n, u in cases:
        report = classify(ModelSpace.standard(n), u)
        assert report.flags.real == is_real(graph_form(u))
        w = report.witnesses
        refuted += bool(report.flags.pure and (w.complex or w.para_complex or w.nilpotent))
    assert family == "hand_built" or refuted > 0


def test_a_witness_skips_the_real_test(monkeypatch):
    """On complex, para-complex and degree-2 nilpotent U, ``classify`` runs
    neither ``injectivize`` nor ``invariant_core``; on real U it runs both."""
    calls = {"injectivize": 0, "invariant_core": 0}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in calls:
        monkeypatch.setattr(classify_module, name, spy(name, getattr(classify_module, name)))
    ms = ModelSpace.standard(3)
    for kind in ("complex", "para_complex", "weakly_para_complex", "nilpotent", "real"):
        u = generate(Rng(1), 3, kind)
        for k in calls:
            calls[k] = 0
        report = classify(ms, u)
        assert report.flags.pure and report.uft is not None
        if kind == "nilpotent":
            assert report.flags.nilpotent_degree == 2
            # check_nilpotent's residue is still tested for realness
            assert calls["injectivize"] == int(report.nilpotent_report.real_part.dim > 0)
        elif kind == "real":
            assert report.flags.real and calls["injectivize"] == 1 and calls["invariant_core"] == 1
        else:
            assert calls == {"injectivize": 0, "invariant_core": 0}


# -- the graph round trip by containment ---------------------------------------------------


def forged_forms(form: UFTForm):
    """The graph form with one column of T changed, with F short by one
    row, and over another H-basis."""
    cols = list(form.t_map.cols)
    cols[-1] = tuple(x + 1 for x in cols[-1])
    yield form._replace(t_cols=Mat(cols, ncols=form.dim_e))
    f = form.f_space
    short = Subspace._of(f.int_basis()[:-1], f.pivots[:-1], f.ambient)
    yield UFTForm(form.h_basis, short, Mat(form.t_map.cols[:-1], ncols=form.dim_e))
    yield form._replace(h_basis=form.h_basis.compose(random_sl2(Rng(5))))


def round_trip(findings):
    (ok,) = [f.ok for f in findings if f.name == "uft-round-trip"]
    return ok


@pytest.mark.parametrize("kind", KINDS)
def test_forged_graph_forms_fail_the_round_trip(kind):
    forged = 0
    for n in (1, 2, 3):
        ms = ModelSpace.standard(n)
        for seed in range(3):
            u = generate(Rng(seed), n, kind)
            report = classify(ms, u)
            if report.uft is None:
                continue
            assert round_trip(oracle_check(ms, report, u, seed=seed))
            for form in forged_forms(report.uft):
                assert form.span() != u
                rep = report._replace(uft=form)
                got = oracle_check(ms, rep, u, seed=seed)
                assert not round_trip(got)
                assert [(f.name, f.ok, f.detail) for f in got] == [
                    (f.name, f.ok, f.detail) for f in ref_oracle(ms, rep, u, seed=seed)
                ]
                forged += 1
    assert forged > 0 or kind in ("para_quaternionic", "nilpotent")

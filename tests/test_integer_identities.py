"""The Sylvester signature and classify's metric identities in integers,
against the ``Fraction`` code they replaced.

``linalg.symmetric_signature`` takes square integer rows and eliminates
by congruence on integers, dividing the matrix by its content before
each pivot;
``tests/reference.py`` keeps the congruence loop on ``Fraction`` entries.
The kernel gets the matrix cleared, and also scaled to D N D for positive
D = diag(d_i), the shape of the pairing numerators of rows over their
denominators d_i.  ``classify._pure_part`` checks T^2, the pullback
metric and the omega route on integer numerators, ``check_complex`` its
Kaehler routes and ``is_para_quaternionic`` its block Gram identity; the
reference copies check the same identities on ``Fraction`` matrices, and
``HBasisChange.conjugate`` reads s m s^-1 off one integer product where
the copy multiplied ``Mat``s.  Every new path must agree with its copy,
and each identity must still raise on a forged input.
"""

from fractions import Fraction
from importlib import import_module

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import cleared_rows, hand_built_instance
from reference import check_complex_mat, conjugate, is_para_quaternionic_mat, pure_part_mat
from reference import pure_part_t_f, traceless_entries, twist_h_rows
from reference import symmetric_signature as ref_signature
from test_congruence import block_grams, congruent_diagonals, huge_symmetric, rank_deficient
from test_congruence import zero_diagonals
from test_graph_maps import h_basis_changes

from pqh.classify import _pure_part, check_complex, classify, is_para_quaternionic
from pqh.classify import kind_witnesses, oracle_check, stabilizer
from pqh.generate import KINDS, generate, random_sl2
from pqh.linalg import Mat, symmetric_signature
from pqh.model import MAT_I, MAT_J, MAT_K, ModelSpace, Operator
from pqh.rng import Rng

CLASSIFY = import_module("pqh.classify")

REF = settings(max_examples=80, deadline=None)

bits500 = st.builds(Fraction, st.integers(-(2**500), 2**500), st.integers(1, 2**40))


# -- the signature kernel -----------------------------------------------------------


def _symmetric(n, vals):
    return Mat([[vals[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)], ncols=n)


@st.composite
def zero_and_full(draw):
    """The zero matrix, or a dense one of any entry size."""
    n = draw(st.integers(0, 6))
    if draw(st.booleans()):
        return Mat.scalar(n, 0)
    entries = draw(st.sampled_from([st.integers(-3, 3), bits500]))
    return _symmetric(n, draw(st.lists(entries, min_size=n * n, max_size=n * n)))


@st.composite
def zero_diagonal_after_pivots(draw):
    """L diag(d_1 .. d_m, H) L^T with L unit lower triangular and H of zero
    diagonal: after m diagonal pivots the remaining block is H, so the
    congruence step runs in the middle of the elimination."""
    m, h = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    n = m + h
    entries = st.fractions(-9, 9, max_denominator=7)
    d = draw(st.lists(entries.filter(bool), min_size=m, max_size=m))
    hv = draw(st.lists(entries, min_size=h * h, max_size=h * h))
    core = [[0] * n for _ in range(n)]
    for i in range(m):
        core[i][i] = d[i]
    for i in range(h):
        for j in range(h):
            core[m + i][m + j] = 0 if i == j else hv[min(i, j) * h + max(i, j)]
    low = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    ell = Mat([[1 if i == j else low[i * n + j] if j < i else 0 for j in range(n)] for i in range(n)])
    return ell @ Mat(core) @ ell.T


@st.composite
def many_denominators(draw):
    """Dense symmetric with ~500-bit numerators over distinct denominators."""
    n = draw(st.integers(1, 6))
    dens = draw(st.lists(st.integers(1, 2**60), min_size=n * n, max_size=n * n, unique=True))
    nums = draw(st.lists(st.integers(-(2**500), 2**500), min_size=n * n, max_size=n * n))
    return _symmetric(n, [Fraction(a, b) for a, b in zip(nums, dens)])


@REF
@given(
    st.one_of(
        zero_and_full(),
        zero_diagonal_after_pivots(),
        many_denominators(),
        zero_diagonals(),
        huge_symmetric(),
        congruent_diagonals().map(lambda c: c[0]),
        rank_deficient().map(lambda c: c[0]),
        block_grams().map(lambda c: c[0]),
    ),
    st.data(),
)
def test_signature_matches_the_fraction_loop(m, data):
    rows = cleared_rows(m)
    assert symmetric_signature(rows) == ref_signature(m)
    ds = data.draw(st.lists(st.integers(1, 2**40), min_size=m.nrows, max_size=m.nrows))
    scaled = [[di * x * dj for x, dj in zip(r, ds)] for r, di in zip(rows, ds)]
    assert symmetric_signature(scaled) == ref_signature(m)


@REF
@given(st.integers(2, 5), st.data())
def test_non_symmetric_input_raises(n, data):
    vals = data.draw(st.lists(st.integers(-5, 5), min_size=n * n, max_size=n * n))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    rows = [[vals[min(r, c) * n + max(r, c)] for c in range(n)] for r in range(n)]
    if i == j:
        j = (i + 1) % n
    rows[i][j] += 1
    with pytest.raises(ValueError):
        symmetric_signature(rows)
    with pytest.raises(ValueError):
        ref_signature(Mat(rows))
    # non-square: a row, n rows of n + 1, and a ragged square
    for bad in ([[1, 2, 3]], [r + [0] for r in rows], rows[:-1] + [rows[-1][:-1]]):
        with pytest.raises(ValueError):
            symmetric_signature(bad)


# -- conjugation --------------------------------------------------------------------


@REF
@given(h_basis_changes(), st.fractions(-50, 50, max_denominator=30), st.data())
def test_conjugate_matches_the_mat_product(s, x, data):
    y, z = (data.draw(st.fractions(-50, 50, max_denominator=30)) for _ in range(2))
    # m = (x, y; z, -x) is traceless by construction
    assert s.conjugate(x, y, z) == conjugate(s, Mat(((x, y), (z, -x))))
    for m in (MAT_I, MAT_J, MAT_K):
        assert s.conjugate(*traceless_entries(m)) == conjugate(s, m)


@pytest.mark.parametrize("entry", range(4))
def test_witness_square_identity_reads_the_four_entries(entry):
    # a witness whose stored matrix is off by one in one entry: the oracle's
    # finding on the four entries agrees with the Mat square against -q Id
    ms, u = ModelSpace.standard(1), _totally_complex(1)
    report = classify(ms, u)
    wit = report.witnesses.complex
    forged = Operator(wit.alpha, wit.beta, wit.gamma)
    m = list(wit._m)
    m[entry] += 1
    object.__setattr__(forged, "_m", tuple(m))
    witnesses = report.witnesses._replace(complex=forged)
    found = {f.name: f.ok for f in oracle_check(ms, report._replace(witnesses=witnesses), u)}
    amat = Mat((m[:2], m[2:]))
    assert found["complex-witness-square-identity"] == (amat @ amat == Mat.scalar(2, -wit.q()))
    assert found["complex-witness-square-identity"] is False
    assert {f.name: f.ok for f in oracle_check(ms, report, u)}["complex-witness-square-identity"]


# -- the identities of the pure part, the Kaehler routes and the block Gram ----------


def _same_pass(ms, u):
    """Every identity check on ``u`` agrees with its ``Fraction`` copy."""
    assert is_para_quaternionic(ms, u) == is_para_quaternionic_mat(ms, u)
    wits = kind_witnesses(stabilizer(u))
    passes = 0
    for a in (wits.complex, wits.para_complex):
        if a is None:
            continue
        new, old = _pure_part(ms, u, a), pure_part_mat(ms, u, a)
        for f in ("scale", "basis", "d_val", "comp", "sig", "omega_route", "gram_partner", "totally"):
            assert getattr(new, f) == getattr(old, f), f
        assert (pure_part_t_f(new) if new.comp.dim else None) == old.t_f
        if a.q() > 0:
            assert check_complex(ms, u, a) == check_complex_mat(ms, u, a)
        passes += new.comp.dim > 0
    return passes


@pytest.mark.parametrize("kind", KINDS)
def test_identities_match_the_fraction_copies_on_generated_kinds(kind):
    passes = 0
    for n in (1, 2, 3, 4):
        ms = ModelSpace.standard(n)
        for seed in range(8):
            u = generate(Rng(seed), n, kind)
            passes += _same_pass(ms, u)
            passes += _same_pass(ms, twist_h_rows(u, random_sl2(Rng(300 + seed))))
    witnessed = {"complex", "totally_complex", "para_complex", "weakly_para_complex", "totally_para_complex"}
    assert passes or kind not in witnessed


def test_identities_match_the_fraction_copies_on_hand_built_instances():
    passes = 0
    for seed in range(1000, 1200):
        n, u = hand_built_instance(seed)
        passes += _same_pass(ModelSpace.standard(n), u)
    assert passes >= 100


# -- forged inputs still raise ---------------------------------------------------------


def _totally_complex(n):
    """A generated totally complex U: pure, Hermitian and omega-conformal."""
    return generate(Rng(0), n, "totally_complex")


def _forged_metric(ms):
    """A copy of ``ms`` whose metric is 2 omega^H (x) omega^E."""
    out = ModelSpace(ms.n, ms.omega)
    g, d = ms._metric_form
    object.__setattr__(out, "_metric_form", ([(i, j, 2 * x) for i, j, x in g], d))
    return out


def test_forged_square_identity_raises(monkeypatch):
    ms, u = ModelSpace.standard(1), _totally_complex(1)
    real = CLASSIFY._int_matmul

    def off_by_one(a, b):
        out = real(a, b)
        out[0][0] += 1
        return out

    monkeypatch.setattr(CLASSIFY, "_int_matmul", off_by_one)
    with pytest.raises(AssertionError, match="T\\^2"):
        _pure_part(ms, u, kind_witnesses(stabilizer(u)).complex)


def test_forged_pullback_metric_raises():
    ms, u = ModelSpace.standard(2), _totally_complex(2)
    with pytest.raises(AssertionError, match="pullback metric"):
        _pure_part(_forged_metric(ms), u, kind_witnesses(stabilizer(u)).complex)


def test_forged_omega_route_raises(monkeypatch):
    # a totally complex U: omega(T., T.) = scale omega on F with omega
    # nondegenerate, so a forged rank makes the omega route disagree with
    # the two Gram routes
    ms, u = ModelSpace.standard(2), _totally_complex(2)
    assert classify(ms, u).flags.totally_complex
    monkeypatch.setattr(CLASSIFY, "_full_rank", lambda rows, k: False)
    with pytest.raises(AssertionError, match="routes disagree"):
        _pure_part(ms, u, kind_witnesses(stabilizer(u)).complex)


def test_forged_kaehler_product_raises(monkeypatch):
    # once the pass is done, the product g_F C^T of the second route is off
    ms, u = ModelSpace.standard(2), _totally_complex(2)
    real_pass, real_matmul = CLASSIFY._pure_part, CLASSIFY._int_matmul

    def off_by_one(a, b):
        out = real_matmul(a, b)
        out[0][0] += 1
        return out

    def then_forge(*args):
        out = real_pass(*args)
        monkeypatch.setattr(CLASSIFY, "_int_matmul", off_by_one)
        return out

    monkeypatch.setattr(CLASSIFY, "_pure_part", then_forge)
    with pytest.raises(AssertionError, match="Kaehler"):
        check_complex(ms, u, kind_witnesses(stabilizer(u)).complex)


def test_forged_block_gram_raises():
    ms = ModelSpace.standard(2)
    u = generate(Rng(3), 2, "para_quaternionic")
    forged = _forged_metric(ms)
    assert is_para_quaternionic(ms, u).gram_block_ok
    assert not is_para_quaternionic(forged, u).gram_block_ok
    assert not is_para_quaternionic_mat(forged, u).gram_block_ok
    with pytest.raises(AssertionError, match="Gram block"):
        classify(forged, u)


def test_pass_fields_are_integer_data():
    # no Fraction matrix is kept on the pass
    ms, u = ModelSpace.standard(2), _totally_complex(2)
    pp = _pure_part(ms, u, kind_witnesses(stabilizer(u)).complex)
    assert not any(isinstance(getattr(pp, f), Mat) for f in pp._fields)

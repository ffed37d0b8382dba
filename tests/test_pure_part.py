"""The shared pure-part pass against reference copies of the two separate
passes it replaced.

``ref_check_complex`` and ``ref_check_para_complex`` are the earlier
implementations of ``check_complex`` and ``check_para_complex``, each with
its own copy of the structure-theorem pass.  Every report field must agree
on the witnesses of generated instances of every kind, on rescaled
witnesses (both signs of D) and on witnesses whose q is not a square.
A report holds U', so the references report their complement, and U''s
graph form over the adapted basis (``reference.pure_form``) is compared
too.
"""

from fractions import Fraction

import pytest
from conftest import cleared_rows
from reference import assemble, graph_basis, graph_rows, induced_g_f, mat_rank, mat_trace, pure_form
from reference import restrict_omega
from test_pure_complement import ref_invariant_pure_complement

from pqh.classify import (
    ComplexReport,
    ParaComplexReport,
    adapted_basis,
    check_complex,
    check_para_complex,
    kind_witnesses,
    operator_preserves,
    stabilizer,
)
from pqh.generate import KINDS, generate
from pqh.linalg import F0, F1, Mat, symmetric_signature
from pqh.model import OMEGA_H, ModelSpace, Operator
from pqh.polyq import is_rational_square, poly_eval_matrix
from pqh.rng import Rng
from pqh.subspace import (
    SignatureTriple,
    Subspace,
    decomposable_subspace,
    direct_sum_is,
    image,
    is_orthogonal,
    maximal_pq,
    signature,
)
from pqh.uft import _std_direction, normalize_direction, to_uft


def ref_check_complex(ms, u, a):
    qa = a.q()
    if qa <= 0:
        raise ValueError("complex check needs a witness with positive q")
    if not operator_preserves(a, u):
        raise ValueError("witness does not stabilize the subspace")
    u0 = maximal_pq(u)
    comp = ref_invariant_pure_complement(a, u, u0)
    basis, d_val = adapted_basis(a)
    mu = d_val * d_val / qa
    if comp.dim == 0:
        sig0 = SignatureTriple(0, 0, 0)
        return ComplexReport(mu, basis, comp, True, sig0, False, False, False)
    form = to_uft(comp, basis)
    ok = True
    tf_cols = []
    for j, f in enumerate(form.f_space.mat.rows):
        tf = form.t_map.col(j)
        if not form.f_space.contains_vector(tf):
            ok = False
            break
        ttf = form.t_map.mul_vec(form.f_space.coordinates_of(tf))
        if ttf != tuple(-mu * x for x in f):
            ok = False
            break
        tf_cols.append(form.f_space.coordinates_of(tf))
    if not ok:
        raise AssertionError("complex structure identity T^2 = -mu Id failed")
    t_f = Mat.from_cols(tf_cols, nrows=form.dim)
    g_f = induced_g_f(ms, form)
    sig_pure = SignatureTriple(*symmetric_signature(cleared_rows(g_f)))
    if sig_pure.as_tuple() != signature(ms, comp).as_tuple():
        raise AssertionError("pullback metric has wrong signature")
    if any(x % 2 for x in sig_pure.as_tuple()):
        raise AssertionError("complex signature is not of type (2p, 2s, 2q)")
    hermitian_pure = sig_pure.s == 0
    b_mat = form.f_space.mat.T
    w_f = b_mat.T @ ms.omega @ b_mat
    te = form.t_map
    w_t = te.T @ ms.omega @ te
    vs = graph_basis(form)
    k_amb = vs @ a.mat2().kron(Mat.identity(ms.dim_e)).T @ OMEGA_H.kron(ms.omega) @ vs.T
    k_gf = (g_f @ t_f).scale(qa / d_val)
    k_form = (w_f.scale(d_val) + w_t.scale(qa / d_val)).scale(-F1)
    if not (k_amb == k_gf == k_form):
        raise AssertionError("Kaehler identity routes disagree")
    omega_pres = (
        restrict_omega(ms, form.f_space).det() != 0 and w_t == w_f.scale(mu)
    )
    j_hat = basis.conjugate(F0, qa / (d_val * d_val), F1)
    k_hat = basis.conjugate(F1, F0, F0)
    gram_j = is_orthogonal(ms, image(j_hat, u), u)
    gram_k = is_orthogonal(ms, image(k_hat, u), u)
    hermitian_full = signature(ms, u).s == 0
    totally = hermitian_full and u0.is_zero() and omega_pres
    if u0.is_zero() and hermitian_full:
        if not (omega_pres == gram_j == gram_k):
            raise AssertionError("totally-complex routes disagree")
    return ComplexReport(
        mu, basis, comp, hermitian_pure, sig_pure, omega_pres, gram_j, totally,
    )


def ref_check_para_complex(ms, u, a):
    qa = a.q()
    if qa >= 0:
        raise ValueError("para-complex check needs a witness with negative q")
    if not operator_preserves(a, u):
        raise ValueError("witness does not stabilize the subspace")
    u0 = maximal_pq(u)
    comp = ref_invariant_pure_complement(a, u, u0)
    basis, d_val = adapted_basis(a)
    nu = d_val * d_val / (-qa)
    if comp.dim == 0:
        sig0 = SignatureTriple(0, 0, 0)
        return ParaComplexReport(
            nu, basis, comp, 0, 0, True, True, sig0, 0, None, None,
            False, False, False,
        )
    form = to_uft(comp, basis)
    tf_cols = []
    for j, f in enumerate(form.f_space.mat.rows):
        tf = form.t_map.col(j)
        if not form.f_space.contains_vector(tf):
            raise AssertionError("T does not preserve F for a para-complex witness")
        ttf = form.t_map.mul_vec(form.f_space.coordinates_of(tf))
        if ttf != tuple(nu * x for x in f):
            raise AssertionError("para-complex identity T^2 = nu Id failed")
        tf_cols.append(form.f_space.coordinates_of(tf))
    t_f = Mat.from_cols(tf_cols, nrows=form.dim)
    k = form.dim
    tr = mat_trace(t_f)
    if tr == 0:
        if k % 2:
            raise AssertionError("traceless para-complex part of odd dimension")
        d_plus = d_minus = k // 2
    else:
        ratio = is_rational_square(tr * tr / nu)
        if ratio is None or ratio.denominator != 1:
            raise AssertionError("trace test failed to give an integer split")
        r_signed = int(ratio) if (tr > 0) == (d_val > 0) else -int(ratio)
        if (k + r_signed) % 2:
            raise AssertionError("trace split has wrong parity")
        d_plus = (k + r_signed) // 2
        d_minus = (k - r_signed) // 2
    strict = d_plus == d_minus
    g_f = induced_g_f(ms, form)
    sig_pure = SignatureTriple(*symmetric_signature(cleared_rows(g_f)))
    if sig_pure.as_tuple() != signature(ms, comp).as_tuple():
        raise AssertionError("pullback metric has wrong signature")
    if sig_pure.p != sig_pure.q:
        raise AssertionError("para-complex signature is not of type (m, k-2m, m)")
    m_value = sig_pure.p
    hermitian_pure = sig_pure.s == 0
    if not strict and hermitian_pure:
        raise AssertionError("weakly-not-para-complex part must be degenerate")
    if hermitian_pure and sig_pure.as_tuple() != (k // 2, 0, k // 2):
        raise AssertionError("Hermitian para-complex part must be neutral")
    rho = is_rational_square(-qa)
    eigen_pres = None
    family = None
    if rho is not None:
        lam_plus = d_val / rho
        e1 = poly_eval_matrix((-lam_plus, F1), t_f).kernel()
        e2 = poly_eval_matrix((lam_plus, F1), t_f).kernel()
        lift1 = Subspace(e1 @ form.f_space.mat)
        lift2 = Subspace(e2 @ form.f_space.mat)
        if lift1.dim != d_plus or lift2.dim != d_minus:
            raise AssertionError("rational eigenspace dimensions disagree with trace test")
        dir1 = normalize_direction(_std_direction(form.h_basis, (F1, lam_plus)))
        dir2 = normalize_direction(_std_direction(form.h_basis, (F1, -lam_plus)))
        pres_parts = [
            decomposable_subspace(dir1, lift1),
            decomposable_subspace(dir2, lift2),
        ]
        if not direct_sum_is(comp, [p for p in pres_parts if p.dim]):
            raise AssertionError("eigenspace presentation does not recompose")
        eigen_pres = (dir1, lift1, dir2, lift2)
        if lift1.dim and lift2.dim:
            vs1, vs2 = Subspace(graph_rows(form, lift1)).mat, Subspace(graph_rows(form, lift2)).mat
            if mat_rank(vs1 @ OMEGA_H.kron(ms.omega) @ vs2.T) != m_value:
                raise AssertionError("cross-eigenspace rank disagrees with signature")
        elif m_value != 0:
            raise AssertionError("empty eigenspace but nonzero metric rank")
        for lam in (lam_plus, -lam_plus):
            if t_f == Mat.identity(k).scale(lam):
                n_op = basis.conjugate(F1, qa * lam / (d_val * d_val), lam)
                for t in (0, 1, 2):
                    member = a + n_op.scale(t)
                    if not operator_preserves(member, comp):
                        raise AssertionError("witness family member fails invariance")
                family = (a, n_op)
                break
    b_mat = form.f_space.mat.T
    w_f = b_mat.T @ ms.omega @ b_mat
    w_t = form.t_map.T @ ms.omega @ form.t_map
    omega_skew = (
        restrict_omega(ms, form.f_space).det() != 0 and w_t == w_f.scale(-nu)
    )
    i_hat = basis.conjugate(F0, qa / (d_val * d_val), F1)
    k_hat = basis.conjugate(F1, F0, F0)
    gram_i = is_orthogonal(ms, image(i_hat, u), u)
    gram_k = is_orthogonal(ms, image(k_hat, u), u)
    hermitian_full = signature(ms, u).s == 0
    totally = hermitian_full and u0.is_zero() and strict and omega_skew
    if u0.is_zero() and hermitian_full:
        if not (omega_skew == gram_i == gram_k):
            raise AssertionError("totally-para-complex routes disagree")
    return ParaComplexReport(
        nu, basis, comp, d_plus, d_minus, strict, hermitian_pure,
        sig_pure, m_value, eigen_pres, family, omega_skew, gram_i, totally,
    )


def assert_same_reports(ms, u, a):
    """Both checks on (U, A) agree with their reference copies, field by
    field, or raise the same exception type."""
    for check, ref in (
        (check_complex, ref_check_complex),
        (check_para_complex, ref_check_para_complex),
    ):
        try:
            expected = ref(ms, u, a)
        except (ValueError, AssertionError) as exc:
            with pytest.raises(type(exc)):
                check(ms, u, a)
            continue
        got = check(ms, u, a)
        for name in expected._fields:
            assert getattr(got, name) == getattr(expected, name), name
        assert pure_form(got) == pure_form(expected), "pure_form"


@pytest.mark.parametrize("kind", KINDS)
def test_generated_witnesses_match_reference(kind):
    for n in (1, 2, 3):
        ms = ModelSpace.standard(n)
        for seed in range(6):
            u = generate(Rng(seed), n, kind)
            wits = kind_witnesses(stabilizer(u))
            for a in (wits.complex, wits.para_complex):
                if a is None:
                    continue
                # rescaling flips the sign of D and changes q by a square
                for c in (F1, Fraction(-3, 2)):
                    assert_same_reports(ms, u, a.scale(c))


def _adapted_graph(n, a):
    """The graph of T = (0, -D^2/q; 1, 0) over the adapted basis of A, one
    copy per symplectic pair of E: the pure part is all of U."""
    basis, d = adapted_basis(a)
    s = d * d / a.q()
    rows = []
    for i in range(n):
        for f, tf in (((1, 0), (0, 1)), ((0, 1), (-s, 0))):
            fe, te = [F0] * (2 * n), [F0] * (2 * n)
            fe[2 * i : 2 * i + 2], te[2 * i : 2 * i + 2] = f, tf
            rows.append(assemble(basis, fe, te))
    return Subspace.span(rows, 4 * n)


@pytest.mark.parametrize(
    "a",
    [
        Operator(2, 1, 1),  # q = 2
        Operator(3, 1, 0),  # q = 8
        Operator(0, 1, 1),  # q = -2
        Operator(1, 2, 1),  # q = -4, a square: eigen presentation
        Operator(1, 1, 3),  # q = -9
    ],
)
def test_explicit_witnesses_match_reference(a):
    for n in (1, 2):
        u = _adapted_graph(n, a)
        if a.q() > 0:
            assert pure_form(check_complex(ModelSpace.standard(n), u, a)).dim == 2 * n
        assert_same_reports(ModelSpace.standard(n), u, a)
        assert_same_reports(ModelSpace.standard(n), u, a.scale(-2))


def test_nonsquare_para_complex_graph_matches_reference(ms1):
    # T = [[0, 2], [1, 0]]: T^2 = 2 Id, eigenvalues +-sqrt(2)
    from conftest import graph_subspace

    u = graph_subspace(1, [((1, 0), (0, 1)), ((0, 1), (2, 0))])
    a = kind_witnesses(stabilizer(u)).para_complex
    assert is_rational_square(-a.q()) is None
    assert_same_reports(ms1, u, a)

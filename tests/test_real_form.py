"""The real test is a predicate of a graph form, built once per request.

``is_real(graph_form(u))`` must agree with the memoized subspace predicate
it replaced (``reference.is_real``) on generated kinds, their twists by
``random_sl2``, random subspaces of every dimension and the hand-built
family with 0 < dim U0 < dim U.  ``classify`` builds ``graph_form(u)`` once
for a pure U and never for another, ``decompose_form2`` runs form 1 only
when U' has no graph form, T on F is read off ``t_map`` as
``t_on_subspace`` reads it (and off the witness by the pure-part pass, in
another basis of F), and the oracle's pairing route to
``totally-complex-gram`` refutes a forged flag, also where J^U _|_ U fails
on the pairs with one basis row only.
"""

from importlib import import_module


from pqh.classify import ComplexReport, _pure_part, adapted_basis, classify, is_real
from pqh.classify import kind_witnesses, oracle_check, stabilizer
from pqh.generate import KINDS, generate, random_sl2, random_subspace
from pqh.linalg import F0, F1
from pqh.model import OP_I, OP_J, ModelSpace
from pqh.rng import Rng
from pqh.subspace import Subspace, maximal_pq
from pqh.uft import (
    decompose_form1,
    decompose_form2,
    graph_form,
    injectivize,
    invariant_core,
    pq_split,
    subspace_spectrum,
    to_uft,
)
from conftest import hand_built_instance, pure_part_coordinates
from reference import is_real as ref_is_real
from reference import twist_h_rows
from reference import pure_part_t_f

# the modules, not the functions ``pqh`` exports under the same names
CLASSIFY = import_module("pqh.classify")
UFT = import_module("pqh.uft")

SEEDS = range(6)


def generated():
    """(n, U) for every kind at n = 1-3, seeds 0-5."""
    for kind in KINDS:
        for n in (1, 2, 3):
            for seed in SEEDS:
                yield n, generate(Rng(seed), n, kind)


def assert_same_real(u):
    # the reference fills the memo of its instance, so it gets a fresh copy
    assert is_real(graph_form(u)) == ref_is_real(u.sum(u)), u.pivots


def test_real_test_matches_the_memoized_predicate_on_generated_kinds():
    real = 0
    for n, u in generated():
        assert_same_real(u)
        assert_same_real(twist_h_rows(u, random_sl2(Rng(100 + n))))
        real += is_real(graph_form(u))
    assert real


def test_real_test_matches_the_memoized_predicate_on_random_subspaces():
    rng = Rng(31)
    large = mixed = real = 0
    for n in (1, 2, 3):
        for dim in range(4 * n + 1):
            for _ in range(3):
                u = random_subspace(rng, 4 * n, dim)
                assert_same_real(u)
                large += dim > 2 * n
                mixed += not maximal_pq(u).is_zero()
                real += is_real(graph_form(u))
    assert large and mixed and real


def test_real_test_matches_the_memoized_predicate_on_the_hand_built_family():
    for seed in range(1000, 1400):
        _n, u = hand_built_instance(seed)
        assert_same_real(u)
        # U0 != 0 leaves U no graph form; its pure part U' has one, whose T
        # has the rational eigenvalues +-1, so neither is real
        assert_same_real(pq_split(u)[2])


def test_classify_builds_one_graph_form_per_pure_instance(monkeypatch):
    calls = []

    def spy(u):
        calls.append(u)
        return graph_form(u)

    monkeypatch.setattr(CLASSIFY, "graph_form", spy)
    pure = not_pure = totally_real_checked = 0
    for n, u in generated():
        calls.clear()
        rep = classify(ModelSpace.standard(n), u)
        # check_nilpotent's real part is another subspace, with its own form
        nrep = rep.nilpotent_report
        expected = [nrep.real_part] if nrep and nrep.real_part.dim else []
        expected += [u] if rep.flags.pure else []
        assert len(calls) == len(expected)
        assert all(c is e for c, e in zip(calls, expected))
        pure += rep.flags.pure
        not_pure += not rep.flags.pure
        totally_real_checked += rep.totally_real_report is not None
    assert pure and not_pure and totally_real_checked


def test_form2_runs_form1_only_when_u_prime_has_no_graph_form(monkeypatch):
    calls = []

    def spy(u, *fibers):
        calls.append(u)
        return decompose_form1(u, *fibers)

    monkeypatch.setattr(UFT, "decompose_form1", spy)
    graphs = non_graphs = 0
    for n, u in generated():
        u_prime = pq_split(u)[2]
        is_graph = subspace_spectrum(u_prime) is not None
        # form 1 splits off a piece exactly when U' has no graph form
        assert (decompose_form1(u_prime).piece is None) == is_graph
        calls.clear()
        decompose_form2(u)
        assert len(calls) == (0 if is_graph else 1)
        graphs += is_graph
        non_graphs += not is_graph
    assert graphs and non_graphs


def test_t_on_f_is_t_on_the_subspace_f():
    pure_parts = cores = 0
    for n, u in generated():
        ms = ModelSpace.standard(n)
        wits = kind_witnesses(stabilizer(u))
        for a in (wits.complex, wits.para_complex):
            part = _pure_part(ms, u, a) if a is not None else None
            if part is not None and part.comp.dim:
                # the pass's T, read off the witness on U''s rows, is the
                # graph form's T on F in the basis of U''s h1' parts
                form = to_uft(part.comp, part.basis)
                p = pure_part_coordinates(part, form)
                assert p.T @ pure_part_t_f(part) == form.t_on_subspace(form.f_space).T @ p.T
                pure_parts += 1
        form = graph_form(u)
        if form is not None:
            inj = injectivize(form)
            core, t_core = invariant_core(inj)
            assert t_core == inj.t_on_subspace(core)
            cores += core.dim == inj.dim
    assert pure_parts >= 100 and cores


def test_forged_totally_complex_flag_is_refuted():
    # n = 1 gives a totally complex U; complex n = 2, seed 0 is Hermitian and
    # pure but not totally complex, so only the pairing route decides it
    for n, kind in ((1, "totally_complex"), (2, "complex")):
        ms = ModelSpace.standard(n)
        u = generate(Rng(0), n, kind)
        rep = classify(ms, u)
        assert rep.flags.hermitian and rep.u0.is_zero()
        assert rep.flags.totally_complex == (kind == "totally_complex")
        findings = {f.name: f for f in oracle_check(ms, rep, u)}
        assert findings["totally-complex-gram"].ok
        forged = rep._replace(flags=rep.flags._replace(totally_complex=not rep.flags.totally_complex))
        findings = {f.name: f for f in oracle_check(ms, forged, u)}
        assert not findings["totally-complex-gram"].ok


def test_totally_complex_gram_sees_a_failure_on_one_row():
    # at n = 1, U = span((1, 0, 0, -1), e2, e3) is Hermitian and pure, and
    # g(x, J y) on its basis rows vanishes except on the pairs with the first
    # row.  A report with the witness I (adapted basis the identity, scale 1,
    # so J^ = J) is refuted when it claims U totally complex, and only then
    ms = ModelSpace.standard(1)
    u = Subspace.span([(1, 0, 0, -1), (0, 1, 0, 0), (0, 0, 1, 0)], 4)
    gj = [[-ms.hermitian_product(x, y).q2 for y in u.basis] for x in u.basis]
    assert gj[1][2] == gj[2][1] == 0 and gj[0][1] and gj[0][2]
    rep = classify(ms, u)
    assert rep.flags.hermitian and rep.u0.is_zero() and not rep.flags.para_quaternionic
    basis, d = adapted_basis(OP_I)
    cr = ComplexReport(d * d / OP_I.q(), basis, u, True, rep.signature, True, True, True)
    assert basis.conjugate(F0, 1 / cr.scale, F1) == OP_J
    for claim in (False, True):
        forged = rep._replace(flags=rep.flags._replace(totally_complex=claim), complex_report=cr)
        findings = {f.name: f for f in oracle_check(ms, forged, u)}
        assert findings["totally-complex-gram"].ok == (not claim)

"""g and omega stay integer numerators from pairing to verdict, against the
``Fraction`` code they replaced.

``subspace.signature`` and the oracle pass the metric numerators of U's
integer rows to ``linalg.symmetric_signature``.  ``check_para_complex``
reads tr T, the columns of T -+ lam Id and the test T = lam Id off the
pure part's integer coefficient rows C, and its cross-eigenspace rank off
the pairings.  ``check_totally_real``, the ``p2_symplectic`` of
``check_nilpotent``, ``kind_witnesses`` and the oracle's
``totally-complex-gram`` decide on numerators as well.  The copies in
``tests/reference.py`` run on ``Fraction`` pairing matrices
(``reference._form_matrix``); ``ref_check_nilpotent`` is the copy in
``test_elimination_door``.  Every new path must agree with its copy on
11 kinds x n = 1-4 x seeds 0-7, each as built, SL(H)-twisted and moved
into a congruent model with a dense omega^E, and on the hand-built seeds
1000-1199; ``kind_witnesses`` also on every subspace of Q^3 spanned by two
rows with entries in {-2, ..., 2}, whose reduced rows have denominators.
A spy sees no ``Mat`` built inside ``subspace.signature``.
"""

from itertools import product

import pytest
from conftest import congruent_instance, dense_congruence, hand_built_instance
from reference import check_para_complex_mat, check_totally_real_mat, kind_witnesses_mat
from reference import oracle_check as ref_oracle_check
from reference import twist_h_rows
from reference import signature_mat
from test_elimination_door import assert_same_report, ref_check_nilpotent

from pqh.classify import (
    check_nilpotent,
    check_para_complex,
    check_totally_real,
    classify,
    kind_witnesses,
    oracle_check,
)
from pqh.generate import KINDS, generate, random_sl2
from pqh.linalg import Mat
from pqh.model import ModelSpace
from pqh.rng import Rng
from pqh.subspace import Subspace, signature


def _outcome(check, *args):
    """The value of a check, or the type and message of what it raised."""
    try:
        return check(*args)
    except (AssertionError, ValueError) as exc:
        return type(exc), str(exc)


def _agree(ms: ModelSpace, u, seed: int) -> dict:
    """Every new path agrees with its copy on U; which checks ran."""
    report = classify(ms, u)
    assert signature(ms, u) == signature_mat(ms, u) == report.signature
    assert kind_witnesses(report.stab) == kind_witnesses_mat(report.stab)
    ran = {}
    wits = report.witnesses
    if wits.para_complex is not None:
        got = check_para_complex(ms, u, wits.para_complex)
        assert got == check_para_complex_mat(ms, u, wits.para_complex)
        ran["para_complex"] = got.eigen_presentation is not None
        ran["family"] = got.witness_family is not None
    if wits.nilpotent is not None:
        got = check_nilpotent(ms, u, wits.nilpotent)
        assert_same_report(got, ref_check_nilpotent(ms, u, wits.nilpotent))
        ran["p2_symplectic"] = got.p2_symplectic
    # the totally-real check on every nondegenerate graph, real or not: a
    # U that is not real may raise, and then both raise alike
    if report.uft is not None and report.signature.s == 0:
        got = _outcome(check_totally_real, ms, u, report.uft)
        assert got == _outcome(check_totally_real_mat, ms, u, report.uft)
        ran["totally_real"] = getattr(got, "totally_real", False)
    findings = [(f.name, f.ok, f.detail) for f in oracle_check(ms, report, u, seed=seed)]
    assert findings == [(f.name, f.ok, f.detail) for f in ref_oracle_check(ms, report, u, seed=seed)]
    ran["totally_complex_gram"] = any(name == "totally-complex-gram" for name, _, _ in findings)
    return ran


def _instances(kind: str):
    """(ms, U, seed): each generated U as built, twisted, and in a model with
    a dense omega^E."""
    for n in (1, 2, 3, 4):
        ms = ModelSpace.standard(n)
        for seed in range(8):
            u = generate(Rng(seed), n, kind)
            yield ms, u, seed
            yield ms, twist_h_rows(u, random_sl2(Rng(300 + seed))), seed
            p = dense_congruence(n, Rng(1000 + seed).rationals(4 * n * n))
            yield (*congruent_instance(ms, u, p), seed)


@pytest.mark.parametrize("kind", KINDS)
def test_numerator_checks_match_the_fraction_copies_on_generated_kinds(kind):
    ran = [_agree(ms, u, seed) for ms, u, seed in _instances(kind)]
    assert len(ran) == 96
    if kind in ("para_complex", "weakly_para_complex", "totally_para_complex"):
        assert any(r.get("para_complex") for r in ran)
    if kind in ("weakly_para_complex", "decomposable"):
        assert any(r.get("family") for r in ran)
    if kind == "nilpotent":
        assert {r["p2_symplectic"] for r in ran} == {True, False}
    if kind == "totally_real":
        assert any(r.get("totally_real") for r in ran)
    if kind == "totally_complex":
        assert any(r["totally_complex_gram"] for r in ran)


def test_numerator_checks_match_the_fraction_copies_on_hand_built_instances():
    ran = []
    for seed in range(1000, 1200):
        n, u = hand_built_instance(seed)
        ran.append(_agree(ModelSpace.standard(n), u, seed))
    assert sum(bool(r.get("para_complex")) for r in ran) == 200
    assert {r.get("family") for r in ran} == {True, False}
    assert {r.get("p2_symplectic") for r in ran} >= {True, False}


def test_kind_witnesses_match_the_fraction_copy_on_small_stabilizers():
    rows = [r for r in product(range(-2, 3), repeat=3) if any(r)]
    spaces = {Subspace.span(pair, 3) for pair in product(rows, repeat=2)}
    assert any(d > 1 for s in spaces for _, d in s.int_basis())
    for stab in spaces:
        assert kind_witnesses(stab) == kind_witnesses_mat(stab)


def test_signature_builds_no_mat(monkeypatch):
    cases = []
    for kind in KINDS:
        for n in (1, 2, 3):
            ms = ModelSpace.standard(n)
            u = generate(Rng(n), n, kind)
            p = dense_congruence(n, Rng(2000 + n).rationals(4 * n * n))
            cases += [(ms, u), congruent_instance(ms, u, p)]
    # fresh instances, so that the memo is empty when the spy is on
    cases = [(ms, twist_h_rows(u, random_sl2(Rng(7)))) for ms, u in cases]
    expected = [signature_mat(ms, u) for ms, u in cases]
    built = []
    init, of = Mat.__init__, Mat.of_ints.__func__

    def spy_init(self, *args, **kwargs):
        built.append("Mat")
        init(self, *args, **kwargs)

    def spy_of(cls, *args):
        built.append("Mat.of_ints")
        return of(cls, *args)

    monkeypatch.setattr(Mat, "__init__", spy_init)
    monkeypatch.setattr(Mat, "of_ints", classmethod(spy_of))
    got = [signature(ms, u) for ms, u in cases]
    monkeypatch.undo()
    assert built == []
    assert got == expected

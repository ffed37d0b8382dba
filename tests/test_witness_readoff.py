"""The pure-part pass reads T off the witness on U''s own rows.

``reference.check_complex`` and ``reference.check_para_complex`` are the
checks as they were when the pass presented U' as a graph over the
adapted basis by one elimination (``to_uft(U', basis)``) and found the
para-complex eigenspaces as fibers of that graph.  The package reads the
witness's coordinates C on U''s canonical rows instead: T = (-D/q) C^T on
the h1' parts of those rows, and the eigenspaces are kernels of
C -+ sqrt(-q).  Every report field, and U''s graph form over the adapted
basis (``reference.pure_form``), must agree
with the reference, or both must raise the same exception type, on every
kind at n = 1-4, on its ``random_sl2`` twist and its dense-omega^E
``congruent_instance`` copy, on the hand-built family with
0 < dim U0 < dim U, and with the witness rescaled to either sign of D.

A wrong D must be caught by the row identity, and no graph form is built
or cut on the classify path: a spy sees no ``to_uft``, ``_graph_of``,
``graph_over`` or ``direct_sum_is`` inside the two checks.
"""

from fractions import Fraction
from importlib import import_module

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import congruent_instance, dense_congruence, hand_built_instance, random_sl2
from reference import check_complex as ref_check_complex
from reference import twist_h_rows
from reference import check_para_complex as ref_check_para_complex
from reference import op_scale, pure_form

from pqh.classify import check_complex, check_para_complex, classify, kind_witnesses, stabilizer
from pqh.generate import KINDS, generate
from pqh.model import OP_I, OP_K, ModelSpace
from pqh.rng import Rng

CLASSIFY = import_module("pqh.classify")
SUBSPACE = import_module("pqh.subspace")
UFT = import_module("pqh.uft")

SETTINGS = settings(max_examples=25, deadline=None)
SCALES = (1, -1, Fraction(-3, 2), Fraction(2, 5))


def assert_matches_reference(ms, u, a):
    for check, ref in ((check_complex, ref_check_complex), (check_para_complex, ref_check_para_complex)):
        try:
            expected, form = ref(ms, u, a)
        except (ValueError, AssertionError) as exc:
            with pytest.raises(type(exc)):
                check(ms, u, a)
            continue
        got = check(ms, u, a)
        for f in expected._fields:
            assert getattr(got, f) == getattr(expected, f), f
        assert pure_form(got) == form


@st.composite
def cases(draw, source):
    """(ms, U, A): an instance of ``source`` (a kind, or the hand-built
    family), as built, twisted or moved into a congruent model, with one of
    its witnesses (or I or K, which need not stabilize it) rescaled."""
    if source == "hand_built":
        n, u = hand_built_instance(draw(st.integers(1000, 1029)))
    else:
        n = draw(st.integers(1, 4))
        u = generate(Rng(draw(st.integers(0, 5))), n, source)
    ms = ModelSpace.standard(n)
    variant = draw(st.sampled_from(["as built", "twist", "congruent"]))
    seed = draw(st.integers(0, 99))
    if variant == "twist":
        u = twist_h_rows(u, random_sl2(Rng(9000 + seed)))
    elif variant == "congruent":
        ms, u = congruent_instance(ms, u, dense_congruence(n, Rng(7000 + seed).rationals(4 * n * n)))
    wits = kind_witnesses(stabilizer(u))
    found = [w for w in (wits.complex, wits.para_complex) if w is not None]
    a = draw(st.sampled_from(found or [OP_I, OP_K]))
    return ms, u, op_scale(a, draw(st.sampled_from(SCALES)))


@pytest.mark.parametrize("source", KINDS + ("hand_built",))
@SETTINGS
@given(data=st.data())
def test_reports_match_the_graph_form_reference(source, data):
    assert_matches_reference(*data.draw(cases(source)))


def test_a_wrong_d_fails_the_row_identity(monkeypatch):
    # D = det[h1', A h1'] is what makes A act as (0, -q/D; D, 0); any other
    # value leaves U' invariant but breaks p2'(b_i) = (-D/q) sum_j c_ij p1'(b_j)
    adapted_basis = CLASSIFY.adapted_basis
    monkeypatch.setattr(CLASSIFY, "adapted_basis", lambda a: (adapted_basis(a)[0], 2 * adapted_basis(a)[1]))
    for kind, check in (("complex", check_complex), ("para_complex", check_para_complex)):
        u = generate(Rng(0), 2, kind)
        a = getattr(kind_witnesses(stabilizer(u)), kind)
        with pytest.raises(AssertionError, match="not the graph of T"):
            check(ModelSpace.standard(2), u, a)


def test_classify_builds_no_graph_form_for_the_pure_part(monkeypatch):
    banned = ("to_uft", "_graph_of", "graph_over", "direct_sum_is")
    inside, seen, ran = [0], [], []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            if inside[0]:
                seen.append(name)
            return fn(*args, **kwargs)

        return wrapped

    def scoped(name, fn):
        def wrapped(*args, **kwargs):
            ran.append(name)
            inside[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] -= 1

        return wrapped

    for module in (CLASSIFY, SUBSPACE, UFT):
        for name in banned:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    for name in ("_pure_part", "check_complex", "check_para_complex"):
        monkeypatch.setattr(CLASSIFY, name, scoped(name, getattr(CLASSIFY, name)))
    for kind in KINDS:
        for n in (1, 2, 3):
            classify(ModelSpace.standard(n), generate(Rng(n), n, kind))
    assert seen == []
    assert {"_pure_part", "check_complex", "check_para_complex"} <= set(ran)

"""The pure part of U is ``pq_split``'s U' = U ^ (H (x) C).

``ref_invariant_pure_complement`` is the construction ``classify`` used
before: an eigenspace split when -q(A) is a nonzero rational square, a
greedy sum of A-cyclic planes otherwise.  On every generated witness the
two complements agree, since generated instances have U0 = 0 or U0 = U.
Only hand-built inputs with 0 < dim U0 < dim U tell them apart; there
both are A-invariant complements of U0, and the pure signature reported
is the one of U'.

The oracle's witness-invariance check applies each witness through
``Operator.apply_coords`` and ``Subspace.contains_vector``, independent
of the integer route ``operator_preserves`` that ``classify`` uses.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given
from conftest import hand_built_instance
from test_model import operators
from test_rank_certificates import SETTINGS, model_subspaces

from pqh.classify import (
    classify,
    kind_witnesses,
    operator_preserves,
    oracle_check,
    stabilizer,
)
from pqh.cli import main
from pqh.generate import KINDS, generate
from pqh.instances import emit_instance, load_instance
from pqh.linalg import _int_row
from pqh.model import OP_I, OP_J, OP_K, ModelSpace, Operator
from pqh.polyq import is_rational_square
from pqh.rng import Rng
from pqh.subspace import Subspace, direct_sum_is, maximal_pq, signature
from pqh.uft import pq_split
from reference import maximal_invariant_subspace

DATA = Path(__file__).parent / "data"
HAND_BUILT = DATA / "para_complex_with_u0.json"
HAND_BUILT_SEED = 1008


# -- reference copy -----------------------------------------------------------


def ref_invariant_pure_complement(a: Operator, u: Subspace, u0: Subspace) -> Subspace:
    """A complement of U0 in U that is itself A-invariant (hence pure).

    For q(A) with square |q| and q < 0 the complement splits along the
    rational eigenspaces; otherwise Q[A] is a field and a greedy module
    completion works.  Nilpotent witnesses are not supported here.
    """
    qa = a.q()
    if qa == 0:
        raise ValueError("invariant complement needs an invertible witness")
    if u0.is_zero():
        return u
    root = is_rational_square(-qa) if qa < 0 else None
    if root is not None and root != 0:

        def eigen(w, lam):
            """The lam-eigenvectors of A in W."""
            shifted = [[x - lam * y for x, y in zip(a.apply_coords(r), r)] for r in w.basis]
            return w.kernel_in([_int_row(v) for v in shifted])

        parts = [eigen(u0, lam).complement_in(eigen(u, lam)) for lam in (root, -root)]
        comp = parts[0].sum(parts[1])
    else:
        comp = Subspace.zero(u.ambient)
        for row in u.mat.rows:
            if u0.sum(comp).contains_vector(row):
                continue
            comp = comp.sum(
                Subspace.span((row, a.apply_coords(row)), u.ambient)
            )
    if comp.dim != u.dim - u0.dim or not direct_sum_is(u, [u0, comp]):
        raise AssertionError("invariant complement construction failed")
    if not operator_preserves(a, comp):
        raise AssertionError("complement is not witness-invariant")
    return comp


# -- generated witnesses -------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
def test_pq_split_complement_matches_reference_on_generated_witnesses(kind):
    for n in (1, 2, 3):
        for seed in range(3):
            u = generate(Rng(seed), n, kind)
            wits = kind_witnesses(stabilizer(u))
            for a in (wits.complex, wits.para_complex):
                if a is not None:
                    want = ref_invariant_pure_complement(a, u, maximal_pq(u))
                    assert pq_split(u)[2] == want


# -- the hand-built case: 0 < dim U0 < dim U with a para-complex witness ---------


def test_hand_built_instance_file_is_its_construction():
    n, u = hand_built_instance(HAND_BUILT_SEED)
    assert HAND_BUILT.read_text() == emit_instance(ModelSpace.standard(n), u)


def test_hand_built_instance_has_a_mixed_pq_part():
    ms, u, _, _ = load_instance(str(HAND_BUILT))
    assert ms.n == 2
    u0, _e0, comp = pq_split(u)
    assert 0 < u0.dim < u.dim
    a = kind_witnesses(stabilizer(u)).para_complex
    assert a is not None and operator_preserves(a, comp)
    assert direct_sum_is(u, [u0, comp])
    # the earlier complement is also invariant, but its pure signature differs
    old = ref_invariant_pure_complement(a, u, u0)
    assert signature(ms, old).as_tuple() == (0, 2, 0)
    assert signature(ms, comp).as_tuple() == (1, 0, 1)


def test_hand_built_classify_json_reports_the_signature_of_u_prime(capsys):
    code = main(["classify", str(HAND_BUILT), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    ms, u, _, _ = load_instance(str(HAND_BUILT))
    m = json.loads(out)["para_complex_detail"]["m"]
    assert m == signature(ms, pq_split(u)[2]).p == 1


def assert_oracle_clean(ms, u):
    """Every oracle finding holds, ``u0-matches`` among them: the oracle's
    U0 (two ``h_fiber`` kernels and an intersection) is ``classify``'s."""
    findings = oracle_check(ms, classify(ms, u), u)
    assert "u0-matches" in {f.name for f in findings}
    assert all(f.ok for f in findings), [f.name for f in findings if not f.ok]


def test_hand_built_oracle_is_clean():
    assert_oracle_clean(*load_instance(str(HAND_BUILT))[:2])
    for seed in range(1000, 1030):
        n, u = hand_built_instance(seed)
        assert_oracle_clean(ModelSpace.standard(n), u)


@pytest.mark.parametrize("kind", ["para_quaternionic", "nilpotent"])
def test_oracle_is_clean_where_u0_is_nonzero(kind):
    # U0 = U on every para_quaternionic instance, 0 < dim U0 < dim U on
    # some nilpotent ones
    for n in (1, 2, 3, 4):
        for seed in range(4):
            assert_oracle_clean(ModelSpace.standard(n), generate(Rng(seed), n, kind))


# -- the oracle's witness-invariance check ---------------------------------------


@pytest.mark.parametrize(
    "kind, candidates",
    [("complex", (OP_I, Operator(2, 1, 1))), ("para_complex", (OP_J, OP_K, Operator(0, 1, 1)))],
)
def test_forged_witness_fails_invariance(kind, candidates):
    ms = ModelSpace.standard(2)
    u = generate(Rng(0), 2, kind)
    report = classify(ms, u)
    name = f"{kind}-witness-invariance"
    assert {f.name: f.ok for f in oracle_check(ms, report, u)}[name]
    wrong = next(a for a in candidates if not operator_preserves(a, u))
    forged = report._replace(witnesses=report.witnesses._replace(**{kind: wrong}))
    findings = {f.name: f.ok for f in oracle_check(ms, forged, u)}
    assert findings[name] is False


@SETTINGS
@given(model_subspaces(), operators())
def test_oracle_invariance_route_matches_operator_preserves(u, a):
    # the largest A-invariant subspace of U gives the other answer too
    for w in (u, maximal_invariant_subspace(a, u)):
        oracle = all(w.contains_vector(a.apply_coords(x)) for x in w.basis)
        assert oracle == operator_preserves(a, w)

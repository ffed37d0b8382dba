"""The stabilizer is a ``Subspace`` of Q^3, and ``classify`` combines basis
rows only with ``Subspace.combine_int``.

``kind_witnesses`` reads q on the stabilizer's integer rows as
``subspace._pairings`` numerators over d_i d_j and combines the rows at a point of
that binary form with ``combine_int``; ``_split_along`` builds its
first-space part the same way.  ``reference.kind_witnesses`` and
``reference._split_along`` are the code before, which combined rows by
``Mat`` products; each must give the same values on every kind at
n = 1-4 (as built, twisted and moved into a congruent model), on the
hand-built family, and on every subspace of Q^3 spanned by rows with
entries in {-1, 0, 1}, among them dim-2 ones whose positive, negative or
isotropic point has a zero entry.  A spy sees no ``Mat.__matmul__``
inside ``stabilizer``, ``kind_witnesses`` or ``_split_along``.
"""

from importlib import import_module
from itertools import product

from conftest import congruent_instance, dense_congruence, hand_built_instance, random_sl2
from reference import Stabilizer as RefStabilizer
from reference import twist_h_rows
from reference import _form_matrix
from reference import _split_along as ref_split_along
from reference import kind_witnesses as ref_kind_witnesses
from reference import stabilizer as ref_stabilizer
from reference import t_is_injective

from pqh.classify import (
    _Q_FORM,
    _isotropic_point,
    _positive_point,
    classify,
    kind_witnesses,
    stabilizer,
)
from pqh.generate import KINDS, generate, random_invertible
from pqh.linalg import Mat
from pqh.model import HBasisChange, ModelSpace
from pqh.rng import Rng
from pqh.subspace import Subspace, decomposable_subspace
from pqh.uft import UFTForm

CLASSIFY = import_module("pqh.classify")


def variants(n, u, seed):
    """(ms, U) as built, twisted by an SL(H) change, and moved into a
    dense-omega^E congruent model."""
    ms = ModelSpace.standard(n)
    yield ms, u
    yield ms, twist_h_rows(u, random_sl2(Rng(9000 + seed)))
    yield congruent_instance(ms, u, dense_congruence(n, Rng(7000 + seed).rationals(4 * n * n)))


def instances():
    for kind in KINDS:
        for n in range(1, 5):
            for seed in range(6):
                yield from variants(n, generate(Rng(seed), n, kind), seed)
    for seed in range(1000, 1200):
        n, u = hand_built_instance(seed)
        yield ModelSpace.standard(n), u


def assert_witnesses_match(stab):
    assert kind_witnesses(stab) == ref_kind_witnesses(RefStabilizer(stab.mat))


def test_kind_witnesses_match_the_mat_reference():
    dims = set()
    for _ms, u in instances():
        stab = stabilizer(u)
        assert stab == ref_stabilizer(u) and stab.ambient == 3
        assert_witnesses_match(stab)
        dims.add(stab.dim)
    assert dims == {0, 1, 2, 3}


def test_kind_witnesses_on_small_subspaces_of_q3():
    """Every span of one or two rows with entries in {-1, 0, 1}, and Q^3;
    the points with a zero entry must all occur at dim 2."""
    rows = list(product((-1, 0, 1), repeat=3))
    spaces = {Subspace.span(pair, 3) for pair in product(rows, repeat=2)} | {Subspace.full(3)}
    zero_entry = set()
    for stab in spaces:
        assert_witnesses_match(stab)
        if stab.dim == 2:
            qm = _form_matrix(_Q_FORM, stab.int_basis())
            a, b, c = qm.rows[0][0], qm.rows[0][1], qm.rows[1][1]
            points = (_positive_point(a, b, c), _positive_point(-a, -b, -c), _isotropic_point(a, b, c))
            zero_entry |= {i for i, pt in enumerate(points) if pt and 0 in pt}
    assert {s.dim for s in spaces} == {0, 1, 2, 3}
    assert zero_entry == {0, 1, 2}


def test_dim2_stabilizers_with_zero_entry_points():
    # h (x) E' for a full E' is stabilized by the Borel of h: q there is
    # diag(0, -1), so the negative point (0, 1) and the isotropic (1, 0)
    # each have a zero entry
    for h in ((1, 0), (0, 1), (1, 1), (2, -3)):
        stab = stabilizer(decomposable_subspace(h, Subspace.full(2)))
        assert stab.dim == 2
        assert_witnesses_match(stab)


def test_split_along_matches_the_mat_reference(monkeypatch):
    calls = []

    def both(x, first, second):
        got = split(x, first, second)
        assert got == ref_split_along(x, first, second)
        calls.append(first.dim)
        return got

    split = CLASSIFY._split_along
    monkeypatch.setattr(CLASSIFY, "_split_along", both)
    for ms, u in instances():
        witness = kind_witnesses(stabilizer(u)).nilpotent
        if witness is not None:
            CLASSIFY.check_nilpotent(ms, u, witness)
    assert calls


def test_split_along_on_random_direct_sums():
    rng = Rng(38)
    for _ in range(60):
        d = 1 + rng.below(6)
        p = random_invertible(rng, d)
        k = rng.below(d + 1)
        first, second = Subspace.span(p.rows[:k], d), Subspace.span(p.rows[k:], d)
        x = tuple(rng.rationals(d))
        assert CLASSIFY._split_along(x, first, second) == ref_split_along(x, first, second)


def test_t_image_of_a_square_injective_map_is_all_of_e():
    rng = Rng(5)
    for dim_e in (2, 4, 6):
        form = UFTForm(HBasisChange.identity(), Subspace.full(dim_e), random_invertible(rng, dim_e))
        assert t_is_injective(form)
        assert form.t_image() == Subspace.full(dim_e)


def test_no_mat_product_combines_basis_rows(monkeypatch):
    scoped = ("stabilizer", "kind_witnesses", "_split_along")
    inside, seen, ran = [0], [], []
    matmul = Mat.__matmul__

    def spy(self, other):
        if inside[0]:
            seen.append("Mat.__matmul__")
        return matmul(self, other)

    def scope(name, fn):
        def wrapped(*args, **kwargs):
            ran.append(name)
            inside[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] -= 1

        return wrapped

    monkeypatch.setattr(Mat, "__matmul__", spy)
    for name in scoped:
        monkeypatch.setattr(CLASSIFY, name, scope(name, getattr(CLASSIFY, name)))
    for kind in KINDS:
        for n in (1, 2, 3):
            classify(ModelSpace.standard(n), generate(Rng(n), n, kind))
    assert seen == []
    assert set(scoped) <= set(ran)


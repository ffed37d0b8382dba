from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_subspace, pairing_values, random_sl2, unit
from reference import mat_neg, mat_span, metric, omega_eval, twist_h_rows, vec_add
from pqh.linalg import Mat, _int_row, frac_row
from pqh.model import OMEGA_H, OP_I, OP_J, OP_K, HBasisChange, ModelSpace, Operator, tensor
from pqh.rng import Rng
from pqh.subspace import (
    Subspace,
    decomposable_subspace,
    h_fiber,
    image,
    is_orthogonal,
    maximal_pq,
    omega_kernel_in,
    product_subspace,
    signature,
)


def ref_p1p2(u: Subspace, basis: HBasisChange | None = None):
    """The deleted ``subspace.p1p2``: projections (p1(U), p2(U)) onto E
    relative to a basis of H."""
    if basis is None:
        basis = HBasisChange.identity()
    half = u.ambient // 2
    comps = [basis.to_basis_int(V, D)[0] for V, D in u.int_basis()]
    return (
        Subspace._echelon([V[:half] for V in comps], half),
        Subspace._echelon([V[half:] for V in comps], half),
    )


def random_subspace(rng, ambient, dim):
    while True:
        u = Subspace.span([rng.rationals(ambient) for _ in range(dim)], ambient)
        if u.dim == dim:
            return u


class TestLattice:
    def test_intersection_idempotent(self):
        rng = Rng(31)
        for _ in range(20):
            u = random_subspace(rng, 8, 3)
            assert u.intersect(u) == u
            assert u.sum(u) == u

    def test_h_tensor_line(self, ms1):
        u = Subspace.span([tensor((1, 0), (1, 0))], 4)
        w = Subspace.span([tensor((0, 1), (1, 0))], 4)
        assert u.sum(w) == product_subspace(Subspace.span([(1, 0)], 2))

    def test_dimension_identity_random(self):
        rng = Rng(32)
        for _ in range(100):
            du, dw = 1 + rng.below(5), 1 + rng.below(5)
            u = random_subspace(rng, 12, du)
            w = random_subspace(rng, 12, dw)
            lhs = u.sum(w).dim + u.intersect(w).dim
            assert lhs == u.dim + w.dim

    def test_canonical_form_unique(self):
        rng = Rng(33)
        for _ in range(30):
            u = random_subspace(rng, 8, 3)
            # rebuild from random combinations of the basis: same canonical matrix
            rows = []
            for _ in range(5):
                coeffs = rng.rationals(3)
                vec = [Fraction(0)] * 8
                for c, row in zip(coeffs, u.mat.rows):
                    for j, x in enumerate(row):
                        vec[j] += c * x
                rows.append(tuple(vec))
            again = Subspace.span(rows, 8)
            if again.dim == u.dim:
                assert again == u

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            Subspace.full(4).sum(Subspace.full(6))

    def test_complement_in(self):
        rng = Rng(34)
        for _ in range(20):
            w = random_subspace(rng, 8, 5)
            u = Subspace.span(w.mat.rows[:2], 8)
            c = u.complement_in(w)
            assert c.dim == 3
            assert u.sum(c) == w
            assert u.intersect(c).is_zero()


class TestImage:
    def test_k_preserves_h1_block(self):
        ep = Subspace.span([(1, 0), (0, 1)], 2)
        u = decomposable_subspace((1, 0), ep)
        assert image(OP_K, u) == u

    def test_i_swaps_blocks(self):
        ep = Subspace.span([(1, 0)], 2)
        u = decomposable_subspace((1, 0), ep)
        assert image(OP_I, u) == decomposable_subspace((0, 1), ep)

    def test_zero_operator(self):
        u = Subspace.full(4)
        assert image(Operator(0, 0, 0), u).is_zero()


class TestProjections:
    def test_product_subspace_projections(self):
        ep = Subspace.span([(1, 0, 0, 0), (0, 0, 1, 0)], 4)
        u = product_subspace(ep)
        e1, e2 = ref_p1p2(u)
        assert e1 == ep and e2 == ep

    def test_line_projections(self):
        u = Subspace.span([tensor((1, 0), (1, 0))], 4)
        e1, e2 = ref_p1p2(u)
        assert e1 == Subspace.span([(1, 0)], 2)
        assert e2.is_zero()

    def test_sum_invariant_under_basis_change(self):
        rng = Rng(35)
        for _ in range(50):
            u = random_subspace(rng, 8, 1 + rng.below(6))
            e1, e2 = ref_p1p2(u)
            base = e1.sum(e2)
            s = random_sl2(rng)
            f1, f2 = ref_p1p2(u, s)
            assert f1.sum(f2) == base


class TestGramSignature:
    def test_full_space_neutral(self, ms1):
        assert signature(ms1, Subspace.full(4)).as_tuple() == (2, 0, 2)

    def test_decomposable_block_null(self, ms2):
        ep = Subspace.span([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], 4)
        u = decomposable_subspace((1, 0), ep)
        assert signature(ms2, u).as_tuple() == (0, 3, 0)

    def test_pq_plane_neutral(self, ms1):
        u = product_subspace(Subspace.span([(1, 0), (0, 1)], 2))
        assert signature(ms1, u).as_tuple() == (2, 0, 2)

    def test_signature_invariant_under_h_isometries(self, ms2):
        rng = Rng(36)
        for _ in range(30):
            u = random_subspace(rng, 8, 1 + rng.below(6))
            sig = signature(ms2, u).as_tuple()
            s = random_sl2(rng)
            assert signature(ms2, twist_h_rows(u, s)).as_tuple() == sig


class TestOrthoComplement:
    def test_full_and_zero(self, ms1):
        g = OMEGA_H.kron(ms1.omega)
        assert mat_span((Subspace.full(4).mat @ g).kernel()).is_zero()
        assert mat_span((Subspace.zero(4).mat @ g).kernel()) == Subspace.full(4)

    def test_isotropic_line_inside_complement(self, ms1):
        u = Subspace.span([tensor((1, 0), (1, 0))], 4)
        assert mat_span((u.mat @ OMEGA_H.kron(ms1.omega)).kernel()).contains(u)

    def test_dimension_random(self, ms2):
        rng = Rng(37)
        for _ in range(100):
            u = random_subspace(rng, 8, 1 + rng.below(8))
            assert mat_span((u.mat @ OMEGA_H.kron(ms2.omega)).kernel()).dim == 8 - u.dim


class TestMaximalPQ:
    def test_product_is_invariant(self):
        u = product_subspace(Subspace.span([(1, 0), (0, 1)], 2))
        assert maximal_pq(u) == u

    def test_pure_complex_instance(self):
        u = graph_subspace(1, [((1, 0), (0, 1)), ((0, 1), (-1, 0))])
        assert maximal_pq(u).is_zero()

    def test_invariance_under_basis_change(self):
        rng = Rng(38)
        for _ in range(20):
            u = random_subspace(rng, 8, 1 + rng.below(7))
            u0 = maximal_pq(u)
            s = random_sl2(rng)
            assert maximal_pq(twist_h_rows(u, s)) == twist_h_rows(u0, s)

    def test_result_is_para_quaternionic(self):
        rng = Rng(39)
        for _ in range(30):
            u = random_subspace(rng, 8, 1 + rng.below(8))
            u0 = maximal_pq(u)
            for op in (OP_I, OP_J, OP_K):
                assert image(op, u0) == u0 or u0.is_zero()


class TestFibersAndKernels:
    def test_fiber_of_decomposable(self):
        ep = Subspace.span([(1, 0), (0, 1)], 2)
        u = decomposable_subspace((1, 2), ep)
        assert h_fiber(u, (1, 2)) == ep
        assert h_fiber(u, (1, 0)).is_zero()

    def test_omega_kernel_asymmetric_convention(self, ms2):
        # A = span{e1, e2}, B = span{e1, e3}: omega(A x B) kills e3 in B
        a = Subspace.span([unit(4, 0), unit(4, 1)], 4)
        b = Subspace.span([unit(4, 0), unit(4, 2)], 4)
        ker = omega_kernel_in(ms2, a, b)
        assert ker == Subspace.span([unit(4, 2)], 4)
        # the mirrored kernel lives in A and differs
        ker2 = omega_kernel_in(ms2, b, a)
        assert ker2 == Subspace.span([unit(4, 0)], 4)

    def test_restrict_omega(self, ms2):
        ep = Subspace.span([unit(4, 0), unit(4, 1)], 4)
        rows = ep.int_basis()
        assert pairing_values(ms2._omega_form, rows, rows) == Mat(((0, 1), (-1, 0)))


# -- the replaced loop versions, kept as references -------------------------


def ref_intersect(u, w):
    if u.dim == 0 or w.dim == 0:
        return Subspace.zero(u.ambient)
    combos = Mat(u.mat.rows + w.mat.rows, u.mat.ncols).T.kernel()
    rows = []
    for combo in combos.rows:
        x = [Fraction(0)] * u.ambient
        for coef, row in zip(combo[: u.dim], u.mat.rows):
            if coef != 0:
                for j, val in enumerate(row):
                    x[j] += coef * val
        rows.append(tuple(x))
    return Subspace.span(rows, u.ambient)


def ref_complement_in(small, larger):
    taken = small
    rows = []
    for r in larger.mat.rows:
        cand = taken.sum(Subspace.span((r,), small.ambient))
        if cand.dim > taken.dim:
            rows.append(r)
            taken = cand
    return Subspace.span(rows, small.ambient)


def ref_h_fiber(u, h):
    half = u.ambient // 2
    a, b = h
    pivset = set(u.pivots)
    free = [j for j in range(u.ambient) if j not in pivset]
    rows = []
    for r in range(half):
        e = [Fraction(0)] * half
        e[r] = Fraction(1)
        red = frac_row(*u.reduce_int(*_int_row(tensor((a, b), e))))
        rows.append(tuple(red[j] for j in free))
    return mat_span(Mat(rows, ncols=len(free)).T.kernel())


def ref_gram(ms, u):
    vs = u.basis
    return Mat(tuple(tuple(metric(ms, x, y) for y in vs) for x in vs), ncols=u.dim)


def ref_is_orthogonal(ms, u, w):
    return all(metric(ms, x, y) == 0 for x in u.basis for y in w.basis)


def ref_restrict_omega(ms, e_sub):
    b = e_sub.mat.rows
    return Mat(tuple(tuple(omega_eval(ms, x, y) for y in b) for x in b), ncols=e_sub.dim)


small_entries = st.fractions(min_value=-20, max_value=20, max_denominator=12)
huge_entries = st.builds(Fraction, st.integers(-(10**100), 10**100), st.integers(1, 10**100))


def combine(coeffs, rows, ambient):
    x = [Fraction(0)] * ambient
    for c, row in zip(coeffs, rows):
        for j, val in enumerate(row):
            x[j] += c * val
    return tuple(x)


@st.composite
def subspaces(draw, ambient, entries=None, inside=None):
    """Zero, full, spanning or rank-deficient subspaces of Q^ambient, or
    of the given subspace ``inside`` (there also spans of some of its
    canonical basis rows)."""
    if entries is None:
        entries = draw(st.sampled_from([small_entries, huge_entries]))
    outer = inside if inside is not None else Subspace.full(ambient)
    kind = draw(st.sampled_from(["zero", "full", "dense", "rank_deficient", "basis_rows"]))
    if kind == "zero" or outer.dim == 0:
        return Subspace.zero(ambient)
    if kind == "full":
        return outer
    if kind == "basis_rows":
        keep = draw(st.lists(st.booleans(), min_size=outer.dim, max_size=outer.dim))
        return Subspace.span([r for r, k in zip(outer.mat.rows, keep) if k], ambient)
    gens = draw(st.integers(1, outer.dim))
    if kind == "rank_deficient":
        gens = draw(st.integers(0, gens - 1))
    vector = st.lists(entries, min_size=outer.dim, max_size=outer.dim)
    base = [combine(c, outer.mat.rows, ambient) for c in draw(st.lists(vector, min_size=gens, max_size=gens))]
    nrows = draw(st.integers(gens, gens + 3))
    coeffs = st.lists(entries, min_size=gens, max_size=gens)
    rows = [combine(c, base, ambient) for c in draw(st.lists(coeffs, min_size=nrows, max_size=nrows))]
    return Subspace.span(rows, ambient)


@st.composite
def model_spaces(draw):
    """The standard model or a congruent symplectic form P^T omega P, with
    P unit upper triangular."""
    n = draw(st.integers(1, 3))
    ms = ModelSpace.standard(n)
    d = 2 * n
    upper = draw(st.lists(small_entries, min_size=d * d, max_size=d * d))
    p = Mat([[1 if i == j else upper[i * d + j] if j > i else 0 for j in range(d)] for i in range(d)])
    return ModelSpace(n, p.T @ ms.omega @ p)


SLOW = settings(max_examples=60, deadline=None)


class TestAgainstLoopReferences:
    @SLOW
    @given(st.data())
    def test_intersect(self, data):
        ambient = data.draw(st.integers(1, 12))
        u, w = data.draw(subspaces(ambient)), data.draw(subspaces(ambient))
        assert u.intersect(w) == ref_intersect(u, w)

    @SLOW
    @given(st.data())
    def test_complement_in(self, data):
        ambient = data.draw(st.integers(1, 12))
        larger = data.draw(subspaces(ambient))
        small = data.draw(subspaces(ambient, inside=larger))
        comp = small.complement_in(larger)
        assert comp == ref_complement_in(small, larger)
        assert comp.dim == larger.dim - small.dim

    @SLOW
    @given(st.data())
    def test_h_fiber(self, data):
        n = data.draw(st.integers(1, 3))
        u = data.draw(subspaces(4 * n))
        entries = data.draw(st.sampled_from([small_entries, huge_entries]))
        h = data.draw(st.tuples(entries, entries).filter(lambda h: h != (0, 0)))
        assert h_fiber(u, h) == ref_h_fiber(u, h)

    @SLOW
    @given(st.data())
    def test_gram_and_is_orthogonal(self, data):
        ms = data.draw(model_spaces())
        u = data.draw(subspaces(ms.dim_v))
        rows = u.int_basis()
        assert pairing_values(ms._metric_form, rows, rows) == ref_gram(ms, u)
        # w inside the orthogonal complement of U, or anywhere
        inside = mat_span((u.mat @ OMEGA_H.kron(ms.omega)).kernel()) if data.draw(st.booleans()) else None
        w = data.draw(subspaces(ms.dim_v, inside=inside))
        assert is_orthogonal(ms, u, w) == ref_is_orthogonal(ms, u, w)
        assert is_orthogonal(ms, w, u) == ref_is_orthogonal(ms, w, u)

    @SLOW
    @given(st.data())
    def test_restrict_omega(self, data):
        ms = data.draw(model_spaces())
        e_sub = data.draw(subspaces(ms.dim_e))
        rows = e_sub.int_basis()
        assert pairing_values(ms._omega_form, rows, rows) == ref_restrict_omega(ms, e_sub)


def test_no_module_level_caches():
    """Facts about a subspace live in its own memo, never in a process-wide cache."""
    src = Path(__file__).resolve().parent.parent / "src" / "pqh"
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        assert "lru_cache" not in text and "functools.cache" not in text, path.name


class TestMemo:
    def test_computed_once_per_key(self):
        u = Subspace.full(4)
        calls = []
        assert u.memo("k", lambda: calls.append(1) or 7) == 7
        assert u.memo("k", lambda: calls.append(1) or 8) == 7
        assert calls == [1]

    def test_signature_keyed_by_model_space(self, ms1):
        # g(x, x) = 2 omega(e1, e2) for x = h1 (x) e1 + h2 (x) e2
        u = Subspace.span([vec_add(tensor((1, 0), (1, 0)), tensor((0, 1), (0, 1)))], 4)
        flipped = ModelSpace(1, mat_neg(ms1.omega))
        assert signature(ms1, u).as_tuple() == (1, 0, 0)
        assert signature(flipped, u).as_tuple() == (0, 0, 1)
        assert signature(ms1, u).as_tuple() == (1, 0, 0)

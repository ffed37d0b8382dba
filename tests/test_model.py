from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cleared_rows, random_sl2, to_basis
from pqh.linalg import F0, Mat, _int_row, symmetric_signature
from pqh.model import (
    MAT_I,
    MAT_J,
    MAT_K,
    OMEGA_H,
    HBasisChange,
    ModelSpace,
    OP_I,
    OP_J,
    OP_K,
    Operator,
    ParaQuaternion,
    StructureError,
    standard_symplectic,
    standardize,
    tensor,
)
from pqh.rng import Rng
from reference import assemble, metric, omega_eval, operator_from_mat2, recover_omega_e, vec_is_zero
from reference import mat_mul_vec, mat_neg, traceless_entries, vec_add, vec_scale


class TestModelSpace:
    def test_dimension_is_multiple_of_four(self):
        ms = ModelSpace.standard(2)
        assert ms.dim_v == 8 and ms.dim_e == 4

    def test_rejects_non_symplectic(self):
        with pytest.raises(StructureError):
            ModelSpace(1, Mat(((0, 0), (0, 0))))
        with pytest.raises(StructureError):
            ModelSpace(1, Mat(((0, 1), (1, 0))))  # not skew

    def test_rejects_bad_size(self):
        with pytest.raises(StructureError):
            ModelSpace(2, standard_symplectic(2))


def apply(op, x):
    return op.apply_coords(x)


class TestOperatorAction:
    def test_standard_action_table(self, ms1):
        e = (1, 0)
        h1e = tensor((1, 0), e)
        h2e = tensor((0, 1), e)
        assert apply(OP_I, h1e) == h2e
        assert apply(OP_I, h2e) == tensor((-1, 0), e)
        assert apply(OP_J, h1e) == h2e
        assert apply(OP_J, h2e) == h1e
        assert apply(OP_K, h1e) == tensor((-1, 0), e)
        assert apply(OP_K, h2e) == h2e

    def test_i_plus_j_nilpotent_on_h2(self):
        x = tensor((0, 1), (3, Fraction(1, 2)))
        y = vec_add(apply(OP_I, x), apply(OP_J, x))
        assert vec_is_zero(y)

    def test_square_identity_random(self):
        rng = Rng(21)
        for n in (1, 2, 3, 4):
            for _ in range(50):
                a = Operator(rng.rational(), rng.rational(), rng.rational())
                x = rng.rationals(4 * n)
                scale = a.beta**2 + a.gamma**2 - a.alpha**2
                assert apply(a, apply(a, x)) == vec_scale(scale, x)
                assert scale == -a.q()


class TestMetric:
    def test_decomposable_values(self, ms1):
        x = tensor((1, 0), (1, 0))
        y = tensor((0, 1), (0, 1))
        assert metric(ms1, x, y) == 1  # omega^H(h1,h2) * omega^E(e1,e2)
        assert metric(ms1, tensor((1, 0), (1, 0)), tensor((1, 0), (0, 1))) == 0
        assert metric(ms1, x, x) == 0  # decomposables are isotropic

    def test_structure_operators_are_skew(self, ms2):
        rng = Rng(22)
        for op in (OP_I, OP_J, OP_K):
            for _ in range(30):
                x = rng.rationals(8)
                y = rng.rationals(8)
                assert metric(ms2, apply(op, x), y) + metric(ms2, x, apply(op, y)) == 0

    def test_neutral_signature(self):
        for n in (1, 2, 3, 4):
            ms = ModelSpace.standard(n)
            assert symmetric_signature(cleared_rows(OMEGA_H.kron(ms.omega))) == (2 * n, 0, 2 * n)


class TestHermitianProduct:
    def test_example_one_minus_k(self, ms1):
        x = tensor((1, 0), (1, 0))
        y = tensor((0, 1), (0, 1))
        assert ms1.hermitian_product(x, y) == ParaQuaternion(1, 0, 0, -1)

    def test_isotropic_self_product(self, ms1):
        x = tensor((1, 0), (1, 0))
        assert ms1.hermitian_product(x, x) == ParaQuaternion(0, 0, 0, 0)

    def test_norm_im_invariance(self, ms1):
        x = tensor((1, 0), (1, 0))
        y = tensor((0, 1), (0, 1))
        base = ms1.hermitian_product(x, y).imag().norm()
        assert base == -1
        rng = Rng(23)
        for _ in range(20):
            s = random_sl2(rng)
            assert ms1.hermitian_product(x, y, s).imag().norm() == base


class TestBasisChange:
    def test_identity(self):
        a = Operator(2, 3, Fraction(1, 2))
        s = HBasisChange.identity()
        assert HBasisChange(s.mat.inverse()).conjugate(*traceless_entries(a.mat2())) == a

    def test_swap_sends_k_to_minus_k(self):
        s = HBasisChange(Mat(((0, -1), (1, 0))))  # (h1, h2) -> (h2, -h1)
        assert HBasisChange(s.mat.inverse()).conjugate(-1, 0, 0) == Operator(0, 0, -1)

    def test_q_preserved_random(self):
        rng = Rng(24)
        for _ in range(100):
            s = random_sl2(rng)
            a = Operator(rng.rational(), rng.rational(), rng.rational())
            moved = HBasisChange(s.mat.inverse()).conjugate(*traceless_entries(a.mat2()))
            assert moved.q() == a.q()

    def test_non_unimodular_rejected(self):
        with pytest.raises(StructureError):
            HBasisChange(Mat(((2, 0), (0, 1))))

    def test_triple_is_admissible(self):
        rng = Rng(25)
        for _ in range(20):
            s = random_sl2(rng)
            mi, mj, mk = (s.conjugate(*traceless_entries(m)).mat2() for m in (MAT_I, MAT_J, MAT_K))
            one = Mat.identity(2)
            assert mi @ mi == mat_neg(one) and mj @ mj == one and mk @ mk == one
            assert mi @ mj == mk == mat_neg(mj @ mi)
            assert mj @ mk == mat_neg(mk @ mj) and mi @ mk == mat_neg(mk @ mi)


class TestStandardize:
    def _standard_triple(self, pairs):
        def blocks(b):
            d = 2 * pairs
            rows = [[Fraction(0)] * d for _ in range(d)]
            for p in range(pairs):
                for r in range(2):
                    for c in range(2):
                        rows[2 * p + r][2 * p + c] = Fraction(b[r][c])
            return Mat(rows)

        return (
            blocks(((0, -1), (1, 0))),
            blocks(((0, 1), (1, 0))),
            blocks(((-1, 0), (0, 1))),
        )

    def test_standard_input_gives_permutation_scale(self):
        i_m, j_m, k_m = self._standard_triple(2)
        std = standardize(i_m, j_m, k_m)
        assert std.pairs == 2
        binv = std.basis.inverse()
        assert binv @ i_m @ std.basis == i_m

    def test_conjugated_structure_recovered(self):
        rng = Rng(26)
        i_m, j_m, k_m = self._standard_triple(2)
        for _ in range(10):
            while True:
                p = Mat([rng.rationals(4) for _ in range(4)])
                if p.det() != 0:
                    break
            pi = p.inverse()
            std = standardize(p @ i_m @ pi, p @ j_m @ pi, p @ k_m @ pi)
            b = std.basis
            assert b.inverse() @ (p @ i_m @ pi) @ b == i_m
            assert b.inverse() @ (p @ j_m @ pi) @ b == j_m
            assert b.inverse() @ (p @ k_m @ pi) @ b == k_m

    def test_relation_violation_rejected(self):
        # J = Id has equal relations broken: no valid triple completes it
        d = 2
        eye = Mat.identity(d)
        with pytest.raises(StructureError):
            standardize(Mat(((0, -1), (1, 0))), eye, Mat(((-1, 0), (0, 1))))

    def test_model_interleave_permutation(self, ms2):
        # the tensor coordinate order of V to the 2x2-block order of Q^8:
        # h1 (x) e_r goes to slot 2r and h2 (x) e_r to slot 2r + 1
        p = Mat([[int(c == 4 * (j % 2) + j // 2) for c in range(8)] for j in range(8)])
        # permutation matrices are orthogonal
        assert p @ p.T == Mat.identity(8)
        # conjugating the model operators gives 2x2 blocks
        a = OP_I.mat2().kron(Mat.identity(4))
        blocked = p @ a @ p.T
        i_m, _, _ = TestStandardize()._standard_triple(4)
        assert blocked == i_m


class TestRecoverOmega:
    def test_round_trip(self, ms2):
        omega = recover_omega_e(partial(metric, ms2), 4)
        assert omega == ms2.omega

    def test_round_trip_nonstandard(self):
        rows = [
            (0, 2, 1, 0),
            (-2, 0, 0, 0),
            (-1, 0, 0, 1),
            (0, 0, -1, 0),
        ]
        ms = ModelSpace(2, Mat(rows))
        assert recover_omega_e(partial(metric, ms), 4) == ms.omega

    def test_non_hermitian_detected(self, ms1):
        def broken(x, y):
            # break the skewness of K: add a K-symmetric error term
            err = x[0] * y[0]
            return metric(ms1, x, y) + err

        with pytest.raises(StructureError):
            recover_omega_e(broken, 2)


def test_operator_from_mat2_round_trip():
    rng = Rng(27)
    for _ in range(50):
        a = Operator(rng.rational(), rng.rational(), rng.rational())
        assert operator_from_mat2(a.mat2()) == a


# -- the replaced Fraction code, kept as references -------------------------


def halves(x):
    """The two E-components (e, e') of a coordinate row."""
    return tuple(x[: len(x) // 2]), tuple(x[len(x) // 2 :])


def ref_apply(a, x):
    al, b, g = a.alpha, a.beta, a.gamma
    e, ep = halves(x)
    return vec_add(vec_scale(-g, e), vec_scale(b - al, ep)) + vec_add(
        vec_scale(al + b, e), vec_scale(g, ep)
    )


def ref_h_components(s, x):
    (p, q), (r, t) = s.mat.inverse().rows
    e, ep = halves(x)
    return (
        vec_add(vec_scale(p, e), vec_scale(q, ep)),
        vec_add(vec_scale(r, e), vec_scale(t, ep)),
    )


def ref_assemble(s, comp1, comp2):
    return vec_add(tensor(s.h1, comp1), tensor(s.h2, comp2))


def ref_omega_eval(omega, e, ep):
    acc = F0
    for i, a in enumerate(e):
        if a == 0:
            continue
        row = omega.rows[i]
        for j, b in enumerate(ep):
            if b != 0 and row[j] != 0:
                acc += a * row[j] * b
    return acc


def ref_metric(ms, x, y):
    (e, ep), (f, fp) = halves(x), halves(y)
    return ref_omega_eval(ms.omega, e, fp) - ref_omega_eval(ms.omega, ep, f)


def ref_mul_vec(m, v):
    return tuple(sum((a * b for a, b in zip(r, v)), F0) for r in m.rows)


small_entries = st.fractions(min_value=-20, max_value=20, max_denominator=12)
huge_entries = st.builds(Fraction, st.integers(-(10**100), 10**100), st.integers(1, 10**100))
any_entries = small_entries | huge_entries | st.integers(-(10**100), 10**100)


@st.composite
def vectors(draw, dim_e):
    """Zero vectors or vectors of small, 100-digit or int entries."""
    if draw(st.booleans()) and draw(st.booleans()):
        return (0,) * (2 * dim_e)
    entries = draw(st.sampled_from([small_entries, huge_entries, any_entries]))
    return tuple(draw(st.lists(entries, min_size=2 * dim_e, max_size=2 * dim_e)))


@st.composite
def operators(draw):
    """Zero, nilpotent (q = 0) or arbitrary operators."""
    kind = draw(st.sampled_from(["zero", "nilpotent", "any"]))
    if kind == "zero":
        return Operator(0, 0, 0)
    entries = draw(st.sampled_from([small_entries, huge_entries]))
    if kind == "nilpotent":
        # (u^2 + v^2)^2 = (u^2 - v^2)^2 + (2uv)^2
        u, v, c = draw(entries), draw(entries), draw(entries)
        return Operator(c * (u * u + v * v), c * (u * u - v * v), 2 * c * u * v)
    return Operator(draw(entries), draw(entries), draw(entries))


@st.composite
def h_basis_changes(draw):
    """random_sl2 bases, or unimodular bases with 100-digit entries."""
    if draw(st.booleans()):
        return random_sl2(Rng(draw(st.integers(0, 10**6))))
    a = draw(huge_entries.filter(bool))
    b, c = draw(huge_entries), draw(huge_entries)
    return HBasisChange(Mat(((a, b), (c, (1 + b * c) / a))))


@st.composite
def model_spaces(draw):
    """The standard model or a congruent symplectic form P^T omega P with
    denominators, P unit upper triangular."""
    n = draw(st.integers(1, 3))
    ms = ModelSpace.standard(n)
    if draw(st.booleans()):
        return ms
    d = 2 * n
    entries = draw(st.sampled_from([small_entries, huge_entries]))
    upper = draw(st.lists(entries, min_size=d * d, max_size=d * d))
    p = Mat([[1 if i == j else upper[i * d + j] if j > i else 0 for j in range(d)] for i in range(d)])
    return ModelSpace(n, p.T @ ms.omega @ p)


REF = settings(max_examples=80, deadline=None)


class TestAgainstFractionReferences:
    @REF
    @given(st.data())
    def test_apply(self, data):
        a = data.draw(operators())
        x = data.draw(vectors(data.draw(st.integers(0, 6))))
        out = a.apply_coords(x)
        assert out == ref_apply(a, x)
        assert all(type(v) is Fraction for v in out)

    @REF
    @given(st.data())
    def test_h_components_and_assemble(self, data):
        s = data.draw(h_basis_changes())
        dim_e = data.draw(st.integers(0, 6))
        x = data.draw(vectors(dim_e))
        (comps,) = to_basis(s, [x])
        assert (comps[:dim_e], comps[dim_e:]) == ref_h_components(s, x)
        c1, c2 = halves(x)
        assert assemble(s, c1, c2) == ref_assemble(s, c1, c2)
        assert assemble(s, comps[:dim_e], comps[dim_e:]) == x
        assert s._to == _int_row(sum(s.mat.inverse().rows, ()))

    @REF
    @given(h_basis_changes(), operators())
    def test_triple_and_change_of_basis(self, s, a):
        sinv = s.mat.inverse()
        assert tuple(s.conjugate(*traceless_entries(m)) for m in (MAT_I, MAT_J, MAT_K)) == tuple(
            operator_from_mat2(s.mat @ m @ sinv) for m in (MAT_I, MAT_J, MAT_K)
        )
        moved = HBasisChange(sinv).conjugate(*traceless_entries(a.mat2()))
        assert moved == operator_from_mat2(sinv @ a.mat2() @ s.mat)

    @REF
    @given(st.data())
    def test_metric_and_omega_eval(self, data):
        ms = data.draw(model_spaces())
        x, y = data.draw(vectors(ms.dim_e)), data.draw(vectors(ms.dim_e))
        assert metric(ms, x, y) == ref_metric(ms, x, y)
        e, f = halves(x)[0], halves(y)[0]
        assert omega_eval(ms, e, f) == ref_omega_eval(ms.omega, e, f)
        assert type(metric(ms, x, y)) is Fraction

    @REF
    @given(st.data())
    def test_mul_vec(self, data):
        r, c = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))
        entries = data.draw(st.sampled_from([small_entries, huge_entries]))
        m = Mat(data.draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)), ncols=c)
        v = tuple(data.draw(st.lists(any_entries, min_size=c, max_size=c)))
        out = mat_mul_vec(m, v)
        assert out == ref_mul_vec(m, tuple(map(Fraction, v)))
        assert all(type(x) is Fraction for x in out)

    @REF
    @given(model_spaces())
    def test_metric_matrix_is_block_formula(self, ms):
        d = ms.dim_e
        w = ms.omega.rows
        block = Mat(
            [[F0] * d + list(w[i]) for i in range(d)]
            + [[-x for x in w[i]] + [F0] * d for i in range(d)]
        )
        assert OMEGA_H.kron(ms.omega) == block


class TestRejectsFloats:
    def test_apply_coords(self):
        with pytest.raises(TypeError):
            OP_I.apply_coords((0.5, 1.0))

    def test_assemble(self):
        with pytest.raises(TypeError):
            assemble(HBasisChange.identity(), (0.5,), (1,))

    @pytest.mark.parametrize("bad", [0.5, "1"], ids=["float", "str"])
    def test_tensor(self, bad):
        with pytest.raises(TypeError):
            tensor((1, 0), (bad, 0))
        with pytest.raises(TypeError):
            tensor((bad, 0), (1, 0))

    @pytest.mark.parametrize("bad", [0.5, "1"], ids=["float", "str"])
    def test_metric(self, ms1, bad):
        with pytest.raises(TypeError):
            metric(ms1, (bad, 0, 0, 1), (1, 0, 0, 1))
        with pytest.raises(TypeError):
            metric(ms1, (1, 0, 0, 1), (0, 0, bad, 1))

    @pytest.mark.parametrize("bad", [0.5, "1"], ids=["float", "str"])
    @pytest.mark.parametrize("basis", [None, HBasisChange.identity()], ids=["standard", "h_basis"])
    def test_hermitian_product(self, ms1, bad, basis):
        with pytest.raises(TypeError):
            ms1.hermitian_product((bad, 0, 0, 1), (1, 0, 0, 1), basis)
        with pytest.raises(TypeError):
            ms1.hermitian_product((1, 0, 0, 1), (0, 0, bad, 1), basis)

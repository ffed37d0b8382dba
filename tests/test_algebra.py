"""The split-quaternions as pqh uses them: the standard triple ``MAT_I``,
``MAT_J``, ``MAT_K`` of Q^2, the traceless 2x2 matrix of an operator
alpha*I + beta*J + gamma*K (``Operator.mat2``, inverted by
``HBasisChange.identity().conjugate`` of its entries), and the norm and imaginary part of a
``ParaQuaternion``.  The matrix of q0 + q1*i + q2*j + q3*k is
q0*Id + mat2(q1, q2, q3), under which N(q) becomes the determinant."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqh.linalg import Mat
from reference import mat_trace, traceless_entries
from pqh.model import MAT_I, MAT_J, MAT_K, OP_I, OP_J, OP_K, HBasisChange, Operator, ParaQuaternion
from pqh.rng import Rng


def from_mat2(m):
    """The inverse of Operator.mat2: conjugation by the identity basis
    change, of m's entries (x, y, z) = (m00, m01, m10)."""
    return HBasisChange.identity().conjugate(*traceless_entries(m))


rationals = st.fractions(
    min_value=-9, max_value=9, max_denominator=5
)

ONE = Mat.identity(2)


def pq(parts):
    return ParaQuaternion(*parts)


def matrix_of(q):
    """The 2x2 matrix of q: q0*Id plus the operator matrix of its imaginary part."""
    im = q.imag()
    return Mat.scalar(2, q.q0) + Operator(im.q1, im.q2, im.q3).mat2()


class TestRelations:
    def test_generators(self):
        assert MAT_I @ MAT_I == -ONE
        assert MAT_J @ MAT_J == ONE
        assert MAT_K @ MAT_K == ONE
        assert MAT_I @ MAT_J == MAT_K
        assert MAT_J @ MAT_I == -MAT_K

    def test_zero_divisor(self):
        # N(1 + j) = 0, and (1 + j)(1 - j) = 1 - j^2 = 0
        assert pq((1, 0, 1, 0)).norm() == 0 == matrix_of(pq((1, 0, 1, 0))).det()
        assert (ONE + MAT_J) @ (ONE - MAT_J) == Mat.scalar(2, 0)

    def test_full_table(self):
        table = {
            ("i", "j"): MAT_K,
            ("j", "i"): -MAT_K,
            ("j", "k"): -MAT_I,
            ("k", "j"): MAT_I,
            ("k", "i"): MAT_J,
            ("i", "k"): -MAT_J,
        }
        gens = {"i": MAT_I, "j": MAT_J, "k": MAT_K}
        for (a, b), want in table.items():
            assert gens[a] @ gens[b] == want


class TestConjNorm:
    @pytest.mark.parametrize(
        "q,conj,norm",
        [
            (pq((1, 0, 0, 0)), pq((1, 0, 0, 0)), 1),
            (pq((0, 1, 0, 0)), pq((0, -1, 0, 0)), 1),
            (pq((0, 0, 1, 0)), pq((0, 0, -1, 0)), -1),
            (pq((0, 0, 0, 1)), pq((0, 0, 0, -1)), -1),
        ],
    )
    def test_examples(self, q, conj, norm):
        im = q.imag()
        assert im.q0 == 0
        assert pq((q.q0, -im.q1, -im.q2, -im.q3)) == conj and q.norm() == norm

    @given(st.tuples(rationals, rationals, rationals, rationals))
    @settings(max_examples=60, deadline=None)
    def test_conj_identity(self, parts):
        # q conj(q) = N(q) as matrices, conj(q) = q0 - Im q
        q = pq(parts)
        conj = Mat.scalar(2, 2 * q.q0) - matrix_of(q)
        assert matrix_of(q) @ conj == Mat.scalar(2, q.norm())
        im = q.imag()
        a = Operator(im.q1, im.q2, im.q3)
        assert a.mat2().det() == im.norm() == a.q()


class TestPhi:
    """The imaginary split-quaternions as the traceless 2x2 matrices."""

    def test_generator_images(self):
        assert MAT_I == Mat(((0, -1), (1, 0)))
        assert MAT_J == Mat(((0, 1), (1, 0)))
        assert MAT_K == Mat(((-1, 0), (0, 1)))

    def test_images_are_standard_structure(self):
        assert (OP_I.mat2(), OP_J.mat2(), OP_K.mat2()) == (MAT_I, MAT_J, MAT_K)

    def test_homomorphism_random(self):
        rng = Rng(11)
        for _ in range(200):
            a, b, g = rng.rationals(3)
            m = Operator(a, b, g).mat2()
            assert m == MAT_I.scale(a) + MAT_J.scale(b) + MAT_K.scale(g)
            assert mat_trace(m) == 0 and m.det() == Operator(a, b, g).q()

    def test_round_trip(self):
        rng = Rng(13)
        for _ in range(100):
            a = Operator(*rng.rationals(3))
            assert from_mat2(a.mat2()) == a
        for _ in range(100):
            p, q, r = rng.rationals(3)
            m = Mat(((p, q), (r, -p)))
            assert from_mat2(m).mat2() == m

    def test_phi_onto_mat2(self):
        m = Mat(((5, Fraction(1, 3)), (-2, -5)))
        assert from_mat2(m).mat2() == m

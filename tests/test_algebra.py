from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqh.algebra import (
    MAT_I,
    MAT_J,
    MAT_K,
    PQ_I,
    PQ_J,
    PQ_K,
    PQ_ONE,
    ParaQuaternion,
    phi_from_mat2,
    phi_to_mat2,
)
from pqh.linalg import Mat
from pqh.rng import Rng

rationals = st.fractions(
    min_value=-9, max_value=9, max_denominator=5
)


def pq(parts):
    return ParaQuaternion(*parts)


class TestRelations:
    def test_generators(self):
        assert PQ_I * PQ_I == -PQ_ONE
        assert PQ_J * PQ_J == PQ_ONE
        assert PQ_K * PQ_K == PQ_ONE
        assert PQ_I * PQ_J == PQ_K
        assert PQ_J * PQ_I == -PQ_K

    def test_unit_element(self):
        q = ParaQuaternion(3, Fraction(-1, 2), 5, 7)
        assert PQ_ONE * q == q
        assert q * PQ_ONE == q

    def test_zero_divisor(self):
        # N(1 + j) = 0, so (1+j)(1-j) = 1 - j^2 = 0
        assert ((PQ_ONE + PQ_J) * (PQ_ONE - PQ_J)).is_zero()

    def test_full_table(self):
        table = {
            ("i", "j"): PQ_K,
            ("j", "i"): -PQ_K,
            ("j", "k"): -PQ_I,
            ("k", "j"): PQ_I,
            ("k", "i"): PQ_J,
            ("i", "k"): -PQ_J,
        }
        gens = {"i": PQ_I, "j": PQ_J, "k": PQ_K}
        for (a, b), want in table.items():
            assert gens[a] * gens[b] == want


class TestConjNorm:
    @pytest.mark.parametrize(
        "q,conj,norm",
        [
            (PQ_ONE, PQ_ONE, 1),
            (PQ_I, -PQ_I, 1),
            (PQ_J, -PQ_J, -1),
            (PQ_K, -PQ_K, -1),
        ],
    )
    def test_examples(self, q, conj, norm):
        c, n = q.real() - q.imag(), q.norm()
        assert c == conj and n == norm

    @given(st.tuples(rationals, rationals, rationals, rationals))
    @settings(max_examples=60, deadline=None)
    def test_conj_identity(self, parts):
        q = pq(parts)
        c, n = q.real() - q.imag(), q.norm()
        assert q * c == ParaQuaternion.scalar(n)

    @given(
        st.tuples(rationals, rationals, rationals, rationals),
        st.tuples(rationals, rationals, rationals, rationals),
    )
    @settings(max_examples=60, deadline=None)
    def test_norm_multiplicative(self, a, b):
        p, q = pq(a), pq(b)
        assert (p * q).norm() == p.norm() * q.norm()


class TestPhi:
    def test_generator_images(self):
        assert phi_to_mat2(PQ_ONE) == Mat.identity(2)
        assert phi_to_mat2(PQ_I) == Mat(((0, -1), (1, 0)))
        assert phi_to_mat2(PQ_J) == Mat(((0, 1), (1, 0)))
        assert phi_to_mat2(PQ_K) == Mat(((-1, 0), (0, 1)))

    def test_images_are_standard_structure(self):
        assert (phi_to_mat2(PQ_I), phi_to_mat2(PQ_J), phi_to_mat2(PQ_K)) == (
            MAT_I,
            MAT_J,
            MAT_K,
        )

    def test_homomorphism_random(self):
        rng = Rng(11)
        for _ in range(200):
            p = pq(rng.rationals(4))
            q = pq(rng.rationals(4))
            assert phi_to_mat2(p * q) == phi_to_mat2(p) @ phi_to_mat2(q)
            assert phi_to_mat2(p).det() == p.norm()

    def test_round_trip(self):
        rng = Rng(13)
        for _ in range(100):
            q = pq(rng.rationals(4))
            assert phi_from_mat2(phi_to_mat2(q)) == q
        for _ in range(100):
            m = Mat([rng.rationals(2), rng.rationals(2)])
            assert phi_to_mat2(phi_from_mat2(m)) == m

    def test_phi_onto_mat2(self):
        m = Mat(((5, Fraction(1, 3)), (-2, 7)))
        assert phi_to_mat2(phi_from_mat2(m)) == m

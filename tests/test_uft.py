from fractions import Fraction

import pytest

from conftest import graph_subspace, random_sl2
from reference import assemble, induced_g_f, mat_is_zero, mat_rank, metric, t_is_injective
from reference import mat_neg, vec_add
from pqh.generate import generate
from pqh.linalg import Mat, _int_row
from pqh.model import HBasisChange, StructureError, tensor
from pqh.rng import Rng
from pqh.subspace import (
    Subspace,
    decomposable_subspace,
    direct_sum_is,
    maximal_pq,
    product_subspace,
)
from pqh.uft import (
    TransversalityError,
    _graph_of,
    decomposable_spectrum,
    decompose_form1,
    decompose_form2,
    find_transversal_direction,
    injectivize,
    invariant_core,
    minimal_fiber_direction,
    pq_split,
    to_uft,
    transversal_basis,
)


def ref_pencil_change(f_space: Subspace, t_map: Mat, a, b, c, d):
    """The graph data (F', T') after rewriting h1 = a h1' + b h2',
    h2 = c h1' + d h2'.

    F' = (a Id + c T) F and T' carries (a + cT)f to (b + dT)f; the pencil
    value a Id + c T must be injective on F.
    """
    a, b, c, d = (Fraction(x) for x in (a, b, c, d))
    if a * d - b * c == 0:
        raise ValueError("basis-change coefficients are singular")
    stacked = [
        _int_row(
            tuple(a * x + c * y for x, y in zip(f, tf))
            + tuple(b * x + d * y for x, y in zip(f, tf))
        )[0]
        for f, tf in zip(f_space.mat.rows, t_map.cols)
    ]
    graph = _graph_of(stacked, f_space.ambient)
    if graph is None:
        raise ValueError("pencil value a Id + c T is not injective on F")
    f_new, t_cols = graph
    return f_new, t_cols.T


def random_subspace(rng, ambient, dim):
    while True:
        u = Subspace.span([rng.rationals(ambient) for _ in range(dim)], ambient)
        if u.dim == dim:
            return u


ROT = [((1, 0), (0, 1)), ((0, 1), (-1, 0))]  # T = [[0,-1],[1,0]], T^2 = -Id


class TestTransversal:
    def test_product_subspace_has_none(self):
        u = product_subspace(Subspace.span([(1, 0)], 2))
        assert find_transversal_direction(u) is None

    def test_line(self):
        u = Subspace.span([tensor((1, 0), (1, 0))], 4)
        assert find_transversal_direction(u) == (0, 1)

    def test_pure_complex_first_candidate(self):
        u = graph_subspace(1, ROT)
        assert find_transversal_direction(u) == (0, 1)

    def test_search_bound(self):
        rng = Rng(41)
        for _ in range(200):
            u = random_subspace(rng, 8, 1 + rng.below(8))
            h = find_transversal_direction(u)
            if h is not None:
                # candidates examined: (t, 1) for t <= dim U then (1, 0)
                assert h == (1, 0) or (h[1] == 1 and 0 <= h[0] <= u.dim)


class TestToUFT:
    def test_graph_read_off(self):
        u = Subspace.span([vec_add(tensor((1, 0), (1, 0)), tensor((0, 1), (0, 1)))], 4)
        form = to_uft(u, HBasisChange.identity())
        assert form.f_space == Subspace.span([(1, 0)], 2)
        assert form.t_map.col(0) == (0, 1)

    def test_decomposable_standard_basis(self):
        ep = Subspace.span([(1, 0), (0, 1)], 2)
        u = decomposable_subspace((1, 0), ep)
        form = to_uft(u, HBasisChange.identity())
        assert form.f_space == ep
        assert mat_is_zero(form.t_map)

    def test_decomposable_generic_basis_lambda_id(self):
        # U = h (x) E' for h = alpha h1 + beta h2 gives T = (beta/alpha) Id
        ep = Subspace.span([(1, 0), (0, 1)], 2)
        u = decomposable_subspace((2, 3), ep)
        form = to_uft(u, HBasisChange.identity())
        assert form.f_space == ep
        lam = Fraction(3, 2)
        assert form.t_map == Mat(((lam, 0), (0, lam)))

    def test_transversality_error(self):
        ep = Subspace.span([(1, 0)], 2)
        u = decomposable_subspace((0, 1), ep)  # h2 (x) e1 meets h2 (x) E
        with pytest.raises(TransversalityError):
            to_uft(u, HBasisChange.identity())

    def test_round_trip(self):
        rng = Rng(42)
        for _ in range(50):
            u = random_subspace(rng, 8, 1 + rng.below(4))
            h = find_transversal_direction(u)
            if h is None:
                continue
            form = to_uft(u, transversal_basis(h))
            assert form.span() == u
            assert form.dim == u.dim  # phi is an isomorphism


class TestBasisChange:
    def test_identity(self):
        u = graph_subspace(1, ROT)
        form = to_uft(u, HBasisChange.identity())
        same = to_uft(form.span(), form.h_basis.compose(HBasisChange.identity()))
        assert same.f_space == form.f_space and same.t_map == form.t_map

    def test_pencil_formula_swap_gives_inverse(self):
        # substituting alpha = delta = 0, beta = gamma = 1 in the pencil
        # formula sends T to T^{-1}
        u = graph_subspace(1, ROT)
        form = to_uft(u, HBasisChange.identity())
        f_new, t_new = ref_pencil_change(form.f_space, form.t_map, 0, 1, 1, 0)
        t = Mat(((0, -1), (1, 0)))
        assert f_new == form.f_space
        assert t_new == t.inverse()

    def test_symplectic_swap_gives_minus_inverse(self):
        u = graph_subspace(1, ROT)
        form = to_uft(u, HBasisChange.identity())
        swapped = to_uft(form.span(), form.h_basis.compose(HBasisChange(Mat(((0, -1), (1, 0))))))
        t = Mat(((0, -1), (1, 0)))
        assert swapped.t_map == mat_neg(t.inverse())
        assert swapped.span() == u

    def test_span_preserved_random(self):
        rng = Rng(43)
        done = 0
        while done < 100:
            u = random_subspace(rng, 8, 1 + rng.below(4))
            h = find_transversal_direction(u)
            if h is None:
                continue
            form = to_uft(u, transversal_basis(h))
            s = random_sl2(rng)
            try:
                changed = to_uft(form.span(), form.h_basis.compose(s))
            except ValueError:
                continue  # pencil not injective for this change
            assert changed.span() == u
            done += 1

    def test_non_invertible_pencil_rejected(self):
        ep = Subspace.span([(1, 0)], 2)
        u = decomposable_subspace((1, 0), ep)  # T = 0 w.r.t. standard basis
        form = to_uft(u, HBasisChange.identity())
        # moving h1 onto the decomposable direction makes the pencil singular
        with pytest.raises(ValueError):
            ref_pencil_change(form.f_space, form.t_map, 0, 1, 1, 0)


class TestInjectivize:
    def test_zero_map_becomes_scalar(self):
        ep = Subspace.span([(1, 0), (0, 1)], 2)
        u = decomposable_subspace((1, 0), ep)
        form = to_uft(u, HBasisChange.identity())
        inj = injectivize(form)
        assert t_is_injective(inj)
        assert inj.span() == u

    def test_already_injective_unchanged(self):
        u = graph_subspace(1, ROT)
        form = to_uft(u, HBasisChange.identity())
        assert injectivize(form) is form

    def test_rank_after_random(self):
        rng = Rng(44)
        done = 0
        while done < 100:
            u = random_subspace(rng, 12, 1 + rng.below(5))
            h = find_transversal_direction(u)
            if h is None:
                continue
            inj = injectivize(to_uft(u, transversal_basis(h)))
            assert mat_rank(inj.t_map) == inj.dim
            assert inj.span() == u
            done += 1


class TestSpectrum:
    def test_para_complex_lines(self):
        u = graph_subspace(1, [((1, 0), (1, 0)), ((0, 1), (0, -1))])
        spec = decomposable_spectrum(u)
        assert [l.direction for l in spec.lines] == [(1, -1), (1, 1)]
        assert [l.fiber.mat.rows for l in spec.lines] == [
            (((Fraction(0), Fraction(1)),)),
            (((Fraction(1), Fraction(0)),)),
        ]
        assert not spec.blocks

    def test_rotation_gives_irreducible_block(self):
        u = graph_subspace(1, ROT)
        spec = decomposable_spectrum(u)
        assert not spec.lines
        assert len(spec.blocks) == 1
        assert spec.blocks[0].coeffs == (Fraction(1), Fraction(0), Fraction(1))

    def test_single_line(self):
        u = Subspace.span([tensor((1, 0), (1, 0))], 4)
        spec = decomposable_spectrum(u)
        assert len(spec.lines) == 1
        assert spec.lines[0].direction == (1, 0)
        assert spec.lines[0].fiber == Subspace.span([(1, 0)], 2)

    def test_count_bound(self):
        rng = Rng(45)
        checked = 0
        while checked < 100:
            u = random_subspace(rng, 8, 1 + rng.below(6))
            if not maximal_pq(u).is_zero():
                continue
            if find_transversal_direction(u) is None:
                continue
            spec = decomposable_spectrum(u)
            assert sum(l.fiber.dim for l in spec.lines) <= u.dim
            assert len(spec.lines) <= u.dim
            checked += 1

    def test_fibers_match_direct_computation(self):
        from pqh.subspace import h_fiber

        rng = Rng(46)
        checked = 0
        while checked < 40:
            u = random_subspace(rng, 8, 1 + rng.below(4))
            if not maximal_pq(u).is_zero():
                continue
            if find_transversal_direction(u) is None:
                continue
            for line in decomposable_spectrum(u).lines:
                assert h_fiber(u, line.direction) == line.fiber
            checked += 1

    def test_non_pure_rejected(self):
        u = product_subspace(Subspace.span([(1, 0)], 2))
        with pytest.raises(StructureError):
            decomposable_spectrum(u)


class TestNoDecomposableLemma:
    def test_every_basis_iff_no_decomposables(self):
        rng = Rng(47)
        # rotation graph: no decomposables, so any random symplectic basis works
        u = graph_subspace(1, ROT)
        for _ in range(25):
            s = random_sl2(rng)
            form = to_uft(u, s)  # never raises
            assert t_is_injective(form)
        # a subspace with a decomposable vector fails for some basis
        ep = Subspace.span([(1, 0)], 2)
        w = decomposable_subspace((0, 1), ep)
        with pytest.raises(TransversalityError):
            to_uft(w, HBasisChange.identity())

    def test_dimension_bound(self):
        rng = Rng(48)
        checked = 0
        while checked < 50:
            u = random_subspace(rng, 8, 1 + rng.below(8))
            if not maximal_pq(u).is_zero():
                continue
            if find_transversal_direction(u) is None:
                continue
            if decomposable_spectrum(u).lines:
                continue
            assert u.dim <= 4  # dim U <= dim E
            checked += 1


class TestInducedMetric:
    def test_rotation_metric(self, ms1):
        form = to_uft(graph_subspace(1, ROT), HBasisChange.identity())
        assert induced_g_f(ms1, form) == Mat(((2, 0), (0, 2)))

    def test_reflection_metric(self, ms1):
        u = graph_subspace(1, [((1, 0), (1, 0)), ((0, 1), (0, -1))])
        form = to_uft(u, HBasisChange.identity())
        assert induced_g_f(ms1, form) == Mat(((0, -2), (-2, 0)))

    def test_zero_map_isotropic(self, ms1):
        ep = Subspace.span([(1, 0), (0, 1)], 2)
        form = to_uft(decomposable_subspace((1, 0), ep), HBasisChange.identity())
        assert mat_is_zero(induced_g_f(ms1, form))

    def test_matches_ambient_gram(self, ms2):
        rng = Rng(49)
        checked = 0
        while checked < 40:
            u = random_subspace(rng, 8, 1 + rng.below(4))
            h = find_transversal_direction(u)
            if h is None:
                continue
            form = to_uft(u, transversal_basis(h))
            vs = [
                assemble(form.h_basis, f, form.t_map.col(j))
                for j, f in enumerate(form.f_space.mat.rows)
            ]
            amb = Mat(
                [[metric(ms2, x, y) for y in vs] for x in vs], ncols=len(vs)
            )
            assert induced_g_f(ms2, form) == amb
            checked += 1


class TestInvariantCore:
    def test_real_line_has_trivial_core(self):
        u = Subspace.span([vec_add(tensor((1, 0), (1, 0)), tensor((0, 1), (0, 1)))], 4)
        form = injectivize(to_uft(u, HBasisChange.identity()))
        core, _ = invariant_core(form)
        assert core.is_zero()

    def test_rotation_core_is_everything(self):
        form = to_uft(graph_subspace(1, ROT), HBasisChange.identity())
        core, t_core = invariant_core(form)
        assert core.dim == 2
        assert t_core.charpoly() == (Fraction(1), Fraction(0), Fraction(1))

    def test_jordan_chain_shrinks(self):
        # F = span{e1,e2,e3}, T e1 = e1, T e2 = e1 + e2, T e3 = e2 + e3:
        # the fixpoint iteration must shrink below F ^ TF
        pairs = [
            ((1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)),
            ((0, 1, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0)),
            ((0, 0, 1, 0, 0, 0), (0, 1, 1, 0, 0, 0)),
        ]
        u = graph_subspace(3, pairs)
        form = to_uft(u, HBasisChange.identity())
        core, t_core = invariant_core(form)
        assert core.dim == 3  # T is invertible on F, everything is invariant


class TestForm1:
    def test_graph_input_unchanged(self):
        u = graph_subspace(1, ROT)
        res = decompose_form1(u)
        assert res.piece is None
        assert res.graph.span() == u

    def test_product_subspace(self):
        ep = Subspace.span([(1, 0), (0, 1)], 2)
        u = product_subspace(ep)
        res = decompose_form1(u)
        assert res.piece is not None
        assert res.piece.e_space == ep
        assert res.graph.dim == 2  # maximal graph part has dim E'
        assert direct_sum_is(u, [res.piece.span(), res.graph.span()])

    def test_random_recompose(self):
        rng = Rng(50)
        for _ in range(60):
            u = random_subspace(rng, 8, 1 + rng.below(8))
            res = decompose_form1(u)
            parts = [res.graph.span()]
            if res.piece is not None:
                parts.append(res.piece.span())
            assert direct_sum_is(u, parts)

    def test_graph_part_maximal(self):
        from pqh.subspace import h_fiber
        from pqh.uft import minimal_fiber_direction

        rng = Rng(51)
        for _ in range(25):
            u = random_subspace(rng, 8, 1 + rng.below(8))
            res = decompose_form1(u)
            _h, fib = minimal_fiber_direction(u)
            assert res.graph.dim == u.dim - fib.dim

    @pytest.mark.parametrize("n, seed", [(1, 2), (2, 2), (3, 0), (3, 2)])
    def test_graph_space_is_the_graph_span(self, n, seed):
        """The instances whose U' reaches ``decompose_form2``'s piece branch."""
        u_prime = pq_split(generate(Rng(seed), n, "generic"))[2]
        res = decompose_form1(u_prime)
        assert res.piece is not None
        assert res.graph_space == res.graph.span()


class TestForm2:
    def test_no_decomposables_unchanged(self):
        u = graph_subspace(1, ROT)
        res = decompose_form2(u)
        assert not res.pieces
        assert res.graph.span() == u

    def test_product_subspace_maximal_graph_part(self):
        # H (x) E' decomposes with a graph addend of dimension dim E'
        ep = Subspace.span([(1, 0), (0, 1)], 2)
        u = product_subspace(ep)
        res = decompose_form2(u)
        assert res.graph.dim == 2
        assert len(res.pieces) == 1

    def test_line_e0_special_case(self):
        u = product_subspace(Subspace.span([(1, 0)], 2))
        res = decompose_form2(u)
        assert res.graph.dim == 0
        assert len(res.pieces) == 2
        d1, d2 = (p.direction for p in res.pieces)
        assert d1[0] * d2[1] - d1[1] * d2[0] != 0

    def test_two_eigen_directions_twisted(self):
        # k1 (x) e1 (+) k2 (x) e2 admits a 1-dimensional twist-free addend
        u = graph_subspace(1, [((1, 0), (1, 0)), ((0, 1), (0, -1))])
        res = decompose_form2(u)
        assert len(res.pieces) == 1
        assert res.graph.dim == 1

    def test_random_properties(self):
        rng = Rng(52)
        for _ in range(50):
            u = random_subspace(rng, 8, 1 + rng.below(8))
            res = decompose_form2(u)
            parts = [p.span() for p in res.pieces]
            if res.graph.dim:
                parts.append(res.graph.span())
            assert direct_sum_is(u, parts)
            assert len(res.pieces) + (1 if res.graph.dim else 0) <= u.dim + 1
            dirs = [p.direction for p in res.pieces]
            for i in range(len(dirs)):
                for j in range(i + 1, len(dirs)):
                    a, b = dirs[i], dirs[j]
                    assert a[0] * b[1] - a[1] * b[0] != 0

    def test_decomposable_pieces_are_direct_addends(self):
        # plant rational eigenvalues: T = diag(l1, l2) (+) rotation block
        rng = Rng(53)
        for _ in range(30):
            l1, l2 = rng.rational(), rng.rational()
            pairs = [
                ((1, 0, 0, 0), (l1, 0, 0, 0)),
                ((0, 1, 0, 0), (0, l2, 0, 0)),
                ((0, 0, 1, 0), (0, 0, 0, 1)),
                ((0, 0, 0, 1), (0, 0, -1, 0)),
            ]
            u = graph_subspace(2, pairs)
            spec = decomposable_spectrum(u)
            assert spec.lines
            for line in spec.lines:
                piece = decomposable_subspace(line.direction, line.fiber)
                comp = piece.complement_in(u)
                assert direct_sum_is(u, [piece, comp])


class TestDimInvariants:
    def test_dim_f_equals_dim_u_all_presentations(self):
        rng = Rng(54)
        u = graph_subspace(1, ROT)
        for _ in range(25):
            s = random_sl2(rng)
            form = to_uft(u, s)
            assert form.f_space.dim == u.dim

"""Acceptance criteria, one test per criterion.

All arithmetic is exact: every comparison below is equality, tolerance
zero.  Each test prints one PASS line; a failed assertion fails the
test (and the criterion) outright.
"""

import time
from fractions import Fraction

import pytest

from conftest import cleared_rows, graph_subspace, random_sl2
from reference import assemble, induced_g_f, mat_neg, mat_scale, metric, omega_eval, restrict_omega
from pqh.classify import (
    check_totally_real,
    classify,
    generic_decompose,
    is_real,
    stabilizer,
)
from pqh.generate import generate, random_subspace, standard_model
from pqh.linalg import Mat, symmetric_signature
from pqh.model import (
    OMEGA_H,
    HBasisChange,
    ModelSpace,
    OP_I,
    OP_J,
    OP_K,
    StructureError,
    standard_symplectic,
)
from pqh.rng import Rng
from pqh.subspace import (
    Subspace,
    decomposable_subspace,
    direct_sum_is,
    image,
    maximal_pq,
    p1,
    product_subspace,
    signature,
)
from pqh.uft import (
    decomposable_spectrum,
    find_transversal_direction,
    graph_form,
    h_fiber,
    to_uft,
    transversal_basis,
)

_T0 = time.monotonic()


def _pass(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_algebra_conformance():
    t0 = time.monotonic()
    for n in range(1, 5):
        dim = 2 * n
        eye = Mat.identity(2 * dim)
        i_m = OP_I.mat2().kron(Mat.identity(dim))
        j_m = OP_J.mat2().kron(Mat.identity(dim))
        k_m = OP_K.mat2().kron(Mat.identity(dim))
        assert i_m @ i_m == mat_neg(eye)
        assert j_m @ j_m == eye
        assert k_m @ k_m == eye
        assert i_m @ j_m == k_m
        assert i_m @ j_m == mat_neg(j_m @ i_m)
        assert j_m @ k_m == mat_neg(k_m @ j_m)
        assert i_m @ k_m == mat_neg(k_m @ i_m)
        g = OMEGA_H.kron(ModelSpace.standard(n).omega)
        for m in (i_m, j_m, k_m):
            assert (m.T @ g) == mat_neg(g @ m)  # g(AX, Y) = -g(X, AY)
    assert time.monotonic() - t0 < 1.0
    _pass(1, "standard structure relations and g-skewness, n = 1..4, < 1 s")


def test_criterion_02_neutrality_and_dimension():
    for n in range(1, 5):
        ms = ModelSpace.standard(n)
        assert symmetric_signature(cleared_rows(OMEGA_H.kron(ms.omega))) == (2 * n, 0, 2 * n)
    with pytest.raises(StructureError):
        ModelSpace(2, standard_symplectic(2))  # ambient dimension must be 4n
    with pytest.raises(StructureError):
        ModelSpace(0, Mat((), ncols=0))
    _pass(2, "neutral signature (2n,0,2n) for n = 1..4; only dim 4n accepted")


def test_criterion_03_para_quaternionic_characterization():
    from pqh.classify import is_para_quaternionic

    count = 0
    seed = 0
    while count < 200:
        n = 1 + seed % 3
        ms = standard_model(n)
        rng = Rng(seed)
        seed += 1
        if seed % 2:
            ep = random_subspace(rng, 2 * n, 1 + rng.below(2 * n))
            u = product_subspace(ep)
        else:
            u = random_subspace(rng, 4 * n, 1 + rng.below(4 * n))
        rep = is_para_quaternionic(ms, u)
        assert rep.is_pq == (stabilizer(u).dim == 3)
        assert rep.is_pq == (maximal_pq(u) == u)
        if rep.is_pq:
            ep = p1(u)
            assert rep.gram_block_ok  # Gram equals the omega block matrix
            assert rep.hermitian == (
                ep.dim == 0 or restrict_omega(ms, ep).det() != 0
            )
        count += 1
    _pass(3, "tri-equivalence, block Gram and Hermitian test on 200 instances")


def test_criterion_04_complex_theorem_round_trip():
    count = 0
    seed = 0
    while count < 200:
        n = 1 + seed % 3
        ms = standard_model(n)
        u = generate(Rng(seed), n, "complex")
        seed += 1
        rep = classify(ms, u)
        assert rep.flags.complex
        cr = rep.complex_report
        form = to_uft(cr.pure_part, cr.basis)
        # g_F formula against the ambient pullback
        g_f = induced_g_f(ms, form)
        vs = [
            assemble(form.h_basis, f, form.t_map.col(j))
            for j, f in enumerate(form.f_space.mat.rows)
        ]
        amb = Mat([[metric(ms, x, y) for y in vs] for x in vs], ncols=len(vs))
        assert g_f == amb
        # three independent totally-complex routes agree
        b = form.f_space.mat.T
        w_f = b.T @ ms.omega @ b
        w_t = form.t_map.T @ ms.omega @ form.t_map
        route_omega = (
            restrict_omega(ms, form.f_space).det() != 0
            and w_t == mat_scale(w_f, cr.scale)
        )
        assert route_omega == cr.omega_preserved
        assert cr.gram_orthogonal == route_omega or not rep.flags.hermitian
        if rep.flags.hermitian and rep.flags.pure:
            assert rep.flags.totally_complex == route_omega == cr.gram_orthogonal
        count += 1
    _pass(4, "200 random T^2 = -Id graphs: complex flag, g_F, three-route totality")


def test_criterion_05_para_complex_theorem():
    count = 0
    seed = 0
    while count < 200:
        n = 1 + seed % 3
        ms = standard_model(n)
        kind = ("para_complex", "weakly_para_complex", "totally_para_complex")[
            seed % 3
        ]
        u = generate(Rng(seed), n, kind)
        seed += 1
        rep = classify(ms, u)
        assert rep.flags.weakly_para_complex
        pc = rep.para_complex_report
        sig = pc.signature_pure
        # signature equals (m, k - 2m, m)
        k = pc.pure_part.dim
        assert sig.as_tuple() == (pc.m_value, k - 2 * pc.m_value, pc.m_value)
        if pc.strictly_para_complex and pc.hermitian_pure:
            assert sig.as_tuple() == (k // 2, 0, k // 2)  # neutral
        # totality routes
        if rep.flags.pure and rep.flags.hermitian:
            assert (
                rep.flags.totally_para_complex
                == pc.omega_skew_invariant
                == pc.gram_orthogonal
            )
        count += 1
    _pass(5, "200 random T^2 = Id graphs: d+/d-, (m, k-2m, m), totality routes")


def test_criterion_06_real_and_totally_real():
    ms2 = standard_model(2)
    # curated: totally real
    tr = graph_subspace(2, [((1, 0, 0, 0), (0, 1, 0, 0)), ((0, 0, 1, 0), (0, 0, 0, 1))])
    rep = classify(ms2, tr)
    assert rep.flags.real and rep.flags.totally_real
    form = to_uft(tr, transversal_basis(find_transversal_direction(tr)))
    c = Mat(
        [
            [omega_eval(ms2, f, form.t_map.col(j)) for j in range(form.dim)]
            for f in form.f_space.mat.rows
        ],
        ncols=form.dim,
    )
    vs = [
        assemble(form.h_basis, f, form.t_map.col(j))
        for j, f in enumerate(form.f_space.mat.rows)
    ]
    gm = Mat([[metric(ms2, x, y) for y in vs] for x in vs], ncols=form.dim)
    assert gm == mat_scale(c, 2)  # Gram equals 2 omega(e, Te')
    # curated: real but not totally real (omega nonzero on E1)
    rnt = graph_subspace(2, [((1, 0, 0, 0), (0, 0, 1, 0)), ((0, 1, 0, 0), (0, 0, 0, 1))])
    rep2 = classify(ms2, rnt)
    assert rep2.flags.real and not rep2.flags.totally_real
    # curated: not real
    rep3 = classify(ms2, graph_subspace(2, [((1, 0, 0, 0), (0, 1, 0, 0)), ((0, 1, 0, 0), (-1, 0, 0, 0))]))
    assert not rep3.flags.real
    # dim bounds over 500 random subspaces
    checked = 0
    seed = 0
    while checked < 500:
        n = 1 + seed % 3
        ms = standard_model(n)
        rng = Rng(7000 + seed)
        seed += 1
        u = random_subspace(rng, 4 * n, 1 + rng.below(4 * n))
        if is_real(graph_form(u)):
            assert u.dim <= 2 * n
            if signature(ms, u).s == 0 and check_totally_real(ms, u, graph_form(u)).totally_real:
                assert u.dim <= n
        checked += 1
    _pass(6, "curated real statuses, metric identity, 500-sample dim bounds")


def test_criterion_07_nilpotent():
    # decomposable iff degree 1
    ms1 = standard_model(1)
    dec = decomposable_subspace((1, 0), Subspace.span([(1, 0), (0, 1)], 2))
    rep = classify(ms1, dec)
    assert rep.nilpotent_report.degree == 1
    repv = classify(ms1, Subspace.full(4))
    assert repv.nilpotent_report.degree == 2
    count = 0
    seed = 0
    while count < 200:
        n = 1 + seed % 3
        ms = standard_model(n)
        u = generate(Rng(seed), n, "nilpotent")
        seed += 1
        rep = classify(ms, u)
        assert rep.flags.nilpotent
        nr = rep.nilpotent_report
        a = rep.witnesses.nilpotent
        # criterion h1 (x) p2(U) <= U agrees with direct A-invariance
        invariant = all(u.contains_vector(a.apply_coords(x)) for x in u.mat.rows)
        assert invariant
        # degree 1 exactly for decomposable subspaces
        assert (nr.degree == 1) == (image(a, u).is_zero())
        # the decomposition recomposes exactly
        parts = [
            p
            for p in (nr.pq_part, nr.decomposable_piece.span(), nr.real_part)
            if p.dim
        ]
        assert direct_sum_is(u, parts)
        count += 1
    _pass(7, "degree-1 test, invariance criterion and exact recomposition, 200 samples")


def test_criterion_08_uft_machinery():
    count = 0
    seed = 0
    while count < 200:
        n = 1 + seed % 3
        rng = Rng(9000 + seed)
        seed += 1
        u = random_subspace(rng, 4 * n, 1 + rng.below(4 * n))
        # transversal search succeeds within dim U + 2 candidates when possible
        h = find_transversal_direction(u)
        candidates = [(Fraction(t), Fraction(1)) for t in range(u.dim + 1)]
        candidates.append((Fraction(1), Fraction(0)))
        exists = any(h_fiber(u, c).is_zero() for c in candidates)
        assert (h is not None) == exists
        if h is not None and maximal_pq(u).is_zero():
            spec = decomposable_spectrum(u)
            assert len(spec.lines) <= u.dim
            assert sum(l.fiber.dim for l in spec.lines) <= u.dim
        count += 1
    # basis-change round trips on 200 guaranteed graph subspaces
    round_trips = 0
    seed = 0
    while round_trips < 200:
        n = 1 + seed % 3
        rng = Rng(12000 + seed)
        seed += 1
        dim = 1 + rng.below(2 * n)
        pairs = [
            (rng.rationals(2 * n), rng.rationals(2 * n)) for _ in range(dim)
        ]
        u = graph_subspace(n, pairs)
        try:
            form = to_uft(u, HBasisChange.identity())
        except StructureError:
            continue
        s = random_sl2(rng)
        try:
            changed = to_uft(form.span(), form.h_basis.compose(s))
        except ValueError:
            continue  # pencil value not injective for this change
        assert changed.span() == u
        round_trips += 1
    _pass(8, "transversal bound, basis-change round trips, spectrum size bound")


def test_criterion_09_generic_decomposition():
    count = 0
    seed = 0
    while count < 200:
        n = 1 + seed % 3
        rng = Rng(11000 + seed)
        seed += 1
        dim = 1 + rng.below(min(6, 4 * n))
        ms = standard_model(n)
        u = random_subspace(rng, 4 * n, dim)
        tree = generic_decompose(u)
        assert direct_sum_is(u, tree.parts())
        for add in tree.addends:
            sub = classify(ms, add.space)
            if add.kind == "complex":
                assert sub.flags.complex and sub.flags.pure
            elif add.kind == "weakly_para_complex":
                assert sub.flags.weakly_para_complex and sub.flags.pure
            else:
                assert sub.flags.pure and not sub.flags.real
        if tree.real_addend.dim:
            assert is_real(graph_form(tree.real_addend))
        count += 1
    # witness formula invariance identity
    rng = Rng(77)
    from pqh.model import Operator

    for _ in range(50):
        p, q = rng.rational(), rng.rational()
        u = graph_subspace(1, [((1, 0), (0, 1)), ((0, 1), (q, p))])
        a = Operator(1 - q, -1 - q, -p)
        for row in u.mat.rows:
            assert u.contains_vector(a.apply_coords(row))
    _pass(9, "200 random trees recompose and re-classify; witness formula holds")


def test_criterion_10_hermitian_product_invariance():
    rng = Rng(123)
    count = 0
    while count < 100:
        n = 1 + count % 2
        ms = standard_model(n)
        x = rng.rationals(4 * n)
        y = rng.rationals(4 * n)
        base = ms.hermitian_product(x, y).imag().norm()
        for _ in range(20):
            s = random_sl2(rng)
            assert ms.hermitian_product(x, y, s).imag().norm() == base
        count += 1
    _pass(10, "N(Im(X.Y)) invariant under 20 basis changes x 100 pairs")


def test_criterion_11_determinism_and_runtime(capsys):
    # golden byte-identity is covered comprehensively in test_cli.py; spot
    # check two commands again here and the total acceptance runtime
    import contextlib
    import io
    from pathlib import Path

    from pqh.cli import main

    golden = Path(__file__).parent / "golden"
    for name, argv in {
        "classify.json": ("classify", str(Path(__file__).parent / "data" / "instance_mixed.json"), "--json"),
        "gen.txt": ("gen", "--kind", "complex", "--seed", "3", "--n", "2"),
    }.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(list(argv)) == 0
        assert buf.getvalue() == (golden / name).read_text()
    elapsed = time.monotonic() - _T0
    assert elapsed < 60.0, f"acceptance suite took {elapsed:.1f}s"
    _pass(11, f"byte-identical CLI outputs; criteria completed in {elapsed:.1f}s")

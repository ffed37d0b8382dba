"""One spectral pass per subspace, and the two integer paths beside it.

``uft.subspace_spectrum`` memoizes (graph form, injective form, parts) on
a ``Subspace`` instance; ``decomposable_spectrum``, ``generic_decompose``
and ``decompose_form2`` all read it.  Every answer must be the one a fresh
instance gives, in any call order, and the same as the unmemoized code
(``ref_*`` below are copies of it) on pure graphs, on inputs with U0 != 0
and on non-graphs.  ``invariant_core`` reads T on W* = F off ``t_map`` and
``image_orthogonal`` pairs integer rows; each is checked against the code
it replaced on rank-deficient inputs, non-injective T (``invariant_core``
on their injective presentations) and 100-digit entries.
"""

from importlib import import_module
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_graph_maps import bits100, entry_kinds, graph_forms, low_rank, small_entries
from test_graph_spectrum import block_matrices, conjugated, spectral_forms, subspaces_with_lines
from test_model import h_basis_changes, huge_entries, model_spaces, operators
from reference import mat_is_zero, mat_span

import pqh.uft
from pqh.classify import classify, generic_decompose
from pqh.generate import KINDS, generate, standard_model
from pqh.linalg import Mat, _int_row, frac_row
from pqh.model import OMEGA_H, OP_I, OP_J, OP_K, HBasisChange, StructureError
from pqh.rng import Rng
from pqh.subspace import (
    Subspace,
    direct_sum_is,
    image_orthogonal,
    maximal_pq,
    p1,
    product_subspace,
    span_of,
)
from pqh.uft import (
    DecomposablePiece,
    Form2,
    IrreducibleBlock,
    PencilSpectrum,
    SpectralLine,
    UFTForm,
    _direction_candidates,
    _form2_graph,
    _no_rational_eigenvalue_map,
    decomposable_spectrum,
    decompose_form1,
    decompose_form2,
    graph_form,
    graph_spectrum,
    injectivize,
    invariant_core,
    line_direction,
    normalize_direction,
    poly_deg,
    pq_split,
    subspace_spectrum,
)

# the module: ``pqh.classify`` is the function that ``pqh`` exports
classify_module = import_module("pqh.classify")

# -- the unmemoized code, kept as references ------------------------------------


def ref_decomposable_spectrum(u):
    form = graph_form(u)
    if form is None:
        if not maximal_pq(u).is_zero():
            raise StructureError("spectrum needs a pure subspace; strip U0 first")
        raise StructureError(
            "not a graph subspace: every direction has a nonzero fiber, "
            "so the decomposable spectrum is not a finite list"
        )
    inj, parts = graph_spectrum(form)
    lines = []
    blocks = []
    for poly, fiber in parts:
        if poly_deg(poly) == 1:
            lines.append(SpectralLine(line_direction(inj.h_basis, -poly[0]), fiber))
        else:
            blocks.append(IrreducibleBlock(tuple(poly), fiber))
    lines.sort(key=lambda l: l.direction)
    blocks.sort(key=lambda b: b.coeffs)
    return PencilSpectrum(tuple(lines), tuple(blocks))


def clean_complement(u, u0, e0):
    """The deleted ``uft.clean_complement``: a complement of U0 = H (x) E0
    inside U whose vectors have no E0 components at all (each one is
    reduced modulo U0)."""
    comp = u0.complement_in(u)
    dim_e = u.ambient // 2
    rows = []
    for r in comp.mat.rows:
        e, ep = r[:dim_e], r[dim_e:]
        rows.append(frac_row(*e0.reduce_int(*_int_row(e))) + frac_row(*e0.reduce_int(*_int_row(ep))))
    cleaned = Subspace.span(rows, u.ambient)
    if cleaned.dim != comp.dim:
        raise AssertionError("cleaning collapsed the complement")
    return cleaned


# Formerly pqh.uft._parallel, which the fresh-direction loop of form 2 read.
def _parallel(d1, d2) -> bool:
    return d1[0] * d2[1] - d1[1] * d2[0] == 0


def ref_decompose_form2(u):
    """``decompose_form2`` computing the spectrum of U' and of the residue
    again, with the residue's graph form read twice."""
    dim_v = u.ambient
    u0 = maximal_pq(u)
    e0 = p1(u0)
    u_prime = u if u0.is_zero() else clean_complement(u, u0, e0)
    form1 = decompose_form1(u_prime)
    pieces, tilde = _form2_graph(form1.graph.span(), *graph_spectrum(form1.graph))
    if form1.piece is not None:
        pieces.insert(0, form1.piece)
    used_dirs = [p.direction for p in pieces]
    graph_parts = [tilde]
    if not u0.is_zero():
        n_fresh = 2 if e0.dim == 1 else 1
        fresh = []
        for cand in _direction_candidates():
            nd = normalize_direction(cand)
            if all(not _parallel(nd, d) for d in used_dirs + fresh):
                fresh.append(nd)
                if len(fresh) == n_fresh:
                    break
        for nd in fresh:
            pieces.append(DecomposablePiece(nd, e0))
        used_dirs.extend(fresh)
        if e0.dim > 1:
            t0 = _no_rational_eigenvalue_map(e0.dim)
            graph_parts.append(UFTForm(HBasisChange.identity(), e0, t0.T @ e0.mat).span())
    tilde = span_of(graph_parts, dim_v)
    graph = graph_form(tilde)
    if graph is None:
        raise AssertionError("form 2 residue is not a graph subspace")
    if not direct_sum_is(u, [p.span() for p in pieces] + [tilde]):
        raise AssertionError("form 2 does not recompose")
    if ref_decomposable_spectrum(tilde).lines:
        raise AssertionError("form 2 residue still has decomposable vectors")
    return Form2(tuple(pieces), graph)


def unmemoized_spectrum(u, fibers=None):
    form = graph_form(u, fibers)
    return None if form is None else (form, *graph_spectrum(form))


def ref_invariant_core(u):
    """``invariant_core`` taking T on W* from ``t_on_subspace`` in every case."""
    w = u.f_space.intersect(u.t_image())
    while 0 < w.dim < u.dim:
        w_new = w.kernel_in([_int_row(r) for r in u.t_rows(w).rows], w)
        if w_new == w:
            break
        w = w_new
    return w, u.t_on_subspace(w)


def ref_image_orthogonal(ms, a, u):
    """``image_orthogonal`` as one rational Gram product."""
    au = Mat(tuple(a.apply_coords(r) for r in u.mat.rows), u.ambient)
    return mat_is_zero(au @ OMEGA_H.kron(ms.omega) @ u.mat.T)


# -- helpers ---------------------------------------------------------------------

READERS = {
    "generic": generic_decompose,
    "form2": decompose_form2,
    "form1": decompose_form1,
    "spectrum": decomposable_spectrum,
}


def outcome(fn, u):
    """The result of fn(u), or the type and message of what it raised."""
    try:
        return fn(u)
    except (StructureError, AssertionError, ValueError) as exc:
        return (type(exc), str(exc))


def fresh(u):
    """An equal instance with an empty memo."""
    return mat_span(u.mat)


def small_instances():
    for kind in KINDS:
        for n in (1, 2, 3):
            for seed in (0, 1, 2):
                yield kind, n, seed, generate(Rng(seed), n, kind)


# -- one instance, any call order -------------------------------------------------

ORDERS = [order for i, order in enumerate(permutations(READERS)) if i % 6 == 0]


@pytest.mark.parametrize("kind", KINDS)
def test_every_call_order_gives_the_fresh_answers(kind):
    for n in (1, 2, 3):
        for seed in (0, 1, 2):
            u = generate(Rng(seed), n, kind)
            expected = {name: outcome(fn, fresh(u)) for name, fn in READERS.items()}
            for order in ORDERS:
                shared = fresh(u)
                for name in order:
                    assert outcome(READERS[name], shared) == expected[name], (n, seed, order)


def test_a_form1_without_piece_is_the_memoized_graph_form():
    """When form 1 splits off no piece, its graph is the memoized graph
    form of U': both direction searches stop at the same first zero fiber.
    So ``decompose_form2``, which reads the spectrum of U' first and runs
    form 1 only when U' has no graph form, gives what it gave when it ran
    form 1 first and read the memo when there was no piece."""
    with_piece = without_piece = 0
    for kind in KINDS:
        for n in (1, 2, 3):
            for seed in (0, 1, 2):
                u_prime = pq_split(generate(Rng(seed), n, kind))[2]
                form1 = decompose_form1(u_prime)
                if form1.piece is None:
                    assert subspace_spectrum(u_prime)[0] == form1.graph, (kind, n, seed)
                    without_piece += 1
                else:
                    with_piece += 1
    assert with_piece and without_piece


def test_the_memo_is_filled_by_decompositions_only():
    u = generate(Rng(1), 2, "generic")
    classify(standard_model(2), u)
    assert "spectrum" not in u._memo
    decomposable_spectrum(u)
    assert u._memo["spectrum"][0] == graph_form(u)


# -- one spectral pass per request ---------------------------------------------------


@pytest.fixture
def spectrum_calls(monkeypatch):
    calls = []

    def counting(form):
        calls.append(form)
        return graph_spectrum(form)

    monkeypatch.setattr(pqh.uft, "graph_spectrum", counting)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_spectral_pass_for_the_four_readers(spectrum_calls, seed):
    u = generate(Rng(seed), 6, "generic", 12)
    for fn in READERS.values():
        fn(u)
    assert len(spectrum_calls) == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_spectral_pass_for_a_lone_form2(spectrum_calls, seed):
    decompose_form2(generate(Rng(seed), 6, "generic", 12))
    assert len(spectrum_calls) == 1


def test_the_memo_never_costs_a_pass(spectrum_calls):
    """Over the small instances, four readers on one instance never take
    more spectral passes than the four on fresh instances."""
    for _kind, _n, _seed, u in small_instances():
        spectrum_calls.clear()
        for fn in READERS.values():
            outcome(fn, fresh(u))
        separate = len(spectrum_calls)
        spectrum_calls.clear()
        for fn in READERS.values():
            outcome(fn, u)
        assert len(spectrum_calls) <= separate


# -- against the unmemoized code ------------------------------------------------------


def unmemoized_outcomes(u):
    """generic_decompose, decompose_form2 and decomposable_spectrum without
    the memo, each on a fresh instance."""
    # set by hand: hypothesis reuses one function-scoped fixture across examples
    saved = classify_module.subspace_spectrum
    classify_module.subspace_spectrum = unmemoized_spectrum
    try:
        generic = outcome(generic_decompose, fresh(u))
    finally:
        classify_module.subspace_spectrum = saved
    return generic, outcome(ref_decompose_form2, fresh(u)), outcome(ref_decomposable_spectrum, fresh(u))


def memoized_outcomes(u):
    """The same three readers on one shared instance."""
    shared = fresh(u)
    return tuple(outcome(fn, shared) for fn in (generic_decompose, decompose_form2, decomposable_spectrum))


@pytest.mark.parametrize("kind", KINDS)
def test_generated_instances_match_the_unmemoized_code(kind):
    for n in (1, 2, 3):
        for seed in (0, 1, 2):
            u = generate(Rng(seed), n, kind)
            assert memoized_outcomes(u) == unmemoized_outcomes(u), (n, seed)


@st.composite
def pq_plus_graphs(draw):
    """H (x) E0 plus the graph of a spectral form, so U0 != 0 whenever E0 is."""
    form = draw(spectral_forms())
    dim_e = form.dim_e
    e0 = mat_span(draw(low_rank(draw(st.integers(1, 2)), dim_e, draw(entry_kinds))))
    return span_of([product_subspace(e0), form.span()], 2 * dim_e)


REF = settings(max_examples=30, deadline=None)


@REF
@given(st.one_of(pq_plus_graphs(), subspaces_with_lines(), spectral_forms().map(UFTForm.span)))
def test_u0_and_non_graph_inputs_match_the_unmemoized_code(u):
    assert memoized_outcomes(u) == unmemoized_outcomes(u)


def test_the_u0_inputs_are_not_pure():
    u = generate(Rng(0), 2, "para_quaternionic")
    assert not maximal_pq(u).is_zero()
    assert outcome(decomposable_spectrum, u)[0] is StructureError


# -- the two integer paths ------------------------------------------------------------


@st.composite
def bijective_forms(draw):
    """Graph forms with TF = F, so W* = F; T is a conjugated block matrix on
    a rank-deficiently spanned F, or any matrix (then often TF != F)."""
    entries = draw(st.sampled_from([small_entries, bits100, huge_entries]))
    dim_e = 2 * draw(st.integers(1, 3))
    f_space = mat_span(draw(low_rank(draw(st.integers(0, dim_e + 1)), dim_e, entries)))
    m = f_space.dim
    if m and draw(st.booleans()):
        blocks = draw(block_matrices(m, eigenvalues=(1, 2, -1), quadratics=True))
        t_f = draw(conjugated(blocks, entries))
    else:
        t_f = draw(low_rank(m, m, entries))
    basis = draw(h_basis_changes()) if draw(st.booleans()) else HBasisChange.identity()
    return UFTForm(basis, f_space, t_f.T @ f_space.mat)


@settings(max_examples=80, deadline=None)
@given(st.one_of(bijective_forms(), graph_forms().map(lambda fe: fe[0])).map(injectivize))
def test_invariant_core_matches_t_on_subspace(form):
    core, t_core = invariant_core(form)
    assert (core, t_core) == ref_invariant_core(form)
    assert t_core == form.t_on_subspace(core)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_image_orthogonal_matches_the_gram_product(data):
    ms = data.draw(model_spaces())
    ambient = 4 * ms.n
    entries = data.draw(st.sampled_from([small_entries, huge_entries]))
    u = mat_span(data.draw(low_rank(data.draw(st.integers(0, 2 * ms.n + 1)), ambient, entries)))
    op = data.draw(operators())
    assert image_orthogonal(ms, op, u) == ref_image_orthogonal(ms, op, u)


def test_image_orthogonal_on_the_generated_kinds():
    """Orthogonal and non-orthogonal answers both occur, and agree."""
    seen = set()
    for kind, n, _seed, u in small_instances():
        ms = standard_model(n)
        for op in (OP_I, OP_J, OP_K):
            answer = image_orthogonal(ms, op, u)
            assert answer == ref_image_orthogonal(ms, op, u), kind
            seen.add(answer)
    assert seen == {True, False}

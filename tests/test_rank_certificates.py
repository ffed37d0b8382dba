"""Rank-mod-p certificates against reference copies of the exact paths.

``linalg.rank_mod`` is the rank of integer rows modulo p = 2^30 - 35.  It
never exceeds the rank over Q, so a full ``rank_mod`` proves full rank and
settles a zero intersection, a zero preimage, an injective graph map or a
zero U0 without the canonical basis.  Each ``ref_*`` function below is the
exact code a certificate now runs in front of; every site must agree with
it on zero, full and rank-deficient inputs with ~100-bit entries, and on
inputs that are full rank over Q but not mod p, where the exact fallback
has to give the answer.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from reference import t_is_injective

from pqh.classify import classify, oracle_check
from pqh.generate import KINDS, check_dim, generate
from pqh.linalg import P30, Mat, _int_row, frac_row, int_rank, rank_mod
from pqh.model import OP_I, OP_J, OP_K, HBasisChange, ModelSpace, Operator
from pqh.rng import Rng
from pqh.subspace import (
    Subspace,
    h_fiber,
    image,
    image_orthogonal,
    is_orthogonal,
    maximal_pq,
    product_subspace,
)
from pqh.uft import UFTForm, find_transversal_direction, injectivize, invariant_core

big = st.integers(-(1 << 100), 1 << 100)
small = st.integers(-3, 3)
SETTINGS = settings(max_examples=40, deadline=None)

# -- reference copies ---------------------------------------------------------


def ref_intersect(a, b):
    """``Subspace.intersect`` before its certificate."""
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient)
    combos = Mat(a.mat.rows + b.mat.rows, a.mat.ncols).T.kernel()
    coeffs = Mat(tuple(c[: a.dim] for c in combos.rows), ncols=a.dim)
    return Subspace(coeffs @ a.mat)


def ref_preimage_by(u, m):
    """{x : m x in U}, the kernel of the columns of m reduced modulo U."""
    if u.dim == u.ambient:
        return Subspace.full(m.ncols)
    pivset = set(u.pivots)
    free = [j for j in range(u.ambient) if j not in pivset]
    qcols = [tuple(frac_row(*u.reduce_int(*_int_row(c)))[j] for j in free) for c in m.cols]
    return Subspace(Mat.from_cols(qcols, nrows=len(free)).kernel())


def ref_h_fiber(u, h):
    """``h_fiber`` as the preimage of the columns of [aI; bI]."""
    column = Mat(((h[0],), (h[1],)))
    return ref_preimage_by(u, column.kron(Mat.identity(u.ambient // 2)))


def ref_maximal_pq(u):
    """``maximal_pq`` before its certificate: intersections of canonical images."""
    u0 = u
    for op in (OP_I, OP_J, OP_K):
        u0 = ref_intersect(u0, Subspace.span([op.apply_coords(r) for r in u.mat.rows], u.ambient))
        if u0.is_zero():
            break
    return u0


def ref_t_image(form):
    return Subspace.span(form.t_map.cols, form.dim_e)


def ref_t_is_injective(form):
    return int_rank([_int_row(c)[0] for c in form.t_map.cols], form.dim_e) == form.dim


def ref_invariant_core(form):
    """``invariant_core`` before the W0 = F stop, on the reference kernels."""
    w = ref_intersect(form.f_space, ref_t_image(form))
    while not w.is_zero():
        w_new = Subspace(ref_preimage_by(w, form.t_rows(w).T).mat @ w.mat)
        if w_new == w:
            break
        w = w_new
    return w


def ref_first_transversal(u):
    """``find_transversal_direction`` before the dimension guard."""
    for t in range(u.dim + 1):
        h = (Fraction(t), Fraction(1))
        if ref_h_fiber(u, h).is_zero():
            return h
    return None


# -- strategies ------------------------------------------------------------------


@st.composite
def int_rows(draw, nrows, ncols, entries=big):
    """Dense, rank-deficient, or rank-deficient only modulo P30."""
    kind = draw(st.sampled_from(["dense", "low_rank", "low_rank_mod_p"]))

    def dense(r, c):
        return [draw(st.lists(entries, min_size=c, max_size=c)) for _ in range(r)]

    if kind == "dense" or not nrows or not ncols:
        return dense(nrows, ncols)
    rank = draw(st.integers(0, min(nrows, ncols) - 1))
    left, right = dense(nrows, rank), dense(rank, ncols)
    cols = list(zip(*right)) if rank else [()] * ncols
    rows = [[sum(a * b for a, b in zip(r, c)) for c in cols] for r in left]
    if kind == "low_rank_mod_p":
        noise = dense(nrows, ncols)
        rows = [[x + P30 * y for x, y in zip(r, s)] for r, s in zip(rows, noise)]
    return rows


@st.composite
def subspaces(draw, ambient, dims=None):
    """A subspace of Q^ambient from ~100-bit spanning rows, often fewer
    dimensions than rows; ``dims`` bounds the number of spanning rows."""
    kind = draw(st.sampled_from(["zero", "full", "rows"]))
    if kind == "zero":
        return Subspace.zero(ambient)
    if kind == "full":
        return Subspace.full(ambient)
    nrows = draw(st.integers(1, dims if dims is not None else ambient))
    return Subspace.span(draw(int_rows(nrows, ambient)), ambient)


@st.composite
def subspace_pairs(draw, ambient=6):
    """(U, W) that meet in 0, meet in a shared part, or where one is all of Q^d."""
    u = draw(subspaces(ambient))
    kind = draw(st.sampled_from(["independent", "shared", "any"]))
    if kind == "any":
        return u, draw(subspaces(ambient))
    extra = draw(int_rows(draw(st.integers(0, ambient - u.dim)), ambient, big))
    keep = u.mat.rows[: draw(st.integers(0, u.dim))] if kind == "shared" else ()
    return u, Subspace.span(list(keep) + extra, ambient)


@st.composite
def graph_forms(draw):
    """A graph form F -> E: F a subspace of E (or E itself) and T any map,
    invertible, rank-deficient, or preserving F."""
    dim_e = draw(st.integers(1, 5))
    f = draw(subspaces(dim_e))
    kind = draw(st.sampled_from(["any", "preserving"]))
    if kind == "preserving" and f.dim:
        # T f_i = sum_j c_ij f_j keeps F invariant
        coeffs = Mat(draw(int_rows(f.dim, f.dim)), ncols=f.dim)
        t_map = (coeffs @ f.mat).T
    else:
        t_map = Mat(draw(int_rows(dim_e, f.dim)), ncols=f.dim) if f.dim else Mat(((),) * dim_e, ncols=0)
    return UFTForm(HBasisChange.identity(), f, t_map.T)


# -- rank_mod itself -----------------------------------------------------------------


@SETTINGS
@given(st.data())
def test_rank_mod_is_a_lower_bound_and_exact_when_full(data):
    nrows, ncols = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
    rows = data.draw(int_rows(nrows, ncols))
    r, exact = rank_mod(rows, ncols), int_rank(rows, ncols)
    assert r <= exact
    if r == min(nrows, ncols):
        assert r == exact


def test_rank_mod_sees_a_pivot_that_is_a_multiple_of_p():
    rows = [[P30, 1], [0, 1]]
    assert int_rank(rows, 2) == 2
    assert rank_mod(rows, 2) == 1


# -- each certificate site against its exact path -------------------------------------


@SETTINGS
@given(subspace_pairs())
def test_intersect_matches_reference(pair):
    u, w = pair
    assert u.intersect(w) == ref_intersect(u, w)
    assert w.intersect(u) == ref_intersect(w, u)


@SETTINGS
@given(st.data())
def test_preimage_by_matches_reference(data):
    ambient = data.draw(st.integers(1, 6))
    u = data.draw(subspaces(ambient))
    ncols = data.draw(st.integers(1, 6))
    m = Mat(data.draw(int_rows(ambient, ncols)), ncols=ncols)
    preimage = Subspace.full(m.ncols).kernel_in([_int_row(c) for c in m.cols], u)
    assert preimage == ref_preimage_by(u, m)


@SETTINGS
@given(st.data())
def test_h_fiber_matches_reference(data):
    half = data.draw(st.integers(1, 4))
    h = (data.draw(big), data.draw(big))
    if h == (0, 0):
        h = (1, 0)
    u = data.draw(subspaces(2 * half))
    # a nonzero fiber: put some h (x) e inside U
    es = data.draw(int_rows(data.draw(st.integers(0, 2)), half))
    u = u + Subspace.span([[h[0] * x for x in e] + [h[1] * x for x in e] for e in es], 2 * half)
    assert h_fiber(u, h) == ref_h_fiber(u, h)


@st.composite
def model_subspaces(draw):
    """Subspaces of H (x) E with U0 zero, nonzero, or everything."""
    n = draw(st.integers(1, 2))
    ambient = 4 * n
    kind = draw(st.sampled_from(["rows", "pq_plus_rows", "full"]))
    if kind == "full":
        return Subspace.full(ambient)
    if kind == "rows":
        return draw(subspaces(ambient, dims=3 * n))
    e_sub = draw(subspaces(2 * n, dims=n))
    extra = draw(int_rows(draw(st.integers(0, 2)), ambient))
    return Subspace.span(list(product_subspace(e_sub).mat.rows) + extra, ambient)


@SETTINGS
@given(model_subspaces())
def test_maximal_pq_matches_reference(u):
    assert maximal_pq(u) == ref_maximal_pq(u)


@SETTINGS
@given(graph_forms())
def test_graph_map_certificates_match_reference(form):
    assert t_is_injective(form) == ref_t_is_injective(form)
    assert form.t_image() == ref_t_image(form)
    inj = injectivize(form)
    core, t_core = invariant_core(inj)
    assert core == ref_invariant_core(inj)
    assert t_core == inj.t_on_subspace(core)


@SETTINGS
@given(model_subspaces(), st.tuples(small, small, small))
def test_image_orthogonal_matches_the_canonical_image(u, abc):
    ms = ModelSpace.standard(u.ambient // 4)
    op = Operator(*abc)
    assert image_orthogonal(ms, op, u) == is_orthogonal(ms, image(op, u), u)


def test_transversal_dimension_guard_matches_the_fiber_loop():
    """Every kind that admits dim U > 2n: no direction is transversal."""
    checked = 0
    for kind in KINDS:
        for n in (1, 2, 3):
            for seed in (0, 1, 2):
                for dim in range(2 * n + 1, 4 * n + 1):
                    try:
                        check_dim(n, kind, dim)
                    except ValueError:
                        continue
                    u = generate(Rng(seed), n, kind, dim)
                    assert find_transversal_direction(u) == ref_first_transversal(u)
                    if u.dim > 2 * n:
                        assert find_transversal_direction(u) is None
                        checked += 1
    assert checked


def test_pure_complex_moves_off_falls_back_when_the_certificate_fails():
    """A forged pure-complex report on H (x) E': every B keeps U, so no
    residue rank is full mod p and the exact rank must report the move."""
    ms = ModelSpace.standard(1)
    u = product_subspace(Subspace.span([(1, 2)], 2))
    report = classify(ms, u)
    flags = report.flags._replace(complex=True, pure=True, para_quaternionic=False)
    witnesses = report.witnesses._replace(complex=OP_I)
    forged = report._replace(flags=flags, witnesses=witnesses)
    bad = {f.name for f in oracle_check(ms, forged, u) if not f.ok}
    assert "pure-complex-moves-off" in bad


# -- forced fallback: full rank over Q, rank 1 mod p ------------------------------------


def test_intersect_falls_back_on_a_pivot_divisible_by_p():
    u = Subspace.span([(P30, 1)], 2)
    w = Subspace.span([(0, 1)], 2)
    rows = [V for V, _ in u.int_basis() + w.int_basis()]
    assert rows == [[P30, 1], [0, 1]] and rank_mod(rows, 2) == 1
    assert u.intersect(w) == Subspace.zero(2) == ref_intersect(u, w)


def test_preimage_falls_back_on_a_pivot_divisible_by_p():
    # columns (p, 1) and (0, 1): independent over Q, equal mod p
    m = Mat(((P30, 0), (1, 1)))
    cols = [_int_row(c)[0] for c in m.cols]
    assert rank_mod(cols, 2) == 1
    zero = Subspace.zero(2)
    preimage = Subspace.full(2).kernel_in([_int_row(c) for c in m.cols], zero)
    assert preimage == zero == ref_preimage_by(zero, m)
    assert t_is_injective(UFTForm(HBasisChange.identity(), Subspace.full(2), m.T))

"""``Subspace.kernel_in`` against reference copies of the bodies it replaced.

Every subspace cut out by a linear condition (an intersection, a fiber,
U0, an invariant core, a kernel of omega, an eigenspace inside U) is one
``kernel_in`` call: the vectors sum c_i b_i of W whose images sum c_i y_i
lie in a target.  Each ``ref_*`` function below is the code a call site
ran before, built on canonical kernels and intersections of the stacked
bases; every site must agree with it on zero, full and rank-deficient
inputs with ~100-bit entries.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st
from test_model import model_spaces, operators
from test_pure_complement import ref_invariant_pure_complement
from test_rank_certificates import (
    SETTINGS,
    big,
    int_rows,
    model_subspaces,
    ref_intersect,
    ref_maximal_pq,
    ref_preimage_by,
    subspaces,
)

from pqh.classify import check_nilpotent, classify, operator_preserves
from pqh.generate import generate
from pqh.linalg import F1, Mat, _int_row
from pqh.model import ModelSpace, Operator
from pqh.polyq import poly_eval_matrix
from pqh.rng import Rng
from pqh.subspace import Subspace, direct_sum_is, omega_kernel_in, product_subspace
from pqh.uft import poly_fiber, pq_split
from reference import maximal_invariant_subspace

# -- reference copies ---------------------------------------------------------


def ref_kernel_in(w, images, target):
    """The c with sum c_i y_i in the target, from one kernel of the images
    stacked on the target's basis, mapped onto the basis of W."""
    rows = [tuple(Fraction(x, d) for x in ints) for ints, d in images]
    if target is not None:
        rows += list(target.mat.rows)
    combos = Mat(rows, ncols=len(images[0][0])).T.kernel()
    coeffs = Mat(tuple(c[: w.dim] for c in combos.rows), ncols=w.dim)
    return Subspace(coeffs @ w.mat)


def ref_omega_kernel_in(ms, a_sub, b_sub):
    if a_sub.dim == 0:
        return b_sub
    return ref_intersect(b_sub, Subspace((a_sub.mat @ ms.omega).kernel()))


def ref_maximal_invariant_subspace(a, u):
    return ref_intersect(u, ref_preimage_by(u, a.mat2().kron(Mat.identity(u.ambient // 2))))


def ref_poly_fiber(w, t_w, poly):
    return Subspace(poly_eval_matrix(poly, t_w).kernel() @ w.mat)


def ref_eigen_split(a, u, u0, root):
    """The complement of ``ref_invariant_pure_complement`` for a rational root
    of -q(A): eigenspaces of the 4n x 4n matrix of A, intersected."""
    amat = a.mat2().kron(Mat.identity(u.ambient // 2))
    parts = []
    for sign in (root, -root):
        vs = Subspace((amat - Mat.scalar(u.ambient, sign)).kernel())
        parts.append(ref_intersect(u0, vs).complement_in(ref_intersect(u, vs)))
    return parts[0].sum(parts[1])


def ref_nilpotent_e0(e2_proj, t_mat):
    """``check_nilpotent``'s E0: the relations among the rows of T~."""
    return Subspace(t_mat.T.kernel() @ e2_proj.mat)


# -- the primitive itself ------------------------------------------------------------


@SETTINGS
@given(st.data())
def test_kernel_in_matches_its_definition(data):
    ambient = data.draw(st.integers(1, 5))
    w = data.draw(subspaces(ambient))
    if w.is_zero():
        return
    width = data.draw(st.integers(1, 5))
    images = [_int_row(r) for r in data.draw(int_rows(w.dim, width))]
    target = data.draw(st.none() | subspaces(width))
    assert w.kernel_in(images, target) == ref_kernel_in(w, images, target)


# -- each rerouted site ---------------------------------------------------------------


@SETTINGS
@given(st.data())
def test_omega_kernel_in_matches_reference(data):
    ms = data.draw(model_spaces())
    dim_e = 2 * ms.n
    a_sub = data.draw(subspaces(dim_e))
    b_sub = data.draw(subspaces(dim_e))
    assert omega_kernel_in(ms, a_sub, b_sub) == ref_omega_kernel_in(ms, a_sub, b_sub)


@SETTINGS
@given(model_subspaces(), operators())
def test_maximal_invariant_subspace_matches_reference(u, a):
    assert maximal_invariant_subspace(a, u) == ref_maximal_invariant_subspace(a, u)


@SETTINGS
@given(st.data())
def test_poly_fiber_matches_reference(data):
    ambient = data.draw(st.integers(1, 5))
    w = data.draw(subspaces(ambient))
    k = w.dim
    lam = data.draw(big)
    # T = lam Id + N with N often rank-deficient, so ker (T - lam) is often nonzero
    n_part = Mat(data.draw(int_rows(k, k)), ncols=k) if k else Mat.scalar(0, 0)
    t_w = n_part + Mat.scalar(k, lam)
    poly = data.draw(
        st.sampled_from([(-lam, F1), (lam, F1), (0, F1)])
        | st.tuples(big, big, st.just(1))
    )
    assert poly_fiber(w, t_w, poly) == ref_poly_fiber(w, t_w, poly)


@st.composite
def split_instances(draw):
    """(A, U, U0) with -q(A) a nonzero rational square, U A-invariant: the
    pq part H (x) E' plus spans {x, Ax}, with dependent rows among them."""
    n = draw(st.integers(1, 2))
    c, t, r = draw(big.filter(bool)), draw(big), draw(big.filter(bool))
    a = Operator(c * t, c * t, c * r)  # q(A) = -(c r)^2
    e_sub = draw(subspaces(2 * n, dims=n))
    xs = [tuple(map(Fraction, x)) for x in draw(int_rows(draw(st.integers(0, 2)), 4 * n))]
    rows = list(product_subspace(e_sub).mat.rows)
    rows += [v for x in xs for v in (x, a.apply_coords(x))]
    u = Subspace.span(rows, 4 * n)
    return a, u, ref_maximal_pq(u), abs(c * r)


@SETTINGS
@given(split_instances())
def test_invariant_pure_complement_eigen_split_matches_reference(inst):
    """``pq_split``'s U' is an A-invariant complement of U0; the earlier
    eigenspace split still agrees with its reference intersections."""
    a, u, u0, root = inst
    u0_split, _e0, comp = pq_split(u)
    assert u0_split == u0
    assert direct_sum_is(u, [u0, comp])
    assert operator_preserves(a, comp)
    if u0.is_zero():
        assert comp == u
        assert ref_invariant_pure_complement(a, u, u0) == u
    else:
        assert ref_invariant_pure_complement(a, u, u0) == ref_eigen_split(a, u, u0, root)


@SETTINGS
@given(st.data())
def test_nilpotent_e0_matches_reference(data):
    ambient = data.draw(st.integers(1, 5))
    e2_proj = data.draw(subspaces(ambient))
    if e2_proj.is_zero():
        return
    t_mat = Mat(data.draw(int_rows(e2_proj.dim, ambient)), ncols=ambient)
    e0 = e2_proj.kernel_in([_int_row(r) for r in t_mat.rows])
    assert e0 == ref_nilpotent_e0(e2_proj, t_mat)


def test_check_nilpotent_e0_is_the_maximal_part():
    """On generated nilpotent instances the report's H (x) E0 is U0, by the
    reference intersections of canonical images."""
    checked = 0
    for n in (1, 2, 3):
        ms = ModelSpace.standard(n)
        for seed in range(4):
            u = generate(Rng(seed), n, "nilpotent")
            witness = classify(ms, u).witnesses.nilpotent
            report = check_nilpotent(ms, u, witness)
            assert report.pq_part == ref_maximal_pq(u)
            checked += 1
    assert checked == 12

"""One door for elimination: only ``linalg`` runs the Bareiss loop.

Every reduced form comes from ``int_rref``, ``int_kernel`` or ``int_rank``.
``uft._graph_of`` is one ``int_rref`` with the pivots in the F prefix, and
``check_nilpotent`` reads p2(U), the h1 fiber, the h1 parts of the p2 rows
and p1(U) off one reduced form of U's rows in the adapted basis.  Each
``ref_*`` function below is a verbatim copy of the body it replaced, and
the new code must give the same value on rank-deficient inputs, generated
instances, twisted ones and ~100-bit entries.
"""

from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import to_basis
from test_model import h_basis_changes
from test_rank_certificates import big, int_rows

import pqh
import pqh.linalg
from pqh.classify import (
    NilpotentReport,
    _split_along,
    adapted_nilpotent_basis,
    check_nilpotent,
    is_real,
    kind_witnesses,
    operator_preserves,
    stabilizer,
)
from pqh.generate import generate, random_sl2
from pqh.linalg import Mat, _bareiss, _int_row, _lowest_terms, frac_row
from pqh.model import HBasisChange, ModelSpace, Operator, tensor
from pqh.rng import Rng
from pqh.subspace import (
    Subspace,
    direct_sum_is,
    h_fiber,
    image,
    maximal_pq,
    omega_kernel_in,
    product_subspace,
    signature,
)
from pqh.uft import DecomposablePiece, _graph_of, graph_form, normalize_direction
from reference import coordinates_of, from_basis, restrict_omega, twist_h_rows

# -- reference copies ---------------------------------------------------------


def ref_graph_of(rows, dim_e: int):
    M = [list(r) for r in rows]
    pivots, D, _ = _bareiss(M, dim_e)
    if len(pivots) != len(rows):
        return None
    f_space = Subspace._of([_lowest_terms(r[:dim_e], d) for r, d in zip(M, D)], pivots, dim_e)
    return f_space, Mat.from_cols([frac_row(r[dim_e:], d) for r, d in zip(M, D)], nrows=dim_e)


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


def ref_check_nilpotent(ms: ModelSpace, u: Subspace, a: Operator) -> NilpotentReport:
    """Verify the nilpotent criterion and produce the exact decomposition
    U = (H (x) E0) (+) (h1 (x) E1'') (+) real part."""
    if u.dim == 0:
        raise ValueError("nilpotent analysis needs a nonzero subspace")
    if a.q() != 0 or a.is_zero():
        raise ValueError("nilpotent check needs a nonzero witness with q = 0")
    if not operator_preserves(a, u):
        raise ValueError("witness does not stabilize the subspace")
    basis = adapted_nilpotent_basis(a)
    degree = 1 if image(a, u).is_zero() else 2
    e1_proj, e2_proj = ref_p1p2(u, basis)
    criterion = all(
        u.contains_vector(tensor(basis.h1, f)) for f in e2_proj.mat.rows
    )
    if not criterion:
        raise AssertionError("nilpotent criterion h1 (x) p2(U) <= U failed")
    e1p = h_fiber(u, basis.h1)
    if not e1p.contains(e2_proj):
        raise AssertionError("p2(U) is not inside the h1 fiber")
    ebar1 = e1p.complement_in(e1_proj) if e1_proj.contains(e1p) else None
    if ebar1 is None:
        raise AssertionError("h1 fiber is not inside p1(U)")
    # canonical T~: E2 -> Ebar1 reading the graph part of U over h2
    half = u.ambient // 2
    u_h = to_basis(basis, u.mat.rows)
    a_parts = Mat([p[:half] for p in u_h], ncols=half)
    b_parts = Mat([p[half:] for p in u_h], ncols=half)
    coeffs = [b_parts.T.solve(e2) for e2 in e2_proj.mat.rows]
    if None in coeffs:
        raise AssertionError("p2 component not reachable")
    xs = (Mat(coeffs, ncols=u.dim) @ a_parts).rows
    # push the E1' component away to land in Ebar1
    t_mat = Mat([_split_along(x, e1p, ebar1)[1] for x in xs], ncols=half)
    e0 = e2_proj.kernel_in([_int_row(r) for r in t_mat.rows])
    e2prime = e0.complement_in(e2_proj)
    base = e0.sum(e2prime)
    ext = base.complement_in(e1p)
    e1pp = e2prime.sum(ext)
    pq_part = product_subspace(e0)
    if pq_part != maximal_pq(u):
        raise AssertionError("nilpotent kernel part disagrees with the maximal part")
    piece = DecomposablePiece(normalize_direction(basis.h1), e1pp)
    e2_coords = Mat([coordinates_of(e2_proj, e2) for e2 in e2prime.mat.rows], ncols=e2_proj.dim)
    real_rows = from_basis(
        basis, [img + e2 for img, e2 in zip((e2_coords @ t_mat).rows, e2prime.mat.rows)]
    )
    real_part = Subspace.span(real_rows, u.ambient)
    if not direct_sum_is(u, [pq_part, piece.span(), real_part]):
        raise AssertionError("nilpotent decomposition does not recompose")
    if real_part.dim and not is_real(graph_form(real_part)):
        raise AssertionError("nilpotent residue is not a real subspace")
    p2_sympl = e2_proj.dim > 0 and restrict_omega(ms, e2_proj).det() != 0
    nondeg = e1p.dim > 0 and omega_kernel_in(ms, e2_proj, e1p).is_zero()
    if nondeg and signature(ms, u).s != 0:
        raise AssertionError(
            "trivial omega(p2 x fiber) kernel must force a nondegenerate metric"
        )
    return NilpotentReport(degree, pq_part, piece, real_part, p2_sympl, nondeg)


# -- the one door ---------------------------------------------------------------


def test_only_linalg_runs_the_bareiss_loop():
    src = Path(pqh.__file__).parent
    texts = {p.name: p.read_text() for p in sorted(src.glob("*.py"))}
    assert [name for name, text in texts.items() if "_bareiss" in text] == ["linalg.py"]
    assert [name for name, text in texts.items() if "_eliminate" in text] == []
    assert not hasattr(pqh.linalg, "_eliminate")


# -- uft._graph_of ----------------------------------------------------------------


@st.composite
def graph_rows(draw):
    """(rows, dim_e): rows (f | Tf) whose F parts are independent, dependent
    (rank-deficient, or more rows than dim E) or dependent only mod P30."""
    dim_e = draw(st.integers(1, 6))
    nrows = draw(st.integers(0, dim_e + 1))
    f_parts = draw(int_rows(nrows, dim_e, big))
    t_parts = draw(int_rows(nrows, dim_e, big | st.integers(-9, 9)))
    return [f + t for f, t in zip(f_parts, t_parts)], dim_e


def assert_same_graph(got, ref):
    if ref is None:
        assert got is None
        return
    (f_space, t_cols), (ref_f, ref_t) = got, ref
    assert f_space == ref_f and f_space.pivots == ref_f.pivots
    assert f_space.int_basis() == ref_f.int_basis()
    assert t_cols == ref_t.T  # the package keeps T's columns as rows


@given(graph_rows())
@settings(max_examples=150, deadline=None)
def test_graph_of_matches_reference(rows_dim):
    rows, dim_e = rows_dim
    assert_same_graph(_graph_of(rows, dim_e), ref_graph_of(rows, dim_e))


def test_graph_of_dependent_f_parts_give_none():
    # the F parts (1, 2), (2, 4) are dependent while the whole rows are not
    rows = [[1, 2, 5, 0], [2, 4, 0, 7]]
    assert _graph_of(rows, 2) is None and ref_graph_of(rows, 2) is None
    assert _graph_of([[0, 0, 1, 1]], 2) is None


# -- check_nilpotent ----------------------------------------------------------------


def nilpotent_report_pair(ms, u):
    """(new, reference) reports for U's nilpotent witness, or None."""
    witness = kind_witnesses(stabilizer(u)).nilpotent
    if witness is None:
        return None
    return check_nilpotent(ms, u, witness), ref_check_nilpotent(ms, u, witness)


def assert_same_report(got, ref):
    for f in NilpotentReport._fields:
        assert getattr(got, f) == getattr(ref, f), f


def test_check_nilpotent_matches_reference_on_generated_instances():
    checked = 0
    for kind in ("nilpotent", "decomposable"):
        for n in (1, 2, 3, 4):
            ms = ModelSpace.standard(n)
            for seed in range(6):
                u = generate(Rng(seed), n, kind)
                for v in (u, twist_h_rows(u, random_sl2(Rng(1000 + seed)))):
                    pair = nilpotent_report_pair(ms, v)
                    if pair is not None:
                        assert_same_report(*pair)
                        checked += 1
    assert checked >= 80


def test_check_nilpotent_matches_reference_when_e2prime_skips_a_row():
    # U = H (x) <e0> + h1 (x) <e1> + <h1 (x) e2 + h2 (x) e1>: p2(U) = <e0, e1>
    # and E0 = <e0>, so E2' is the second row of p2(U)'s basis, not the first
    e = [[int(i == j) for j in range(4)] for i in range(4)]
    z = [0] * 4
    u = Subspace.span([e[0] + z, z + e[0], e[1] + z, e[2] + e[1]], 8)
    ms = ModelSpace.standard(2)
    for v in (u, twist_h_rows(u, random_sl2(Rng(3)))):
        got, ref = nilpotent_report_pair(ms, v)
        assert_same_report(got, ref)
        assert (got.pq_part.dim, got.real_part.dim) == (2, 1)


@st.composite
def big_nilpotent_instances(draw):
    """A generated nilpotent or decomposable U moved by Id_H (x) P for an
    invertible P of ~100-bit integers, and perhaps by an SL(H) twist."""
    kind = draw(st.sampled_from(["nilpotent", "decomposable"]))
    n = draw(st.integers(1, 3))
    u = generate(Rng(draw(st.integers(0, 5))), n, kind)
    row = st.lists(big, min_size=2 * n, max_size=2 * n)
    p = Mat(draw(st.lists(row, min_size=2 * n, max_size=2 * n)))
    assume(p.det() != 0)
    v = Subspace(u.mat @ Mat.identity(2).kron(p))
    if draw(st.booleans()):
        v = twist_h_rows(v, draw(h_basis_changes()))
    return ModelSpace.standard(n), v


@given(big_nilpotent_instances())
@settings(max_examples=30, deadline=None)
def test_check_nilpotent_matches_reference_on_100_bit_inputs(ms_u):
    pair = nilpotent_report_pair(*ms_u)
    assert pair is not None
    assert_same_report(*pair)

"""One pivot rule for the Sylvester signature, and the direction searches
without their h1 fallbacks, against the code they replaced.

``linalg.symmetric_signature`` is one dense congruence loop: it pivots on
the first nonzero diagonal entry and, when the remaining diagonal is zero,
adds row j to row i and column j to column i before pivoting at i.
``uft.find_transversal_direction`` and ``uft.minimal_fiber_direction``
sweep h2 + t*h1 only.  Each ``ref_*`` function below is the earlier
implementation; every new path must agree with it exactly, and the
signature must also match the inertia each input was built with, for
zero diagonals, block Grams, rank-deficient inputs and 100-digit entries.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_graph_maps import bits100, entry_kinds, low_rank, small_entries
from test_graph_spectrum import any_forms, subspaces_with_lines
from conftest import cleared_rows
from reference import mat_is_symmetric, mat_rank, mat_span
from test_model import huge_entries

from pqh.generate import KINDS, generate
from pqh.linalg import F0, F1, Mat, symmetric_signature
from pqh.rng import Rng
from pqh.subspace import h_fiber
from pqh.uft import find_transversal_direction, minimal_fiber_direction

# -- the replaced code, kept as references -------------------------------------


def ref_symmetric_signature(M):
    """The old sparse-dict loop with its separate hyperbolic-pair branch."""
    if not mat_is_symmetric(M):
        raise ValueError("signature of non-symmetric matrix")
    idx = list(range(M.nrows))
    a = {(i, j): M.rows[i][j] for i in idx for j in idx if M.rows[i][j] != 0}
    pos = neg = null = 0
    while idx:
        piv = next((i for i in idx if a.get((i, i), F0) != 0), None)
        if piv is not None:
            d = a[(piv, piv)]
            if d > 0:
                pos += 1
            else:
                neg += 1
            idx.remove(piv)
            col = {k: a[(piv, k)] for k in idx if (piv, k) in a}
            for k in col:
                for l in col:
                    val = a.get((k, l), F0) - col[k] * col[l] / d
                    if val == 0:
                        a.pop((k, l), None)
                    else:
                        a[(k, l)] = val
            continue
        pair = None
        for i in idx:
            for j in idx:
                if j > i and a.get((i, j), F0) != 0:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            null += len(idx)
            break
        i, j = pair
        b = a[(i, j)]
        pos += 1
        neg += 1
        idx.remove(i)
        idx.remove(j)
        rowi = {k: a.get((i, k), F0) for k in idx}
        rowj = {k: a.get((j, k), F0) for k in idx}
        for k in idx:
            for l in idx:
                val = a.get((k, l), F0) - (rowi[k] * rowj[l] + rowj[k] * rowi[l]) / b
                if val == 0:
                    a.pop((k, l), None)
                else:
                    a[(k, l)] = val
    return (pos, null, neg)


def ref_find_transversal_direction(u):
    """The old search: h2 + t*h1 for t = 0..dim U, then h1."""
    for t in range(u.dim + 1):
        h = (Fraction(t), F1)
        if h_fiber(u, h).is_zero():
            return h
    h = (F1, F0)
    if h_fiber(u, h).is_zero():
        return h
    return None


def ref_minimal_fiber_direction(u):
    """The old sweep, with its trailing h1 check."""
    dim_e = u.ambient // 2
    best = None
    best_fiber = None
    for t in range(dim_e + u.dim + 2):
        cand = (Fraction(t), F1)
        fib = h_fiber(u, cand)
        if best_fiber is None or fib.dim < best_fiber.dim:
            best, best_fiber = cand, fib
            if fib.dim == 0:
                break
    if best_fiber.dim > 0:
        fib = h_fiber(u, (F1, F0))
        if fib.dim < best_fiber.dim:
            best, best_fiber = (F1, F0), fib
    return best, best_fiber


# -- strategies: symmetric matrices of known inertia -------------------------------


def _diag(signs, scales):
    n = len(signs)
    return Mat([[signs[i] * scales[i] if i == j else 0 for j in range(n)] for i in range(n)])


def _inertia(signs):
    return (signs.count(1), signs.count(0), signs.count(-1))


@st.composite
def invertible(draw, n, entries):
    """L U P with L, U unit triangular and P a permutation: invertible."""
    lower = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    upper = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    perm = draw(st.permutations(range(n)))
    L = Mat([[1 if i == j else lower[i * n + j] if j < i else 0 for j in range(n)] for i in range(n)])
    U = Mat([[1 if i == j else upper[i * n + j] if j > i else 0 for j in range(n)] for i in range(n)])
    P = Mat([[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)])
    return L @ U @ P


@st.composite
def congruent_diagonals(draw):
    """P^T D P with D diagonal over {-, 0, +} and P invertible."""
    entries = draw(entry_kinds)
    n = draw(st.integers(1, 6))
    signs = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n))
    scales = draw(st.lists(entries.filter(lambda x: x > 0), min_size=n, max_size=n))
    p = draw(invertible(n, entries))
    return p.T @ _diag(signs, scales) @ p, _inertia(signs)


@st.composite
def rank_deficient(draw):
    """A^T D A with A of full row rank k < n: the inertia of D plus n - k
    zeros."""
    entries = draw(entry_kinds)
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, n - 1))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=k, max_size=k))
    scales = draw(st.lists(entries.filter(lambda x: x > 0), min_size=k, max_size=k))
    a = draw(invertible(n, entries)).rows[:k]
    p, _, q = _inertia(signs)
    return Mat(a).T @ _diag(signs, scales) @ Mat(a), (p, n - k, q)


@st.composite
def zero_diagonals(draw):
    """Symmetric with an all-zero diagonal, so the pair step runs, often
    several times; some off-diagonal entries are zero too."""
    entries = draw(st.sampled_from([small_entries, bits100, st.sampled_from([-1, 0, 0, 1, 2])]))
    n = draw(st.integers(2, 7))
    vals = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    return Mat([[0 if i == j else vals[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)])


@st.composite
def block_grams(draw):
    """[[0, W], [W^T, 0]], of inertia (rank W, p + q - 2 rank W, rank W)."""
    entries = draw(entry_kinds)
    p, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    w = draw(low_rank(p, q, entries))
    top = Mat.scalar(p, 0).hstack(w)
    bottom = w.T.hstack(Mat.scalar(q, 0))
    m = Mat(top.rows + bottom.rows, top.ncols)
    r = mat_rank(w)
    return m, (r, p + q - 2 * r, r)


@st.composite
def huge_symmetric(draw):
    """Dense symmetric with 100-digit entries of distinct denominators."""
    n = draw(st.integers(1, 6))
    vals = draw(st.lists(huge_entries, min_size=n * n, max_size=n * n))
    return Mat([[vals[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)])


REF = settings(max_examples=80, deadline=None)


# -- the signature ------------------------------------------------------------------


@REF
@given(st.one_of(congruent_diagonals(), rank_deficient(), block_grams()))
def test_signature_matches_known_inertia_and_the_old_loop(case):
    m, inertia = case
    assert symmetric_signature(cleared_rows(m)) == inertia
    assert ref_symmetric_signature(m) == inertia


@REF
@given(st.one_of(zero_diagonals(), huge_symmetric()))
def test_signature_matches_the_old_loop(m):
    sig = symmetric_signature(cleared_rows(m))
    assert sig == ref_symmetric_signature(m)
    assert sum(sig) == m.nrows


@pytest.mark.parametrize(
    "rows, inertia",
    [
        # one pair step, then a zero row: the pair step must add the column
        # too, or a_ii = a_ij instead of 2 a_ij and this reads (2, 0, 1)
        (((0, 0, -1), (0, 0, 1), (-1, 1, 0)), (1, 1, 1)),
        (((0, 0, 1, -1), (0, 0, -1, 1), (1, -1, 0, 2), (-1, 1, 2, 0)), (2, 1, 1)),
        # three pair steps in a row on a hyperbolic sum
        (((0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (0, 0, 0, 2, 0, 0),
          (0, 0, 2, 0, 0, 0), (0, 0, 0, 0, 0, -1), (0, 0, 0, 0, -1, 0)), (3, 0, 3)),
        ((), (0, 0, 0)),
    ],
)
def test_signature_pair_step_examples(rows, inertia):
    m = Mat(rows, ncols=len(rows))
    assert symmetric_signature(cleared_rows(m)) == inertia == ref_symmetric_signature(m)


# -- the direction searches ----------------------------------------------------------

@pytest.mark.parametrize("kind", KINDS)
def test_direction_searches_on_every_kind_match_the_old_ones(kind):
    graphs = 0
    for n in (1, 2, 3):
        for seed in range(3):
            u = generate(Rng(seed), n, kind)
            h = find_transversal_direction(u)
            assert h == ref_find_transversal_direction(u)
            assert minimal_fiber_direction(u) == ref_minimal_fiber_direction(u)
            graphs += h is not None
    # para_quaternionic instances contain H (x) E0, so none of them is a graph
    assert (graphs == 0) == (kind == "para_quaternionic")


@st.composite
def random_subspaces(draw):
    entries = draw(entry_kinds)
    ambient = 4 * draw(st.integers(1, 3))
    return mat_span(draw(low_rank(draw(st.integers(0, ambient)), ambient, entries)))


@REF
@given(st.one_of(subspaces_with_lines(), any_forms.map(lambda f: f.span()), random_subspaces()))
def test_direction_searches_match_the_old_ones(u):
    assert find_transversal_direction(u) == ref_find_transversal_direction(u)
    assert minimal_fiber_direction(u) == ref_minimal_fiber_direction(u)

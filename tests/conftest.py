from fractions import Fraction

import pytest
from reference import twist_h_rows

from pqh.generate import random_invertible, random_sl2
from pqh.linalg import F0, F1, Mat, _int_row, _int_rows, frac_row, vec_add
from pqh.model import HBasisChange, ModelSpace, tensor
from pqh.rng import Rng
from pqh.subspace import Subspace, _pairings, product_subspace
from pqh.uft import UFTForm


@pytest.fixture
def ms1():
    return ModelSpace.standard(1)


@pytest.fixture
def ms2():
    return ModelSpace.standard(2)


@pytest.fixture
def ms3():
    return ModelSpace.standard(3)


def unit(dim, i):
    v = [Fraction(0)] * dim
    v[i] = Fraction(1)
    return tuple(v)


def graph_subspace(n, pairs):
    """Span of h1 (x) f + h2 (x) g for the given (f, g) coordinate pairs."""
    rows = [vec_add(tensor((1, 0), f), tensor((0, 1), g)) for f, g in pairs]
    return Subspace.span(rows, 4 * n)


def cleared_rows(m: Mat) -> list:
    """The integer rows of d m for the lcm d of m's denominators, the input
    ``linalg.symmetric_signature`` takes; d > 0 keeps m's inertia."""
    return _int_rows(m.rows)[0]


def pairing_values(form, rows: list, cols: list) -> Mat:
    """The matrix (w(x_i, y_j)) of a form ``(entries, den)`` on rows x_i and
    columns y_j given as ``(ints, d)``, read off the numerators of
    ``subspace._pairings``: the one at [j][i] over den * dx * dy."""
    num = _pairings(form, [V for V, _ in rows], [V for V, _ in cols])
    return Mat(
        [[Fraction(num[j][i], form[1] * dx * dy) for j, (_, dy) in enumerate(cols)] for i, (_, dx) in enumerate(rows)],
        ncols=len(cols),
    )


def to_basis(s, rows):
    """Coordinate rows rewritten in the H-basis s, as ``Fraction`` rows."""
    return [frac_row(*s.to_basis_int(*_int_row(r))) for r in rows]


# -- instance builders shared by the test modules ------------------------------------


def dense_congruence(n: int, entries) -> Mat:
    """P = L U from unit lower and unit upper triangular L, U with the given
    entries below and above the diagonal: invertible, and dense."""
    d = 2 * n
    lower = Mat([[1 if i == j else entries[i * d + j] if j < i else 0 for j in range(d)] for i in range(d)])
    upper = Mat([[1 if i == j else entries[i * d + j] if j > i else 0 for j in range(d)] for i in range(d)])
    return lower @ upper


def congruent_instance(ms: ModelSpace, u: Subspace, p: Mat):
    """(ModelSpace(n, P^T omega P), (Id_H (x) P^-1) U).

    omega'(P^-1 e, P^-1 f) = omega(e, f), and the map acts on E only, so it
    commutes with the structure: in rows, (e | e') goes to
    (e P^-T | e' P^-T)."""
    moved = ModelSpace(ms.n, p.T @ ms.omega @ p)
    pinv_t = p.inverse().T
    h = ms.dim_e
    rows = []
    for x in u.basis:
        (e,), (ep,) = (Mat((x[:h],), ncols=h) @ pinv_t).rows, (Mat((x[h:],), ncols=h) @ pinv_t).rows
        rows.append(e + ep)
    return moved, Subspace.span(rows, ms.dim_v)


def hand_built_instance(seed: int):
    """(n, U) with U = H (x) E0 (+) the graph over F of Q diag(+-1) Q^-1,
    twisted by ``random_sl2``; E = E0 (+) F is spanned by the rows of a
    random invertible P, dim E0 = 1 + below(2n - 2) and n = 2 + seed mod 3."""
    rng = Rng(seed)
    n = 2 + seed % 3
    dim_e = 2 * n
    p = random_invertible(rng, dim_e)
    k0 = 1 + rng.below(dim_e - 2)
    e0 = Subspace.span(p.rows[:k0], dim_e)
    f_sub = Subspace.span(p.rows[k0:], dim_e)
    k = f_sub.dim
    q = random_invertible(rng, k)
    signs = [F1 if rng.below(2) else -F1 for _ in range(k)]
    diag = Mat([[signs[i] if i == j else F0 for j in range(k)] for i in range(k)])
    t_local = q @ diag @ q.inverse()
    graph = UFTForm(HBasisChange.identity(), f_sub, f_sub.mat.T @ t_local).span()
    return n, twist_h_rows(product_subspace(e0).sum(graph), random_sl2(rng))


def pure_part_coordinates(part, form: UFTForm) -> Mat:
    """Row j: the h1' part p1'(b_j) of the j-th canonical row of U' in the
    adapted basis (``classify._pure_part``'s basis of F), in coordinates of
    the canonical basis of F of ``form = to_uft(U', basis)``.  With it as
    P, a form on F moves from the canonical basis to the pass's as
    P G P^T, and a map M read in the pass's basis satisfies
    P^T M = M_F P^T for its matrix M_F in the canonical basis."""
    h1_parts = [r[: form.dim_e] for r in to_basis(part.basis, part.comp.basis)]
    return Mat([form.f_space.coordinates_of(x) for x in h1_parts], ncols=form.dim)

"""Subspace taxonomy: stabilizers, kind witnesses, structure verifiers,
metric refinements, nilpotent and generic decompositions, the real test,
and a brute-force oracle that re-checks every flag from raw definitions.

Everything is scale-invariant: witnesses stay unnormalized (their q-value
is not scaled to +-1, which would need square roots), and every theorem
identity is checked in the form T^2 = -q_scale * Id with q_scale * q(A)
a rational square.

The stabilizer is a ``Subspace`` of Q^3 (:func:`stabilizer`).  Basis rows
are combined only by ``Subspace.combine_int``: the witnesses, the
first-space part of ``_split_along``, and the para-complex eigen-rows, one
:meth:`Subspace.kernel_in` cut of U' by the columns of C^T -+ rho Id.

A complex (q > 0) and a para-complex (q < 0) witness obey one structure
theorem in which only the sign of q differs, so both checks run one
shared pass over the pure part (:func:`_pure_part`), which eliminates
nothing: T = (-D/q) C^T is read off the witness on U''s canonical rows
as the integer coefficient rows C, and the para-complex eigenspaces are
kernels of C^T -+ sqrt(-q) on the same coordinates.  Each check then
adds only what is particular to its sign; a report holds U' and its
adapted basis, not the witness: the caller holds it, and with it q.

The pure part is the U' = U ^ (H (x) C) of :func:`uft.pq_split`, a
complement of U0 = H (x) E0 that every witness preserving U preserves.

The real test :func:`is_real` is a predicate of a graph form:
:func:`classify` builds ``graph_form(u)`` once for a pure U, and the real
test, :func:`check_totally_real` and the reported graph form read it.
A stabilizer witness A with 0 != AU <= U (an invertible one, or a
nilpotent one of degree 2) already refutes AU ^ U = 0, so ``classify``
runs the real test only when the stabilizer holds neither.

Every value of g or omega^E on pairs of rows is an integer numerator
(``subspace._pairings``), and no 4n x 4n matrix and no ``Fraction``
matrix of a form is built.  The verdicts are taken on the numerators:
zero tests, ranks, and equalities compared over the row denominators
(:func:`_same`).  That covers the block Gram of :func:`is_para_quaternionic`,
T^2 = -(D^2/q) Id (as C C = -q Id), the pullback metric and the omega
route of the pure part, the three Kaehler routes of
:func:`check_complex`, the cross-eigenspace rank of
:func:`check_para_complex`, the omega conditions, the skewness of T and
the metric identity of :func:`check_totally_real`, the ``p2_symplectic``
rank of :func:`check_nilpotent` and the binary form q of
:func:`kind_witnesses`.

The oracle pairs U's integer rows (``Subspace.int_basis``) for its
pairwise Gram and passes the numerators to
``linalg.symmetric_signature``, with no read of the signature memo; it
pairs J^ of those rows with them for ``totally-complex-gram``, a zero
test on the numerators with no image J^U.
It checks a witness's square identity on its 2x2 matrix: (A (x) Id_E)^2
+ q Id_V is (A^2 + q Id_H) (x) Id_E, which vanishes exactly when
A^2 + q Id_H does.
Its samples are integer draws (``Rng.rational_int``, the draws of
``Rng.rational`` left as num / den), cleared to positive multiples of the
rational values, and an ``Operator`` is built only for a finding's
detail, from the same values as a rational draw.
For its two sampled searches, ``real-no-sampled-violation`` and
``pure-complex-moves-off``, it tabulates once, per basis row b of U, the
residues r_I, r_J, r_K of Ib, Jb, Kb modulo U, and both searches read
that table.  Reduction modulo a reduced basis is linear, so the residue of
Bb for a sample B = a I + b J + c K is a r_I + b r_J + c r_K, and no
sample reduces a row: the real search tests Bx in U for x = sum c_i b_i
as one integer sum of table entries per column.
For ``hermitian-norm-invariance`` it pairs each sampled (x, y) once,
into the 2x2 integer table P_kl = omega^E(x_k, y_l) of their H-halves
(:func:`_h_table`); for each s in SL(H) (``generate.random_sl2_draws``)
g(s^-1 x, A s^-1 y) is (M P N^T)_12 - (M P N^T)_21 with M = adj(s)
cleared from the draws and N = A M (:func:`_twisted_products`), so no
row is moved and no :class:`~pqh.model.HBasisChange` is built.
``uft-round-trip`` checks the reported graph form by containment: the
rows h1 (x) f_j + h2 (x) T f_j over F's canonical basis, T f_j read off
column j of ``t_map``, are independent, so they span U exactly when
dim F = dim U and each lies in U.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple

from .generate import random_sl2_draws
from .linalg import F0, F1, Mat, _int_matmul, _int_row, _int_rows, _lowest_terms, frac_row
from .linalg import int_kernel, int_rank, int_rref, rank_mod, symmetric_signature
from .model import (
    OP_I,
    OP_J,
    OP_K,
    HBasisChange,
    ModelSpace,
    Operator,
    _h_act_int,
    _pairing,
    _structure_matrix,
    tensor,
)
from .polyq import is_rational_square, poly_deg
from .rng import Rng
from .subspace import (
    SignatureTriple,
    Subspace,
    _pairings,
    decomposable_subspace,
    direct_sum_is,
    h_fiber,
    image,
    image_orthogonal,
    is_orthogonal,
    maximal_pq,
    omega_kernel_in,
    p1,
    product_subspace,
    signature,
    span_of,
)
from .uft import (
    DecomposablePiece,
    UFTForm,
    _graph_row,
    graph_form,
    graph_over,
    injectivize,
    invariant_core,
    line_direction,
    minimal_fiber_direction,
    normalize_direction,
    pq_split,
    subspace_spectrum,
)


# -- the stabilizer and its quadratic form ----------------------------------


# q(A) = alpha^2 - beta^2 - gamma^2 on (alpha, beta, gamma), by the nonzero
# entries of its polar form, as ``subspace._pairings`` takes a form
_Q_FORM = (((0, 0, 1), (1, 1, -1), (2, 2, -1)), 1)


def stabilizer(u: Subspace) -> Subspace:
    """{A in the structure algebra : AU <= U} in (alpha, beta, gamma)
    coordinates, as a subspace of Q^3: one
    :func:`~pqh.linalg.int_kernel` of the integer constraint rows."""
    rows = []
    for xs, dx in u.int_basis():
        # the residues of I x, J x, K x over one denominator; scaling a
        # constraint row, or dropping a zero one, leaves the kernel alone
        parts = [u.reduce_int(*op.act_int(xs, dx)) for op in (OP_I, OP_J, OP_K)]
        d = lcm(*(e for _, e in parts))
        ri, rj, rk = ([x * (d // e) for x in v] for v, e in parts)
        rows.extend(filter(any, zip(ri, rj, rk)))
    return Subspace._of(*int_kernel(rows, 3), 3)


class KindWitnesses(NamedTuple):
    """One unnormalized operator per kind present in q restricted to the
    stabilizer: q > 0 complex, q < 0 para-complex, q = 0 (nonzero) nilpotent."""

    complex: Operator | None
    para_complex: Operator | None
    nilpotent: Operator | None


def _positive_point(a, b, c):
    """A rational (s, t) with a s^2 + 2 b s t + c t^2 > 0, or None."""
    if a > 0:
        return (F1, F0)
    if c > 0:
        return (F0, F1)
    disc = b * b - a * c
    if disc <= 0:
        return None
    if a != 0:
        return (-b / a, F1)  # vertex value disc / (-a) > 0
    # a = 0, c <= 0, b != 0: value at (s, 1) is 2 b s + c
    return ((1 - c) / (2 * b), F1)


def _isotropic_point(a, b, c):
    """A nonzero rational zero of the binary form, or None."""
    if a == 0:
        return (F1, F0)
    disc = b * b - a * c
    root = is_rational_square(disc)
    if root is None:
        return None
    return ((-b + root) / a, F1)


def kind_witnesses(stab: Subspace) -> KindWitnesses:
    """The witnesses of the stabilizer ``stab`` (a subspace of Q^3).

    q on its basis rows b_i = B_i / d_i is N_ij / (d_i d_j) for the pairing
    numerators N of their integer rows, and a witness is the combination
    (:meth:`Subspace.combine_int`) of the rows at a point of that binary
    form with the wanted sign; the rows are independent, so a nonzero
    point gives a nonzero witness."""
    if stab.dim == 0:
        return KindWitnesses(None, None, None)
    if stab.dim == 3:
        return KindWitnesses(Operator(1, 0, 0), Operator(0, 0, 1), Operator(1, 1, 0))
    basis = stab.int_basis()
    num = _pairings(_Q_FORM, [B for B, _ in basis], [B for B, _ in basis])
    ds = [d for _, d in basis]
    if stab.dim == 1:
        a = Fraction(num[0][0], ds[0] * ds[0])
        points = [(F1,) if ok else None for ok in (a > 0, a < 0, a == 0)]
    else:
        a, b, c = (Fraction(num[i][j], ds[i] * ds[j]) for i, j in ((0, 0), (0, 1), (1, 1)))
        points = [_positive_point(a, b, c), _positive_point(-a, -b, -c), _isotropic_point(a, b, c)]
    return KindWitnesses(
        *(pt and Operator(*frac_row(*stab.combine_int(*_int_row(pt)))) for pt in points)
    )


def operator_preserves(a: Operator, u: Subspace) -> bool:
    return all(u.contains_int(*a.act_int(xs, dx)) for xs, dx in u.int_basis())


# -- adapted bases -----------------------------------------------------------


def adapted_basis(a: Operator):
    """A symplectic basis (h1', h2' = A h1' / D) adapted to a nonzero witness.

    Returns (basis, D) with D = det[h1', A h1'] != 0; in this basis the
    witness acts as [[0, -q/D], [D, 0]] on H.
    """
    if a.is_zero():
        raise ValueError("adapted basis needs a nonzero operator")
    m0, m1, m2, m3 = a._m
    for h1 in ((F1, F0), (F0, F1), (F1, F1)):
        mh = (m0 * h1[0] + m1 * h1[1], m2 * h1[0] + m3 * h1[1])
        d = h1[0] * mh[1] - h1[1] * mh[0]
        if d != 0:
            basis = HBasisChange.from_columns(h1, (mh[0] / d, mh[1] / d))
            return basis, d
    raise AssertionError("no cyclic vector found for a nonzero operator")


def adapted_nilpotent_basis(a: Operator) -> HBasisChange:
    """A symplectic basis whose first vector spans ker A (A nilpotent)."""
    if a.q() != 0 or a.is_zero():
        raise ValueError("adapted nilpotent basis needs a nonzero null witness")
    return _direction_completion(a.mat2().kernel().rows[0])


def operator_in_basis(basis: HBasisChange, alpha, beta, gamma) -> Operator:
    """The operator with the given coordinates relative to the admissible
    triple attached to `basis`, expressed in standard coordinates."""
    # the matrix of alpha I + beta J + gamma K is (-gamma, beta - alpha; alpha + beta, gamma)
    return basis.conjugate(-gamma, beta - alpha, alpha + beta)


# -- para-quaternionic test --------------------------------------------------


class PQReport(NamedTuple):
    """U = H (x) E' for E' = p1(U), and then whether omega^E is nondegenerate on E'."""

    is_pq: bool
    hermitian: bool
    gram_block_ok: bool


def is_para_quaternionic(ms: ModelSpace, u: Subspace) -> PQReport:
    """U = H (x) E' test, with the Hermitian sub-flag and the exact block
    Gram identity for the split U = h1 (x) E' + h2 (x) E'."""
    e_prime = p1(u)
    pq = product_subspace(e_prime)
    is_pq = u == pq
    hermitian = False
    gram_ok = True
    if is_pq:
        # numerators over omega's denominator and d_i d_j: w = -omega^E on
        # the basis of E' (``_pairings`` transposes), and g on the rows
        # (e, 0), then (0, e), over it, which carry the same d_i; so g is
        # omega^H (x) omega^E exactly when its numerators are (0, -w; w, 0)
        ints = [V for V, _ in e_prime.int_basis()]
        w = _pairings(ms._omega_form, ints, ints)
        hermitian = _full_rank(w, len(w))
        split = [V for V, _ in pq.int_basis()]
        blocks = [[0] * len(w) + [-x for x in r] for r in w] + [r + [0] * len(w) for r in w]
        gram_ok = _pairings(ms._metric_form, split, split) == blocks
    return PQReport(is_pq, hermitian, gram_ok)


# -- complex and para-complex witnesses ----------------------------------------


class _PurePart(NamedTuple):
    """The structure-theorem pass that a complex (q > 0) and a para-complex
    (q < 0) witness share; only the sign of q tells them apart.

    On U''s canonical rows b_i, with pivots p_i, A b_i = sum_j c_ij b_j for
    c_ij = (A b_i)[p_j].  A acts as [[0, -q/D], [D, 0]] in the adapted basis,
    so p2'(b_i) = (-D/q) sum_j c_ij p1'(b_j): U' is the graph of T, with
    matrix (-D/q) C^T on the basis f_j = p1'(b_j) of F.  With ``scale`` =
    D^2 / q, T^2 = -scale Id, and T is omega-conformal (omega(T., T.) =
    scale omega) exactly when U is orthogonal to its images under the
    partner (0, q/D^2; 1, 0) and K^ = diag(1, -1) of the adapted basis.

    Every identity is checked on integers, each matrix held as its
    numerators over one denominator (the form's common denominator, shared
    by all pairings, left out): ``rows`` are the b_i over one denominator
    L, ``moved`` the A b_i as ``Operator.act_int`` gives them (read again
    by :func:`check_complex`), ``c`` is C, ``g`` the pairings g(b_i, b_j)
    and ``w`` the pairings omega(f_j, f_i) and omega(T f_j, T f_i)
    (transposed, as ``subspace._pairings`` gives them).
    :func:`check_para_complex` reads T's trace and eigenspaces off ``c``
    as well.
    """

    scale: Fraction
    basis: HBasisChange
    d_val: Fraction
    comp: Subspace
    rows: list | None = None
    moved: list | None = None
    c: tuple | None = None
    g: tuple | None = None
    w: tuple | None = None
    sig: SignatureTriple = SignatureTriple(0, 0, 0)
    omega_route: bool = False
    gram_partner: bool = False
    totally: bool = False  # Hermitian, pure and omega-conformal


def _same(a: list, da: int, b: list, db: int) -> bool:
    """Whether the integer matrices a / da and b / db are equal."""
    return all(x * db == y * da for r, t in zip(a, b) for x, y in zip(r, t))


def _full_rank(rows: list, k: int) -> bool:
    """Whether k integer rows of length k are independent: ``rank_mod`` proves
    it, and ``int_rank`` decides what it leaves open."""
    return rank_mod(rows, k) == k or int_rank(rows, k) == k


def _one_denominator(rows: list) -> tuple:
    """``(ints, d)`` rows as integer rows over their one lcm L, and L."""
    ell = lcm(*(d for _, d in rows))
    return [[x * (ell // d) for x in V] for V, d in rows], ell


def _pure_part(ms: ModelSpace, u: Subspace, a: Operator) -> _PurePart:
    """The pass for an invertible witness A of U, on U' of :func:`pq_split`:
    U = U0 (+) U' as U contains H (x) E0, and A preserves H (x) C."""
    qa = a.q()
    kind = "complex" if qa > 0 else "para-complex"
    u0, _e0, comp = pq_split(u)
    basis, d_val = adapted_basis(a)
    scale = d_val * d_val / qa
    if comp.dim == 0:
        return _PurePart(scale, basis, d_val, comp)
    k, half = comp.dim, comp.ambient // 2
    ints, ell = _one_denominator(comp.int_basis())  # U''s rows over one denominator
    rows = [(V, ell) for V in ints]
    moved = [a.act_int(*b) for b in rows]
    c_num = [[W[p] for p in comp.pivots] for W, _ in moved]
    c_den = moved[0][1]  # b_j has 1 at p_j and 0 at every other pivot
    # sum_j c_ij b_j is A b_i exactly when A b_i lies in U', and A, which
    # preserves U0, preserves U = U0 (+) U' exactly when it preserves U'
    if any(comp.combine_int(c, c_den) != _lowest_terms(*m) for c, m in zip(c_num, moved)):
        raise ValueError("witness does not stabilize the subspace")
    # the row identity D p1'(A b_i) + q p2'(b_i) = 0, over the integers
    adapted = [basis.to_basis_int(*b) for b in rows]
    s, t = d_val.numerator * qa.denominator, qa.numerator * d_val.denominator
    for (V, e), (W, f) in zip(adapted, (basis.to_basis_int(*m) for m in moved)):
        if any(s * e * x + t * f * y for x, y in zip(W[:half], V[half:])):
            raise AssertionError(f"the pure part is not the graph of T for a {kind} witness")
    # T^2 = -(D^2/q) Id is C C = -q Id, as T is (-D/q) C^T
    ident = [[-qa.numerator * (i == j) for j in range(k)] for i in range(k)]
    if not _same(_int_matmul(c_num, list(zip(*c_num))), c_den * c_den, ident, qa.denominator):
        raise AssertionError(f"{kind} structure identity T^2 = -(D^2/q) Id failed")
    xs = [V[:half] for V, _ in adapted]  # p1'(b_i), a basis of F
    ys = [V[half:] for V, _ in adapted]  # p2'(b_i) = T p1'(b_i)
    w_den = adapted[0][1] ** 2
    g_num = _pairings(ms._metric_form, [B for B, _ in rows], [B for B, _ in rows])
    # the pullback metric -(omega(T f_i, f_j) + omega(T f_j, f_i)) is g_F
    r = _pairings(ms._omega_form, xs, ys)  # omega(f_i, T f_j) at [j][i]
    if not _same([[x + y for x, y in zip(*p)] for p in zip(r, zip(*r))], w_den, g_num, ell * ell):
        raise AssertionError("pullback metric disagrees with the metric on the pure part")
    sig = signature(ms, comp)
    w_f, w_t = _pairings(ms._omega_form, xs, xs), _pairings(ms._omega_form, ys, ys)
    omega_route = _same(w_t, scale.numerator, w_f, scale.denominator) and _full_rank(w_f, k)
    partner = basis.conjugate(F0, 1 / scale, F1)
    k_hat = basis.conjugate(F1, F0, F0)
    gram_partner = image_orthogonal(ms, partner, u)
    gram_k = image_orthogonal(ms, k_hat, u)
    hermitian_full = signature(ms, u).s == 0
    if u0.is_zero() and hermitian_full and not (omega_route == gram_partner == gram_k):
        raise AssertionError(f"totally-{kind} routes disagree")
    totally = hermitian_full and u0.is_zero() and omega_route
    return _PurePart(
        scale, basis, d_val, comp, rows, moved, (c_num, c_den), (g_num, ell * ell),
        (w_f, w_t, w_den), sig, omega_route, gram_partner, totally,
    )


class ComplexReport(NamedTuple):
    scale: Fraction  # T^2 = -scale * Id with scale * q(A) a rational square
    basis: HBasisChange
    pure_part: Subspace  # U'
    hermitian_pure: bool
    signature_pure: SignatureTriple
    omega_preserved: bool
    gram_orthogonal: bool
    totally_complex: bool


def check_complex(ms: ModelSpace, u: Subspace, a: Operator) -> ComplexReport:
    """Verify the structure theorem for a complex-type witness.

    On top of the shared pure-part pass (:func:`_pure_part`): the signature
    has type (2p, 2s, 2q), and the scaled Kaehler identity agrees along
    three routes, on integer numerators: g(A b_i, b_j), -(g_F T)(q/D) =
    -g_F C^T and -(D omega + (q/D) omega(T., T.)) on F.
    """
    qa = a.q()
    if qa <= 0:
        raise ValueError("complex check needs a witness with positive q")
    pp = _pure_part(ms, u, a)
    if pp.comp.dim:
        if any(x % 2 for x in pp.sig.as_tuple()):
            raise AssertionError("complex signature is not of type (2p, 2s, 2q)")
        # g(A b_i, b_j) on the rows of U', which are the graph vectors
        k_amb = _pairings(ms._metric_form, [B for B, _ in pp.rows], [W for W, _ in pp.moved])
        d_amb = pp.moved[0][1] * pp.rows[0][1]
        (g_num, g_den), (c_num, c_den), (w_f, w_t, w_den) = pp.g, pp.c, pp.w
        k_gf = [[-x for x in r] for r in _int_matmul(g_num, c_num)]
        # over D = dn / dd and q = qn / qd, and transposed as w is
        (dn, dd), (qn, qd) = pp.d_val.as_integer_ratio(), qa.as_integer_ratio()
        k_form = [[dn * dn * qd * x + qn * dd * dd * y for x, y in zip(*p)] for p in zip(w_f, w_t)]
        if not (
            _same(k_amb, d_amb, k_gf, g_den * c_den)
            and _same(k_amb, d_amb, k_form, dn * dd * qd * w_den)
        ):
            raise AssertionError("Kaehler identity routes disagree")
    return ComplexReport(
        pp.scale, pp.basis, pp.comp, pp.sig.s == 0, pp.sig,
        pp.omega_route, pp.gram_partner, pp.totally,
    )


class ParaComplexReport(NamedTuple):
    scale: Fraction  # T^2 = +scale * Id
    basis: HBasisChange
    pure_part: Subspace  # U'
    d_plus: int
    d_minus: int
    strictly_para_complex: bool
    hermitian_pure: bool
    signature_pure: SignatureTriple
    m_value: int
    eigen_presentation: tuple | None
    witness_family: tuple | None
    omega_skew_invariant: bool
    gram_orthogonal: bool
    totally_para_complex: bool


def check_para_complex(ms: ModelSpace, u: Subspace, a: Operator) -> ParaComplexReport:
    """Verify the weakly para-complex structure theorem for a witness with
    q(A) < 0.  On top of the shared pure-part pass (:func:`_pure_part`):
    eigenspace dimensions by the exact trace test, the neutral signature
    claim, and the eigenspace presentation and witness family when |q| is
    a square."""
    qa = a.q()
    if qa >= 0:
        raise ValueError("para-complex check needs a witness with negative q")
    pp = _pure_part(ms, u, a)
    nu = -pp.scale
    comp, d_val, sig = pp.comp, pp.d_val, pp.sig
    if comp.dim == 0:
        return ParaComplexReport(
            nu, pp.basis, comp, 0, 0, True, True, sig, 0, None, None,
            False, False, False,
        )
    # T = (-D/q) C^T = (-scale/D) C^T on the basis p1'(b_j) of F
    k, (c_num, c_den) = comp.dim, pp.c
    tr = -pp.scale / d_val * Fraction(sum(c_num[i][i] for i in range(k)), c_den)
    if tr == 0:
        if k % 2:
            raise AssertionError("traceless para-complex part of odd dimension")
        d_plus = d_minus = k // 2
    else:
        ratio = is_rational_square(tr * tr / nu)
        if ratio is None or ratio.denominator != 1:
            raise AssertionError("trace test failed to give an integer split")
        # tr(T) = lam_plus (d+ - d-) with lam_plus = D / sqrt(|q|), so the
        # split is signed by tr relative to the sign of D
        r_signed = int(ratio) if (tr > 0) == (d_val > 0) else -int(ratio)
        if (k + r_signed) % 2:
            raise AssertionError("trace split has wrong parity")
        d_plus = (k + r_signed) // 2
        d_minus = (k - r_signed) // 2
    strict = d_plus == d_minus
    if sig.p != sig.q:
        raise AssertionError("para-complex signature is not of type (m, k-2m, m)")
    hermitian_pure = sig.s == 0
    if not strict and hermitian_pure:
        raise AssertionError("weakly-not-para-complex part must be degenerate")
    if hermitian_pure and sig.as_tuple() != (k // 2, 0, k // 2):
        raise AssertionError("Hermitian para-complex part must be neutral")
    # eigenspace data over Q when rho = sqrt(|q|) is rational
    rho = is_rational_square(-qa)
    eigen_pres = None
    family = None
    if rho is not None:
        lam_plus = d_val / rho
        # T -+ lam_plus Id = (-D/q) (C^T -+ rho Id), as lam_plus / (-D/q) =
        # -q / rho = rho; column i of C^T -+ rho Id is row i of C -+ rho e_i,
        # times c_den and rho's denominator.  T x = lam x on the coordinates
        # x of v = sum_j x_j b_j makes v = (h1' + lam h2') (x) p1'(v)
        rn, rd = rho.numerator, rho.denominator
        shifts = [
            [[rd * x - s * (i == j) for j, x in enumerate(r)] for i, r in enumerate(c_num)]
            for s in (rn * c_den, -rn * c_den)
        ]
        vs1, vs2 = eigen = [comp.kernel_in([(r, 1) for r in rows]).int_basis() for rows in shifts]
        half = comp.ambient // 2
        lift1, lift2 = (
            Subspace._echelon([pp.basis.to_basis_int(*v)[0][:half] for v in vs], half) for vs in eigen
        )
        # d+ + d- = k, so matching dimensions are the recomposition U' = the
        # two eigenspaces, which are independent for distinct eigenvalues
        if lift1.dim != d_plus or lift2.dim != d_minus:
            raise AssertionError("rational eigenspace dimensions disagree with trace test")
        dir1, dir2 = line_direction(pp.basis, lam_plus), line_direction(pp.basis, -lam_plus)
        eigen_pres = (dir1, lift1, dir2, lift2)
        # cross-check m as the rank of the Gram pairing between eigenspaces,
        # whatever their bases (0 when one of them is empty)
        cross = _pairings(ms._metric_form, [V for V, _ in vs1], [V for V, _ in vs2])
        if int_rank(cross, len(vs1)) != sig.p:
            raise AssertionError("cross-eigenspace rank disagrees with signature")
        # the witness family a I + a J +- K when the pure part sits in one
        # eigenspace: T = lam Id is C^T = +-rho Id, a zero shifted matrix
        for lam, rows in zip((lam_plus, -lam_plus), shifts):
            if not any(map(any, rows)):
                n_op = pp.basis.conjugate(F1, qa * lam / (d_val * d_val), lam)
                if not all(operator_preserves(a + n_op.scale(t), comp) for t in (0, 1, 2)):
                    raise AssertionError("witness family member fails invariance")
                family = (a, n_op)
                break
    return ParaComplexReport(
        nu, pp.basis, comp, d_plus, d_minus, strict, hermitian_pure, sig,
        sig.p, eigen_pres, family, pp.omega_route, pp.gram_partner,
        pp.totally and strict,
    )


# -- nilpotent witnesses -------------------------------------------------------


class NilpotentReport(NamedTuple):
    """The decomposition of U for the caller's witness A; h1 spans ker A."""

    degree: int
    pq_part: Subspace
    decomposable_piece: DecomposablePiece
    real_part: Subspace
    p2_symplectic: bool
    # the asymmetric kernel of omega(p2(U) x fiber(h1)) inside the fiber
    # is trivial; this (not p2 symplectic alone) forces nondegeneracy
    nondegenerate_guaranteed: bool


def _split_along(x, first: Subspace, second: Subspace):
    """Decompose x along a direct sum first (+) second."""
    cols = [tuple(r) for r in first.mat.rows] + [tuple(r) for r in second.mat.rows]
    coeffs = Mat.from_cols(cols, nrows=len(x)).solve(x)
    if coeffs is None:
        raise ValueError("vector is outside the direct sum")
    fpart = frac_row(*first.combine_int(*_int_row(coeffs[: first.dim])))
    return fpart, tuple(a - b for a, b in zip(x, fpart))


def check_nilpotent(ms: ModelSpace, u: Subspace, a: Operator) -> NilpotentReport:
    """Verify the nilpotent criterion and produce the exact decomposition
    U = (H (x) E0) (+) (h1 (x) E1'') (+) real part.

    Everything is read off one reduced form: U's rows in the adapted basis,
    h2 part first, by one :func:`~pqh.linalg.int_rref`.  The rows with a
    pivot in the h2 part have h2 parts forming the canonical basis of p2(U)
    and h1 parts x with h1 (x) x + h2 (x) e2 in U for each basis row e2;
    the other rows are h1 (x) E1' for the h1 fiber
    E1' = {e : h1 (x) e in U}, and their h1 parts are its canonical basis.
    p1(U) is the span of all h1 parts.
    """
    if u.dim == 0:
        raise ValueError("nilpotent analysis needs a nonzero subspace")
    if a.q() != 0 or a.is_zero():
        raise ValueError("nilpotent check needs a nonzero witness with q = 0")
    if not operator_preserves(a, u):
        raise ValueError("witness does not stabilize the subspace")
    basis = adapted_nilpotent_basis(a)
    degree = 2 if any(any(a.act_int(V, D)[0]) for V, D in u.int_basis()) else 1
    half = u.ambient // 2
    comps = [basis.to_basis_int(V, D)[0] for V, D in u.int_basis()]
    rows, pivots = int_rref([V[half:] + V[:half] for V in comps], u.ambient)
    k = sum(p < half for p in pivots)
    e2_proj = Subspace._of([_lowest_terms(V[:half], d) for V, d in rows[:k]], pivots[:k], half)
    e1p = Subspace._of(
        [_lowest_terms(V[half:], d) for V, d in rows[k:]], [p - half for p in pivots[k:]], half
    )
    e1_proj = Subspace._echelon([V[half:] for V, _ in rows], half)
    if not all(u.contains_vector(tensor(basis.h1, f)) for f in e2_proj.mat.rows):
        raise AssertionError("nilpotent criterion h1 (x) p2(U) <= U failed")
    if not e1p.contains(e2_proj):
        raise AssertionError("p2(U) is not inside the h1 fiber")
    ebar1 = e1p.complement_in(e1_proj) if e1_proj.contains(e1p) else None
    if ebar1 is None:
        raise AssertionError("h1 fiber is not inside p1(U)")
    # canonical T~: E2 -> Ebar1, the Ebar1 component of x, which is fixed
    # since x is fixed modulo E1'
    xs = [frac_row(V[half:], d) for V, d in rows[:k]]
    t_rows = [_int_row(_split_along(x, e1p, ebar1)[1]) for x in xs]
    e0 = e2_proj.kernel_in(t_rows)
    e2prime = e0.complement_in(e2_proj)
    ext = e2_proj.complement_in(e1p)
    e1pp = e2prime.sum(ext)
    pq_part = product_subspace(e0)
    if pq_part != maximal_pq(u):
        raise AssertionError("nilpotent kernel part disagrees with the maximal part")
    piece = DecomposablePiece(normalize_direction(basis.h1), e1pp)
    # the rows of E2' are rows of p2(U)'s basis, so T~ on them is a selection
    sel = [e2_proj.pivots.index(p) for p in e2prime.pivots]
    e2s = e2_proj.int_basis()
    real_part = Subspace._echelon([_graph_row(basis, t_rows[i], e2s[i])[0] for i in sel], u.ambient)
    if not direct_sum_is(u, [pq_part, piece.span(), real_part]):
        raise AssertionError("nilpotent decomposition does not recompose")
    if real_part.dim and not is_real(graph_form(real_part)):
        raise AssertionError("nilpotent residue is not a real subspace")
    e2_num = [V for V, _ in e2s]
    p2_sympl = e2_proj.dim > 0 and _full_rank(_pairings(ms._omega_form, e2_num, e2_num), len(e2_num))
    nondeg = e1p.dim > 0 and omega_kernel_in(ms, e2_proj, e1p).is_zero()
    if nondeg and signature(ms, u).s != 0:
        raise AssertionError(
            "trivial omega(p2 x fiber) kernel must force a nondegenerate metric"
        )
    return NilpotentReport(degree, pq_part, piece, real_part, p2_sympl, nondeg)


# -- real and totally real -----------------------------------------------------


def is_real(form: UFTForm | None) -> bool:
    """Whether U with ``form = graph_form(u)`` is real: AU ^ U = 0 for every
    structure operator A exactly when U is a graph whose invariant core W*
    is zero.  None means U has no graph form (U0 != 0, or decomposable
    vectors in every direction), so U is not real.

    :func:`classify` calls it only when the stabilizer holds no witness
    that refutes realness by itself: a complex or para-complex witness A
    is invertible, so AU = U, and a nilpotent one of degree 2 has
    0 != AU <= U.  ``check_nilpotent`` still tests its residue with it."""
    return form is not None and invariant_core(injectivize(form))[0].is_zero()


class TotallyRealReport(NamedTuple):
    totally_real: bool
    omega_e1_zero: bool
    omega_e2_zero: bool
    t_omega_skew: bool
    gram_routes: tuple


def check_totally_real(ms: ModelSpace, u: Subspace, form: UFTForm) -> TotallyRealReport:
    """For a real nondegenerate U with graph form ``form``: the omega
    conditions on E1 = p1(U), E2 = TE1 and the skewness of T,
    cross-validated against the direct Gram tests IU _|_ U, JU _|_ U, KU _|_ U.

    The caller has proved ``is_real(form)`` (:func:`classify` calls this
    only after it); it is not tested again here."""
    if signature(ms, u).s != 0:
        raise ValueError("totally-real check needs a nondegenerate subspace")
    e1 = form.f_space
    e2 = form.t_image()
    # on integer numerators, the basis f_i of E1 over one denominator and
    # the T f_j, which span E2, over another: omega on E1 and on E2, and
    # omega(f_i, T f_j) at [j][i]
    fs, f_den = _one_denominator(e1.int_basis())
    ts, t_den = _int_rows(form.t_map.cols)
    o1 = not any(map(any, _pairings(ms._omega_form, fs, fs)))
    o2 = not any(map(any, _pairings(ms._omega_form, ts, ts)))
    c = _pairings(ms._omega_form, fs, ts)
    skew = c == [list(r) for r in zip(*c)]  # omega(e, Te') = -omega(Te, e') for all pairs
    routes = tuple(image_orthogonal(ms, op, u) for op in (OP_I, OP_J, OP_K))
    conditions = o1 and o2 and skew
    if conditions != all(routes):
        raise AssertionError("totally-real routes disagree")
    if conditions:
        if not e1.intersect(e2).is_zero():
            raise AssertionError("totally real forces E1 ^ E2 = 0")
        vs, v_den = _one_denominator(form.graph_rows())
        gm = _pairings(ms._metric_form, vs, vs)
        if not _same(gm, v_den * v_den, [[2 * x for x in r] for r in c], f_den * t_den):
            raise AssertionError("totally-real metric identity 2 omega(e, Te') failed")
        if u.dim > ms.n:
            raise AssertionError("totally real exceeds the quarter-dimension bound")
    return TotallyRealReport(conditions, o1, o2, skew, routes)


# -- generic decomposition -----------------------------------------------------


class Addend(NamedTuple):
    """One building block of the generic decomposition.

    kind is "complex", "weakly_para_complex" or "irreducible_block"; the
    last one covers degree >= 3 factors whose eigen-structure is not
    rational and cannot be split inside Q (the annihilating factor is
    attached instead of a witness).
    """

    kind: str
    space: Subspace
    witness: Operator | None
    poly: tuple | None


class GenericDecomposition(NamedTuple):
    u0: Subspace
    addends: tuple
    real_addend: Subspace

    def parts(self):
        out = []
        if self.u0.dim:
            out.append(self.u0)
        out.extend(a.space for a in self.addends)
        if self.real_addend.dim:
            out.append(self.real_addend)
        return out


def _direction_completion(k) -> HBasisChange:
    a, b = Fraction(k[0]), Fraction(k[1])
    if a != 0:
        w = (F0, 1 / a)
    else:
        w = (-1 / b, F0)
    return HBasisChange.from_columns((a, b), w)


def _decompose_pure(u_pure: Subspace):
    """Pure-part decomposition: factor kernels of the core minimal
    polynomial become invariant addends; the residue is certified real or
    recursively decomposed.

    A pure subspace that is not a graph (every direction carries
    decomposable vectors) first sheds a minimal-fiber decomposable piece,
    which is itself a pure weakly para-complex addend."""
    if u_pure.dim == 0:  # the usual last residue; skips the graph search
        return [], Subspace.zero(u_pure.ambient)
    spectrum = subspace_spectrum(u_pure)
    if spectrum is None:
        hmin, fib = minimal_fiber_direction(u_pure)
        piece = decomposable_subspace(hmin, fib)
        witness = operator_in_basis(
            _direction_completion(normalize_direction(hmin)), 0, 0, 1
        )
        if not operator_preserves(witness, piece):
            raise AssertionError("decomposable piece witness fails invariance")
        addend = Addend("weakly_para_complex", piece, witness, None)
        rest = piece.complement_in(u_pure)
        sub_addends, sub_real = _decompose_pure(rest)
        return [addend] + sub_addends, sub_real
    _graph, form, parts = spectrum
    if not parts:
        return [], u_pure
    addends = []
    kernels = []
    for poly, ker in parts:
        kernels.append(ker)
        graph = graph_over(u_pure, form.h_basis, ker)
        deg = poly_deg(poly)
        if deg == 1:
            direction = line_direction(form.h_basis, -poly[0])
            witness = operator_in_basis(_direction_completion(direction), 0, 0, 1)
            kind = "weakly_para_complex"
        elif deg == 2:
            c0, c1 = poly[0], poly[1]
            witness = operator_in_basis(form.h_basis, 1 + c0, c0 - 1, c1)
            disc = c1 * c1 - 4 * c0
            kind = "complex" if disc < 0 else "weakly_para_complex"
        else:
            witness = None
            kind = "irreducible_block"
        if witness is not None and not operator_preserves(witness, graph):
            raise AssertionError("constructed addend witness fails invariance")
        addends.append(Addend(kind, graph, witness, tuple(poly)))
    residual_f = span_of(kernels, form.dim_e).complement_in(form.f_space)
    # the residue is a graph subspace: an empty spectrum returns it as real
    sub_addends, sub_real = _decompose_pure(graph_over(u_pure, form.h_basis, residual_f))
    return addends + sub_addends, sub_real


def generic_decompose(u: Subspace) -> GenericDecomposition:
    """U = U0 (+) pure complex (+) pure weakly para-complex (+) real,
    with recomposition verified exactly."""
    u0, _e0, u_prime = pq_split(u)
    addends, real_sub = _decompose_pure(u_prime)
    decomp = GenericDecomposition(u0, tuple(addends), real_sub)
    if not direct_sum_is(u, decomp.parts()):
        raise AssertionError("generic decomposition does not recompose")
    return decomp


# -- full classification --------------------------------------------------------


class Flags(NamedTuple):
    para_quaternionic: bool
    pure: bool
    complex: bool
    weakly_para_complex: bool
    para_complex: bool
    nilpotent: bool
    real: bool
    hermitian: bool
    totally_complex: bool
    totally_para_complex: bool
    totally_real: bool
    nilpotent_degree: int | None = None

    def as_dict(self):
        return self._asdict()


class ClassificationReport(NamedTuple):
    n: int
    dim: int
    flags: Flags
    signature: SignatureTriple
    u0: Subspace
    stab: Subspace  # the stabilizer, in Q^3
    witnesses: KindWitnesses
    complex_report: ComplexReport | None
    para_complex_report: ParaComplexReport | None
    nilpotent_report: NilpotentReport | None
    totally_real_report: TotallyRealReport | None
    uft: UFTForm | None


def _check_flag_consistency(flags: Flags, dim: int, sig: SignatureTriple, n: int):
    if flags.totally_complex and not (flags.complex and flags.hermitian):
        raise AssertionError("totally complex without complex+hermitian")
    if flags.totally_para_complex and not (
        flags.para_complex and flags.hermitian
    ):
        raise AssertionError("totally para-complex without para-complex+hermitian")
    if flags.totally_real and not (flags.real and flags.hermitian):
        raise AssertionError("totally real without real+hermitian")
    if flags.real and not flags.pure:
        raise AssertionError("real subspace must be pure")
    if flags.para_quaternionic:
        if dim % 2:
            raise AssertionError("para-quaternionic dimension must be even")
        if flags.hermitian and (sig.p, sig.q) != (dim // 2, dim // 2):
            raise AssertionError("Hermitian para-quaternionic must be neutral")
    if flags.real and dim > 2 * n:
        raise AssertionError("real subspace exceeds half dimension")
    if flags.totally_real and dim > n:
        raise AssertionError("totally real subspace exceeds quarter dimension")


def classify(ms: ModelSpace, u: Subspace) -> ClassificationReport:
    """Full taxonomy of one subspace, with every theorem identity verified
    along the way (any failure raises).

    ``real`` is False without the real test when the stabilizer holds a
    complex or para-complex witness, or a nilpotent one of degree 2: each
    is a structure operator A with 0 != AU <= U.  The graph form of a pure
    U is built for the report either way."""
    if u.ambient != ms.dim_v:
        raise ValueError("subspace does not live in this model space")
    u0 = maximal_pq(u)
    stab = stabilizer(u)
    wits = kind_witnesses(stab)
    sig = signature(ms, u)
    hermitian = sig.s == 0
    if u.dim == 0:
        flags = Flags(
            para_quaternionic=True,
            pure=True,
            complex=True,
            weakly_para_complex=True,
            para_complex=True,
            nilpotent=False,
            real=True,
            hermitian=True,
            totally_complex=True,
            totally_para_complex=True,
            totally_real=True,
        )
        return ClassificationReport(
            ms.n, 0, flags, sig, u0, stab, wits,
            None, None, None, None, None,
        )
    pqr = is_para_quaternionic(ms, u)
    if pqr.is_pq != (stab.dim == 3) or pqr.is_pq != (u0 == u):
        raise AssertionError("para-quaternionic characterizations disagree")
    if not pqr.gram_block_ok:
        raise AssertionError("para-quaternionic Gram block identity failed")
    # H (x) E' is Hermitian exactly when omega^E is nondegenerate on E'
    if pqr.is_pq and pqr.hermitian != hermitian:
        raise AssertionError("para-quaternionic Hermitian sub-flag disagrees with the signature")
    pure = u0.is_zero()
    crep = check_complex(ms, u, wits.complex) if wits.complex else None
    pcrep = check_para_complex(ms, u, wits.para_complex) if wits.para_complex else None
    nrep = check_nilpotent(ms, u, wits.nilpotent) if wits.nilpotent else None
    uft_form = graph_form(u) if pure else None
    # a witness A with 0 != AU <= U refutes AU ^ U = 0 before the real test
    # runs: an invertible one (q != 0) has AU = U, and a nilpotent one of
    # degree 2 has AU != 0
    refuted = wits.complex or wits.para_complex or (nrep and nrep.degree == 2)
    real = not refuted and is_real(uft_form)
    trrep = check_totally_real(ms, u, uft_form) if real and hermitian else None
    flags = Flags(
        para_quaternionic=pqr.is_pq,
        pure=pure,
        complex=wits.complex is not None,
        weakly_para_complex=wits.para_complex is not None,
        para_complex=pcrep.strictly_para_complex if pcrep else False,
        nilpotent=wits.nilpotent is not None,
        real=real,
        hermitian=hermitian,
        totally_complex=crep.totally_complex if crep else False,
        totally_para_complex=pcrep.totally_para_complex if pcrep else False,
        totally_real=trrep.totally_real if trrep else False,
        nilpotent_degree=nrep.degree if nrep else None,
    )
    _check_flag_consistency(flags, u.dim, sig, ms.n)
    return ClassificationReport(
        ms.n, u.dim, flags, sig, u0, stab, wits, crep, pcrep, nrep, trrep, uft_form,
    )


# -- brute-force oracle ----------------------------------------------------------


class OracleFinding(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def _draw_row(draws) -> list:
    """The rationals num / den of integer draws (``Rng.rational_int``) as one
    integer row over the lcm of the den, a positive multiple of them."""
    d = lcm(*(den for _, den in draws))
    return [num * (d // den) for num, den in draws]


def _drawn_operator(draws) -> Operator:
    """The operator of three integer draws, for a finding's detail."""
    return Operator(*(Fraction(*x) for x in draws))


def _cleared_adjugate(draws) -> tuple:
    """lambda adj(s), row-wise, for the s of ``generate.random_sl2_draws``
    and lambda = na da db dc: adj(s) = [[d, -b], [-c, a]] with
    d = (1 + bc) / a."""
    (na, da), (nb, db), (nc, dc) = draws
    return (
        da * da * (db * dc + nb * nc),
        -na * da * dc * nb,
        -na * da * db * nc,
        na * na * db * dc,
    )


def _h_table(w, xs: list, ys: list) -> tuple:
    """P_kl = omega^E(x_k, y_l) on the H-halves x = (x_1 | x_2), y = (y_1 | y_2)
    of two integer rows, for omega^E by its nonzero entries ``w``, row-wise."""
    half = len(xs) // 2
    xh, yh = (xs[:half], xs[half:]), (ys[:half], ys[half:])
    return tuple(_pairing(w, x, y) for x in xh for y in yh)


def _twisted_products(p: tuple, m: tuple) -> tuple:
    """The numerators of g(Mx, A My) for A = I, J, K, read off the table
    p = ``_h_table(w, xs, ys)`` for a 2x2 integer matrix M, row-wise.

    With N = A M, omega^E of the H-halves of Mx and A My is the 2x2
    matrix Q = M P N^T, and g = omega^H (x) omega^E pairs them to
    Q_12 - Q_21.
    """
    p11, p12, p21, p22 = p
    m0, m1, m2, m3 = m
    r11, r12 = m0 * p11 + m1 * p21, m0 * p12 + m1 * p22
    r21, r22 = m2 * p11 + m3 * p21, m2 * p12 + m3 * p22
    out = []
    for op in (OP_I, OP_J, OP_K):
        (a0, a1, a2, a3), _ = op._act  # an integer matrix, denominator 1
        n0, n1 = a0 * m0 + a1 * m2, a0 * m1 + a1 * m3
        n2, n3 = a2 * m0 + a3 * m2, a2 * m1 + a3 * m3
        out.append(r11 * n2 + r12 * n3 - r21 * n0 - r22 * n1)
    return tuple(out)


def oracle_check(
    ms: ModelSpace, report: ClassificationReport, u: Subspace, seed: int = 0
) -> list:
    """Re-verify every reported flag from raw definitions.

    Violations come back as data (ok=False entries), never as exceptions.
    The real-flag search is sound only: a found witness (A, X) with
    0 != AX in U refutes the flag; absence proves nothing.
    """
    rng = Rng(seed)
    samples = 25  # random operators drawn by each sampled check
    out = []

    def check(name, ok, detail=""):
        out.append(OracleFinding(name, bool(ok), detail))

    if u.dim == 0:
        check("empty-subspace", True, "vacuous")
        return out

    # U0 = H (x) E0 with E0 the common fiber of h1 and h2, and the signature
    # from the metric pair by pair: neither shares a memo with classify
    u0 = product_subspace(h_fiber(u, (1, 0)).intersect(h_fiber(u, (0, 1))))
    check("u0-matches", u0 == report.u0)
    check("pure-flag", report.flags.pure == u0.is_zero())
    check(
        "pq-flag",
        report.flags.para_quaternionic == (u == product_subspace(p1(u))),
    )
    vecs = u.basis
    # every pair (x, y) of basis rows, each row cleared once, not mirrored
    cleared = u.int_basis()
    basis = [V for V, _ in cleared]
    sig = SignatureTriple(*symmetric_signature(_pairings(ms._metric_form, basis, basis)))
    check("signature", sig.as_tuple() == report.signature.as_tuple())
    check("hermitian-flag", report.flags.hermitian == (sig.s == 0))
    for kind, wit in (
        ("complex", report.witnesses.complex),
        ("para_complex", report.witnesses.para_complex),
        ("nilpotent", report.witnesses.nilpotent),
    ):
        if wit is None:
            continue
        check(
            f"{kind}-witness-invariance",
            all(u.contains_vector(wit.apply_coords(x)) for x in u.basis),
        )
        # (A (x) Id_E)^2 + q Id_V = (A^2 + q Id_H) (x) Id_E: the identity on
        # V holds exactly when it holds on the 2x2 matrix (m0, m1; m2, m3) of A
        m0, m1, m2, m3 = wit._m
        minus_q = -wit.q()
        check(
            f"{kind}-witness-square-identity",
            (m0 * m0 + m1 * m2, m1 * (m0 + m3), m2 * (m0 + m3), m2 * m1 + m3 * m3)
            == (minus_q, 0, 0, minus_q),
        )
        sign_ok = {
            "complex": wit.q() > 0,
            "para_complex": wit.q() < 0,
            "nilpotent": wit.q() == 0 and not wit.is_zero(),
        }[kind]
        check(f"{kind}-witness-sign", sign_ok)
    # the residues (r_I, r_J, r_K) of I b, J b, K b modulo U per basis row b,
    # over one denominator per row, on the columns off U's pivots (a residue
    # is zero at every pivot); built once for both sampled searches
    pure_complex = (
        report.flags.complex and report.flags.pure and not report.flags.para_quaternionic
    )
    if report.flags.real or pure_complex:
        pivots = set(u.pivots)
        free = [j for j in range(u.ambient) if j not in pivots]
        table, dens = [], []
        for xs, dx in u.int_basis():
            parts = [u.reduce_int(*op.act_int(xs, dx)) for op in (OP_I, OP_J, OP_K)]
            d = lcm(*(e for _, e in parts))
            table.append([[v[j] * (d // e) for j in free] for v, e in parts])
            dens.append(d)
    if report.flags.real:
        # stabilizer nonzero refutes the real flag outright
        check("real-vs-stabilizer", report.stab.dim == 0)
        # random-sample witness search: sound refutation of the real flag.
        # Reduction modulo U is linear, so A = a I + b J + c K takes
        # x = sum c_i b_i into U iff sum c_i (a r_I + b r_J + c r_K)(b_i) = 0;
        # each column below lists that sum's terms over one denominator
        whole = lcm(*dens)
        terms = [[x * (whole // d) for x in r] for row, d in zip(table, dens) for r in row]
        cols = [col for col in zip(*terms) if any(col)]
        violation = None
        for _ in range(samples):
            draws = [rng.rational_int() for _ in range(3)]
            if not any(num for num, _ in draws):
                continue
            cs = _draw_row([rng.rational_int() for _ in range(u.dim)])
            ca, cb, cc = _draw_row(draws)
            coef = [c * x for c in cs for x in (ca, cb, cc)]
            if any(sum(map(mul, coef, col)) for col in cols):
                continue
            # A x is in U; A^2 = -q(A) Id, so for q(A) != 0, A x != 0
            # exactly when x != 0
            if ca * ca - cb * cb - cc * cc:
                nonzero = any(cs)
            else:
                m = (_structure_matrix(ca, cb, cc), 1)
                nonzero = any(_h_act_int(m, *u.combine_int(cs))[0])
            if nonzero:
                violation = _drawn_operator(draws)
                break
        check(
            "real-no-sampled-violation",
            violation is None,
            "" if violation is None else f"witness {violation}",
        )
    # orthogonality refinements; these keep ``subspace.image``, which the
    # bench tracer homes on classify-sweep, where only they call it
    if report.flags.totally_real:
        for name, op in (("I", OP_I), ("J", OP_J), ("K", OP_K)):
            check(
                f"totally-real-{name}-orthogonal",
                is_orthogonal(ms, image(op, u), u),
            )
    if report.complex_report and not report.flags.para_quaternionic:
        cr = report.complex_report
        # the anticommuting para-complex partner J^ in the adapted basis, and
        # J^ of U's rows: J^U _|_ U when every numerator g(J^x, y) vanishes
        jhat = cr.basis.conjugate(F0, 1 / cr.scale, F1)
        moved = [jhat.act_int(V, 1)[0] for V in basis]
        check(
            "totally-complex-gram",
            report.flags.totally_complex
            == (
                report.flags.hermitian
                and u0.is_zero()
                and not any(map(any, _pairings(ms._metric_form, moved, basis)))
            ),
        )
    # pure complex: any operator not proportional to the witness moves U off itself
    if pure_complex:
        check("pure-complex-witness-unique", report.stab.dim == 1)
        wit = report.witnesses.complex
        (wa, wb, wg), _ = _int_row((wit.alpha, wit.beta, wit.gamma))
        for _ in range(samples):
            draws = [rng.rational_int() for _ in range(3)]
            if not any(num for num, _ in draws):
                continue
            # a positive multiple of the drawn B, proportional to the
            # witness exactly when B is
            ca, cb, cc = _draw_row(draws)
            if ca * wb == cb * wa and ca * wg == cc * wa and cb * wg == cc * wb:
                continue
            # B^2 = -q(B) Id, so for q(B) != 0 B is invertible and maps a
            # basis of U to a basis of B U
            if ca * ca - cb * cb - cc * cc:
                dim = u.dim
            else:
                m = (_structure_matrix(ca, cb, cc), 1)
                rows = [_h_act_int(m, xs, dx)[0] for xs, dx in u.int_basis()]
                dim = int_rank(rows, u.ambient)
            # B U meets U iff its spanning rows are dependent modulo U, and
            # B b leaves a r_I + b r_J + c r_K; a full rank mod p proves the
            # residues independent (scaling a row keeps every rank)
            residues = [
                [ca * x + cb * y + cc * z for x, y, z in zip(ri, rj, rk)] for ri, rj, rk in table
            ]
            if (
                rank_mod(residues, len(free)) != dim
                and int_rank(residues, len(free)) != dim
            ):
                check("pure-complex-moves-off", False, f"B={_drawn_operator(draws)}")
                break
        else:
            check("pure-complex-moves-off", True)
    # Hermitian product norm invariance under admissible basis changes.  In
    # the basis of s in SL(H) the triple is s(I, J, K)s^-1, and
    # g(x, sIs^-1 y) = g(s^-1 x, I s^-1 y) with s^-1 = adj(s): the norm of
    # the imaginary part is g(x', Iy')^2 - g(x', Jy')^2 - g(x', Ky')^2 over
    # the square of one denominator, for x' = s^-1 x and y' = s^-1 y.  Each
    # pair is paired once, into the 2x2 table of omega^E on its H-halves
    # (_h_table), and each s costs 2x2 integer products on it
    w, dw = ms._omega_form
    for _ in range(2):
        i, j = rng.below(len(vecs)), rng.below(len(vecs))
        base = ms.hermitian_product(vecs[i], vecs[j]).imag().norm()
        (xs, dx), (ys, dy) = cleared[i], cleared[j]
        pairs = _h_table(w, xs, ys)
        ok = True
        for _ in range(3):
            m = _cleared_adjugate(random_sl2_draws(rng))
            gi, gj, gk = _twisted_products(pairs, m)
            # m = lambda adj(s), and det m = lambda^2 det s = lambda^2
            den = dw * dx * dy * (m[0] * m[3] - m[1] * m[2])
            if (gi * gi - gj * gj - gk * gk) * base.denominator != base.numerator * den * den:
                ok = False
                break
        check("hermitian-norm-invariance", ok)
        if not ok:
            break
    if report.uft is not None:
        # the rows h_basis (f_j | T f_j) over F's canonical basis are
        # independent, so they span U exactly when there are dim U of them
        # and each lies in U
        form = report.uft
        check(
            "uft-round-trip",
            form.dim == u.dim
            and all(
                u.contains_int(*_graph_row(form.h_basis, f, _int_row(tf)))
                for f, tf in zip(form.f_space.int_basis(), form.t_map.cols)
            ),
        )
    check("dim-bound-real", not report.flags.real or u.dim <= 2 * ms.n)
    check("dim-bound-totally-real", not report.flags.totally_real or u.dim <= ms.n)
    return out

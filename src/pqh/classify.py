"""Subspace taxonomy: stabilizers, kind witnesses, structure verifiers,
metric refinements, nilpotent and generic decompositions, the real test,
and a brute-force oracle that re-checks every flag from raw definitions.

Everything is scale-invariant: witnesses stay unnormalized (their q-value
is not scaled to +-1, which would need square roots), and every theorem
identity is checked in the form T^2 = -q_scale * Id with q_scale * q(A)
a rational square.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .generate import random_sl2
from .linalg import F0, F1, Mat, symmetric_signature
from .model import (
    HBasisChange,
    ModelSpace,
    Operator,
    operator_from_mat2,
    tensor,
)
from .polyq import (
    factor,
    is_rational_square,
    minimal_polynomial,
    poly_deg,
    poly_eval_matrix,
)
from .subspace import (
    SignatureTriple,
    Subspace,
    decomposable_subspace,
    direct_sum_is,
    gram,
    h_fiber,
    image,
    is_orthogonal,
    maximal_pq,
    operator_preimage,
    p1p2,
    product_subspace,
    restrict_omega,
    signature,
)
from .uft import (
    DecomposablePiece,
    UFTForm,
    clean_complement,
    find_transversal_direction,
    induced_g_f,
    injectivize,
    invariant_core,
    normalize_direction,
    to_uft,
    transversal_basis,
)


# -- the stabilizer and its quadratic form ----------------------------------


@dataclass(frozen=True)
class Stabilizer:
    """{A in the structure algebra : AU <= U} in (alpha, beta, gamma)
    coordinates, as a subspace of Q^3."""

    basis: Mat  # RREF rows

    @property
    def dim(self) -> int:
        return self.basis.nrows

    def operators(self) -> tuple:
        return tuple(Operator(*row) for row in self.basis.rows)

    def contains(self, a: Operator) -> bool:
        target = (a.alpha, a.beta, a.gamma)
        aug = self.basis.T
        return aug.solve(target) is not None

    def q_matrix(self) -> Mat:
        """The bilinear form of q(A) = alpha^2 - beta^2 - gamma^2 restricted
        to the stabilizer basis."""
        def polar(x, y):
            return x[0] * y[0] - x[1] * y[1] - x[2] * y[2]

        b = self.basis.rows
        return Mat(
            tuple(tuple(polar(x, y) for y in b) for x in b), ncols=self.dim
        )


def stabilizer(u: Subspace) -> Stabilizer:
    """Solve the linear system AU <= U for the coordinates of A."""
    from .model import OP_I, OP_J, OP_K

    rows = []
    for x in u.mat.rows:
        ri = u.reduce(OP_I.apply_coords(x))
        rj = u.reduce(OP_J.apply_coords(x))
        rk = u.reduce(OP_K.apply_coords(x))
        rows.extend(zip(ri, rj, rk))
    if not rows:
        return Stabilizer(Mat.identity(3))
    return Stabilizer(Mat(rows, ncols=3).kernel())


@dataclass(frozen=True)
class KindWitnesses:
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


def kind_witnesses(stab: Stabilizer) -> KindWitnesses:
    if stab.dim == 0:
        return KindWitnesses(None, None, None)
    ops = stab.operators()
    if stab.dim == 1:
        (v,) = ops
        qv = v.q()
        return KindWitnesses(
            v if qv > 0 else None,
            v if qv < 0 else None,
            v if qv == 0 else None,
        )
    if stab.dim == 3:
        return KindWitnesses(Operator(1, 0, 0), Operator(0, 0, 1), Operator(1, 1, 0))
    qm = stab.q_matrix()
    a, b, c = qm.rows[0][0], qm.rows[0][1], qm.rows[1][1]
    v1, v2 = ops

    def combine(pt):
        s, t = pt
        return Operator(
            s * v1.alpha + t * v2.alpha,
            s * v1.beta + t * v2.beta,
            s * v1.gamma + t * v2.gamma,
        )

    pos = _positive_point(a, b, c)
    neg = _positive_point(-a, -b, -c)
    iso = _isotropic_point(a, b, c)
    witnesses = KindWitnesses(
        combine(pos) if pos else None,
        combine(neg) if neg else None,
        combine(iso) if iso and not combine(iso).is_zero() else None,
    )
    return witnesses


def operator_preserves(a: Operator, u: Subspace) -> bool:
    return all(u.contains_vector(a.apply_coords(x)) for x in u.mat.rows)


def maximal_invariant_subspace(a: Operator, u: Subspace) -> Subspace:
    """The largest A-invariant subspace of U.

    One step U ^ A^{-1}U already is the fixpoint because A^2 is a scalar
    (possibly zero) multiple of the identity.
    """
    w = u.intersect(operator_preimage(a, u))
    if not all(w.contains_vector(a.apply_coords(x)) for x in w.mat.rows):
        raise AssertionError("one-step invariant subspace is not invariant")
    return w


# -- adapted bases -----------------------------------------------------------


def adapted_basis(a: Operator):
    """A symplectic basis (h1', h2' = A h1' / D) adapted to a nonzero witness.

    Returns (basis, D) with D = det[h1', A h1'] != 0; in this basis the
    witness acts as [[0, -q/D], [D, 0]] on H.
    """
    if a.is_zero():
        raise ValueError("adapted basis needs a nonzero operator")
    m = a.mat2()
    for h1 in ((F1, F0), (F0, F1), (F1, F1)):
        mh = m.mul_vec(h1)
        d = h1[0] * mh[1] - h1[1] * mh[0]
        if d != 0:
            basis = HBasisChange.from_columns(h1, (mh[0] / d, mh[1] / d))
            return basis, d
    raise AssertionError("no cyclic vector found for a nonzero operator")


def adapted_nilpotent_basis(a: Operator) -> HBasisChange:
    """A symplectic basis whose first vector spans ker A (A nilpotent)."""
    if a.q() != 0 or a.is_zero():
        raise ValueError("adapted nilpotent basis needs a nonzero null witness")
    ker = a.mat2().kernel()
    k = ker.rows[0]
    if k[0] != 0:
        w = (F0, 1 / k[0])
    else:
        w = (-1 / k[1], F0)
    return HBasisChange.from_columns(k, w)


def operator_in_basis(basis: HBasisChange, alpha, beta, gamma) -> Operator:
    """The operator with the given coordinates relative to the admissible
    triple attached to `basis`, expressed in standard coordinates."""
    m = Operator(alpha, beta, gamma).mat2()
    return operator_from_mat2(basis.mat @ m @ basis.mat.inverse())


def _conjugated_operator(basis: HBasisChange, mat2: Mat) -> Operator:
    return operator_from_mat2(basis.mat @ mat2 @ basis.mat.inverse())


# -- invariant pure complements ---------------------------------------------


def invariant_pure_complement(a: Operator, u: Subspace, u0: Subspace) -> Subspace:
    """A complement of U0 in U that is itself A-invariant (hence pure).

    For q(A) with square |q| and q < 0 the complement splits along the
    rational eigenspaces; otherwise Q[A] is a field and a greedy module
    completion works.  Nilpotent witnesses are not supported here.
    """
    qa = a.q()
    if qa == 0:
        raise ValueError("invariant complement needs an invertible witness")
    if u0.is_zero():
        return u
    dim_e = u.ambient // 2
    root = is_rational_square(-qa) if qa < 0 else None
    if root is not None and root != 0:
        amat = a.as_matrix(dim_e)
        eye = Mat.identity(u.ambient)
        parts = []
        for sign in (root, -root):
            vs = Subspace((amat - eye.scale(sign)).kernel())
            us = u.intersect(vs)
            u0s = u0.intersect(vs)
            parts.append(u0s.complement_in(us))
        comp = parts[0].sum(parts[1])
    else:
        comp = Subspace.zero(u.ambient)
        for row in u.mat.rows:
            if u0.sum(comp).contains_vector(row):
                continue
            comp = comp.sum(
                Subspace.span((row, a.apply_coords(row)), u.ambient)
            )
    if comp.dim != u.dim - u0.dim or not direct_sum_is(u, [u0, comp]):
        raise AssertionError("invariant complement construction failed")
    if not operator_preserves(a, comp):
        raise AssertionError("complement is not witness-invariant")
    return comp


# -- para-quaternionic test --------------------------------------------------


@dataclass(frozen=True)
class PQReport:
    is_pq: bool
    e_prime: Subspace
    hermitian: bool
    gram_block_ok: bool


def is_para_quaternionic(ms: ModelSpace, u: Subspace) -> PQReport:
    """U = H (x) E' test, with the Hermitian sub-flag and the exact block
    Gram identity for the split U = h1 (x) E' + h2 (x) E'."""
    e_prime = p1p2(u)[0]
    is_pq = u == product_subspace(e_prime)
    hermitian = False
    gram_ok = True
    if is_pq and e_prime.dim:
        omega_r = restrict_omega(ms, e_prime)
        hermitian = omega_r.det() != 0
        k = e_prime.dim
        split_rows = [tensor((1, 0), f).coords for f in e_prime.mat.rows]
        split_rows += [tensor((0, 1), f).coords for f in e_prime.mat.rows]
        vs = [ms.metric(x, y) for x in map(_vec, split_rows) for y in map(_vec, split_rows)]
        g = Mat(
            [tuple(vs[i * 2 * k : (i + 1) * 2 * k]) for i in range(2 * k)],
            ncols=2 * k,
        )
        z = Mat.zeros(k, k)
        expected = (z.hstack(omega_r)).vstack(omega_r.T.hstack(z))
        gram_ok = g == expected
    elif is_pq:
        hermitian = True  # zero subspace, vacuously nondegenerate
    return PQReport(is_pq, e_prime, hermitian and is_pq, gram_ok)


def _vec(coords):
    from .model import Vector

    return Vector.from_coords(coords)


# -- complex witnesses --------------------------------------------------------


@dataclass(frozen=True)
class ComplexReport:
    witness: Operator
    q_value: Fraction
    scale: Fraction  # T^2 = -scale * Id with scale * q(A) a rational square
    basis: HBasisChange
    pure_form: UFTForm | None
    structure_verified: bool
    hermitian_pure: bool
    signature_pure: SignatureTriple
    kahler_verified: bool
    omega_preserved: bool
    gram_orthogonal: bool
    totally_complex: bool


def check_complex(ms: ModelSpace, u: Subspace, a: Operator) -> ComplexReport:
    """Verify the structure theorem for a complex-type witness.

    On the pure part, in the basis adapted to A, the graph map satisfies
    T^2 = -(D^2/q) Id; the signature has type (2p, 2s, 2q); the scaled
    Kaehler identity and the two totally-complex routes are cross-checked.
    """
    qa = a.q()
    if qa <= 0:
        raise ValueError("complex check needs a witness with positive q")
    stab = stabilizer(u)
    if not stab.contains(a):
        raise ValueError("witness does not stabilize the subspace")
    u0 = maximal_pq(u)
    comp = invariant_pure_complement(a, u, u0)
    basis, d_val = adapted_basis(a)
    mu = d_val * d_val / qa
    if comp.dim == 0:
        sig0 = SignatureTriple(0, 0, 0)
        return ComplexReport(
            a, qa, mu, basis, None, True, True, sig0, True, False, False, False
        )
    form = to_uft(comp, basis)
    ok = True
    tf_cols = []
    for j, f in enumerate(form.f_space.mat.rows):
        tf = form.t_map.col(j)
        if not form.f_space.contains_vector(tf):
            ok = False
            break
        ttf = form.apply_t(tf)
        if ttf != tuple(-mu * x for x in f):
            ok = False
            break
        tf_cols.append(form.f_space.coordinates_of(tf))
    if not ok:
        raise AssertionError("complex structure identity T^2 = -mu Id failed")
    t_f = Mat.from_cols(tf_cols, nrows=form.dim)
    g_f = induced_g_f(ms, form)
    sig_pure = SignatureTriple(*symmetric_signature(g_f))
    if sig_pure.as_tuple() != signature(ms, comp).as_tuple():
        raise AssertionError("pullback metric has wrong signature")
    if any(x % 2 for x in sig_pure.as_tuple()):
        raise AssertionError("complex signature is not of type (2p, 2s, 2q)")
    hermitian_pure = sig_pure.s == 0
    # scaled Kaehler identity, three routes
    b_mat = form.f_space.mat.T
    w_f = b_mat.T @ ms.omega @ b_mat
    te = form.t_map
    w_t = te.T @ ms.omega @ te
    vs = [form.h_basis.assemble(f, form.t_map.col(j)) for j, f in enumerate(form.f_space.mat.rows)]
    k_amb = Mat(
        tuple(tuple(ms.metric(a.apply(x), y) for y in vs) for x in vs),
        ncols=form.dim,
    )
    k_gf = (g_f @ t_f).scale(qa / d_val)
    k_form = (w_f.scale(d_val) + w_t.scale(qa / d_val)).scale(-F1)
    kahler = k_amb == k_gf == k_form
    # totally complex: omega route and two Gram routes must agree
    omega_pres = (
        restrict_omega(ms, form.f_space).det() != 0 and w_t == w_f.scale(mu)
    )
    j_hat = _conjugated_operator(
        basis, Mat(((F0, qa / (d_val * d_val)), (F1, F0)))
    )
    k_hat = _conjugated_operator(basis, Mat(((F1, F0), (F0, -F1))))
    gram_j = is_orthogonal(ms, image(j_hat, u), u)
    gram_k = is_orthogonal(ms, image(k_hat, u), u)
    hermitian_full = signature(ms, u).s == 0
    totally = hermitian_full and u0.is_zero() and omega_pres
    if u0.is_zero() and hermitian_full:
        if not (omega_pres == gram_j == gram_k):
            raise AssertionError("totally-complex routes disagree")
    return ComplexReport(
        a,
        qa,
        mu,
        basis,
        form,
        True,
        hermitian_pure,
        sig_pure,
        kahler,
        omega_pres,
        gram_j,
        totally,
    )


# -- para-complex witnesses ----------------------------------------------------


@dataclass(frozen=True)
class ParaComplexReport:
    witness: Operator
    q_value: Fraction
    scale: Fraction  # T^2 = +scale * Id
    basis: HBasisChange
    pure_form: UFTForm | None
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
    q(A) < 0: eigenspace dimensions by the exact trace test, the neutral
    signature claim, the eigenspace presentation when |q| is a square, and
    the two totally-para-complex routes."""
    qa = a.q()
    if qa >= 0:
        raise ValueError("para-complex check needs a witness with negative q")
    stab = stabilizer(u)
    if not stab.contains(a):
        raise ValueError("witness does not stabilize the subspace")
    u0 = maximal_pq(u)
    comp = invariant_pure_complement(a, u, u0)
    basis, d_val = adapted_basis(a)
    nu = d_val * d_val / (-qa)
    if comp.dim == 0:
        sig0 = SignatureTriple(0, 0, 0)
        return ParaComplexReport(
            a, qa, nu, basis, None, 0, 0, True, True, sig0, 0, None, None,
            False, False, False,
        )
    form = to_uft(comp, basis)
    tf_cols = []
    for j, f in enumerate(form.f_space.mat.rows):
        tf = form.t_map.col(j)
        if not form.f_space.contains_vector(tf):
            raise AssertionError("T does not preserve F for a para-complex witness")
        if form.apply_t(tf) != tuple(nu * x for x in f):
            raise AssertionError("para-complex identity T^2 = nu Id failed")
        tf_cols.append(form.f_space.coordinates_of(tf))
    t_f = Mat.from_cols(tf_cols, nrows=form.dim)
    k = form.dim
    tr = t_f.trace()
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
    g_f = induced_g_f(ms, form)
    sig_pure = SignatureTriple(*symmetric_signature(g_f))
    if sig_pure.as_tuple() != signature(ms, comp).as_tuple():
        raise AssertionError("pullback metric has wrong signature")
    if sig_pure.p != sig_pure.q:
        raise AssertionError("para-complex signature is not of type (m, k-2m, m)")
    m_value = sig_pure.p
    hermitian_pure = sig_pure.s == 0
    if not strict and hermitian_pure:
        raise AssertionError("weakly-not-para-complex part must be degenerate")
    if hermitian_pure and sig_pure.as_tuple() != (k // 2, 0, k // 2):
        raise AssertionError("Hermitian para-complex part must be neutral")
    # eigenspace data over Q when sqrt(|q|) is rational
    rho = is_rational_square(-qa)
    eigen_pres = None
    family = None
    if rho is not None:
        lam_plus = d_val / rho
        e1 = poly_eval_matrix((-lam_plus, F1), t_f).kernel()
        e2 = poly_eval_matrix((lam_plus, F1), t_f).kernel()
        lift1 = _lift_combos(e1, form.f_space)
        lift2 = _lift_combos(e2, form.f_space)
        if lift1.dim != d_plus or lift2.dim != d_minus:
            raise AssertionError("rational eigenspace dimensions disagree with trace test")
        from .uft import _std_direction

        dir1 = normalize_direction(_std_direction(form.h_basis, (F1, lam_plus)))
        dir2 = normalize_direction(_std_direction(form.h_basis, (F1, -lam_plus)))
        pres_parts = [
            decomposable_subspace(dir1, lift1),
            decomposable_subspace(dir2, lift2),
        ]
        if not direct_sum_is(comp, [p for p in pres_parts if p.dim]):
            raise AssertionError("eigenspace presentation does not recompose")
        eigen_pres = (dir1, lift1, dir2, lift2)
        # cross-check m as the rank of the Gram pairing between eigenspaces
        vs1 = [form.h_basis.assemble(f, form.apply_t(f)) for f in lift1.mat.rows]
        vs2 = [form.h_basis.assemble(f, form.apply_t(f)) for f in lift2.mat.rows]
        if vs1 and vs2:
            cross = Mat(
                tuple(tuple(ms.metric(x, y) for y in vs2) for x in vs1),
                ncols=len(vs2),
            )
            if cross.rank() != m_value:
                raise AssertionError("cross-eigenspace rank disagrees with signature")
        elif m_value != 0:
            raise AssertionError("empty eigenspace but nonzero metric rank")
        # the witness family a I + a J +- K when the pure part sits in one eigenspace
        for lam in (lam_plus, -lam_plus):
            if t_f == Mat.identity(k).scale(lam):
                n_ad = Mat(((F1, qa * lam / (d_val * d_val)), (lam, -F1)))
                n_op = _conjugated_operator(basis, n_ad)
                for t in (0, 1, 2):
                    member = a + n_op.scale(t)
                    if not operator_preserves(member, comp):
                        raise AssertionError("witness family member fails invariance")
                family = (a, n_op)
                break
    # totally para-complex: omega route against the two Gram routes
    b_mat = form.f_space.mat.T
    w_f = b_mat.T @ ms.omega @ b_mat
    w_t = form.t_map.T @ ms.omega @ form.t_map
    omega_skew = (
        restrict_omega(ms, form.f_space).det() != 0 and w_t == w_f.scale(-nu)
    )
    i_hat = _conjugated_operator(
        basis, Mat(((F0, qa / (d_val * d_val)), (F1, F0)))
    )
    k_hat = _conjugated_operator(basis, Mat(((F1, F0), (F0, -F1))))
    gram_i = is_orthogonal(ms, image(i_hat, u), u)
    gram_k = is_orthogonal(ms, image(k_hat, u), u)
    hermitian_full = signature(ms, u).s == 0
    totally = hermitian_full and u0.is_zero() and strict and omega_skew
    if u0.is_zero() and hermitian_full:
        if not (omega_skew == gram_i == gram_k):
            raise AssertionError("totally-para-complex routes disagree")
    return ParaComplexReport(
        a,
        qa,
        nu,
        basis,
        form,
        d_plus,
        d_minus,
        strict,
        hermitian_pure,
        sig_pure,
        m_value,
        eigen_pres,
        family,
        omega_skew,
        gram_i,
        totally,
    )


def para_complex_eigenvectors(report: ParaComplexReport):
    """Eigenvectors of the scaled para-complex structure on F.

    When the scale nu is a rational square the data is rational and
    already in the report; otherwise the eigenvalues +-sqrt(nu) live in
    Q(sqrt(nu)) and this computes the eigenbasis there.  Returns
    (eigenvalue, plus-basis rows, minus-basis rows) with entries in
    Q(sqrt(nu)) (or Fraction when rational).
    """
    from .polyq import is_rational_square
    from .quadext import QuadExt, sqrt_of

    form = report.pure_form
    if form is None:
        raise ValueError("no pure part to analyze")
    t_f = form.t_on_subspace(form.f_space)
    nu = report.scale
    root = is_rational_square(nu)
    if root is not None:
        lam = root
        plus = poly_eval_matrix((-lam, F1), t_f).kernel()
        minus = poly_eval_matrix((lam, F1), t_f).kernel()
        return lam, plus.rows, minus.rows
    lam = sqrt_of(nu)
    k = t_f.nrows
    lifted = Mat(
        tuple(tuple(QuadExt(x, 0, nu) for x in row) for row in t_f.rows),
        ncols=k,
    )
    eye = Mat.identity(k)
    plus = (lifted - eye.scale(lam)).kernel()
    minus = (lifted + eye.scale(lam)).kernel()
    if plus.nrows != report.d_plus or minus.nrows != report.d_minus:
        raise AssertionError("quadratic-extension eigenspaces disagree with the trace test")
    return lam, plus.rows, minus.rows


def _lift_combos(combos: Mat, space: Subspace) -> Subspace:
    rows = []
    for combo in combos.rows:
        x = [F0] * space.ambient
        for coef, row in zip(combo, space.mat.rows):
            if coef != 0:
                for j, val in enumerate(row):
                    x[j] += coef * val
        rows.append(tuple(x))
    return Subspace.span(rows, space.ambient)


# -- nilpotent witnesses -------------------------------------------------------


@dataclass(frozen=True)
class NilpotentReport:
    witness: Operator
    degree: int
    basis: HBasisChange
    criterion_ok: bool  # h1 (x) p2(U) <= U in the adapted basis
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
    fpart = [F0] * len(x)
    for c, row in zip(coeffs[: first.dim], first.mat.rows):
        if c != 0:
            for j, val in enumerate(row):
                fpart[j] += c * val
    return tuple(fpart), tuple(a - b for a, b in zip(x, fpart))


def check_nilpotent(ms: ModelSpace, u: Subspace, a: Operator) -> NilpotentReport:
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
    e1_proj, e2_proj = p1p2(u, basis)
    criterion = all(
        u.contains_vector(tensor(basis.h1, f).coords) for f in e2_proj.mat.rows
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
    t_rows = []
    u_h = [basis.h_components(v) for v in u.basis_vectors]
    a_parts = Mat([p[0] for p in u_h], ncols=u.ambient // 2)
    b_parts = Mat([p[1] for p in u_h], ncols=u.ambient // 2)
    for e2 in e2_proj.mat.rows:
        coeffs = b_parts.T.solve(e2)
        if coeffs is None:
            raise AssertionError("p2 component not reachable")
        x = [F0] * (u.ambient // 2)
        for c, arow in zip(coeffs, a_parts.rows):
            if c != 0:
                for j, val in enumerate(arow):
                    x[j] += c * val
        # push the E1' component away to land in Ebar1
        x_in_fiber, x_bar = _split_along(tuple(x), e1p, ebar1)
        t_rows.append(x_bar)
    e0_combos = Mat(t_rows, ncols=u.ambient // 2).T.kernel() if t_rows else Mat((), ncols=0)
    e0 = _lift_combos(e0_combos, e2_proj) if e2_proj.dim else Subspace.zero(u.ambient // 2)
    e2prime = e0.complement_in(e2_proj)
    base = e0.sum(e2prime)
    ext = base.complement_in(e1p)
    e1pp = e2prime.sum(ext)
    pq_part = product_subspace(e0)
    if pq_part != maximal_pq(u):
        raise AssertionError("nilpotent kernel part disagrees with the maximal part")
    piece = DecomposablePiece(normalize_direction(basis.h1), e1pp)
    real_rows = []
    for e2 in e2prime.mat.rows:
        coeffs = e2_proj.coordinates_of(e2)
        img = [F0] * (u.ambient // 2)
        for c, trow in zip(coeffs, t_rows):
            if c != 0:
                for j, val in enumerate(trow):
                    img[j] += c * val
        real_rows.append(basis.assemble(img, e2).coords)
    real_part = Subspace.span(real_rows, u.ambient)
    if not direct_sum_is(u, [p for p in (pq_part, piece.span(), real_part) if p.dim]):
        raise AssertionError("nilpotent decomposition does not recompose")
    if real_part.dim and not is_real(real_part):
        raise AssertionError("nilpotent residue is not a real subspace")
    p2_sympl = e2_proj.dim > 0 and restrict_omega(ms, e2_proj).det() != 0
    from .subspace import omega_kernel_in

    nondeg = e1p.dim > 0 and omega_kernel_in(ms, e2_proj, e1p).is_zero()
    if nondeg and signature(ms, u).s != 0:
        raise AssertionError(
            "trivial omega(p2 x fiber) kernel must force a nondegenerate metric"
        )
    return NilpotentReport(
        a, degree, basis, criterion, pq_part, piece, real_part, p2_sympl, nondeg
    )


# -- real and totally real -----------------------------------------------------


def is_real(u: Subspace) -> bool:
    """AU ^ U = 0 for every structure operator A: pure, no decomposable
    vectors, and the invariant core W* of any graph presentation is zero."""
    if u.dim == 0:
        return True
    if not maximal_pq(u).is_zero():
        return False
    h = find_transversal_direction(u)
    if h is None:
        return False  # pure but every direction carries decomposable vectors
    form = injectivize(to_uft(u, transversal_basis(h)))
    core, _ = invariant_core(form)
    return core.is_zero()


@dataclass(frozen=True)
class TotallyRealReport:
    totally_real: bool
    omega_e1_zero: bool
    omega_e2_zero: bool
    t_omega_skew: bool
    gram_routes: tuple
    metric_identity_ok: bool


def check_totally_real(ms: ModelSpace, u: Subspace) -> TotallyRealReport:
    """For a real nondegenerate U: the omega conditions on E1 = p1(U),
    E2 = TE1 and the skewness of T, cross-validated against the direct
    Gram tests IU _|_ U, JU _|_ U, KU _|_ U."""
    from .model import OP_I, OP_J, OP_K

    if not is_real(u):
        raise ValueError("totally-real check needs a real subspace")
    if signature(ms, u).s != 0:
        raise ValueError("totally-real check needs a nondegenerate subspace")
    if u.dim == 0:
        return TotallyRealReport(True, True, True, True, (True, True, True), True)
    h = find_transversal_direction(u)
    form = to_uft(u, transversal_basis(h))
    e1 = form.f_space
    e2 = form.t_image()
    o1 = restrict_omega(ms, e1).is_zero()
    o2 = restrict_omega(ms, e2).is_zero()
    c = Mat(
        tuple(
            tuple(ms.omega_eval(f, form.t_map.col(j)) for j in range(form.dim))
            for f in e1.mat.rows
        ),
        ncols=form.dim,
    )
    skew = c.is_symmetric()  # omega(e, Te') = -omega(Te, e') for all pairs
    routes = tuple(
        is_orthogonal(ms, image(op, u), u) for op in (OP_I, OP_J, OP_K)
    )
    conditions = o1 and o2 and skew
    if conditions != all(routes):
        raise AssertionError("totally-real routes disagree")
    metric_ok = True
    if conditions:
        if not e1.intersect(e2).is_zero():
            raise AssertionError("totally real forces E1 ^ E2 = 0")
        vs = [form.h_basis.assemble(f, form.t_map.col(j)) for j, f in enumerate(e1.mat.rows)]
        gm = Mat(
            tuple(tuple(ms.metric(x, y) for y in vs) for x in vs), ncols=form.dim
        )
        metric_ok = gm == c.scale(2)
        if not metric_ok:
            raise AssertionError("totally-real metric identity 2 omega(e, Te') failed")
        if u.dim > ms.n:
            raise AssertionError("totally real exceeds the quarter-dimension bound")
    return TotallyRealReport(conditions, o1, o2, skew, routes, metric_ok)


# -- generic decomposition -----------------------------------------------------


@dataclass(frozen=True)
class Addend:
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


@dataclass(frozen=True)
class GenericDecomposition:
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


def _graph_over_sub(form: UFTForm, sub: Subspace) -> Subspace:
    rows = []
    for f in sub.mat.rows:
        rows.append(form.h_basis.assemble(f, form.apply_t(f)).coords)
    return Subspace.span(rows, 2 * form.dim_e)


def _decompose_pure(u_pure: Subspace):
    """Pure-part decomposition: factor kernels of the core minimal
    polynomial become invariant addends; the residue is certified real or
    recursively decomposed.

    A pure subspace that is not a graph (every direction carries
    decomposable vectors) first sheds a minimal-fiber decomposable piece,
    which is itself a pure weakly para-complex addend."""
    from .uft import minimal_fiber_direction

    if u_pure.dim == 0:
        return [], Subspace.zero(u_pure.ambient)
    h = find_transversal_direction(u_pure)
    if h is None:
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
    form = injectivize(to_uft(u_pure, transversal_basis(h)))
    core, t_core = invariant_core(form)
    if core.is_zero():
        return [], u_pure
    from .uft import _std_direction

    minp = minimal_polynomial(t_core)
    _, factors = factor(minp)
    addends = []
    kernel_total = Subspace.zero(form.dim_e)
    for poly, _mult in factors:
        ker = _lift_combos(poly_eval_matrix(poly, t_core).kernel(), core)
        kernel_total = kernel_total.sum(ker)
        graph = _graph_over_sub(form, ker)
        deg = poly_deg(poly)
        if deg == 1:
            lam = -poly[0]
            direction = normalize_direction(_std_direction(form.h_basis, (F1, lam)))
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
    residual_f = kernel_total.complement_in(form.f_space)
    residue = _graph_over_sub(form, residual_f)
    if residue.dim == 0 or is_real(residue):
        return addends, residue
    sub_addends, sub_real = _decompose_pure(residue)
    return addends + sub_addends, sub_real


def generic_decompose(u: Subspace) -> GenericDecomposition:
    """U = U0 (+) pure complex (+) pure weakly para-complex (+) real,
    with recomposition verified exactly."""
    u0 = maximal_pq(u)
    if u0 == u:
        return GenericDecomposition(u0, (), Subspace.zero(u.ambient))
    if u0.is_zero():
        u_prime = u
    else:
        e0 = p1p2(u0)[0]
        u_prime = clean_complement(u, u0, e0)
    addends, real_sub = _decompose_pure(u_prime)
    decomp = GenericDecomposition(u0, tuple(addends), real_sub)
    if not direct_sum_is(u, decomp.parts()):
        raise AssertionError("generic decomposition does not recompose")
    return decomp


# -- full classification --------------------------------------------------------


@dataclass(frozen=True)
class Flags:
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
        return {
            "para_quaternionic": self.para_quaternionic,
            "pure": self.pure,
            "complex": self.complex,
            "weakly_para_complex": self.weakly_para_complex,
            "para_complex": self.para_complex,
            "nilpotent": self.nilpotent,
            "nilpotent_degree": self.nilpotent_degree,
            "real": self.real,
            "hermitian": self.hermitian,
            "totally_complex": self.totally_complex,
            "totally_para_complex": self.totally_para_complex,
            "totally_real": self.totally_real,
        }


@dataclass(frozen=True)
class ClassificationReport:
    n: int
    dim: int
    flags: Flags
    signature: SignatureTriple
    u0: Subspace
    stab: Stabilizer
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
    along the way (any failure raises)."""
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
    pure = u0.is_zero()
    crep = check_complex(ms, u, wits.complex) if wits.complex else None
    pcrep = (
        check_para_complex(ms, u, wits.para_complex) if wits.para_complex else None
    )
    nrep = check_nilpotent(ms, u, wits.nilpotent) if wits.nilpotent else None
    real = is_real(u)
    trrep = None
    totally_real = False
    if real and hermitian:
        trrep = check_totally_real(ms, u)
        totally_real = trrep.totally_real
    uft_form = None
    if pure:
        h = find_transversal_direction(u)
        if h is not None:
            uft_form = to_uft(u, transversal_basis(h))
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
        totally_real=totally_real,
        nilpotent_degree=nrep.degree if nrep else None,
    )
    _check_flag_consistency(flags, u.dim, sig, ms.n)
    return ClassificationReport(
        ms.n,
        u.dim,
        flags,
        sig,
        u0,
        stab,
        wits,
        crep,
        pcrep,
        nrep,
        trrep,
        uft_form,
    )


# -- brute-force oracle ----------------------------------------------------------


@dataclass(frozen=True)
class OracleFinding:
    name: str
    ok: bool
    detail: str = ""


def oracle_check(
    ms: ModelSpace, report: ClassificationReport, u: Subspace,
    seed: int = 0, samples: int = 25,
) -> list:
    """Re-verify every reported flag from raw definitions.

    Violations come back as data (ok=False entries), never as exceptions.
    The real-flag search is sound only: a found witness (A, X) with
    0 != AX in U refutes the flag; absence proves nothing.
    """
    from .model import OP_I, OP_J, OP_K
    from .rng import Rng

    rng = Rng(seed)
    out = []

    def check(name, ok, detail=""):
        out.append(OracleFinding(name, bool(ok), detail))

    if u.dim == 0:
        check("empty-subspace", True, "vacuous")
        return out

    u0 = maximal_pq(u)
    check("u0-matches", u0 == report.u0)
    check("pure-flag", report.flags.pure == u0.is_zero())
    check(
        "pq-flag",
        report.flags.para_quaternionic == (u == product_subspace(p1p2(u)[0])),
    )
    sig = signature(ms, u)
    check("signature", sig.as_tuple() == report.signature.as_tuple())
    check("hermitian-flag", report.flags.hermitian == (sig.s == 0))
    dim_e = ms.dim_e
    for kind, wit in (
        ("complex", report.witnesses.complex),
        ("para_complex", report.witnesses.para_complex),
        ("nilpotent", report.witnesses.nilpotent),
    ):
        if wit is None:
            continue
        check(f"{kind}-witness-invariance", operator_preserves(wit, u))
        amat = wit.as_matrix(dim_e)
        check(
            f"{kind}-witness-square-identity",
            amat @ amat == Mat.identity(2 * dim_e).scale(-wit.q()),
        )
        sign_ok = {
            "complex": wit.q() > 0,
            "para_complex": wit.q() < 0,
            "nilpotent": wit.q() == 0 and not wit.is_zero(),
        }[kind]
        check(f"{kind}-witness-sign", sign_ok)
    # stabilizer nonzero refutes the real flag outright
    if report.flags.real:
        check("real-vs-stabilizer", report.stab.dim == 0)
    # random-sample witness search: sound refutation of the real flag
    violation = None
    for _ in range(samples):
        a = Operator(rng.rational(), rng.rational(), rng.rational())
        if a.is_zero():
            continue
        coeffs = rng.rationals(u.dim)
        x = [F0] * u.ambient
        for c, row in zip(coeffs, u.mat.rows):
            if c != 0:
                for j, v in enumerate(row):
                    x[j] += c * v
        ax = a.apply_coords(tuple(x))
        if any(v != 0 for v in ax) and u.contains_vector(ax):
            violation = (a, tuple(x))
            break
    if report.flags.real:
        check(
            "real-no-sampled-violation",
            violation is None,
            "" if violation is None else f"witness {violation[0]}",
        )
    # orthogonality refinements, straight from the Gram matrix
    if report.flags.totally_real:
        for name, op in (("I", OP_I), ("J", OP_J), ("K", OP_K)):
            check(
                f"totally-real-{name}-orthogonal",
                is_orthogonal(ms, image(op, u), u),
            )
    if report.complex_report and report.complex_report.pure_form:
        cr = report.complex_report
        # the anticommuting para-complex partner in the adapted basis
        jhat = _conjugated_operator(cr.basis, Mat(((F0, 1 / cr.scale), (F1, F0))))
        check(
            "totally-complex-gram",
            report.flags.totally_complex
            == (
                report.flags.hermitian
                and u0.is_zero()
                and is_orthogonal(ms, image(jhat, u), u)
            ),
        )
    # pure complex: any operator not proportional to the witness moves U off itself
    if (
        report.flags.complex
        and report.flags.pure
        and not report.flags.para_quaternionic
    ):
        check("pure-complex-witness-unique", report.stab.dim == 1)
        wit = report.witnesses.complex
        for _ in range(samples):
            b = Operator(rng.rational(), rng.rational(), rng.rational())
            if b.is_zero():
                continue
            if (
                b.alpha * wit.beta == b.beta * wit.alpha
                and b.alpha * wit.gamma == b.gamma * wit.alpha
                and b.beta * wit.gamma == b.gamma * wit.beta
            ):
                continue
            bu = image(b, u)
            if u.sum(bu).dim != u.dim + bu.dim:  # B U meets U
                check("pure-complex-moves-off", False, f"B={b}")
                break
        else:
            check("pure-complex-moves-off", True)
    # Hermitian product norm invariance under admissible basis changes
    vecs = u.basis_vectors
    for _ in range(2):
        x = vecs[rng.below(len(vecs))]
        y = vecs[rng.below(len(vecs))]
        base = ms.hermitian_product(x, y).imag().norm()
        ok = True
        for _ in range(3):
            s = random_sl2(rng)
            val = ms.hermitian_product(x, y, s).imag().norm()
            if val != base:
                ok = False
                break
        check("hermitian-norm-invariance", ok)
        if not ok:
            break
    if report.uft is not None:
        check("uft-round-trip", report.uft.span() == u)
    check("dim-bound-real", not report.flags.real or u.dim <= 2 * ms.n)
    check("dim-bound-totally-real", not report.flags.totally_real or u.dim <= ms.n)
    return out

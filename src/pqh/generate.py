"""Deterministic construction of subspace instances of every kind.

Kinds are built constructively from the structure theorems (e.g. a
complex instance is the graph of a conjugated block rotation, which
squares to -Id), then optionally twisted through a random unimodular
change of the H basis, which preserves every classification flag.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import F0, F1, Mat, _int_row, int_rref, vec_add
from .model import MAT_I, MAT_K, HBasisChange, ModelSpace, _h_act_int, tensor
from .rng import Rng
from .subspace import Subspace, decomposable_subspace, product_subspace
from .uft import _graph_row, _map_graph

KINDS = (
    "generic",
    "para_quaternionic",
    "complex",
    "totally_complex",
    "para_complex",
    "weakly_para_complex",
    "totally_para_complex",
    "nilpotent",
    "real",
    "totally_real",
    "decomposable",
)


def random_invertible(rng: Rng, size: int) -> Mat:
    while True:
        m = Mat([rng.rationals(size) for _ in range(size)], ncols=size)
        if m.det() != 0:
            return m


def random_subspace(rng: Rng, ambient: int, dim: int) -> Subspace:
    if dim > ambient:
        raise ValueError("dimension exceeds ambient")
    while True:
        u = Subspace.span([rng.rationals(ambient) for _ in range(dim)], ambient)
        if u.dim == dim:
            return u


def random_sl2_draws(rng: Rng) -> tuple:
    """The draws a, b, c of a random s = [[a, b], [c, d]] in SL(H), each as
    ``(num, den)`` (:meth:`~pqh.rng.Rng.rational_int`).

    a, b and c are drawn until a != 0, and d = (1 + bc) / a makes
    ad - bc = 1, so s^-1 is the adjugate [[d, -b], [-c, a]].
    """
    while True:
        a, b, c = rng.rational_int(), rng.rational_int(), rng.rational_int()
        if a[0]:
            return a, b, c


def random_sl2(rng: Rng) -> HBasisChange:
    """The H-basis change of :func:`random_sl2_draws`, from the same draws."""
    a, b, c = (Fraction(*x) for x in random_sl2_draws(rng))
    return HBasisChange(Mat(((a, b), (c, (1 + b * c) / a))))


def twist_h(u: Subspace, s: HBasisChange) -> Subspace:
    """Apply an SL(H) coordinate change to every vector (flag-preserving):
    one elimination of U's integer rows moved by s."""
    return Subspace._echelon([_h_act_int(s._from, V, D)[0] for V, D in u.int_basis()], u.ambient)


def _conjugated_graph(f_sub: Subspace, p: Mat, pr: Mat, s: HBasisChange) -> Subspace:
    """``twist_h(_map_graph(f_sub, f_sub, P R P^-1), s)`` for ``pr`` = P R,
    with no P^-1 and no elimination in standard coordinates."""
    # s commutes with B (+) B for F's reduced basis B, so U is (B (+) B) W
    # for W spanned by the rows s (P e_j, P R e_j); B (+) B takes W's reduced
    # rows to U's, pivot i < k to B's pivot p_i and k + i to 2n + p_i
    k, dim_e = f_sub.dim, f_sub.ambient
    rows = [_h_act_int(s._from, *_int_row(a + b))[0] for a, b in zip(p.cols, pr.cols)]
    reduced, pivots = int_rref(rows, 2 * k)
    identity = HBasisChange.identity()
    graph = [
        _graph_row(identity, f_sub.combine_int(V[:k], d), f_sub.combine_int(V[k:], d))
        for V, d in reduced
    ]
    b_pivots = f_sub.pivots
    return Subspace._of(
        graph, [b_pivots[q] if q < k else dim_e + b_pivots[q - k] for q in pivots], 2 * dim_e
    )


def _block_rotation(k: int) -> Mat:
    return Mat.identity(k // 2).kron(MAT_I)


def _reflection(k: int, plus: int) -> Mat:
    rows = [[F0] * k for _ in range(k)]
    for i in range(k):
        rows[i][i] = F1 if i < plus else -F1
    return Mat(rows)


def check_dim(n: int, kind: str, dim: int) -> None:
    """Raise ``ValueError`` unless :func:`generate` can build ``kind`` with ``dim``.

    Graph and decomposable kinds are at most 2n-dimensional; a complex
    graph has even dimension, the other graphs at least 1, and the totally
    complex and para-complex kinds are built from whole 2-planes.  A
    para-quaternionic instance H (x) E' has even dimension, 0 included; the
    nilpotent and (totally) real kinds clip ``dim`` to what they can build.
    """
    if kind in ("complex", "totally_complex", "totally_para_complex"):
        dims = range(2, 2 * n + 1, 2)
    elif kind in ("para_complex", "weakly_para_complex"):
        dims = range(1, 2 * n + 1)
    elif kind == "decomposable":
        dims = range(2 * n + 1)
    elif kind == "para_quaternionic":
        dims = range(0, 4 * n + 1, 2)
    else:
        dims = range(4 * n + 1)
    if dim not in dims:
        even = " (even)" if dims.step == 2 else ""
        raise ValueError(
            f"dim {dim} is out of range for kind {kind} at n = {n}: "
            f"{dims.start}..{dims[-1]}{even}"
        )


def generate(rng: Rng, n: int, kind: str, dim: int | None = None) -> Subspace:
    """One instance of the requested kind in the standard model of size n."""
    dim_e = 2 * n
    dim_v = 4 * n
    if dim is not None:
        check_dim(n, kind, dim)
    if kind == "generic":
        d = dim if dim is not None else 1 + rng.below(dim_v)
        return random_subspace(rng, dim_v, d)
    if kind == "para_quaternionic":
        k = dim // 2 if dim is not None else 1 + rng.below(dim_e)
        return product_subspace(random_subspace(rng, dim_e, k))
    if kind == "decomposable":
        k = dim if dim is not None else 1 + rng.below(dim_e)
        h = (rng.rational(), rng.nonzero_rational())
        return decomposable_subspace(h, random_subspace(rng, dim_e, k))
    if kind == "nilpotent":
        k1 = dim if dim is not None else 1 + rng.below(n)
        k1 = min(k1, dim_e - 1)
        e1p = random_subspace(rng, dim_e, k1)
        k2 = rng.below(k1 + 1)
        rows = [tensor((1, 0), f) for f in e1p.mat.rows]
        comp = e1p.complement()
        for i in range(k2):
            e2 = e1p.mat.rows[i]
            img = comp.mat.rows[rng.below(comp.dim)] if comp.dim else None
            vec = tensor((0, 1), e2)
            if img is not None:
                vec = vec_add(vec, tensor((1, 0), img))
            rows.append(vec)
        return Subspace.span(rows, dim_v)
    if kind in ("complex", "para_complex", "weakly_para_complex"):
        k = dim if dim is not None else 2 * (1 + rng.below(n))
        f_sub = random_subspace(rng, dim_e, k)
        p = random_invertible(rng, k)
        if kind == "complex":
            base = _block_rotation(k)
        elif kind == "para_complex":
            base = _reflection(k, k // 2)
        else:
            plus = 1 + rng.below(k - 1) if k > 1 else 1
            if 2 * plus == k:
                plus = k  # force unequal eigenspace dimensions
            base = _reflection(k, min(plus, k))
        return _conjugated_graph(f_sub, p, p @ base, random_sl2(rng))
    # the other graph kinds: T f_j = sum_i local[i][j] g_i over the bases of F and G
    if kind in ("totally_complex", "totally_para_complex"):
        m = dim // 2 if dim is not None else 1 + rng.below(n)
        pairs = sorted(rng_sample_pairs(rng, n, m))
        f_sub = g_sub = Subspace._unit_rows([j for p in pairs for j in (2 * p, 2 * p + 1)], dim_e)
        local = _block_rotation(2 * m) if kind == "totally_complex" else _tpc_blocks(2 * m)
    elif kind in ("real", "totally_real"):
        k = min(dim if dim is not None else 1 + rng.below(n), n)
        if kind == "real":
            # F on the first k coordinates, TF inside a disjoint block
            local = random_invertible(rng, k)
            f_cols, g_cols = range(k), range(k, 2 * k)
        else:
            # E1 on odd slots, E2 on even slots, symmetric invertible pairing
            while True:
                b = Mat([rng.rationals(k) for _ in range(k)], ncols=k)
                local = b + b.T
                if local.det() != 0:
                    break
            f_cols, g_cols = range(0, 2 * k, 2), range(1, 2 * k, 2)
        f_sub, g_sub = Subspace._unit_rows(f_cols, dim_e), Subspace._unit_rows(g_cols, dim_e)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return twist_h(_map_graph(f_sub, g_sub, local), random_sl2(rng))


def _tpc_blocks(k: int) -> Mat:
    """T with T^2 = Id, +1 eigenspace on odd slots, -1 on even slots."""
    return Mat.identity(k // 2).kron(-MAT_K)


def rng_sample_pairs(rng: Rng, n: int, m: int):
    pool = list(range(n))
    picked = []
    for _ in range(m):
        picked.append(pool.pop(rng.below(len(pool))))
    return picked


def standard_model(n: int) -> ModelSpace:
    return ModelSpace.standard(n)

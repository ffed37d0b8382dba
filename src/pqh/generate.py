"""Deterministic construction of subspace instances of every kind.

Kinds are built constructively from the structure theorems (e.g. a
complex instance is the graph of a conjugated block rotation, which
squares to -Id).  Every graph kind is twisted through a random
unimodular change of the H basis, which preserves every classification
flag, and is built by one ``uft.graph_in``: the graph of T on a subspace
S of E, given as plain-int rows over S's basis.  The complex kinds take
S = F and the rows (P e_j | P R e_j) for the random P of T = P R P^-1,
where P R is a signed permutation of P's columns; the totally complex
and para-complex kinds take the unit rows of the picked coordinate
pairs, and the (totally) real kinds those of the first 2k coordinates.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import F0, Mat, _int_row, _int_rows, vec_add
from .model import HBasisChange, ModelSpace, tensor
from .rng import Rng
from .subspace import Subspace, decomposable_subspace, product_subspace
from .uft import graph_in

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


def _signed_rows(cols: list, partner, signs) -> list:
    """The plain-int rows (P e_j | P R e_j), cleared over one denominator,
    for the columns P e_j of P and the signed permutation
    R e_j = signs[j] e_partner[j]: P R is P with its columns permuted and
    negated, so no product is taken."""
    ints, _ = _int_rows(cols)
    return [c + [sg * x for x in ints[q]] for c, q, sg in zip(ints, partner, signs)]


def check_dim(n: int, kind: str, dim: int) -> None:
    """Raise ``ValueError`` unless :func:`generate` can build ``kind`` with ``dim``.

    Graph and decomposable kinds are at most 2n-dimensional.  A complex
    graph has even dimension, and so has a strict para-complex one, whose
    eigenspaces d+ = d- are equal; the weakly para-complex graph has at
    least 1, and the totally complex and para-complex kinds are built from
    whole 2-planes.  A para-quaternionic instance H (x) E' has even
    dimension, 0 included.  The nilpotent kind needs dim >= 1, since the
    zero subspace has no nilpotent witness; it and the (totally) real
    kinds clip ``dim`` to what they can build.
    """
    if kind in ("complex", "para_complex", "totally_complex", "totally_para_complex"):
        dims = range(2, 2 * n + 1, 2)
    elif kind == "weakly_para_complex":
        dims = range(1, 2 * n + 1)
    elif kind == "decomposable":
        dims = range(2 * n + 1)
    elif kind == "para_quaternionic":
        dims = range(0, 4 * n + 1, 2)
    elif kind == "nilpotent":
        dims = range(1, 4 * n + 1)
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
    # the graph kinds: T on a subspace S of E, given over S's basis
    if kind in ("complex", "para_complex", "weakly_para_complex"):
        # T = P R P^-1 for a block rotation or a reflection R, so over F's
        # basis the graph vectors are (P e_j | P R e_j)
        k = dim if dim is not None else 2 * (1 + rng.below(n))
        space = random_subspace(rng, dim_e, k)
        cols = random_invertible(rng, k).cols
        if kind == "complex":
            rows = _signed_rows(cols, [j ^ 1 for j in range(k)], [(-1) ** j for j in range(k)])
        else:
            plus = k // 2
            if kind == "weakly_para_complex":
                plus = 1 + rng.below(k - 1) if k > 1 else 1
                if 2 * plus == k:
                    plus = k  # force unequal eigenspace dimensions
            rows = _signed_rows(cols, range(k), [1 if j < plus else -1 for j in range(k)])
    elif kind in ("totally_complex", "totally_para_complex"):
        # on the picked coordinate pairs, T is the block rotation or
        # diag(1, -1), with its +1 eigenspace on the odd slots
        m = dim // 2 if dim is not None else 1 + rng.below(n)
        pairs = sorted(rng_sample_pairs(rng, n, m))
        space = Subspace._unit_rows([j for p in pairs for j in (2 * p, 2 * p + 1)], dim_e)
        k = 2 * m
        cols = [[int(i == j) for i in range(k)] for j in range(k)]
        partner = [j ^ 1 for j in range(k)] if kind == "totally_complex" else range(k)
        rows = _signed_rows(cols, partner, [(-1) ** j for j in range(k)])
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
        # S is the first 2k coordinates; T takes the j-th F slot to column
        # j of local on the G slots
        space = Subspace._unit_rows(range(2 * k), dim_e)
        rows = []
        for f, c in zip(f_cols, local.cols):
            x, y = [0] * (2 * k), [F0] * (2 * k)
            x[f] = 1
            for g, v in zip(g_cols, c):
                y[g] = v
            rows.append(_int_row(x + y)[0])
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return graph_in(space, rows, random_sl2(rng))


def rng_sample_pairs(rng: Rng, n: int, m: int):
    pool = list(range(n))
    picked = []
    for _ in range(m):
        picked.append(pool.pop(rng.below(len(pool))))
    return picked


def standard_model(n: int) -> ModelSpace:
    return ModelSpace.standard(n)

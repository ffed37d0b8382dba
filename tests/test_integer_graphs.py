"""Graphs are built from integer rows, with no ``Mat`` product of basis rows.

Every graph kind of ``generate``, twisted by s in SL(H), and form 2's E0
part are one ``uft.graph_in``: the graph of T on a subspace S of E, given
as plain-int rows over S's canonical basis, eliminated in S's
coordinates.  ``_eigenfree_inside`` sums integer rows, and
``check_nilpotent``'s real part is the ``_graph_row`` rows
h1' (x) T~e + h2' (x) e.  The ``reference`` copies are ``Mat`` products
of the rows with S's basis, then a ``Fraction`` twist, or the code
before, which built T as F^T t by a ``Mat`` product, or spanned
``Fraction`` rows; the canonical subspaces must be equal:

- ``generate`` on every kind at n = 1-4, seeds 0-7;
- form 2 on ``tests/data/para_complex_with_u0.json`` and on generic
  instances with 0 < dim U0 < dim U, dim E0 from 1 to 6;
- ``_eigenfree_inside`` on the eigen-groups of the para-complex kinds and
  on random direct sums of two to four groups;
- the nilpotent real part on the nilpotent kind, as built and twisted.
"""

from importlib import import_module
from pathlib import Path

import reference as ref
from conftest import random_sl2

from pqh.classify import check_nilpotent, classify
from pqh.generate import KINDS, generate, random_invertible, random_subspace
from pqh.instances import load_instance
from pqh.linalg import Mat
from pqh.model import ModelSpace
from pqh.rng import Rng
from pqh.subspace import Subspace, product_subspace
from pqh.uft import decompose_form2, pq_split

GENERATE = import_module("pqh.generate")
UFT = import_module("pqh.uft")
DATA = Path(__file__).parent / "data"


def spy_graph_in(monkeypatch, module, seen):
    """Wrap ``graph_in`` as ``module`` reads it: S must be canonical, each
    row plain ints of length 2 dim S, and the graph must equal the span of
    the vectors (x B | y B) for S's basis B, by ``Mat`` products, twisted
    by s through ``Fraction`` rows."""
    real = UFT.graph_in

    def spy(space, rows, s):
        got = real(space, rows, s)
        k, basis = space.dim, space.mat
        assert space == Subspace(space.mat)
        assert all(len(r) == 2 * k and all(type(x) is int for x in r) for r in rows)
        xs, ys = (Mat([r[a : a + k] for r in rows], ncols=k) @ basis for a in (0, k))
        graph = Subspace.span([x + y for x, y in zip(xs.rows, ys.rows)], 2 * space.ambient)
        assert got == ref.twist_h(graph, s)
        seen.append((space, got))
        return got

    monkeypatch.setattr(module, "graph_in", spy)


def test_generate_graphs_and_twists_match_the_mat_reference(monkeypatch):
    graphs = []
    spy_graph_in(monkeypatch, GENERATE, graphs)
    for kind in KINDS:
        for n in range(1, 5):
            for seed in range(8):
                generate(Rng(seed), n, kind)
    # the seven graph kinds, each built and twisted by one call
    assert len(graphs) == 7 * 4 * 8
    assert any(space != Subspace._unit_rows(space.pivots, space.ambient) for space, _ in graphs)
    assert any(got.dim < got.ambient // 2 for _, got in graphs)


def test_generate_multiplies_no_basis_rows(monkeypatch):
    """No graph kind runs a ``Mat`` product: P R of the complex kinds is a
    signed permutation of P's columns."""
    calls = []
    matmul = Mat.__matmul__

    def counting(self, other):
        calls.append(1)
        return matmul(self, other)

    monkeypatch.setattr(Mat, "__matmul__", counting)
    for kind in KINDS:
        for seed in range(4):
            calls.clear()
            generate(Rng(seed), 3, kind)
            assert len(calls) == 0, kind


def with_u0_instances():
    """(U, dim E0) with 0 < dim U0 < dim U: the data file, generic U with
    dim E0 = 2 (dim U - 3n), and H (x) E' plus a random line or plane."""
    _ms, u, *_ = load_instance(str(DATA / "para_complex_with_u0.json"))
    yield u
    for n, dim in ((2, 7), (3, 10), (3, 11), (4, 13), (4, 14), (4, 15)):
        for seed in range(3):
            yield generate(Rng(seed), n, "generic", dim)
    for seed in range(12):
        rng = Rng(500 + seed)
        n = 2 + seed % 3
        e_prime = random_subspace(rng, 2 * n, 1 + seed % 3)
        yield product_subspace(e_prime).sum(random_subspace(rng, 4 * n, 1 + seed % 2))


def test_form2_e0_graph_matches_the_mat_reference(monkeypatch):
    graphs = []
    spy_graph_in(monkeypatch, UFT, graphs)
    e0_dims = set()
    for u in with_u0_instances():
        u0, e0, _ = pq_split(u)
        assert 0 < u0.dim < u.dim
        graphs.clear()
        decompose_form2(u)
        if e0.dim > 1:
            ((space, got),) = graphs
            assert space == e0 and got == ref.form2_e0_graph(e0)
        else:
            assert graphs == []
        e0_dims.add(e0.dim)
    assert e0_dims >= {1, 2, 3, 4, 6}


def test_eigenfree_inside_matches_the_fraction_reference(monkeypatch):
    seen = []
    real = UFT._eigenfree_inside

    def spy(groups):
        got = real(groups)
        assert got == ref._eigenfree_inside(groups)
        seen.append(len(groups))
        return got

    monkeypatch.setattr(UFT, "_eigenfree_inside", spy)
    for kind in ("para_complex", "weakly_para_complex"):
        for n in range(1, 5):
            for seed in range(6):
                decompose_form2(generate(Rng(seed), n, kind))
    assert max(seen) >= 2
    # random direct sums: consecutive row blocks of an invertible matrix
    for seed in range(40):
        rng = Rng(800 + seed)
        k = 2 + seed % 6
        rows = random_invertible(rng, k).rows
        cuts = sorted({0, k, *(1 + rng.below(k - 1) for _ in range(1 + seed % 3))})
        groups = [Subspace.span(rows[a:b], k) for a, b in zip(cuts, cuts[1:])]
        groups.sort(key=lambda g: -g.dim)
        assert real(groups) == ref._eigenfree_inside(groups)


def test_nilpotent_real_part_matches_the_from_basis_reference():
    dims = []
    for n in range(1, 5):
        ms = ModelSpace.standard(n)
        for seed in range(8):
            u = generate(Rng(seed), n, "nilpotent")
            for v in (u, ref.twist_h_rows(u, random_sl2(Rng(300 + seed)))):
                a = classify(ms, v).witnesses.nilpotent
                if a is None:
                    continue
                real_part = check_nilpotent(ms, v, a).real_part
                assert real_part == ref.nilpotent_real_part(v, a)
                dims.append(real_part.dim)
    assert len(dims) >= 40 and max(dims) >= 2

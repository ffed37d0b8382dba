"""Graphs are built from integer rows, with no ``Mat`` product of basis rows.

``generate``'s totally complex and real kinds and form 2's E0 part build
the graph of a local map with ``uft._map_graph`` (each T f_j one
``combine_int``), the complex kinds build it in F's coordinates,
``generate.twist_h`` moves U's integer rows by s, ``_eigenfree_inside``
sums integer rows, and ``check_nilpotent``'s real part is the
``_graph_row`` rows h1' (x) T~e + h2' (x) e.  The ``reference`` copies are
the code before, which built T as F^T t by a ``Mat`` product, or spanned
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
from pqh.generate import KINDS, generate, random_invertible, random_subspace, twist_h
from pqh.instances import load_instance
from pqh.linalg import Mat
from pqh.model import ModelSpace
from pqh.rng import Rng
from pqh.subspace import Subspace, product_subspace
from pqh.uft import decompose_form2, pq_split

GENERATE = import_module("pqh.generate")
UFT = import_module("pqh.uft")
DATA = Path(__file__).parent / "data"


def spy_map_graph(monkeypatch, module, seen):
    """Wrap ``_map_graph`` as ``module`` reads it: every graph must equal
    the reference built from T = G^T t, and F and G must be canonical."""
    real = UFT._map_graph

    def spy(f_space, g_space, local):
        got = real(f_space, g_space, local)
        assert f_space == Subspace(f_space.mat) and g_space == Subspace(g_space.mat)
        assert got == ref.generate_graph(f_space, g_space.mat.T @ local)
        seen.append((f_space, g_space, got))
        return got

    monkeypatch.setattr(module, "_map_graph", spy)


def test_generate_graphs_and_twists_match_the_mat_reference(monkeypatch):
    graphs, twists, conjugated = [], [], []
    spy_map_graph(monkeypatch, GENERATE, graphs)
    real_twist = GENERATE.twist_h
    real_conjugated = GENERATE._conjugated_graph

    def spy_twist(u, s):
        got = real_twist(u, s)
        assert got == ref.twist_h(u, s)
        twists.append(got)
        return got

    def spy_conjugated(f_sub, p, pr, s):
        # the twisted graph of the local map P R P^-1, built as before
        got = real_conjugated(f_sub, p, pr, s)
        graph = ref.generate_graph(f_sub, f_sub.mat.T @ (pr @ p.inverse()))
        assert got == ref.twist_h(graph, s)
        conjugated.append(got)
        return got

    monkeypatch.setattr(GENERATE, "twist_h", spy_twist)
    monkeypatch.setattr(GENERATE, "_conjugated_graph", spy_conjugated)
    for kind in KINDS:
        for n in range(1, 5):
            for seed in range(8):
                generate(Rng(seed), n, kind)
    # four graph kinds built by _map_graph and twisted once per instance,
    # and three built and twisted in F's coordinates
    assert len(graphs) == len(twists) == 4 * 4 * 8
    assert len(conjugated) == 3 * 4 * 8
    assert any(f != g for f, g, _ in graphs)


def test_generate_multiplies_no_basis_rows(monkeypatch):
    """Only P R of the complex kinds is a ``Mat`` product; the totally and
    real kinds run none."""
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
            expected = 1 if kind in ("complex", "para_complex", "weakly_para_complex") else 0
            assert len(calls) == expected, kind


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
    spy_map_graph(monkeypatch, UFT, graphs)
    e0_dims = set()
    for u in with_u0_instances():
        u0, e0, _ = pq_split(u)
        assert 0 < u0.dim < u.dim
        graphs.clear()
        decompose_form2(u)
        if e0.dim > 1:
            ((f_space, g_space, got),) = graphs
            assert f_space == g_space == e0 and got == ref.form2_e0_graph(e0)
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
            for v in (u, twist_h(u, random_sl2(Rng(300 + seed)))):
                a = classify(ms, v).witnesses.nilpotent
                if a is None:
                    continue
                real_part = check_nilpotent(ms, v, a).real_part
                assert real_part == ref.nilpotent_real_part(v, a)
                dims.append(real_part.dim)
    assert len(dims) >= 40 and max(dims) >= 2

"""Answers read off the structure already held, against the eliminations
they replaced.

- ``direct_sum_is`` decides by certificate: the dimensions add up, each
  part lies in the whole, and a full ``rank_mod`` of the stacked rows
  proves them independent; only a shortfall spans the parts.
- ``Subspace.complement_in`` reads the rows it drops off one elimination
  of self's rows in larger's coordinates, with the columns reversed.
- ``generate`` builds and twists every graph kind in the coordinates of
  a subspace S of E, by one ``uft.graph_in``.
- ``UFTForm.span`` over the standard basis of H reads the graph rows as
  the canonical basis.
- ``linalg._krylov_charpoly`` lifts balanced digits until the residual is
  exactly zero.

Each reference is the code before (``tests/reference.py``) or an
independent route, and must give the same rows and pivots.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import complement_in as ref_complement_in
from reference import twist_h_rows
from reference import direct_sum_is_by_span, generate_map_graph, map_graph
from reference import twist_h as ref_twist_h
from test_model import h_basis_changes
from test_rank_certificates import big, int_rows, small

import pqh.linalg
import pqh.subspace
from pqh.generate import KINDS, check_dim, generate, random_sl2
from pqh.linalg import M127, Mat, _faddeev_charpoly, _krylov_charpoly
from pqh.rng import Rng
from pqh.subspace import Subspace, direct_sum_is, span_of
from pqh.uft import UFTForm, graph_form, graph_in, injectivize

SETTINGS = settings(max_examples=60, deadline=None)
bits500 = st.integers(-(1 << 500), 1 << 500)


def same(u, v):
    return u == v and u.pivots == v.pivots


@st.composite
def spanned(draw, ambient, nrows, entries):
    """The span of ``nrows`` drawn rows (dense, rank-deficient, or
    rank-deficient mod P30 only)."""
    return Subspace.span(draw(int_rows(nrows, ambient, entries)), ambient)


# -- direct_sum_is -------------------------------------------------------------


@st.composite
def sum_cases(draw):
    """(whole, parts): a true split of the whole, overlapping parts, a part
    outside the whole, or dependent parts whose dimensions add up."""
    entries = draw(st.sampled_from([big, bits500]))
    ambient = draw(st.integers(1, 6))
    whole = draw(spanned(ambient, draw(st.integers(0, ambient)), entries))
    shape = draw(st.sampled_from(["split", "overlap", "outside", "dependent", "mod_p"]))
    rows = whole.int_basis()
    if shape == "split" or whole.dim < 2:
        # the rows of a drawn (maybe singular) change of basis, cut in groups
        combos = draw(int_rows(whole.dim, whole.dim, entries))
        moved = [V for V, _ in map(whole.combine_int, combos)]
        cuts = sorted(draw(st.lists(st.integers(0, len(moved)), max_size=3)))
        bounds = [0, *cuts, len(moved)]
        return whole, [Subspace._echelon(moved[a:b], ambient) for a, b in zip(bounds, bounds[1:])]
    if shape == "overlap":  # both parts hold the first row
        return whole, [Subspace._echelon([rows[0][0]], ambient), whole]
    if shape == "outside":  # same dimensions, one part drawn anywhere
        part = draw(spanned(ambient, 1, entries))
        return whole, [part, Subspace._echelon([V for V, _ in rows[1:]], ambient)]
    if shape == "dependent":  # dims add up, but the parts share a line
        k = whole.dim
        first = Subspace._echelon([V for V, _ in rows[: k - 1]], ambient)
        return whole, [first, Subspace._echelon([rows[0][0]], ambient)]
    # full rank over Q, dependent mod P30: the certificate must fall back
    a, b = rows[0][0], rows[1][0]
    bent = [x + pqh.linalg.P30 * y for x, y in zip(a, b)]
    rest = Subspace._echelon([V for V, _ in rows[2:]], ambient)
    return whole, [Subspace._echelon([bent], ambient), Subspace._echelon([a], ambient), rest]


@SETTINGS
@given(sum_cases())
def test_direct_sum_is_matches_the_span_reference(case):
    whole, parts = case
    assert direct_sum_is(whole, parts) == direct_sum_is_by_span(whole, parts)


@pytest.mark.parametrize("seed", range(6))
def test_forged_sums_are_refused(seed):
    rng = Rng(seed)
    whole = Subspace.span([rng.rationals(6) for _ in range(4)], 6)
    a, b, c, d = (Subspace._echelon([V], 6) for V, _ in whole.int_basis())
    assert direct_sum_is(whole, [a, b, c, d])
    assert direct_sum_is(whole, [a.sum(b), c.sum(d)])
    # overlapping parts: dimensions add up to 5
    assert not direct_sum_is(whole, [a.sum(b), b.sum(c).sum(d)])
    # a part outside the whole, dimensions adding up
    outside = Subspace.span([rng.rationals(6)], 6)
    assert not whole.contains(outside)
    assert not direct_sum_is(whole, [outside, b, c, d])
    # dependent parts inside the whole whose dimensions add up
    assert not direct_sum_is(whole, [a.sum(b), a.sum(c)])
    assert not direct_sum_is(whole, [a, a, b, c])


def test_a_rank_mod_shortfall_reaches_the_fallback(monkeypatch):
    spans = []

    def short(rows, width):
        return len(rows) - 1

    def spy(parts, ambient):
        spans.append(len(parts))
        return span_of(parts, ambient)

    rng = Rng(3)
    whole = Subspace.span([rng.rationals(5) for _ in range(3)], 5)
    a, b, c = (Subspace._echelon([V], 5) for V, _ in whole.int_basis())
    ab = a.sum(b)
    monkeypatch.setattr(pqh.subspace, "rank_mod", short)
    monkeypatch.setattr(pqh.subspace, "span_of", spy)
    assert direct_sum_is(whole, [ab, c])
    assert not direct_sum_is(whole, [ab, a])
    assert spans == [2, 2]


# -- complement_in -------------------------------------------------------------


@st.composite
def nested_pairs(draw):
    entries = draw(st.sampled_from([big, bits500]))
    ambient = draw(st.integers(1, 7))
    larger = draw(spanned(ambient, draw(st.integers(0, ambient)), entries))
    kind = draw(st.sampled_from(["zero", "all", "combos"]))
    if kind == "zero" or not larger.dim:
        return Subspace.zero(ambient), larger
    if kind == "all":
        return larger, larger
    combos = draw(int_rows(draw(st.integers(1, larger.dim)), larger.dim, entries))
    # zero coordinates move the last nonzero one, which decides the rows kept
    gone = draw(st.sets(st.integers(0, larger.dim - 1)))
    combos = [[0 if j in gone else x for j, x in enumerate(c)] for c in combos]
    rows = [larger.combine_int(c) for c in combos]
    return Subspace._echelon([V for V, _ in rows], ambient), larger


@SETTINGS
@given(nested_pairs())
def test_complement_in_matches_the_stacked_reference(pair):
    small, larger = pair
    comp = small.complement_in(larger)
    assert same(comp, ref_complement_in(small, larger))
    assert comp.dim == larger.dim - small.dim
    assert direct_sum_is(larger, [small, comp])


def test_complement_in_refuses_a_subspace_outside():
    larger = Subspace.span([(1, 2, 3, 0), (0, 1, 1, 1)], 4)
    with pytest.raises(ValueError, match="containing"):
        Subspace.span([(0, 0, 0, 1)], 4).complement_in(larger)


# -- generate ------------------------------------------------------------------

GRAPH_KINDS = (
    "complex",
    "para_complex",
    "weakly_para_complex",
    "totally_complex",
    "totally_para_complex",
    "real",
    "totally_real",
)


def accepted_dims(n, kind):
    dims = []
    for dim in range(4 * n + 1):
        try:
            check_dim(n, kind, dim)
        except ValueError:
            continue
        dims.append(dim)
    return dims


@pytest.mark.parametrize("kind", GRAPH_KINDS)
@pytest.mark.parametrize("n", range(1, 7))
def test_generate_matches_the_map_graph_then_twist_route(kind, n):
    for seed in range(16):
        assert same(generate(Rng(seed), n, kind), generate_map_graph(Rng(seed), n, kind))
    dims = accepted_dims(n, kind)
    for dim in (dims[0], dims[-1]):
        for seed in range(4):
            new = generate(Rng(seed), n, kind, dim)
            # the (totally) real kinds clip dim to n
            assert new.dim == (min(dim, n) if "real" in kind else dim)
            assert same(new, generate_map_graph(Rng(seed), n, kind, dim))


@pytest.mark.parametrize("kind", GRAPH_KINDS)
def test_generate_leaves_the_stream_where_it_was(kind):
    rng, ref = Rng(9), Rng(9)
    generate(rng, 3, kind)
    generate_map_graph(ref, 3, kind)
    assert rng.below(1 << 60) == ref.below(1 << 60)


# -- graph_in -----------------------------------------------------------------


@st.composite
def graph_spaces(draw):
    """A subspace S of E: zero, the whole of E, unit rows, or the span of
    dense, rank-deficient or 100-bit integer rows."""
    dim_e = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(("zero", "full", "unit", "dense")))
    if shape == "zero":
        return Subspace.zero(dim_e)
    if shape == "full":
        return Subspace.full(dim_e)
    if shape == "unit":
        return Subspace._unit_rows(sorted(draw(st.sets(st.integers(0, dim_e - 1)))), dim_e)
    nrows = draw(st.integers(1, dim_e))
    rows = draw(int_rows(nrows, dim_e, draw(st.sampled_from((small, big)))))
    return Subspace._echelon(rows, dim_e)


@SETTINGS
@given(graph_spaces(), h_basis_changes(), st.data())
def test_graph_in_matches_the_map_graph_then_twist_route(space, s, data):
    # T on S's basis rows b_j is column j of local, so row j is (e_j | local e_j)
    k = space.dim
    entries = data.draw(st.sampled_from((small, big)))
    local = [data.draw(st.lists(entries, min_size=k, max_size=k)) for _ in range(k)]
    rows = [[int(i == j) for i in range(k)] + list(c) for j, c in enumerate(zip(*local))]
    got = graph_in(space, rows, s)
    assert same(got, twist_h_rows(map_graph(space, space, Mat(local, ncols=k)), s))
    assert got.dim == k


@SETTINGS
@given(graph_spaces(), h_basis_changes(), st.data())
def test_graph_in_spans_any_rows_over_the_basis(space, s, data):
    # rows of any count, dependent ones included, against Fraction rows
    # (x B | y B) for S's basis B, twisted by s
    k = space.dim
    m = data.draw(st.integers(0, 2 * k + 1))
    rows = data.draw(int_rows(m, 2 * k, data.draw(st.sampled_from((small, big)))))
    xs, ys = (Mat([r[a : a + k] for r in rows], ncols=k) @ space.mat for a in (0, k))
    vectors = [x + y for x, y in zip(xs.rows, ys.rows)]
    expected = ref_twist_h(Subspace.span(vectors, 2 * space.ambient), s)
    assert same(graph_in(space, rows, s), expected)


# -- UFTForm.span --------------------------------------------------------------


def echelon_span(form):
    return Subspace._echelon([V for V, _ in form.graph_rows()], 2 * form.dim_e)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_span_reads_off_or_eliminates_as_the_graph_rows_give(n):
    routes = {"read": 0, "eliminate": 0}
    for kind in KINDS:
        for seed in range(3):
            u = generate(Rng(seed), n, kind)
            form = graph_form(u)
            if form is None:
                continue
            s = random_sl2(Rng(100 + seed))
            # the same F and T over a twisted basis of H span the twist
            twisted = UFTForm(s, form.f_space, form.t_cols)
            for f in (form, injectivize(form), twisted):
                identity = f.h_basis.mat.rows == ((1, 0), (0, 1))
                routes["read" if identity else "eliminate"] += 1
                assert same(f.span(), echelon_span(f))
            assert same(form.span(), u)
            if form.h_basis.mat.rows == ((1, 0), (0, 1)):
                assert same(twisted.span(), twist_h_rows(u, s))
    assert routes["read"] and routes["eliminate"]


# -- the Krylov-Dixon charpoly -------------------------------------------------


def companion(coeffs):
    """The integer companion matrix of x^n + sum c_k x^k, e_0 cyclic."""
    n = len(coeffs)
    return [[int(j == i - 1) for j in range(n - 1)] + [-coeffs[i]] for i in range(n)]


def digits(b):
    """Balanced M127 digits the longest entry of b needs."""
    k = 0
    while any(2 * abs(x) >= M127**k for x in b):
        k += 1
    return k


@st.composite
def krylov_cases(draw):
    entries = draw(st.sampled_from([st.integers(-9, 9), big, bits500]))
    n = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["dense", "companion", "singular", "negative"]))
    if shape == "dense":
        return [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    coeffs = draw(st.lists(entries, min_size=n, max_size=n))
    if shape == "singular":  # b_0 = 0
        coeffs[0] = 0
    if shape == "negative":
        coeffs = [-abs(c) - 1 for c in coeffs]
    b = companion(coeffs)
    # conjugate by a unit upper triangular matrix so the digits mix
    p = [[int(i == j) or (j > i and draw(st.integers(-3, 3))) for j in range(n)] for i in range(n)]
    bp = [[sum(b[i][k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    # P^-1 of unit upper triangular, by back substitution over Z
    inv = [[0] * n for _ in range(n)]
    for j in range(n):
        for i in range(n - 1, -1, -1):
            inv[i][j] = int(i == j) - sum(p[i][k] * inv[k][j] for k in range(i + 1, n))
    return [[sum(inv[i][k] * bp[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


@settings(max_examples=120, deadline=None)
@given(krylov_cases())
def test_krylov_charpoly_matches_faddeev(B):
    got = _krylov_charpoly(B)
    ref = _faddeev_charpoly(B)
    if got is not None:
        assert list(got) == list(ref)


def lift_steps(monkeypatch, B):
    calls = []
    solve = pqh.linalg._lu_solve_mod

    def spy(lu, r, p):
        calls.append(1)
        return solve(lu, r, p)

    monkeypatch.setattr(pqh.linalg, "_lu_solve_mod", spy)
    return _krylov_charpoly(B), len(calls)


@pytest.mark.parametrize(
    "B",
    [
        [[5]],
        [[0]],
        [[-(1 << 500)]],
        companion([-7, 3, -2]),
        companion([0, 1 << 200, -(1 << 300)]),
        companion([(1 << 130) + 1, -(1 << 254), 3, 0]),
    ],
)
def test_the_lift_stops_at_the_digits_the_coefficients_need(monkeypatch, B):
    got, steps = lift_steps(monkeypatch, B)
    assert list(got) == list(_faddeev_charpoly(B))
    assert steps == digits(got[:-1])


def test_a_workload_sized_lift_takes_more_than_one_step(monkeypatch):
    B = companion([(1 << 400) - 3, -(1 << 180), 7, -(1 << 700), 11])
    got, steps = lift_steps(monkeypatch, B)
    assert list(got) == list(_faddeev_charpoly(B))
    assert steps == digits(got[:-1]) == 6


@pytest.mark.parametrize("offset", [1, M127 - 1, M127 >> 1])
def test_a_wrong_digit_raises_and_returns_nothing(monkeypatch, offset):
    solve = pqh.linalg._lu_solve_mod

    def wrong(lu, r, p):
        x = solve(lu, r, p)
        x[0] = (x[0] + offset) % p
        return x

    monkeypatch.setattr(pqh.linalg, "_lu_solve_mod", wrong)
    for B in (companion([5, -3, 2]), companion([1 << 300, -(1 << 200), 1])):
        with pytest.raises(AssertionError):
            _krylov_charpoly(B)

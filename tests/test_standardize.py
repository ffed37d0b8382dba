"""``standardize`` against its previous version, and the algebra that let it
drop checks.

``model.standardize`` checks only the unit relations -I^2 = J^2 = K^2 = Id
and the product relation IJ = K.  The previous version
(``reference.frac_standardize``, on ``Fraction`` matrices) also checked
every anticommutation and that J's eigenspaces are halves of V; both follow
from the relations (K^2 = IJIJ = Id gives JI = -IJ, and K then swaps the
eigenspaces).  On conjugates P (I, J, K) P^-1 of the standard triple at
d = 2, 4 and 6, with small and ~100-bit entries, the two give the same basis
and pair count; on broken triples they raise the same ``StructureError``.
"""

from itertools import product

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pqh.linalg import Mat
from pqh.model import MAT_I, MAT_J, MAT_K, StructureError, standardize
from reference import FracMat, frac_standardize, mat_neg

SETTINGS = settings(max_examples=30, deadline=None)

small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
bits100 = st.integers(-(2**100), 2**100)


@st.composite
def conjugated_triples(draw, sizes=(1, 2, 3)):
    """P (I, J, K) P^-1 for the standard triple on Q^2k and an invertible P
    with small or ~100-bit entries."""
    k = draw(st.sampled_from(sizes))
    d = 2 * k
    entries = draw(st.sampled_from([small, bits100]))
    p = Mat(draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d)))
    assume(p.det() != 0)
    pinv = p.inverse()
    return tuple(p @ Mat.identity(k).kron(m) @ pinv for m in (MAT_I, MAT_J, MAT_K))


def outcome(fn, triple):
    """(basis rows, pairs) of a standardization, or the StructureError message."""
    try:
        std = fn(*triple)
    except StructureError as exc:
        return "error", str(exc)
    return std.basis.rows, std.pairs


def both(triple):
    return outcome(standardize, triple), outcome(frac_standardize, [FracMat(m.rows) for m in triple])


@SETTINGS
@given(conjugated_triples())
def test_conjugated_triples_match_the_previous_standardize(triple):
    new, old = both(triple)
    assert new == old and new[0] != "error"


@SETTINGS
@given(conjugated_triples(), st.data())
def test_broken_triples_raise_the_same_error(triple, data):
    i_m, j_m, k_m = triple
    d = i_m.nrows
    how = data.draw(st.sampled_from(["perturb", "j_plus", "j_minus", "k_negated"]))
    if how == "perturb":  # one entry of one matrix moved
        which = data.draw(st.integers(0, 2))
        r, c = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
        delta = data.draw(small.filter(bool) | bits100.filter(bool))
        rows = [list(row) for row in triple[which].rows]
        rows[r][c] += delta
        triple = list(triple)
        triple[which] = Mat(rows)
    elif how in ("j_plus", "j_minus"):  # J = +-Id
        triple = (i_m, Mat.scalar(d, 1 if how == "j_plus" else -1), k_m)
    else:  # IJ = K != -K
        triple = (i_m, j_m, mat_neg(k_m))
    new, old = both(triple)
    assert new == old and new[0] == "error"


def anticommute(a: Mat, b: Mat) -> bool:
    return a @ b == mat_neg(b @ a)


def relations_hold(i_m: Mat, j_m: Mat, k_m: Mat) -> bool:
    d = i_m.nrows
    one = Mat.identity(d)
    units = i_m @ i_m == Mat.scalar(d, -1) and j_m @ j_m == one and k_m @ k_m == one
    return units and i_m @ j_m == k_m


def test_relations_imply_anticommutation_on_small_2x2_matrices():
    """Every I, J with entries in {-1, 0, 1} and K = IJ: when the unit
    relations hold, so do all three anticommutations.  Pairs with I^2 = -Id
    and J^2 = Id whose K^2 != Id exist, so the unit relation on K is what
    decides."""
    mats = [Mat((e[:2], e[2:])) for e in product((-1, 0, 1), repeat=4)]
    one, minus = Mat.identity(2), Mat.scalar(2, -1)
    complex_ = [m for m in mats if m @ m == minus]
    involutions = [m for m in mats if m @ m == one]
    passing = failing = 0
    for i_m, j_m in product(complex_, involutions):
        k_m = i_m @ j_m
        if relations_hold(i_m, j_m, k_m):
            passing += 1
            assert anticommute(i_m, j_m) and anticommute(j_m, k_m) and anticommute(i_m, k_m)
        else:
            failing += 1
    assert passing and failing


@SETTINGS
@given(
    st.sampled_from((1, 2, 3)).flatmap(
        lambda k: st.tuples(conjugated_triples((k,)), conjugated_triples((k,)))
    ),
    st.booleans(),
)
def test_relations_imply_anticommutation(pair, mixed):
    """I from one conjugated triple and J from the same or another one of
    the same size, with K = IJ: whenever the unit and product relations
    hold, every pair of the three anticommutes."""
    first, second = pair
    i_m, j_m = first[0], (second if mixed else first)[1]
    k_m = i_m @ j_m
    if relations_hold(i_m, j_m, k_m):
        assert anticommute(i_m, j_m) and anticommute(j_m, k_m) and anticommute(i_m, k_m)


def test_zero_space_gives_an_empty_standardization():
    """On V = 0 the three 0 x 0 matrices satisfy every relation, and the
    standardization is the 0 x 0 basis with no pairs."""
    empty = Mat((), ncols=0)
    std = standardize(empty, empty, empty)
    assert std.basis.shape == (0, 0) and std.pairs == 0

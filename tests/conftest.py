from fractions import Fraction

import pytest

from pqh.generate import random_sl2  # noqa: F401  (shared with the test modules)
from pqh.model import ModelSpace, tensor
from pqh.subspace import Subspace


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
    rows = [(tensor((1, 0), f) + tensor((0, 1), g)).coords for f, g in pairs]
    return Subspace.span(rows, 4 * n)

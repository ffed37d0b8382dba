"""Records are values.

Every record type of ``pqh`` is a ``typing.NamedTuple`` or one of the three
slotted classes ``Operator``, ``HBasisChange`` and ``ModelSpace``, which
derive state when built.  For each type: assigning a field raises
``AttributeError``, two separately built equal instances are ``==`` with
equal hashes, and the repr is ``Name(field=value, ...)`` over the fields in
order (the oracle's findings carry an ``Operator``'s repr in their detail,
so that text reaches the CLI's output).
"""

from fractions import Fraction
from importlib import import_module

import pytest

from pqh.classify import (
    OracleFinding,
    _pure_part,
    classify,
    generic_decompose,
    is_para_quaternionic,
    oracle_check,
)
from pqh.generate import KINDS, generate
from pqh.linalg import Mat
from pqh.model import MAT_I, MAT_J, MAT_K, HBasisChange, ModelSpace, Operator, standardize
from pqh.rng import Rng
from pqh.subspace import SignatureTriple
from pqh.uft import decomposable_spectrum, decompose_form1, decompose_form2

MODULES = [import_module(f"pqh.{name}") for name in ("classify", "model", "subspace", "uft")]


def _is_record(cls) -> bool:
    return isinstance(cls, type) and isinstance(getattr(cls, "_fields", None), tuple)


# every record type the package defines, found by scanning its modules
RECORD_TYPES = {
    name: cls
    for module in MODULES
    for name, cls in vars(module).items()
    if _is_record(cls) and cls.__module__ == module.__name__ and cls._fields
}


def _collect(value, out: dict):
    """Every record reachable from ``value`` through fields and tuples, the
    first of each type kept."""
    if _is_record(type(value)) and type(value).__name__ in RECORD_TYPES:
        out.setdefault(type(value).__name__, value)
        value = [getattr(value, f) for f in value._fields]
    if isinstance(value, (tuple, list)):
        for item in value:
            _collect(item, out)


def build_records() -> dict:
    """One instance of every record type, each built afresh."""
    out = {}
    ms = ModelSpace.standard(2)
    _collect(
        [ms, Operator(1, Fraction(1, 2), 3), HBasisChange(Mat(((2, 1), (1, 1))))], out
    )
    _collect(standardize(MAT_I, MAT_J, MAT_K), out)
    for kind in KINDS:
        u = generate(Rng(0), 2, kind)
        report = classify(ms, u)
        _collect([report, is_para_quaternionic(ms, u), generic_decompose(u)], out)
        _collect(oracle_check(ms, report, u), out)
        _collect(ms.hermitian_product(u.basis[0], u.basis[-1]), out)
        if kind == "complex":  # a pure part with its integer data filled in
            _collect(_pure_part(ms, u, report.witnesses.complex), out)
        for decompose in (decompose_form1, decompose_form2, decomposable_spectrum):
            try:
                _collect(decompose(u), out)
            except ValueError:  # no form 1 on this U, or no finite spectrum
                pass
    return out


@pytest.fixture(scope="module")
def twins():
    return build_records(), build_records()


def test_every_record_type_is_covered(twins):
    assert len(RECORD_TYPES) == 25
    assert set(twins[0]) == set(RECORD_TYPES)


@pytest.mark.parametrize("name", sorted(RECORD_TYPES))
def test_records_are_immutable_values(twins, name):
    a, b = twins[0][name], twins[1][name]
    assert type(a) is RECORD_TYPES[name] and a is not b
    for field in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    assert a == b and not a != b
    # the hash of the field tuple; a record holding lists (the pure part's
    # integer rows) has none
    values = tuple(getattr(a, f) for f in a._fields)
    try:
        expected = hash(values)
    except TypeError:
        assert name == "_PurePart"
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected
    fields = ", ".join(f"{f}={getattr(a, f)!r}" for f in a._fields)
    assert repr(a) == f"{name}({fields})"


def test_pinned_reprs():
    op = Operator(1, 0, 0)
    assert repr(op) == "Operator(alpha=Fraction(1, 1), beta=Fraction(0, 1), gamma=Fraction(0, 1))"
    assert repr(SignatureTriple(1, 2, 3)) == "SignatureTriple(p=1, s=2, q=3)"
    finding = OracleFinding("real-no-sampled-violation", False, f"witness {op}")
    assert repr(finding) == (
        "OracleFinding(name='real-no-sampled-violation', ok=False, "
        "detail='witness Operator(alpha=Fraction(1, 1), beta=Fraction(0, 1), "
        "gamma=Fraction(0, 1))')"
    )

"""Instance files and canonical serialization.

One schema: a JSON object with n, omega_E (2n x 2n entries), vectors
(rows of length 4n in the fixed coordinate order) and an optional
h_basis, which :func:`parse_instance` reads and :func:`emit_instance`
never writes.  All entries are exact rationals written as "p" or "p/q" with
q > 0; decimal notation is rejected.  Emission is canonical (sorted
keys, lowest-terms strings), so identical data gives identical bytes.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .classify import ClassificationReport
from .linalg import Mat
from .model import HBasisChange, ModelSpace
from .subspace import Subspace

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")


class InstanceError(ValueError):
    """Malformed instance data (CLI exit code 2)."""


def parse_rational(s) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str) or not _RATIONAL_RE.fullmatch(s):
        raise InstanceError(f"not an exact rational: {s!r}")
    try:
        return Fraction(*map(int, s.split("/")))
    except ValueError:  # past the interpreter's limit on int-string conversion
        raise InstanceError(
            f"numeral longer than {sys.get_int_max_str_digits()} digits"
        ) from None


def _load_json(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or a numeral past the int-string limit
        raise InstanceError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise InstanceError("invalid JSON: nesting too deep") from None


def format_rational(x: Fraction) -> str:
    try:
        return str(x)
    except ValueError:  # past the interpreter's limit on int-string conversion
        raise InstanceError(
            f"result numeral longer than {sys.get_int_max_str_digits()} digits"
        ) from None


def _parse_matrix(data, nrows, ncols, what) -> Mat:
    if not isinstance(data, list) or len(data) != nrows:
        raise InstanceError(f"{what} must have {nrows} rows")
    rows = []
    for r in data:
        if not isinstance(r, list) or len(r) != ncols:
            raise InstanceError(f"{what} rows must have {ncols} entries")
        rows.append(tuple(parse_rational(x) for x in r))
    return Mat(rows, ncols=ncols)


def format_matrix(m: Mat):
    return [[format_rational(x) for x in row] for row in m.rows]


def parse_instance(text: str):
    """Parse an instance file.

    Returns (model space, subspace, optional h basis, warnings); raises
    InstanceError for malformed input and StructureError when omega_E is
    not symplectic or h_basis is not unimodular.
    """
    data = _load_json(text)
    if not isinstance(data, dict):
        raise InstanceError("instance must be a JSON object")
    unknown = set(data) - {"n", "omega_E", "vectors", "h_basis"}
    if unknown:
        raise InstanceError(f"unknown fields: {sorted(unknown)}")
    n = data.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InstanceError("n must be a positive integer")
    omega = _parse_matrix(data.get("omega_E"), 2 * n, 2 * n, "omega_E")
    ms = ModelSpace(n, omega)  # StructureError if not symplectic
    vectors = data.get("vectors", [])
    if not isinstance(vectors, list):
        raise InstanceError("vectors must be a list of rows")
    rows = []
    for r in vectors:
        if not isinstance(r, list) or len(r) != 4 * n:
            raise InstanceError(f"vector rows must have {4 * n} entries")
        rows.append(tuple(parse_rational(x) for x in r))
    u = Subspace.span(rows, 4 * n)
    warnings = []
    if u.dim < len(rows):
        warnings.append(
            f"{len(rows) - u.dim} dependent row(s) removed by canonicalization"
        )
    h_basis = None
    if "h_basis" in data:
        h_basis = HBasisChange(_parse_matrix(data["h_basis"], 2, 2, "h_basis"))
    return ms, u, h_basis, warnings


def read_text(path: str) -> str:
    """The UTF-8 text of an input file; an unreadable or undecodable file
    is malformed input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc


def load_instance(path: str):
    return parse_instance(read_text(path))


def emit_instance(ms: ModelSpace, u: Subspace) -> str:
    data = {
        "n": ms.n,
        "omega_E": format_matrix(ms.omega),
        "vectors": format_matrix(u.mat),
    }
    return canonical_json(data)


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def parse_structure_file(text: str):
    """Parse a standardization input: three square matrices I, J, K."""
    data = _load_json(text)
    if not isinstance(data, dict) or set(data) - {"I", "J", "K"}:
        raise InstanceError("structure file needs exactly the fields I, J, K")
    mats = []
    for key in ("I", "J", "K"):
        raw = data.get(key)
        if not isinstance(raw, list) or not raw:
            raise InstanceError(f"{key} must be a nonempty matrix")
        d = len(raw)
        mats.append(_parse_matrix(raw, d, d, key))
    if len({m.shape for m in mats}) != 1:
        raise InstanceError("I, J, K must have equal shapes")
    return tuple(mats)


# -- report serialization ------------------------------------------------------


def subspace_dict(u: Subspace):
    return {
        "ambient": u.ambient,
        "dim": u.dim,
        "basis": format_matrix(u.mat),
    }


def graph_dict(form):
    """The graph data {h_basis, F, T} of a ``UFTForm``."""
    return {
        "h_basis": format_matrix(form.h_basis.mat),
        "F": subspace_dict(form.f_space),
        "T": format_matrix(form.t_map),
    }


def piece_dict(piece):
    """The direction and space of a ``DecomposablePiece``."""
    return {
        "direction": [format_rational(x) for x in piece.direction],
        "F": subspace_dict(piece.e_space),
    }


def _operator_dict(op):
    return {
        "alpha": format_rational(op.alpha),
        "beta": format_rational(op.beta),
        "gamma": format_rational(op.gamma),
        "q": format_rational(op.q()),
    }


def report_to_dict(report: ClassificationReport):
    """Machine-readable form of a classification report."""
    out = {
        "n": report.n,
        "dim": report.dim,
        "signature": list(report.signature.as_tuple()),
        "flags": report.flags.as_dict(),
        "u0": subspace_dict(report.u0),
        "stabilizer": {
            "dim": report.stab.dim,
            "basis": format_matrix(report.stab.mat),
        },
        "witnesses": {
            kind: (_operator_dict(op) if op is not None else None)
            for kind, op in (
                ("complex", report.witnesses.complex),
                ("para_complex", report.witnesses.para_complex),
                ("nilpotent", report.witnesses.nilpotent),
            )
        },
    }
    out["uft"] = graph_dict(report.uft) if report.uft is not None else None
    if report.para_complex_report is not None:
        pc = report.para_complex_report
        out["para_complex_detail"] = {
            "d_plus": pc.d_plus,
            "d_minus": pc.d_minus,
            "m": pc.m_value,
        }
    if report.nilpotent_report is not None:
        nr = report.nilpotent_report
        out["nilpotent_detail"] = {
            "degree": nr.degree,
            "pq_dim": nr.pq_part.dim,
            "decomposable_dim": nr.decomposable_piece.e_space.dim,
            "real_dim": nr.real_part.dim,
            "p2_symplectic": nr.p2_symplectic,
            "nondegenerate_guaranteed": nr.nondegenerate_guaranteed,
        }
    return out
